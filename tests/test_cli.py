import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from katolab import FactorSeq, compose_factors, format_matrix_text, parse_seq
from katolab.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_NOT_KATO,
    EXIT_OK,
    run,
)

A23_TEXT = "1,0,2;0,0,1;0,1,2"
NESTED = "[" * 5000 + "]" * 5000  # deeper than the interpreter's recursion limit
SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- factor / compose --------------------------------------------------------------


def test_factor_inline(capsys):
    code, out, err = invoke(capsys, "factor", "0,1;1,2")
    assert code == EXIT_OK
    assert out.strip() == "n=2:[1,2]"


def test_factor_not_a_product(capsys):
    code, out, err = invoke(capsys, "factor", "2,0;0,1")
    assert code == EXIT_NOT_KATO
    assert "NotAProduct" in err


def test_factor_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "factor", A23_TEXT, "--format", "json")
    assert code == EXIT_OK
    assert parse_seq(out.strip()) == FactorSeq(3, (2, 3))


def test_compose_factor_inverse(capsys):
    code, out, _ = invoke(capsys, "compose", "n=3:[2,3]")
    assert code == EXIT_OK
    assert out.strip() == A23_TEXT
    code, out, _ = invoke(capsys, "factor", out.strip())
    assert out.strip() == "n=3:[2,3]"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1;1,2"))
    code, out, _ = invoke(capsys, "factor", "-")
    assert code == EXIT_OK and out.strip() == "n=2:[1,2]"


def test_file_input(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0,1;1,2")
    code, out, _ = invoke(capsys, "factor", "--file", str(path))
    assert code == EXIT_OK and out.strip() == "n=2:[1,2]"


def test_input_source_exclusivity(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0,1;1,2")
    code, _, err = invoke(capsys, "factor", "0,1;1,2", "--file", str(path))
    assert code == EXIT_BAD_INPUT and "not both" in err
    code, _, err = invoke(capsys, "factor")
    assert code == EXIT_BAD_INPUT and "no input" in err


def test_invalid_entries(capsys):
    code, _, err = invoke(capsys, "factor", "0,a;1,2")
    assert code == EXIT_BAD_INPUT
    code, _, err = invoke(capsys, "bogus")
    assert code == EXIT_BAD_INPUT
    code, _, _ = invoke(capsys, "--help")
    assert code == EXIT_OK


def test_digit_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "2")
    code, _, err = invoke(capsys, "factor", "100,1;1,2")
    assert code == EXIT_BAD_INPUT
    assert "KATOLAB_DIGIT_CAP" in err


def test_word_longer_than_the_cap_is_refused(capsys, monkeypatch):
    # "1,N;0,1" is the pure power E_2^N: its word has N factors.
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "50")
    code, _, err = invoke(capsys, "factor", "1,1000;0,1")
    assert code == EXIT_BAD_INPUT
    assert "50 decimal digits" in err and "KATOLAB_DIGIT_CAP" in err
    code, out, _ = invoke(capsys, "factor", "1,50;0,1")
    assert code == EXIT_OK
    assert out.strip() == "n=2:[" + ",".join(["2"] * 50) + "]"


def test_long_word_is_refused_without_peeling_it_all(monkeypatch):
    monkeypatch.delenv("KATOLAB_DIGIT_CAP", raising=False)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "katolab", "invariants", "1,100000000000;0,1"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert "KATOLAB_DIGIT_CAP" in proc.stderr


def test_compose_refuses_a_dimension_past_the_cap(capsys, monkeypatch):
    monkeypatch.delenv("KATOLAB_DIGIT_CAP", raising=False)
    code, _, err = invoke(capsys, "compose", "n=100000:[1]")
    assert code == EXIT_BAD_INPUT
    assert "100000 decimal digits" in err and "KATOLAB_DIGIT_CAP" in err
    code, out, _ = invoke(capsys, "compose", "n=316:[1,2]")  # 316**2 entries, just under the cap
    assert code == EXIT_OK
    assert out.count(";") == 315


# -- integers longer than Python's default 4300-digit str conversion limit ----------


def test_orbit_prints_integers_past_the_str_limit(capsys, monkeypatch):
    monkeypatch.delenv("KATOLAB_DIGIT_CAP", raising=False)
    before = sys.get_int_max_str_digits()
    code, out, err = invoke(
        capsys, "dynamics", "1,2;2,5", "--action", "orbit", "--point", "10+0i;10+0i", "--steps", "5"
    )
    assert code == EXIT_OK, err
    assert max(map(len, re.findall(r"[0-9]+", out))) > 4300
    assert sys.get_int_max_str_digits() == before


def test_long_entry_parses_under_the_default_cap(capsys, monkeypatch):
    monkeypatch.delenv("KATOLAB_DIGIT_CAP", raising=False)
    big = "1" + "0" * 5000
    code, _, err = invoke(capsys, "factor", f"{big},0;0,1")
    assert code == EXIT_NOT_KATO and "unimodular" in err  # read in full, then recognized
    code, out, _ = invoke(capsys, "dynamics", "1,2;2,5", "--point", f"{big}+0i;1+0i")
    assert code == EXIT_OK and big in out


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "1234567890123,0;0,1"),
        ("factor", "9" * 5000 + ",0;0,1"),
        ("factor", '{"n":2,"rows":[[' + "9" * 5000 + ",0],[0,1]]}"),
        ("dynamics", "1,2;2,5", "--point", "1/10000000000000+0i;1+0i"),
        ("dynamics", "1,2;2,5", "--point", "9" * 5000 + "+0i;1+0i"),
        ("dynamics", "1,2;2,5", "--point", '{"orbit":[["1+' + "9" * 5000 + 'i","1+0i"]]}'),
        ("compose", "n=99999999999999999999:[1]"),
        ("compose", "n=9999999999999:[1]"),
        ("compose", '{"n":99999999999999999999,"indices":[1]}'),
    ],
)
def test_number_over_the_cap_names_it(capsys, monkeypatch, argv):
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "12")
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert "12 decimal digits" in err and "KATOLAB_DIGIT_CAP" in err


# -- invariants ---------------------------------------------------------------------


def test_invariants_json(capsys):
    code, out, _ = invoke(capsys, "invariants", A23_TEXT, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["k"] == 2 and data["l"] == 1 and data["euler"] == 4
    assert data["pi1_M"] == "Z"


def test_invariants_text(capsys):
    code, out, _ = invoke(capsys, "invariants", A23_TEXT)
    assert code == EXIT_OK
    assert "euler: 4" in out
    assert "kodaira: -infinity" in out


def test_invariants_rejects_pure_power(capsys):
    a = compose_factors(FactorSeq(3, (3, 3)))
    code, _, err = invoke(capsys, "invariants", format_matrix_text(a))
    assert code == EXIT_NOT_KATO
    assert "NotKato" in err


def test_invariants_deterministic(capsys):
    _, out1, _ = invoke(capsys, "invariants", A23_TEXT, "--format", "json")
    _, out2, _ = invoke(capsys, "invariants", A23_TEXT, "--format", "json")
    assert out1 == out2


def test_batch(capsys, tmp_path):
    path = tmp_path / "batch.ndjson"
    path.write_text("0,1;1,2\n\nnonsense\n2,0;0,1\n" + A23_TEXT + "\n")
    code, out, _ = invoke(capsys, "invariants", "--batch", str(path))
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 4
    assert records[0]["n"] == 2
    assert records[1]["error"]["type"] == "ValueError"
    assert records[2]["error"]["type"] == "NotAProduct"
    assert records[3]["euler"] == 4


def test_batch_survives_a_deeply_nested_line(capsys, tmp_path):
    path = tmp_path / "batch.ndjson"
    path.write_text("0,1;1,2\n" + '{"n": ' + NESTED + "}\n" + A23_TEXT + "\n")
    code, out, _ = invoke(capsys, "invariants", "--batch", str(path))
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert records[0]["n"] == 2
    assert records[1]["error"] == {"type": "ValueError", "message": "JSON input is nested too deeply"}
    assert records[2]["euler"] == 4


def test_batch_empty_and_missing(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = invoke(capsys, "invariants", "--batch", str(empty))
    assert code == EXIT_OK and out == ""
    code, _, err = invoke(capsys, "invariants", "--batch", str(tmp_path / "nope.txt"))
    assert code == EXIT_BAD_INPUT


def test_batch_excludes_other_sources(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0,1;1,2\n")
    code, _, err = invoke(capsys, "invariants", A23_TEXT, "--batch", str(path))
    assert code == EXIT_BAD_INPUT


# -- dynamics -----------------------------------------------------------------------


def test_dynamics_map_and_inverse(capsys):
    code, out, _ = invoke(
        capsys, "dynamics", "1,2;2,5", "--action", "map", "--point", "2+0i;1/3+0i"
    )
    assert code == EXIT_OK and out.strip() == "2/9+0i;4/243+0i"
    code, out, _ = invoke(
        capsys, "dynamics", "0,1;1,2", "--action", "inverse", "--point", "4+0i;2+0i"
    )
    assert code == EXIT_OK and out.strip() == "1/8+0i;4+0i"


def test_dynamics_orbit_and_feedback(capsys):
    code, out, _ = invoke(
        capsys,
        "dynamics", "1,2;2,5",
        "--action", "orbit",
        "--point", "2+0i;1/3+0i",
        "--steps", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    orbit = json.loads(out)["orbit"]
    assert len(orbit) == 3
    assert orbit[1] == ["2/9+0i", "4/243+0i"]
    # an orbit dump can seed the next call: its last point is used
    code, out2, _ = invoke(
        capsys, "dynamics", "1,2;2,5", "--action", "map", "--point", json.dumps({"orbit": orbit[:2]})
    )
    assert code == EXIT_OK
    assert out2.strip() == ";".join(orbit[2])


def test_dynamics_membership_and_domain(capsys):
    code, out, _ = invoke(
        capsys,
        "dynamics", "1,2;2,5",
        "--action", "membership",
        "--point", "2+0i;1/3+0i",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"status": "in", "iterations": 1}
    code, out, _ = invoke(
        capsys, "dynamics", "1,2;2,5", "--action", "domain", "--point", "1/2+0i;1/3+0i"
    )
    assert code == EXIT_OK and out.strip() == "true"


def test_dynamics_membership_undetermined(capsys):
    code, out, _ = invoke(
        capsys,
        "dynamics", "1,2;2,5",
        "--action", "membership",
        "--point", "2+0i;3+0i",
        "--max-iter", "4",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"status": "undetermined"}


def test_dynamics_perron(capsys):
    code, out, _ = invoke(capsys, "dynamics", "1,2;2,5", "--action", "perron", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["alpha"] - 5.828427124746190) < 1e-9
    assert data["surd"] == "3 + 2*sqrt(2)"
    lo, hi = (Fraction(x) for x in data["enclosure"])
    assert lo <= Fraction(data["alpha"]) <= hi and hi - lo <= Fraction(1e-10) * lo


def test_dynamics_perron_tolerance_beyond_float64(capsys):
    code, _, err = invoke(capsys, "dynamics", "1,2;2,5", "--action", "perron", "--tol", "1e-30")
    assert code == EXIT_BAD_INPUT and "1e-30" in err


def test_invariants_large_perron_root(capsys):
    """A valid 6x6 Kato matrix whose block power has a root near 9.3e5; the
    former float residual iteration gave up on it."""
    code, out, _ = invoke(
        capsys,
        "invariants",
        "0,0,0,4,12,33;1,0,0,8,24,67;0,0,0,7,20,55;0,0,0,6,17,47;0,1,0,8,24,67;0,0,1,8,24,67",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    assert 97.46413065288233 <= json.loads(out)["perron_alpha"] <= 97.464130652885


def test_dynamics_point_with_exponent_is_refused(capsys):
    code, _, err = invoke(capsys, "dynamics", "1,2;2,5", "--action", "map", "--point", "1e30000000+0i;1+0i")
    assert code == EXIT_BAD_INPUT and "not a complex rational" in err


@pytest.mark.parametrize("dump", ['{"orbit": 5}', '{"orbit": [[5]]}'])
def test_malformed_orbit_dump_is_refused(capsys, dump):
    code, _, err = invoke(capsys, "dynamics", "1,2;2,5", "--point", dump)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("factor", '{"n": 1, "rows": [[%s]]}' % ("[" * 400 + "]" * 400)), "not an integer entry"),
        (("factor", "1," + "x" * 5000 + ";0,1"), "not an integer entry"),
        (("compose", "n=3:[" + "x" * 5000 + "]"), "not a factor sequence"),
        (("dynamics", "1,2;2,5", "--action", "map", "--point", "x" * 5000 + "+0i;1+0i"), "not a complex rational"),
        (("dynamics", "1,2;2,5", "--action", "map", "--point", "1e" + "x" * 5000 + ";1+0i"), "not a complex rational"),
    ],
)
def test_error_line_echoes_a_bounded_part_of_the_input(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == ""
    assert err.startswith(f"error: {message}") and err.endswith("…\n") and len(err) < 120


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", '{"n": ' + NESTED + "}"),
        ("compose", '{"n": 2, "indices": ' + NESTED + "}"),
        ("dynamics", "1,2;2,5", "--point", '{"orbit": ' + NESTED + "}"),
    ],
)
def test_deeply_nested_json_is_refused(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == "error: JSON input is nested too deeply\n"


def test_dynamics_certify12(capsys):
    code, out, _ = invoke(
        capsys, "dynamics", "0,1;1,2", "--action", "certify12", "--samples", "32", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


def test_dynamics_point_required(capsys):
    code, _, err = invoke(capsys, "dynamics", "1,2;2,5", "--action", "map")
    assert code == EXIT_BAD_INPUT and "--point" in err


def test_dynamics_zero_coordinate_inverse(capsys):
    code, _, err = invoke(
        capsys, "dynamics", "1,2;2,5", "--action", "inverse", "--point", "1+0i;0+0i"
    )
    assert code == EXIT_BAD_INPUT


# -- verify -------------------------------------------------------------------------


def test_verify_all_passes(capsys):
    a = compose_factors(FactorSeq(3, (2, 3))) ** 2
    code, out, _ = invoke(
        capsys, "verify", format_matrix_text(a), "--degree", "3", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    by_name = {r["check"]: r for r in data["checks"]}
    assert by_name["j0"]["status"] == "pass"
    assert by_name["generators"]["status"] == "pass"
    assert by_name["tangent-nullity"]["status"] == "skipped"
    assert by_name["oneform-nullity"]["status"] == "pass"


def test_verify_single_check_and_skip(capsys):
    code, out, _ = invoke(
        capsys, "verify", "1,2;2,5", "--check", "tangent-nullity", "--degree", "4"
    )
    assert code == EXIT_OK
    assert "tangent-nullity: pass" in out
    code, out, _ = invoke(capsys, "verify", "1,2;2,5", "--check", "j0")
    assert code == EXIT_OK
    assert "skipped" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    import katolab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "tangent_field_nullity", lambda a, d: 99)
    code, out, _ = invoke(
        capsys, "verify", "1,2;2,5", "--check", "tangent-nullity", "--format", "json"
    )
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("dynamics", "1,2;2,5", "--action", "certify12", "--samples", "-3"),
        ("dynamics", "1,2;2,5", "--action", "certify12", "--samples", "0"),
        ("dynamics", "1,2;2,5", "--action", "membership", "--point", "2+0i;3+0i", "--max-iter", "-3"),
        ("verify", "1,2;2,5", "--degree", "-1", "--check", "j0"),
        ("verify", "2,0;0,1", "--degree", "-1"),
    ],
)
def test_meaningless_counts_are_refused(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == ""
    assert re.search(r"(samples|max_iter|--degree) must be >= [01]", err)


def test_verify_rejects_non_product(capsys):
    code, _, err = invoke(capsys, "verify", "2,0;0,1")
    assert code == EXIT_NOT_KATO
