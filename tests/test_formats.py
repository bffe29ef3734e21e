import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import (
    FactorSeq,
    GaussianRational,
    IntMatrix,
    ResourceLimitError,
    eval_map,
    format_complex,
    format_matrix_json,
    format_matrix_text,
    format_orbit_json,
    format_point,
    format_seq_json,
    format_seq_text,
    parse_complex,
    parse_matrix,
    parse_orbit,
    parse_point,
    parse_seq,
)
from katolab._limits import ENV_VAR, bit_cap
from katolab.cli import EXIT_BAD_INPUT, run

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
points = st.lists(gaussians, min_size=1, max_size=4).map(tuple)
square_int_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-99, 99), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(IntMatrix)
)


# -- matrices ------------------------------------------------------------------------


def test_matrix_text_frozen():
    assert parse_matrix("0,1;1,2").rows == ((0, 1), (1, 2))
    assert parse_matrix(" 0 , 1 ; 1 , 2 ").rows == ((0, 1), (1, 2))
    assert format_matrix_text(IntMatrix([[0, 1], [1, 2]])) == "0,1;1,2"


def test_matrix_json_frozen():
    m = parse_matrix('{"n": 2, "rows": [[0, 1], [1, 2]]}')
    assert m.rows == ((0, 1), (1, 2))
    assert format_matrix_json(m) == {"n": 2, "rows": [[0, 1], [1, 2]]}


@settings(max_examples=60, deadline=None)
@given(square_int_matrices)
def test_matrix_roundtrips(m):
    assert parse_matrix(format_matrix_text(m)) == m
    assert parse_matrix(json.dumps(format_matrix_json(m))) == m


def test_matrix_malformed():
    for bad in (
        "",
        "a,b;c,d",
        "1,2;3",
        "1.5,2;3,4",
        '{"rows": [[1]]}',
        '{"n": 2, "rows": [[1, 2]]}',
        '{"n": 1, "rows": [[true]]}',
        '{"n": "2", "rows": [[1, 2], [3, 4]]}',
        '{"n": 2, "rows": [[1, 2], [3, "4"]]}',
        "{not json",
    ):
        with pytest.raises(ValueError):
            parse_matrix(bad)


# -- sequences ------------------------------------------------------------------------


def test_seq_text_frozen():
    seq = parse_seq("n=3:[2,3]")
    assert seq == FactorSeq(3, (2, 3))
    assert parse_seq("n = 3 : [ 2 , 3 ]") == seq
    assert format_seq_text(seq) == "n=3:[2,3]"


def test_seq_json_frozen():
    seq = parse_seq('{"n": 3, "indices": [2, 3]}')
    assert seq == FactorSeq(3, (2, 3))
    assert format_seq_json(seq) == {"n": 3, "indices": [2, 3]}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=10)
        )
    )
)
def test_seq_roundtrips(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    assert parse_seq(format_seq_text(seq)) == seq
    assert parse_seq(json.dumps(format_seq_json(seq))) == seq


def test_seq_malformed():
    for bad in ("", "n=3:[]", "n=3:[0]", "n=3:[4]", "3:[1]", "n=3:(1,2)", '{"n": 3}'):
        with pytest.raises(ValueError):
            parse_seq(bad)


# -- complex values and points ------------------------------------------------------


def test_complex_frozen():
    assert parse_complex("1/2+0i") == GaussianRational(Fraction(1, 2))
    assert parse_complex("-3/4-2/5i") == GaussianRational(
        Fraction(-3, 4), Fraction(-2, 5)
    )
    assert parse_complex("2") == GaussianRational(2)
    assert parse_complex("2i") == GaussianRational(0, 2)
    assert parse_complex("i") == GaussianRational(0, 1)
    assert parse_complex("-i") == GaussianRational(0, -1)
    assert parse_complex("1/2+i") == GaussianRational(Fraction(1, 2), 1)
    assert parse_complex("1/2-i") == GaussianRational(Fraction(1, 2), -1)
    assert parse_complex(" 1/2 + 1/3 i ") == GaussianRational(
        Fraction(1, 2), Fraction(1, 3)
    )


def test_complex_format_signs():
    assert format_complex(GaussianRational(Fraction(1, 2))) == "1/2+0i"
    assert format_complex(GaussianRational(0, Fraction(-1, 3))) == "0-1/3i"
    assert format_complex(GaussianRational(-2, 5)) == "-2+5i"


@settings(max_examples=100, deadline=None)
@given(gaussians)
def test_complex_roundtrip(z):
    assert parse_complex(format_complex(z)) == z


def test_complex_malformed():
    for bad in ("", "one", "1/2+3", "1//2i", "2/0", "1/2 + 0j", "++2i", "1+2i3", "1e30000000+0i", "2e5i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_point_frozen():
    p = parse_point("1/2+0i;1/3+0i")
    assert p == (
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(1, 3)),
    )
    assert format_point(p) == "1/2+0i;1/3+0i"
    with pytest.raises(ValueError):
        parse_point("")


@settings(max_examples=60, deadline=None)
@given(points)
def test_point_roundtrip(p):
    assert parse_point(format_point(p)) == p


# -- orbits ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=0, max_size=4))
def test_orbit_roundtrip(orbit):
    dumped = json.dumps(format_orbit_json(orbit))
    assert parse_orbit(dumped) == list(orbit)


def test_orbit_frozen():
    dumped = format_orbit_json([(GaussianRational(1),), (GaussianRational(0, 1),)])
    assert dumped == {"orbit": [["1+0i"], ["0+1i"]]}
    with pytest.raises(ValueError):
        parse_orbit('{"points": []}')


NESTED = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_matrix, '{"n": %s}' % NESTED),
        (parse_matrix, '{"n": 1, "rows": %s}' % NESTED),
        (parse_seq, '{"n": 2, "indices": %s}' % NESTED),
        (parse_orbit, '{"orbit": %s}' % NESTED),
    ],
)
def test_parsers_refuse_deeply_nested_json(parse, text):
    with pytest.raises(ValueError, match="nested too deeply"):
        parse(text)


def test_malformed_json_keeps_its_decode_error():
    with pytest.raises(json.JSONDecodeError):
        parse_matrix('{"n": 2,')


# -- the digit cap on parsed points ------------------------------------------------------


def test_point_parsers_apply_the_digit_cap(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "12")
    assert parse_point("1/1000000000000+0i") == (GaussianRational(Fraction(1, 10**12)),)
    for text in ("1/10000000000000+0i", "0+99999999999999i", "1/3+2/" + "7" * 20 + "i"):
        with pytest.raises(ResourceLimitError, match="12 decimal digits"):
            parse_point(text)
        with pytest.raises(ResourceLimitError, match=ENV_VAR):
            parse_orbit(json.dumps({"orbit": [[text]]}))


def test_points_past_the_conversion_limit_format_and_parse_back():
    # six steps of the germ of (1,2;2,5) from (1/2, 1/3) leave parts of more
    # than 4300 digits, Python's default int-to-str limit
    a = IntMatrix([[1, 2], [2, 5]])
    z = parse_point("1/2+0i;1/3+0i")
    for _ in range(6):
        z = eval_map(a, z)
    limit = sys.get_int_max_str_digits()
    text = format_point(z)
    assert sys.get_int_max_str_digits() == limit
    assert max(map(len, text.split("/"))) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert parse_point(text) == z
    finally:
        sys.set_int_max_str_digits(limit)


# -- every wire format just under and just over a small digit cap --------------------------

SMALL_CAP = {ENV_VAR: "6"}
with mock.patch.dict(os.environ, SMALL_CAP):
    BOUND = 1 << bit_cap()  # the least magnitude the guard refuses under SMALL_CAP

near_cap = st.integers(BOUND - 40, BOUND + 40)
magnitudes = st.one_of(st.integers(0, 60), near_cap, st.integers(BOUND, 100 * BOUND))
entries = st.one_of(magnitudes, magnitudes.map(lambda x: -x))
cap_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(IntMatrix)
)
cap_words = st.one_of(st.integers(2, 60), near_cap).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.one_of(st.integers(1, min(n, 60)), st.integers(max(1, n - 40), n)), min_size=1, max_size=4),
    )
)
cap_rationals = st.builds(Fraction, entries, st.one_of(st.integers(1, 60), near_cap))
cap_points = st.lists(st.builds(GaussianRational, cap_rationals, cap_rationals), min_size=1, max_size=3).map(tuple)


def _over(values) -> bool:
    return max(map(abs, values)) >= BOUND


def _point_over(z) -> bool:
    return _over(x for c in z for q in (c.re, c.im) for x in (q.numerator, q.denominator))


def _check_at_cap(parse, text: str, value, over: bool, argv: tuple, stdin: str = "") -> None:
    """Under the cap ``text`` parses back to ``value``; over it the parser and
    the command ``argv`` (reading ``stdin``) refuse it, naming the cap."""
    with mock.patch.dict(os.environ, SMALL_CAP):
        if not over:
            assert parse(text) == value
            return
        with pytest.raises(ResourceLimitError, match=ENV_VAR):
            parse(text)
        err = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(list(argv)) == EXIT_BAD_INPUT
        assert ENV_VAR in err.getvalue()


@settings(max_examples=80, deadline=None)
@given(cap_matrices)
def test_matrix_formats_at_the_cap(m):
    over = _over(x for row in m.rows for x in row)
    for text in (format_matrix_text(m), json.dumps(format_matrix_json(m))):
        _check_at_cap(parse_matrix, text, m, over, ("factor", "-"), stdin=text)


@settings(max_examples=80, deadline=None)
@given(cap_words)
def test_word_formats_at_the_cap(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    for text in (format_seq_text(seq), json.dumps(format_seq_json(seq))):
        _check_at_cap(parse_seq, text, seq, _over(args[1] + [n]), ("compose", "-"), stdin=text)


@settings(max_examples=80, deadline=None)
@given(cap_points)
def test_point_format_at_the_cap(z):
    text = format_point(z)
    _check_at_cap(parse_point, text, z, _point_over(z), ("dynamics", "1,2;2,5", f"--point={text}"))


@settings(max_examples=60, deadline=None)
@given(st.lists(cap_points, min_size=1, max_size=3))
def test_orbit_format_at_the_cap(orbit):
    over = any(map(_point_over, orbit))
    text = json.dumps(format_orbit_json(orbit))
    _check_at_cap(parse_orbit, text, orbit, over, ("dynamics", "1,2;2,5", f"--point={text}"))
