"""Recognize once, eliminate exactly: one factorization per report or verify
run and none for a recognized matrix, integer elimination against a plain
Fraction reference, and reports that stay byte-for-byte what they were before
the refactor (the Perron root within 1e-9 relative)."""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import katolab
from katolab import (
    FactorSeq,
    IntMatrix,
    LatticeBasis,
    NotAProduct,
    NotKato,
    Recognized,
    alg_dim,
    as_point,
    build_report,
    canonical_descriptor,
    certify_ball12_contraction,
    compose_factors,
    erase_index,
    eval_inverse,
    format_matrix_text,
    fundamental_domain_membership,
    hol_vf_dimension,
    invariant_monomials,
    lattice_index,
    one_form_nullity,
    perron_data,
    positivity_power,
    recognize,
    stable_membership,
    standard_field_generators,
    standard_form,
    theta_lattice,
    type_of,
)
from katolab.cli import run

from conftest import positive_block_power, random_factor_seq

GOLDEN = Path(__file__).parent / "data" / "golden_reports.jsonl"
GOLDEN_WORDS = 300
# Upper bound on the Perron root of the positive block power.  The golden file
# was recorded with this filter, which kept out the words on which the former
# float residual iteration could fail to converge.
PERRON_ROW_SUM_BOUND = 50_000


# -- Fraction references ------------------------------------------------------------


def reference_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan on Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_coordinates(basis, target):
    """Solve ``x . basis == target`` over Q; None outside the span."""
    m, n = len(basis), len(target)
    aug = [[Fraction(basis[i][j]) for i in range(m)] + [Fraction(target[j])] for j in range(n)]
    pivots, r = [], 0
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][m] for i in range(r, n)):
        return None
    x = [Fraction(0)] * m
    for row, c in enumerate(pivots):
        x[c] = aug[row][m]
    return x


def reference_index(sub: LatticeBasis, sup: LatticeBasis):
    """``[sup : sub]`` from rational coordinates; ValueError when not nested."""
    coords = [reference_coordinates(sup.rows, v) for v in sub.rows]
    if any(x is None for x in coords) or any(c.denominator != 1 for x in coords for c in x):
        raise ValueError("not a sublattice")
    if sub.rank < sup.rank:
        return math.inf
    if sup.rank == 0:
        return 1
    return abs(IntMatrix([[int(c) for c in x] for x in coords]).det())


# -- one recognition per report -------------------------------------------------------


def test_recognize_holds_word_and_form():
    a = compose_factors(FactorSeq(3, (2, 3)))
    rec = recognize(a)
    assert isinstance(rec, Recognized)
    assert rec.matrix == a and rec.word == FactorSeq(3, (2, 3))
    assert rec.form == standard_form(a) and rec.l == 1
    with pytest.raises(NotKato):
        recognize(compose_factors(FactorSeq(3, (3, 3))))
    with pytest.raises(AttributeError):
        rec.matrix = a


def count_calls(monkeypatch, original) -> list:
    """Wrap the one-argument function ``original`` in every katolab namespace;
    returns the list of its arguments."""
    calls = []

    def counting(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name == "katolab" or name.startswith("katolab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_one_factorization_per_report(monkeypatch):
    calls = count_calls(monkeypatch, katolab.words.factorize)
    rng = random.Random(5)
    for _ in range(40):
        a = compose_factors(random_factor_seq(rng, n_range=(2, 5), k_range=(1, 6)))
        calls.clear()
        build_report(a)
        assert calls == [a]


def test_one_fixed_lattice_per_report(monkeypatch):
    """``K_B`` is read off ``K_A``, so a report computes one fixed lattice."""
    calls = count_calls(monkeypatch, katolab.intmat.left_fixed_lattice)
    rng = random.Random(5)
    for _ in range(40):
        a = compose_factors(random_factor_seq(rng, n_range=(2, 5), k_range=(1, 6)))
        calls.clear()
        build_report(a)
        assert calls == [a]


def test_one_factorization_per_verify(monkeypatch, capsys):
    calls = count_calls(monkeypatch, katolab.words.factorize)
    for seq in (FactorSeq(3, (2, 3, 3)), FactorSeq(3, (1, 2, 3, 1, 2, 3)), FactorSeq(3, (2, 3, 2, 3))):
        a = compose_factors(seq)
        calls.clear()
        assert run(["verify", format_matrix_text(a), "--check", "all", "--degree", "3"]) == 0
        assert calls == [a], capsys.readouterr().out


# Type 1 with a positive lower block, so that every Kato-only function applies.
A2323 = compose_factors(FactorSeq(3, (2, 3, 2, 3)))
Z = as_point([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])

KATO_ONLY = {
    "eval_inverse": lambda a: eval_inverse(a, Z),
    "stable_membership": lambda a: stable_membership(a, Z),
    "fundamental_domain_membership": lambda a: fundamental_domain_membership(a, Z),
    "certify_ball12_contraction": lambda a: certify_ball12_contraction(a, samples=8),
    "perron_data": perron_data,
    "standard_field_generators": standard_field_generators,
    "one_form_nullity": lambda a: one_form_nullity(a, 2),
    "hol_vf_dimension": hol_vf_dimension,
    "alg_dim": alg_dim,
    "canonical_descriptor": canonical_descriptor,
    "theta_lattice": theta_lattice,
    "invariant_monomials": invariant_monomials,
    "build_report": build_report,
    "type_of": type_of,
    "standard_form": standard_form,
    "positivity_power": positivity_power,
}


@pytest.mark.parametrize("name", KATO_ONLY)
def test_kato_only_functions_take_a_recognized_matrix(monkeypatch, name):
    """One factorization for a matrix, none for a recognized one, same result."""
    f = KATO_ONLY[name]
    calls = count_calls(monkeypatch, katolab.words.factorize)
    from_matrix = f(A2323)
    assert calls == [A2323]
    rec = recognize(A2323)
    calls.clear()
    assert f(rec) == from_matrix
    assert calls == []


@pytest.mark.parametrize("name", KATO_ONLY)
def test_kato_only_functions_refuse_other_matrices(name):
    with pytest.raises(NotAProduct):
        KATO_ONLY[name](IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotKato):
        KATO_ONLY[name](compose_factors(FactorSeq(3, (3, 3))))


def test_erase_index_takes_a_recognized_matrix(monkeypatch):
    calls = count_calls(monkeypatch, katolab.words.factorize)
    out = erase_index(A2323, 1)
    assert calls == [A2323]  # the result is checked by composing its word
    rec = recognize(A2323)
    calls.clear()
    assert erase_index(rec, 1) == out
    assert calls == []


def test_derived_values_are_computed_once_per_handle(monkeypatch):
    calls = []
    original = IntMatrix.inverse_unimodular

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(IntMatrix, "inverse_unimodular", counting)
    rec = recognize(A2323)
    z = Z
    for _ in range(3):
        z = eval_inverse(rec, z)
        fundamental_domain_membership(rec, z)
    assert calls == [A2323]
    assert rec.inverse * A2323 == IntMatrix.identity(3)


# -- integer elimination against the Fraction reference --------------------------------

small_rect = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=200, deadline=None)
@given(small_rect)
def test_rank_matches_fraction_reference(rows):
    assert IntMatrix(rows).rank() == reference_rank(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=10))))
def test_inverse_unimodular_of_words(args):
    n, indices = args
    a = compose_factors(FactorSeq(n, tuple(indices)))
    inv = a.inverse_unimodular()
    assert inv * a == IntMatrix.identity(n) == a * inv


def _lattice(n, rows) -> LatticeBasis:
    return LatticeBasis.from_rows(n, rows)


nested = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=0, max_size=n),
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=0, max_size=n + 1),
    )
)


@settings(max_examples=200, deadline=None)
@given(nested)
def test_lattice_index_matches_fraction_reference(args):
    """Sub-lattices drawn as integer combinations of ``sup`` (nested, finite or
    infinite index) and, swapped, as super-lattices (usually not nested)."""
    n, sup_rows, mix = args
    sup = _lattice(n, sup_rows)
    sub = _lattice(n, [[sum(c * r[j] for c, r in zip(coeffs, sup.rows)) for j in range(n)] for coeffs in mix])
    for small, big in ((sub, sup), (sup, sub)):
        try:
            want = reference_index(small, big)
        except ValueError:
            with pytest.raises(ValueError):
                lattice_index(small, big)
            continue
        assert lattice_index(small, big) == want


def test_lattice_index_reference_cases():
    z2 = _lattice(2, [(1, 0), (0, 1)])
    skew = _lattice(2, [(3, 1), (1, 2)])
    assert lattice_index(skew, z2) == reference_index(skew, z2) == 5
    assert lattice_index(_lattice(2, [(2, 2)]), z2) == math.inf
    with pytest.raises(ValueError, match="rational span"):
        lattice_index(z2, _lattice(2, [(1, 1)]))
    with pytest.raises(ValueError, match="non-integer"):
        lattice_index(z2, _lattice(2, [(2, 0), (0, 1)]))
    with pytest.raises(ValueError):
        lattice_index(z2, _lattice(3, [(1, 0, 0)]))


# -- golden reports ------------------------------------------------------------------------


def _perron_row_sum(seq: FactorSeq) -> int:
    """Largest row sum of the first strictly positive power of the lower block,
    an upper bound on the Perron root of that power."""
    return max(sum(r) for r in positive_block_power(seq))


def golden_words() -> list[FactorSeq]:
    """300 Kato words, n 2-6 and k 1-12 drawn with ``random.Random(1)``,
    keeping those below the Perron row-sum bound."""
    rng = random.Random(1)
    words: list[FactorSeq] = []
    while len(words) < GOLDEN_WORDS:
        seq = random_factor_seq(rng)
        if _perron_row_sum(seq) < PERRON_ROW_SUM_BOUND:
            words.append(seq)
    return words


def report_line(record: dict) -> str:
    """One report as ``invariants --batch`` prints it."""
    return json.dumps(record, ensure_ascii=True, separators=(",", ":"))


def test_reports_match_golden_output():
    """Every report matches its recorded line byte for byte, apart from
    ``perron_alpha``.  The recorded root came from a float iteration stopped on
    a residual; today's is the midpoint of an exact enclosure, so it must lie
    within 1e-9 relative of the recorded value and inside its own enclosure."""
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    words = golden_words()
    assert len(expected) == len(words)
    for seq, want in zip(words, expected):
        a = compose_factors(seq)
        record = build_report(a).to_json()
        golden_alpha = json.loads(want)["perron_alpha"]
        alpha = record["perron_alpha"]
        lo, hi = perron_data(a).enclosure
        assert abs(alpha - golden_alpha) <= 1e-9 * golden_alpha, f"perron_alpha of {seq} moved"
        assert lo <= Fraction(alpha) <= hi, f"perron_alpha of {seq} is outside its enclosure"
        record["perron_alpha"] = golden_alpha
        assert report_line(record) == want, f"report of {seq} changed"
