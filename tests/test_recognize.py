"""Recognize once, eliminate exactly: one factorization per report, integer
elimination against a plain Fraction reference, and reports that stay
byte-for-byte what they were before the refactor."""

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
    NotKato,
    Recognized,
    build_report,
    compose_factors,
    lattice_index,
    recognize,
    standard_form,
)

from conftest import random_factor_seq

GOLDEN = Path(__file__).parent / "data" / "golden_reports.jsonl"
GOLDEN_WORDS = 300
# Upper bound on the Perron root of the positive block power: words above it
# come near the zone where the float iteration stops converging.
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


def test_one_factorization_per_report(monkeypatch):
    calls = []
    original = katolab.words.factorize

    def counting(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name == "katolab" or name.startswith("katolab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    rng = random.Random(5)
    for _ in range(40):
        a = compose_factors(random_factor_seq(rng, n_range=(2, 5), k_range=(1, 6)))
        calls.clear()
        build_report(a)
        assert calls == [a]


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
    """Largest row sum of the first strictly positive power of the lower block.

    It bounds the Perron root of that power from above; computed with plain
    lists so the filter does not lean on the code under test.
    """
    rows = compose_factors(seq).to_rows()
    l = min(seq.indices) - 1
    b = [r[l:] for r in rows[l:]]
    power = b
    while not all(x > 0 for r in power for x in r):
        power = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in power]
    return max(sum(r) for r in power)


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


def report_line(seq: FactorSeq) -> str:
    """One report as ``invariants --batch`` prints it."""
    record = build_report(compose_factors(seq)).to_json()
    return json.dumps(record, ensure_ascii=True, separators=(",", ":"))


def test_reports_match_golden_output():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    words = golden_words()
    assert len(expected) == len(words)
    for seq, want in zip(words, expected):
        assert report_line(seq) == want, f"report of {seq} changed"
