import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import IntMatrix, SparseLaurentPoly, eval_map, iter_monomials
from katolab.gaussrat import GaussianRational, as_point


def _poly(nvars, terms):
    p = SparseLaurentPoly.zero(nvars)
    for exps, coeff in terms.items():
        p = p + SparseLaurentPoly.monomial(exps, coeff)
    return p


small_polys = st.integers(2, 3).flatmap(
    lambda n: st.dictionaries(
        st.tuples(*([st.integers(-2, 3)] * n)),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        max_size=5,
    ).map(lambda d: _poly(n, d))
)


def test_construction_and_pruning():
    z = SparseLaurentPoly.zero(2)
    assert z.is_zero and z.terms == {}
    v = SparseLaurentPoly.variable(3, 2)
    assert v.terms == {(0, 1, 0): Fraction(1)}
    m = SparseLaurentPoly.monomial((1, -2), Fraction(5))
    assert not m.is_polynomial
    assert (m - m).is_zero
    assert SparseLaurentPoly.monomial((1, 0), 0).is_zero
    assert repr(m) == "SparseLaurentPoly(2, {(1, -2): Fraction(5, 1)})"
    with pytest.raises(ValueError):
        SparseLaurentPoly.variable(2, 3)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(p, q, r):
    if p.nvars != q.nvars or q.nvars != r.nvars:
        return
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == SparseLaurentPoly.zero(p.nvars)
    assert p * Fraction(0) == SparseLaurentPoly.zero(p.nvars)


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        SparseLaurentPoly.zero(2) + SparseLaurentPoly.zero(3)


def _eval(p: SparseLaurentPoly, z) -> GaussianRational:
    total = GaussianRational(0)
    for exps, coeff in p.terms.items():
        term = GaussianRational(coeff)
        for c, e in zip(z, exps):
            term = term * c**e
        total = total + term
    return total


def test_substitute_map_matches_evaluation():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = IntMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        p = _poly(
            n,
            {
                tuple(rng.randint(-1, 2) for _ in range(n)): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(4)
            },
        )
        z = as_point(
            [(Fraction(rng.randint(1, 5), 3), Fraction(rng.randint(-2, 2), 7)) for _ in range(n)]
        )
        # composing with the germ of a equals exponent transport along a
        assert _eval(p.substitute_map(a), z) == _eval(p, eval_map(a, z))


def test_substitute_map_composes():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[2, 0], [1, 1]])
    p = _poly(2, {(1, 2): Fraction(3), (-1, 0): Fraction(1, 2)})
    assert p.substitute_map(a).substitute_map(b) == p.substitute_map(a * b)


def test_iter_monomials_counts_and_order():
    mons = list(iter_monomials(2, 2))
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for nvars in (1, 2, 3):
        for d in (0, 1, 2, 3):
            got = list(iter_monomials(nvars, d))
            expected = sum(math.comb(t + nvars - 1, nvars - 1) for t in range(d + 1))
            assert len(got) == expected
            assert len(set(got)) == expected
            assert all(sum(m) <= d for m in got)
    assert list(iter_monomials(0, 3)) == [()]
