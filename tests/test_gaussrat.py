from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import GaussianRational, as_point, origin, sq_norm, sq_norm_12, unit_point

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_construction_and_coercion():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert z.re == Fraction(1, 2) and z.im == -3
    assert GaussianRational(2) == GaussianRational(Fraction(2), Fraction(0))
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)


def test_equality_and_hash():
    a = GaussianRational(1, 2)
    assert a == GaussianRational(Fraction(1), Fraction(2))
    assert a != GaussianRational(1, 3)
    assert hash(a) == hash(GaussianRational(1, 2))
    assert bool(a)
    assert not bool(GaussianRational(0, 0))


@settings(max_examples=80, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == GaussianRational(0)
    assert x - y == x + (-y)


@settings(max_examples=80, deadline=None)
@given(gaussians)
def test_conjugate_and_abs2(z):
    prod = z * GaussianRational(z.re, -z.im)
    assert prod.im == 0
    assert prod.re == z.abs2()
    assert z.abs2() >= 0


@settings(max_examples=60, deadline=None)
@given(gaussians)
def test_reciprocal(z):
    if not z:
        with pytest.raises(ZeroDivisionError):
            z.reciprocal()
        return
    assert z * z.reciprocal() == GaussianRational(1)


def test_powers():
    i = GaussianRational(0, 1)
    assert i**2 == GaussianRational(-1)
    assert i**0 == GaussianRational(1)
    assert i**-1 == GaussianRational(0, -1)
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert z**3 == z * z * z
    assert z**-2 == (z * z).reciprocal()
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0) ** -1


def test_point_helpers():
    p = as_point([2, Fraction(1, 3)])
    assert p[0] == GaussianRational(2)
    assert p[1] == GaussianRational(Fraction(1, 3))
    q = as_point([(1, 2), (Fraction(1, 2), 0)])
    assert q[0] == GaussianRational(1, 2)
    assert origin(3) == (GaussianRational(0),) * 3
    assert unit_point(3, 2) == (
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(0),
    )
    with pytest.raises(ValueError):
        unit_point(3, 0)
    with pytest.raises(ValueError):
        unit_point(3, 4)


def test_norms_frozen():
    p = as_point([Fraction(1, 2), Fraction(1, 3)])
    assert sq_norm(p) == Fraction(1, 4) + Fraction(1, 9)
    assert sq_norm_12(p) == Fraction(1, 4) + 2 * Fraction(1, 9)
    z = as_point([(0, 1)])
    assert sq_norm(z) == 1
    # the one-two norm doubles only the final coordinate
    q = as_point([1, 1, 1])
    assert sq_norm_12(q) == 4
