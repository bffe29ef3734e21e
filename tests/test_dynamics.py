import math
import random
from fractions import Fraction

import pytest
import sympy

from katolab import (
    DEFAULT_MAX_ITER,
    FactorSeq,
    IntMatrix,
    NotKato,
    certify_ball12_contraction,
    compose_factors,
    contracts_unit_ball,
    eval_inverse,
    eval_map,
    fundamental_domain_membership,
    perron_data,
    root_of_unity_check,
    sample_ball_points,
    sample_torus_points,
    sq_norm,
    sq_norm_12,
    stable_membership,
    unit_point,
)
from katolab.gaussrat import GaussianRational, as_point

from conftest import positive_block_power, random_factor_seq, random_positive_type0

B25 = IntMatrix([[1, 2], [2, 5]])
A12 = IntMatrix([[0, 1], [1, 2]])


# -- evaluation --------------------------------------------------------------------


def test_eval_map_frozen():
    z = as_point([2, Fraction(1, 3)])
    w = eval_map(B25, z)
    assert [c.re for c in w] == [Fraction(2, 9), Fraction(4, 243)]
    assert all(c.im == 0 for c in w)


def test_eval_map_zero_coordinate():
    # forward maps are polynomial: zeros are fine
    a23 = compose_factors(FactorSeq(3, (2, 3)))
    img = eval_map(a23, as_point([0, 1, 1]))
    assert img == as_point([1, 1, 1]) or all(c.im == 0 for c in img)
    # inverse exponents on a zero coordinate must refuse
    with pytest.raises(ZeroDivisionError):
        eval_map(A12.inverse_unimodular(), as_point([0, 1]))


def test_eval_composition_law():
    rng = random.Random(13)
    for _ in range(25):
        seq_a = random_factor_seq(rng, n_range=(2, 4), k_range=(1, 4), kato_only=False)
        seq_b = FactorSeq(
            seq_a.n, tuple(rng.randint(1, seq_a.n) for _ in range(rng.randint(1, 4)))
        )
        a, b = compose_factors(seq_a), compose_factors(seq_b)
        for z in sample_torus_points(seq_a.n, 4, seed=rng.randint(0, 10**6)):
            assert eval_map(a * b, z) == eval_map(a, eval_map(b, z))


def test_eval_inverse_frozen_and_roundtrip():
    h = eval_inverse(A12, as_point([4, 2]))
    assert [c.re for c in h] == [Fraction(1, 8), Fraction(4)]
    assert eval_map(A12, h) == as_point([4, 2])
    rng = random.Random(17)
    for _ in range(20):
        seq = random_factor_seq(rng, n_range=(2, 4), k_range=(1, 5))
        a = compose_factors(seq)
        for z in sample_torus_points(seq.n, 3, seed=rng.randint(0, 10**6)):
            assert eval_inverse(a, eval_map(a, z)) == z
            assert eval_map(a, eval_inverse(a, z)) == z


def test_eval_inverse_domain_errors():
    with pytest.raises(ValueError):
        eval_inverse(A12, as_point([1, 0]))  # torus coordinate vanishes
    a23 = compose_factors(FactorSeq(3, (2, 3)))
    with pytest.raises(ValueError):
        eval_inverse(a23, as_point([1, 0, 1]))  # w-part must be nonzero
    eval_inverse(a23, as_point([0, 1, 1]))  # z-part may vanish (type 1)
    with pytest.raises(NotKato):
        eval_inverse(IntMatrix([[1, 1], [0, 1]]), as_point([1, 1]))


# -- contraction --------------------------------------------------------------------


def test_contracts_unit_ball_classification():
    assert not contracts_unit_ball(compose_factors(FactorSeq(3, (1, 3, 3))))
    assert not contracts_unit_ball(compose_factors(FactorSeq(2, (1,))))
    assert contracts_unit_ball(compose_factors(FactorSeq(3, (2, 3, 2))))
    assert contracts_unit_ball(B25)


def test_witness_for_excluded_words():
    for n in (2, 3, 4):
        for q in range(1, n + 1):
            for p in (0, 1, 2):
                a = compose_factors(FactorSeq(n, (q,) + (n,) * p))
                img = eval_map(a, unit_point(n, n))
                assert img == unit_point(n, q)
                assert sq_norm(img) == 1


def test_strict_contraction_on_closed_ball():
    rng = random.Random(23)
    for _ in range(10):
        seq = random_factor_seq(rng, n_range=(2, 4), k_range=(2, 5))
        a = compose_factors(seq)
        if not contracts_unit_ball(a):
            continue
        for z in sample_ball_points(seq.n, 20, seed=rng.randint(0, 10**6)):
            assert sq_norm(z) <= 1
            assert sq_norm(eval_map(a, z)) < 1


def test_certify_ball12():
    rep = certify_ball12_contraction(A12, samples=64, seed=1)
    assert rep.passed and rep.samples == 64
    assert rep.max_image_norm_sq < 1
    assert rep.counterexample is None
    # non-contracting-in-euclidean words still contract the weighted ball
    a133 = compose_factors(FactorSeq(3, (1, 3, 3)))
    rep2 = certify_ball12_contraction(a133, samples=48, seed=2)
    assert rep2.passed
    # deterministic in the seed
    again = certify_ball12_contraction(A12, samples=64, seed=1)
    assert again.max_image_norm_sq == rep.max_image_norm_sq
    with pytest.raises(NotKato):
        certify_ball12_contraction(IntMatrix([[1, 1], [0, 1]]), samples=8, seed=0)
    json_rep = rep.to_json()
    assert json_rep["passed"] is True and json_rep["samples"] == 64


# -- samplers -----------------------------------------------------------------------


def test_sample_ball_points():
    closed = sample_ball_points(3, 50, seed=4)
    assert len(closed) == 50
    assert all(sq_norm(z) <= 1 for z in closed)
    opened = sample_ball_points(3, 50, seed=4, closed=False)
    assert all(sq_norm(z) < 1 for z in opened)
    weighted = sample_ball_points(3, 50, seed=5, norm="one-two")
    assert all(sq_norm_12(z) <= 1 for z in weighted)
    assert sample_ball_points(2, 8, seed=6) == sample_ball_points(2, 8, seed=6)
    assert sample_ball_points(2, 8, seed=6) != sample_ball_points(2, 8, seed=7)
    with pytest.raises(ValueError):
        sample_ball_points(2, 8, seed=0, norm="taxicab")


def test_sample_torus_points():
    pts = sample_torus_points(3, 30, seed=8)
    assert len(pts) == 30
    assert all(all(c for c in z) for z in pts)
    assert pts == sample_torus_points(3, 30, seed=8)


# -- Perron data --------------------------------------------------------------------


def test_perron_frozen():
    data = perron_data(B25)
    exact = 3 + 2 * math.sqrt(2)
    assert abs(data.alpha - exact) < 1e-9
    assert data.surd is not None
    assert str(data.surd) == "3 + 2*sqrt(2)"
    assert abs(data.surd.value() - exact) < 1e-12
    assert data.power_used == 1
    scale = max(abs(x) for x in data.vector)
    assert data.residual <= 1e-10 * scale
    assert data.power_residual <= 1e-10 * scale
    assert all(x > 0 for x in data.vector)


def test_perron_nontrivial_power():
    data = perron_data(A12)
    assert data.power_used == 2
    assert abs(data.alpha - (1 + math.sqrt(2))) < 1e-9
    assert str(data.surd) == "1 + 1*sqrt(2)"


def test_perron_block_of_typed_matrix():
    a23 = compose_factors(FactorSeq(3, (2, 3)))
    data = perron_data(a23)  # block is [[0,1],[1,2]]
    assert abs(data.alpha - (1 + math.sqrt(2))) < 1e-9


def test_perron_two_by_two_eigenvalue_product():
    # alpha * |second eigenvalue| = |det| = 1 for 2x2 blocks
    rng = random.Random(29)
    for _ in range(12):
        seq = random_factor_seq(rng, n_range=(2, 2), k_range=(2, 8))
        a = compose_factors(seq)
        data = perron_data(a)
        s = data.surd
        second = abs(float(s.rational) - float(s.coefficient) * math.sqrt(s.radicand))
        assert abs(data.alpha * second - 1) < 1e-8


def test_perron_rejects():
    with pytest.raises(ValueError):
        perron_data(B25, tol=0)
    with pytest.raises(NotKato):
        perron_data(IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ArithmeticError, match="tolerance 1e-30"):
        perron_data(B25, tol=1e-30)  # narrower than float64 power steps resolve


def _largest_real_root(rows) -> tuple[Fraction, Fraction]:
    """Isolating interval of the largest real root of ``det(x I - B)``, from
    sympy's exact real-root isolation."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Matrix(rows).charpoly(x).as_expr(), x)
    (a, b), _ = poly.intervals(eps=sympy.Rational(1, 10**30))[-1]
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


def test_perron_enclosure_on_large_power_roots():
    """Words whose positive block power has Perron root >= 3e5, where float64
    cannot resolve an absolute residual: the exact enclosure is still as
    narrow as asked and meets sympy's isolating interval of the root."""
    rng = random.Random(17)
    tol = Fraction(1e-10)
    found = 0
    while found < 12:
        seq = random_factor_seq(rng)
        if min(sum(r) for r in positive_block_power(seq)) < 300_000:
            continue  # the smallest row sum bounds that root from below
        found += 1
        rows = compose_factors(seq).to_rows()
        l = min(seq.indices) - 1
        data = perron_data(compose_factors(seq))
        lo, hi = data.enclosure
        assert 1 < lo <= Fraction(data.alpha) <= hi and hi - lo <= tol * lo
        ref_lo, ref_hi = _largest_real_root([r[l:] for r in rows[l:]])
        assert lo <= ref_hi and ref_lo <= hi, f"enclosure of {seq} misses the root"


# -- stable set and fundamental domain ----------------------------------------------


def test_stable_membership_frozen():
    z = as_point([2, Fraction(1, 3)])
    res = stable_membership(B25, z)
    assert res.status == "in" and res.iterations == 1 and res.is_in
    assert res.to_json() == {"status": "in", "iterations": 1}
    inside = as_point([Fraction(1, 2), Fraction(1, 3)])
    assert stable_membership(B25, inside).iterations == 0


def test_stable_membership_undetermined():
    res = stable_membership(B25, as_point([2, 3]), max_iter=5)
    assert res.status == "undetermined" and not res.is_in
    assert res.to_json() == {"status": "undetermined"}


def test_stable_membership_domain_error():
    with pytest.raises(ValueError):
        stable_membership(B25, as_point([1, 0]))


def test_stable_membership_ignores_leading_block():
    # for type-l words the classification only depends on the torus part
    a23 = compose_factors(FactorSeq(3, (2, 3)))
    w = (Fraction(1, 3), Fraction(1, 2))
    for z1 in (Fraction(0), Fraction(5), Fraction(-7, 2)):
        res = stable_membership(a23, as_point([z1, *w]), max_iter=64)
        assert res.is_in


def test_fundamental_domain():
    outside = as_point([2, 3])
    assert not fundamental_domain_membership(B25, outside)
    # a point deep inside: its image stays inside, so the image is not in the domain
    z = as_point([Fraction(1, 2), Fraction(1, 3)])
    w = eval_map(B25, z)
    assert sq_norm(w) < 1
    assert not fundamental_domain_membership(B25, w)
    # pull back out of the ball: the last point before exit is in the domain
    u = z
    exit_m = None
    for m in range(1, 16):
        u = eval_inverse(B25, u)
        if not (sq_norm(u) < 1):
            exit_m = m
            break
    assert exit_m is not None
    back = z
    for _ in range(exit_m - 1):
        back = eval_inverse(B25, back)
    assert fundamental_domain_membership(B25, back)
    with pytest.raises(ValueError):
        fundamental_domain_membership(B25, as_point([1, 0]))


# -- root of unity -----------------------------------------------------------------


def test_root_of_unity_frozen():
    assert root_of_unity_check(IntMatrix.identity(3))
    assert not root_of_unity_check(A12)
    assert root_of_unity_check(compose_factors(FactorSeq(3, (2, 3))))
    assert not root_of_unity_check(IntMatrix([[2, 1], [1, 1]]))
    # companion matrix of the fifth cyclotomic polynomial
    comp = IntMatrix(
        [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    )
    assert root_of_unity_check(comp)
    assert root_of_unity_check(-IntMatrix.identity(2))


def test_root_of_unity_agrees_with_sympy_eigenvalues():
    rng = random.Random(31)
    lam = sympy.symbols("lam")
    for _ in range(15):
        n = rng.randint(2, 3)
        a = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        got = root_of_unity_check(a)
        poly = sympy.Poly(sympy.Matrix(a.to_rows()).charpoly(lam), lam)
        expected = False
        for m in range(1, 2 * n * n + 1):
            if sympy.gcd(poly, sympy.Poly(sympy.cyclotomic_poly(m, lam), lam)).degree() > 0:
                expected = True
                break
        assert got == expected
