import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import katolab.dynamics
from katolab import (
    DEFAULT_MAX_ITER,
    ContractionReport,
    FactorSeq,
    IntMatrix,
    NotKato,
    ResourceLimitError,
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
    type_of,
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


def test_counts_below_the_meaningful_range_are_refused():
    with pytest.raises(ValueError, match="samples"):
        certify_ball12_contraction(A12, samples=0)
    with pytest.raises(ValueError, match="max_iter"):
        stable_membership(A12, as_point([Fraction(2), Fraction(3)]), max_iter=-1)


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
    with pytest.raises(ValueError, match=r"^tolerance must be positive$"):
        perron_data(B25, tol=0)
    with pytest.raises(NotKato):
        perron_data(IntMatrix([[1, 1], [0, 1]]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_perron_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match=rf"^tolerance must be a finite number, got {tol!r}$"):
        perron_data(B25, tol=tol)


def test_perron_step_cap(monkeypatch):
    monkeypatch.setattr(katolab.dynamics, "_PERRON_ITER_CAP", 1)
    with pytest.raises(ArithmeticError, match=r"tolerance 1e-10 not reached in 1 power steps"):
        perron_data(B25)


def _largest_real_root(rows, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Isolating interval of the largest real root of ``det(x I - B)``, from
    sympy's exact real-root isolation, at most ``10**-digits`` wide."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Matrix(rows).charpoly(x).as_expr(), x)
    (a, b), _ = poly.intervals(eps=sympy.Rational(1, 10**digits))[-1]
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


@pytest.mark.parametrize("digits", [30, 100])
def test_perron_enclosure_below_float_spacing(digits):
    """A tolerance far below float64 spacing is still certified: the enclosure
    is that narrow and meets sympy's isolating interval of the root.  So
    narrow an enclosure rarely holds a float; ``alpha`` is the float nearest
    its midpoint."""
    tol = float(f"1e-{digits}")
    rng = random.Random(43)
    seqs = [FactorSeq(2, (1, 2)), *(random_factor_seq(rng) for _ in range(6))]
    for seq in seqs:
        rows = compose_factors(seq).to_rows()
        l = min(seq.indices) - 1
        data = perron_data(compose_factors(seq), tol=tol)
        lo, hi = data.enclosure
        assert 1 < lo <= hi and hi - lo <= Fraction(tol) * lo
        assert abs(Fraction(data.alpha) - (lo + hi) / 2) <= Fraction(math.ulp(data.alpha))
        ref_lo, ref_hi = _largest_real_root([r[l:] for r in rows[l:]], digits + 10)
        assert lo <= ref_hi and ref_lo <= hi, f"enclosure of {seq} misses the root"


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


def test_membership_scan_stops_at_the_digit_cap(monkeypatch):
    # the squared moduli of an escaping orbit pass 40 digits within a few steps
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "40")
    with pytest.raises(ResourceLimitError, match="40 decimal digits"):
        stable_membership(B25, as_point([2, 3]), max_iter=64)


def test_large_exponents_stop_at_the_default_cap_before_any_power(monkeypatch):
    # B25**8 has entries near 10**6, so an image modulus would carry millions
    # of bits; the default cap refuses it before building a power or a gcd
    monkeypatch.delenv("KATOLAB_DIGIT_CAP", raising=False)
    big = B25**8
    checks = [
        lambda: certify_ball12_contraction(big, samples=4),
        lambda: stable_membership(big, as_point([2, 3])),
        lambda: fundamental_domain_membership(big, as_point([Fraction(1, 2), Fraction(1, 3)])),
    ]
    start = time.perf_counter()
    for check in checks:
        with pytest.raises(ResourceLimitError, match="100000 decimal digits"):
            check()
    assert time.perf_counter() - start < 5


# -- agreement with the Gaussian-point predicates ---------------------------------------
#
# The predicates decide on squared moduli; these references decide on the
# Gaussian points themselves, as the predicates' definitions read.


def reference_ball_points(n, count, seed, norm="euclidean", closed=True):
    denominator = 64
    rng = random.Random(seed)
    norm_sq = sq_norm if norm == "euclidean" else sq_norm_12
    pts = []
    for idx in range(count):
        raw = tuple(
            GaussianRational(
                Fraction(rng.randint(-denominator, denominator), denominator),
                Fraction(rng.randint(-denominator, denominator), denominator),
            )
            for _ in range(n)
        )
        s = norm_sq(raw)
        if not s:
            pts.append(raw)
            continue
        if idx < count // 2:
            target = Fraction(1)
        else:
            target = Fraction(rng.randint(1, denominator**2), denominator**2)
        t = Fraction(math.isqrt(math.floor(target / s * 2**32)), 2**16)
        if not closed and t * t * s == 1:
            t = max(t - Fraction(1, 2**16), Fraction(0))
        pts.append(tuple(c * t for c in raw))
    return pts


def reference_certify(a, samples, seed, image=eval_map):
    worst = Fraction(0)
    for z in reference_ball_points(a.n, samples, seed, norm="one-two"):
        s = sq_norm_12(image(a, z))
        worst = max(worst, s)
        if s >= 1:
            return ContractionReport(False, samples, z, s, worst)
    return ContractionReport(True, samples, None, None, worst)


def reference_in_ball_star(z, l):
    return all(z[l:]) and sq_norm(z) < 1


def reference_membership(a, z, max_iter):
    l = type_of(a)
    for m in range(max_iter + 1):
        if reference_in_ball_star(z, l):
            return "in", m
        if m < max_iter:
            z = eval_map(a, z)
    return "undetermined", None


def reference_domain(a, z):
    l = type_of(a)
    return reference_in_ball_star(z, l) and not reference_in_ball_star(eval_map(a.inverse_unimodular(), z), l)


@st.composite
def kato_words(draw):
    n = draw(st.integers(2, 4))
    indices = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    seq = FactorSeq(n, tuple(indices))
    assume(seq.is_kato_word)
    return seq


def gaussian(nonzero):
    parts = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    pairs = st.tuples(parts, parts).map(lambda p: GaussianRational(*p))
    return pairs.filter(bool) if nonzero else st.one_of(st.just(GaussianRational(0)), pairs)


UNIT_POINTS = {
    2: [Fraction(3, 5), Fraction(4, 5)],
    3: [Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)],
    4: [Fraction(1, 2)] * 4,
}


@st.composite
def word_and_point(draw):
    """A Kato word and a point of its starred domain (leading coordinates may vanish),
    pulled back 0-2 times."""
    seq = draw(kato_words())
    l = min(seq.indices) - 1
    if draw(st.booleans()):
        z = tuple(draw(gaussian(nonzero=t >= l)) for t in range(seq.n))
    else:  # on the unit sphere, where the open ball ends
        z = as_point(UNIT_POINTS[seq.n])
    a = compose_factors(seq)
    for _ in range(draw(st.integers(0, 2))):
        z = eval_inverse(a, z)
    return a, z


@settings(max_examples=60, deadline=None)
@given(kato_words(), st.integers(1, 24), st.integers(0, 2**30))
def test_certify_agrees_with_gaussian_reference(seq, samples, seed):
    a = compose_factors(seq)
    assert certify_ball12_contraction(a, samples, seed) == reference_certify(a, samples, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 12),
    st.integers(0, 2**30),
    st.sampled_from(["euclidean", "one-two"]),
    st.booleans(),
)
def test_sample_ball_points_agree_with_gaussian_reference(n, count, seed, norm, closed):
    args = (n, count, seed, norm, closed)
    assert sample_ball_points(*args) == reference_ball_points(*args)


@settings(max_examples=80, deadline=None)
@given(word_and_point(), st.integers(0, 4))
def test_membership_and_domain_agree_with_gaussian_reference(case, max_iter):
    a, z = case
    res = stable_membership(a, z, max_iter=max_iter)
    assert (res.status, res.iterations) == reference_membership(a, z, max_iter)
    assert fundamental_domain_membership(a, z) == reference_domain(a, z)


@settings(max_examples=80, deadline=None)
@given(kato_words(), st.data())
def test_moduli_kernel_agrees_with_eval_map(seq, data):
    a = compose_factors(seq)
    z = tuple(data.draw(gaussian(nonzero=False)) for _ in range(seq.n))
    moduli = [(c.abs2().numerator, c.abs2().denominator) for c in z]
    for m in (a, a.inverse_unimodular()):
        try:
            want = [Fraction(c.abs2()) for c in eval_map(m, z)]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                katolab.dynamics._moduli_image(m.rows, moduli)
            continue
        got = katolab.dynamics._moduli_image(m.rows, moduli)
        assert all(math.gcd(p, q) == 1 and q > 0 for p, q in got)
        assert [Fraction(p, q) for p, q in got] == want


def test_certify_failure_reports_the_first_counterexample(monkeypatch):
    # Kato matrices never fail the certificate; a doubled image makes the
    # failure branch reachable and must report what the reference reports.
    kernel = katolab.dynamics._moduli_image
    monkeypatch.setattr(
        katolab.dynamics, "_moduli_image", lambda rows, moduli: [(4 * p, q) for p, q in kernel(rows, moduli)]
    )

    def doubled(a, z):
        return tuple(c * 2 for c in eval_map(a, z))

    for seq in (FactorSeq(2, (1, 2)), FactorSeq(3, (2, 3, 3))):
        a = compose_factors(seq)
        got = certify_ball12_contraction(a, 32, seed=3)
        want = reference_certify(a, 32, 3, image=doubled)
        assert not got.passed and got.counterexample is not None
        assert got == want


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
    assert root_of_unity_check(IntMatrix([[-1, 0], [0, -1]]))


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
