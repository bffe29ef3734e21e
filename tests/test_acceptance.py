"""End-to-end acceptance suite.

Each test function covers one headline guarantee of the library, so
``pytest -v`` prints exactly one pass/fail line per guarantee.  Checks on
exact-arithmetic code paths use equality (zero tolerance); the only float
tolerances appear in the Perron certificate test, together with the stated
wall-clock budgets.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from katolab import (
    FactorSeq,
    IntMatrix,
    betti_numbers,
    build_report,
    certify_ball12_contraction,
    compose_factors,
    contracts_unit_ball,
    eval_inverse,
    eval_map,
    factorize,
    fundamental_domain_membership,
    hol_vf_dimension,
    left_fixed_lattice,
    multiplicity_one,
    one_form_nullity,
    perron_data,
    pushforward_invariance,
    sample_ball_points,
    sample_torus_points,
    sq_norm,
    stable_membership,
    standard_field_generators,
    standard_form,
    tangent_field_nullity,
    theta_lattice,
    twisted_betti_numbers,
    unit_point,
    verify_J0_relation,
)
from katolab.linsys import system_rank

from conftest import random_factor_seq, random_positive_type0, small_word_corpus


def _field_rank(fields) -> int:
    variables = sorted(
        {
            (t, exps)
            for f in fields
            for t, comp in enumerate(f.components)
            for exps in comp.terms
        }
    )
    equations = []
    for f in fields:
        row = {}
        for t, comp in enumerate(f.components):
            for exps, coeff in comp.terms.items():
                row[(t, exps)] = Fraction(coeff)
        equations.append(row)
    return system_rank(variables, equations)


def test_factorization_roundtrip_bulk():
    """1000+ random factor sequences survive compose -> factorize exactly."""
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        seq = random_factor_seq(rng, n_range=(2, 6), k_range=(1, 12), kato_only=False)
        assert factorize(compose_factors(seq)) == seq
    assert time.perf_counter() - start < 10.0


def test_composition_law_bulk():
    """Germ evaluation turns matrix products into map composition, exactly."""
    rng = random.Random(202)
    checked = 0
    for pair_idx in range(10):
        n = rng.randint(2, 4)
        a = compose_factors(random_factor_seq(rng, n_range=(n, n), k_range=(1, 3), kato_only=False))
        b = compose_factors(random_factor_seq(rng, n_range=(n, n), k_range=(1, 3), kato_only=False))
        ab = a * b
        for z in sample_torus_points(n, 100, seed=pair_idx):
            assert eval_map(ab, z) == eval_map(a, eval_map(b, z))
            checked += 1
    assert checked >= 100 * 10


def test_contraction_dichotomy():
    """Single-letter-plus-final-powers words fix a unit vector; all other
    words shrink the closed Euclidean ball; every word shrinks the weighted
    ball."""
    excluded = []
    for n in range(2, 6):
        for q in range(1, n):
            for p in range(0, 3):
                seq = FactorSeq(n, (q,) + (n,) * p)
                excluded.append(seq)
                a = compose_factors(seq)
                assert contracts_unit_ball(a) is False
                image = eval_map(a, unit_point(n, n))
                assert image == unit_point(n, q)
                assert sq_norm(image) == 1

    rng = random.Random(303)
    words = []
    while len(words) < 100:
        seq = random_factor_seq(rng, n_range=(2, 5), k_range=(2, 6))
        if all(j == seq.n for j in seq.indices[1:]):
            continue
        words.append(seq)
    total_points = 0
    for w_idx, seq in enumerate(words):
        a = compose_factors(seq)
        assert contracts_unit_ball(a) is True
        for z in sample_ball_points(seq.n, 10, seed=w_idx, norm="euclidean", closed=True):
            assert sq_norm(eval_map(a, z)) < 1
            total_points += 1
    assert total_points >= 1000

    for seq in excluded + words[:20]:
        report = certify_ball12_contraction(compose_factors(seq), samples=64, seed=5)
        assert report.passed


def test_structural_identities():
    """Row-sum line relation, fixed-lattice rank drop, and finite lattice
    index hold exactly on an exhaustive-small plus random corpus."""
    rng = random.Random(404)
    seqs = small_word_corpus() + [
        random_factor_seq(rng, n_range=(2, 6), k_range=(1, 8)) for _ in range(60)
    ]
    for seq in seqs:
        a = compose_factors(seq)
        form = standard_form(a)
        n, l = seq.n, form.l
        if l >= 1:
            assert verify_J0_relation(form) is True
        ka = left_fixed_lattice(a)
        kb = left_fixed_lattice(form.b)
        assert kb.rank == ka.rank - l
        _, index = theta_lattice(a)  # raises unless contained with finite index
        assert isinstance(index, int) and index >= 1
        if l == n - 2:
            assert index == 1
            assert multiplicity_one(a) == n - 2


def test_betti_euler_grid():
    """Betti numbers, Euler characteristic, and twisted sums across the grid."""
    for n in range(2, 9):
        for k in range(1, 11):
            b = betti_numbers(n, k)
            tw = twisted_betti_numbers(n, k)
            assert len(b) == len(tw) == 2 * n + 1
            assert b[0] == b[1] == b[2 * n - 1] == b[2 * n] == 1
            assert all(b[2 * p] == k for p in range(1, n))
            assert all(b[i] == 0 for i in range(3, 2 * n - 2, 2))
            euler = sum((-1) ** i * b[i] for i in range(2 * n + 1))
            assert euler == k * (n - 1)
            tw_sum = sum((-1) ** i * tw[i] for i in range(2 * n + 1))
            assert tw_sum == k * (n - 1)


def test_perron_certificate():
    """Dominant eigenvalue of [[1,2],[2,5]] matches 3 + 2*sqrt(2) by both the
    certified float path and the exact surd path, within 1e-9, residuals at
    1e-10 relative, in under a second."""
    start = time.perf_counter()
    data = perron_data(IntMatrix([[1, 2], [2, 5]]), tol=1e-10)
    elapsed = time.perf_counter() - start
    target = 3 + 2 * math.sqrt(2)
    assert abs(data.alpha - target) < 1e-9
    assert data.surd is not None
    assert str(data.surd) == "3 + 2*sqrt(2)"
    assert abs(data.surd.value() - data.alpha) < 1e-9
    scale = max(abs(x) for x in data.vector)
    assert data.residual <= 1e-10 * scale
    assert data.power_residual <= 1e-10 * scale
    assert elapsed < 1.0


def test_vector_field_dimensions():
    """The standard generators are invariant, independent, and count
    (n-1)(n-2) for the two-letter words at n = 3, 4, 5."""
    for n in (3, 4, 5):
        expected = (n - 1) * (n - 2)
        a = compose_factors(FactorSeq(n, (n - 1, n)))
        gens = standard_field_generators(a)
        assert len(gens) == expected
        for field in gens:
            assert pushforward_invariance(a, field) is True
        assert _field_rank(gens) == expected
        dim = hol_vf_dimension(a)
        assert dim.kind == "exact" and dim.value == expected


def test_series_nullities():
    """Degree-windowed tangent-field nullity equals the unit-eigenvalue
    multiplicity (sympy kernel oracle) and one-form nullity vanishes, on 20+
    random positive type-0 matrices, in under a minute."""
    start = time.perf_counter()
    rng = random.Random(808)
    for _ in range(20):
        a = random_positive_type0(rng)
        m = sympy.Matrix(a.to_rows()) - sympy.eye(a.n)
        oracle = len(m.nullspace())
        assert multiplicity_one(a) == oracle
        for d in range(0, 6):
            assert tangent_field_nullity(a, d) == oracle
        assert one_form_nullity(a, 0) == 0
        assert one_form_nullity(a, 5) == 0
    assert time.perf_counter() - start < 60.0


def test_stable_membership_and_domain():
    """Punctured-ball points and their backward pullbacks certify membership
    within 32 iterations, and each scanned backward-orbit segment meets the
    fundamental region in exactly one point."""
    rng = random.Random(909)
    matrices = [random_positive_type0(rng) for _ in range(6)]
    raw_checked = 0
    for m_idx, a in enumerate(matrices):
        points = [
            z
            for z in sample_ball_points(a.n, 60, seed=m_idx, closed=False)
            if all(c.re or c.im for c in z)
        ]
        for z in points:
            res = stable_membership(a, z)
            assert res.status == "in" and res.iterations <= 32
            raw_checked += 1
    assert raw_checked >= 100

    # Backward pullbacks and the fundamental-region scan use small positive
    # matrices: inverse iteration raises coordinate exponents by the inverse
    # matrix entries, so depth is kept where exact arithmetic stays cheap.
    small = []
    for n, indices in ((2, (1, 2)), (3, (1, 2, 3)), (3, (2, 1, 3))):
        base = compose_factors(FactorSeq(n, indices))
        p = 1
        while not (base**p).is_positive():
            p += 1
        small.append(base**p)
    scans = 0
    for m_idx, a in enumerate(small):
        points = [
            z
            for z in sample_ball_points(a.n, 24, seed=100 + m_idx, closed=False)
            if all(c.re or c.im for c in z)
        ]
        for z in points[:8]:
            u = z
            for _ in range(rng.randint(1, 3)):
                u = eval_inverse(a, u)
            res = stable_membership(a, u)
            assert res.status == "in" and res.iterations <= 32

        for z in points[:8]:
            segment = [z]
            exit_index = None
            for _ in range(12):
                nxt = eval_inverse(a, segment[-1])
                segment.append(nxt)
                if sq_norm(nxt) >= 1:
                    exit_index = len(segment) - 1
                    break
            if exit_index is None:
                continue  # undetermined within the scan cap
            flags = [fundamental_domain_membership(a, u) for u in segment]
            assert sum(flags) == 1
            assert flags[exit_index - 1] is True
            scans += 1
    assert scans >= 10


def test_report_consistency():
    """Word length bounds, power laws, and anticanonical section counts."""
    for seq in small_word_corpus():
        a = compose_factors(seq)
        form = standard_form(a)
        if form.b.is_positive():
            assert seq.k >= seq.n - form.l

    for seq in (FactorSeq(2, (1, 2)), FactorSeq(3, (2, 3)), FactorSeq(4, (3, 4, 2))):
        a = compose_factors(seq)
        base = build_report(a)
        for p in (2, 3):
            rep = build_report(a**p)
            assert rep.k == base.k * p
            assert rep.l == base.l
            assert rep.rank_r == base.rank_r

    assert build_report(compose_factors(FactorSeq(3, (2, 3))) ** 2).anticanonical_h0 == 3
    assert build_report(compose_factors(FactorSeq(4, (3, 4))) ** 2).anticanonical_h0 == 10
