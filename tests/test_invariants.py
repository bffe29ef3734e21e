import json
import math
import random

import pytest
import sympy
from hypothesis import given, settings

from katolab import (
    DimensionValue,
    FactorSeq,
    IntMatrix,
    NotKato,
    alg_dim,
    betti_numbers,
    build_report,
    canonical_descriptor,
    compose_factors,
    hol_vf_dimension,
    invariant_monomials,
    lattice_index,
    left_fixed_lattice,
    multiplicity_one,
    positivity_power,
    recognize,
    standard_form,
    theta_lattice,
    twisted_betti_numbers,
    type_of,
    verify_J0_relation,
)
from katolab.intmat import vec_mat
from katolab.invariants import _block_fixed_lattice

from conftest import kato_words, random_factor_seq, small_word_corpus

A23 = compose_factors(FactorSeq(3, (2, 3)))
B25 = IntMatrix([[1, 2], [2, 5]])


# -- cohomology --------------------------------------------------------------------


def test_betti_frozen():
    assert betti_numbers(3, 2) == [1, 1, 2, 0, 2, 1, 1]
    assert betti_numbers(2, 1) == [1, 1, 1, 1, 1]
    assert twisted_betti_numbers(3, 2) == [0, 0, 2, 0, 2, 0, 0]
    assert twisted_betti_numbers(2, 3) == [0, 0, 3, 0, 0]


def test_betti_validation():
    with pytest.raises(ValueError):
        betti_numbers(1, 1)
    with pytest.raises(ValueError):
        betti_numbers(3, 0)
    with pytest.raises(ValueError):
        twisted_betti_numbers(1, 2)


def test_betti_euler_grid():
    for n in range(2, 9):
        for k in range(1, 11):
            b = betti_numbers(n, k)
            t = twisted_betti_numbers(n, k)
            assert len(b) == len(t) == 2 * n + 1
            assert all(b[2 * p] == k for p in range(1, n))
            euler = sum((-1) ** p * x for p, x in enumerate(b))
            assert euler == k * (n - 1)
            assert sum((-1) ** p * x for p, x in enumerate(t)) == euler


# -- lattices ---------------------------------------------------------------------


def test_multiplicity_one_against_sympy():
    rng = random.Random(67)
    for _ in range(25):
        seq = random_factor_seq(rng, n_range=(2, 5), k_range=(1, 6))
        a = compose_factors(seq)
        m = sympy.Matrix(a.to_rows()) - sympy.eye(a.n)
        assert multiplicity_one(a) == len(m.nullspace())


def test_theta_lattice_frozen():
    theta, idx = theta_lattice(A23)
    assert idx == 1
    assert theta.rows == ((1, -1, -1),)


@settings(max_examples=150, deadline=None)
@given(kato_words(n_max=7, k_max=14))
def test_block_fixed_lattice_is_read_off_the_fixed_lattice(seq):
    rec = recognize(compose_factors(seq))
    assert _block_fixed_lattice(rec) == left_fixed_lattice(rec.form.b)


def test_theta_lattice_properties():
    rng = random.Random(71)

    for _ in range(30):
        seq = random_factor_seq(rng, n_range=(2, 6), k_range=(1, 8))
        a = compose_factors(seq)
        form = standard_form(a)
        theta, idx = theta_lattice(a)
        ka = left_fixed_lattice(a)
        assert theta.rank == ka.rank == multiplicity_one(a)
        assert idx >= 1 and idx != math.inf
        assert lattice_index(theta, ka) == idx
        for g in theta.rows:
            assert vec_mat(g, a) == g
        if form.l == a.n - 2:
            assert idx == 1 and multiplicity_one(a) == a.n - 2


def test_j0_relation():
    assert verify_J0_relation(standard_form(A23))
    rng = random.Random(73)
    for _ in range(30):
        seq = random_factor_seq(rng, n_range=(3, 6), k_range=(1, 8))
        a = compose_factors(seq)
        form = standard_form(a)
        if form.l < 1:
            with pytest.raises(ValueError):
                verify_J0_relation(form)
        else:
            assert verify_J0_relation(form)


def test_invariant_monomials():
    mons = invariant_monomials(A23)
    assert len(mons) == 1
    assert mons[0].exponents == (1, -1, -1)
    assert mons[0].display == "z1*w2^-1*w3^-1"
    a34 = compose_factors(FactorSeq(4, (3, 4)))
    mons4 = invariant_monomials(a34)
    assert [m.exponents for m in mons4] == [(1, 0, -1, -1), (0, 1, -1, -1)]
    for m in mons4:
        assert vec_mat(m.exponents, a34) == m.exponents
    assert mons4[0].display == "z1*w3^-1*w4^-1"


# -- dimension values ----------------------------------------------------------------


def test_dimension_value_shapes():
    assert DimensionValue.exact(3).to_json() == {"exact": 3}
    assert DimensionValue.lower_bound(1).to_json() == {"lower_bound": 1}
    assert DimensionValue.between(1, 2).to_json() == {"bounds": [1, 2]}
    assert str(DimensionValue.exact(3)) == "3"
    assert str(DimensionValue.lower_bound(1)) == ">= 1"
    assert str(DimensionValue.between(1, 2)) == "in [1, 2]"


def test_hol_vf_dimension_branches():
    assert hol_vf_dimension(A23).to_json() == {"exact": 2}
    assert hol_vf_dimension(B25).to_json() == {"exact": 0}
    a34 = compose_factors(FactorSeq(4, (3, 4)))
    assert hol_vf_dimension(a34).to_json() == {"exact": 6}
    a45 = compose_factors(FactorSeq(5, (4, 5)))
    assert hol_vf_dimension(a45).to_json() == {"exact": 12}
    # type 1 inside n=4: only the lower bound is known
    a24 = compose_factors(FactorSeq(4, (2, 4)))
    assert type_of(a24) == 1
    dim = hol_vf_dimension(a24)
    assert dim.kind == "lower_bound"
    assert dim.value == multiplicity_one(a24)


def test_alg_dim_branches():
    assert alg_dim(A23).to_json() == {"exact": 1}
    assert alg_dim(B25).to_json() == {"exact": 0}
    a24 = compose_factors(FactorSeq(4, (2, 4)))
    dim = alg_dim(a24)
    assert dim.kind == "bounds"
    lo, hi = dim.bounds
    assert lo == max(multiplicity_one(a24), 1) and hi == 3


# -- canonical bundle ---------------------------------------------------------------


def test_canonical_descriptor():
    data = canonical_descriptor(A23)  # det -1
    assert data.descriptor == "K = L⊗O(-A_(1)-C)"
    assert data.kodaira == "-infinity"
    assert data.anticanonical_h0 is None
    sq = canonical_descriptor(A23 * A23)  # det +1, l = n-2
    assert sq.descriptor == "K = O(-A_(1)-C)"
    assert sq.anticanonical_h0 == 3
    a34sq = compose_factors(FactorSeq(4, (3, 4))) ** 2
    assert canonical_descriptor(a34sq).anticanonical_h0 == 10
    type0 = canonical_descriptor(B25)
    assert type0.descriptor == "K = O(-C)"
    # n = 2 has l = 0 = n-2 and determinant 1, so the count C(1, 0) = 1 applies
    assert type0.anticanonical_h0 == 1
    odd = canonical_descriptor(compose_factors(FactorSeq(2, (1, 2))))  # det -1
    assert odd.descriptor == "K = L⊗O(-C)"
    assert odd.anticanonical_h0 is None


# -- full reports ------------------------------------------------------------------


def test_report_frozen_values():
    rep = build_report(A23)
    assert (rep.n, rep.k, rep.l, rep.rank_r) == (3, 2, 1, 2)
    assert rep.euler == 4 and rep.m1 == 1
    assert rep.kA_basis.rows == ((1, -1, -1),)
    assert rep.theta_index == 1
    assert rep.h0_one_forms == 0
    assert rep.kodaira == "-infinity"
    assert rep.pi1_M == "Z"
    assert rep.pi1_M_minus_C.group == "Z ⋉ Z^2"
    assert rep.pi1_M_minus_C.action_matrix.rows == ((0, 1), (1, 2))
    assert rep.torus_rank == 1 and rep.k_components == 2
    assert rep.covering_degree_to_base == 1
    assert rep.det == -1
    assert abs(rep.perron_alpha - (1 + math.sqrt(2))) < 1e-9
    assert rep.alg_reduction is not None and "P^1" in rep.alg_reduction


def test_report_json_field_presence():
    rep = build_report(A23).to_json()
    required = {
        "n", "k", "l", "rank_r", "betti", "twisted_betti", "euler", "m1",
        "kA_basis", "theta_basis", "theta_index", "alg_dim", "h0_tangent",
        "h0_one_forms", "kodaira", "pi1_M", "pi1_M_minus_C", "perron_alpha",
        "torus_rank", "k_components", "canonical_descriptor", "det",
    }
    assert required <= set(rep)
    assert rep["covering_degree_to_base"] == 1
    assert "anticanonical_h0" not in rep  # det = -1
    assert rep["alg_dim"] == {"exact": 1}
    assert rep["pi1_M_minus_C"] == {
        "group": "Z ⋉ Z^2",
        "action_matrix": [[0, 1], [1, 2]],
    }
    json.dumps(rep)  # serializable as-is

    rep0 = build_report(B25).to_json()
    assert "covering_degree_to_base" not in rep0  # type 0
    assert rep0["anticanonical_h0"] == 1  # n=2: l = 0 = n-2, det 1
    assert "alg_reduction" in rep0  # l = n-2 holds for every n=2 matrix


def test_report_power_law():
    rng = random.Random(79)
    for _ in range(6):
        seq = random_factor_seq(rng, n_range=(2, 4), k_range=(1, 3))
        a = compose_factors(seq)
        p = rng.randint(2, 3)
        rep, repp = build_report(a), build_report(a**p)
        assert repp.k == p * rep.k
        assert repp.l == rep.l and repp.rank_r == rep.rank_r
        assert repp.m1 >= rep.m1


def test_report_k_lower_bound_for_positive_blocks():
    for seq in small_word_corpus(n_values=(2, 3), max_k=3):
        a = compose_factors(seq)
        form = standard_form(a)
        if form.b.is_positive():
            assert seq.k >= a.n - form.l


def test_report_rejects_non_kato():
    with pytest.raises(NotKato):
        build_report(compose_factors(FactorSeq(3, (3, 3))))
    from katolab import NotAProduct

    with pytest.raises(NotAProduct):
        build_report(IntMatrix([[2, 0], [0, 1]]))
