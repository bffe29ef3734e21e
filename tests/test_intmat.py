import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import (
    IntMatrix,
    LatticeBasis,
    characteristic_polynomial,
    hermite_normal_form,
    lattice_index,
    left_fixed_lattice,
    left_kernel_lattice,
)
from katolab._limits import ResourceLimitError
from katolab.intmat import vec_mat

matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

rect_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


# -- construction and basics -------------------------------------------------------


def test_construction_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5, 2], [3, 4]])


def test_immutability_and_equality():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        a.rows = ((0, 0), (0, 0))
    assert a == IntMatrix([[1, 2], [3, 4]])
    assert hash(a) == hash(IntMatrix([[1, 2], [3, 4]]))
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert a != "not a matrix"


def test_shape_accessors():
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (a.nrows, a.ncols) == (2, 3)
    assert not a.is_square
    with pytest.raises(ValueError):
        a.n
    assert a.col(2) == (3, 6)
    assert a.transpose().rows == ((1, 4), (2, 5), (3, 6))


def test_identity_zero_columns():
    assert IntMatrix.identity(2).rows == ((1, 0), (0, 1))
    assert IntMatrix.from_columns([(1, 2), (3, 4)]).rows == ((1, 3), (2, 4))
    assert IntMatrix.identity(3).is_identity()
    assert not IntMatrix([[0, 0], [0, 0]]).is_identity()


def test_arithmetic():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a - b).rows == ((1, 1), (2, 4))
    assert (a * b).rows == ((2, 1), (4, 3))
    assert (a * 2).rows == ((2, 4), (6, 8))
    assert (2 * a).rows == ((2, 4), (6, 8))
    assert (a**0).is_identity()
    assert a**1 == a
    assert a**3 == a * a * a
    assert a.trace() == 5


def test_scalar_product_is_guarded(monkeypatch):
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "5")
    assert (IntMatrix([[10**3]]) * 10**2).rows == ((10**5,),)
    with pytest.raises(ResourceLimitError, match="matrix entry exceeds 5 decimal digits"):
        IntMatrix([[10**4]]) * 10**4
    with pytest.raises(ResourceLimitError):
        10**4 * IntMatrix([[10**4]])


def test_vector_products():
    a = IntMatrix([[1, 2], [3, 4]])
    assert vec_mat((1, 1), a) == (4, 6)
    with pytest.raises(ValueError):
        vec_mat((1, 1, 1), a)


# -- determinant, rank, inverse: sympy as the independent oracle ---------------------


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_det_matches_sympy(rows):
    a = IntMatrix(rows)
    assert a.det() == int(sympy.Matrix(rows).det())


@settings(max_examples=60, deadline=None)
@given(rect_matrices)
def test_rank_matches_sympy(rows):
    a = IntMatrix(rows)
    assert a.rank() == sympy.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_charpoly_matches_sympy(rows):
    a = IntMatrix(rows)
    lam = sympy.symbols("lam")
    expected = sympy.Poly(sympy.Matrix(rows).charpoly(lam), lam).all_coeffs()
    got = characteristic_polynomial(a)  # ascending order
    assert [int(c) for c in expected] == list(reversed(got))


def test_inverse_unimodular():
    a = IntMatrix([[0, 1], [1, 2]])
    inv = a.inverse_unimodular()
    assert (a * inv).is_identity() and (inv * a).is_identity()
    assert a**-1 == inv
    assert a**-2 == inv * inv
    with pytest.raises(ValueError):
        IntMatrix([[2, 0], [0, 1]]).inverse_unimodular()


# -- Hermite normal form -----------------------------------------------------------


def _is_row_hnf(h: IntMatrix) -> bool:
    lead = -1
    seen_zero = False
    for row in h.rows:
        nz = [j for j, e in enumerate(row) if e]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero rows must come last
        j = nz[0]
        if j <= lead or row[j] <= 0:
            return False
        lead = j
    # entries above each pivot reduced into [0, pivot)
    for i, row in enumerate(h.rows):
        nz = [j for j, e in enumerate(row) if e]
        if not nz:
            continue
        j, p = nz[0], row[nz[0]]
        for k in range(i):
            if not 0 <= h.rows[k][j] < p:
                return False
    return True


def _row_in_lattice(v, basis_rows) -> bool:
    """Exact membership of an integer vector in the row lattice, via sympy's
    own canonical form (robust to dependent spanning sets)."""
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    if not any(v):
        return True
    if not basis_rows:
        return False
    cols = sympy.Matrix([list(r) for r in basis_rows]).T
    extended = sympy.Matrix([list(r) for r in basis_rows] + [list(v)]).T
    return sympy_hnf(cols) == sympy_hnf(extended)


@settings(max_examples=50, deadline=None)
@given(rect_matrices)
def test_hnf_properties(rows):
    m = IntMatrix(rows)
    h, u = hermite_normal_form(m)
    assert u.is_square and abs(u.det()) == 1
    assert u * m == h
    assert _is_row_hnf(h)
    # idempotence on the nonzero part
    nonzero = [r for r in h.rows if any(r)]
    if nonzero:
        h2, _ = hermite_normal_form(IntMatrix(nonzero))
        assert h2.rows == tuple(nonzero)
    # row lattices agree (mutual containment, sympy solving)
    hrows = [r for r in h.rows if any(r)]
    for r in m.rows:
        assert _row_in_lattice(r, hrows)
    for r in hrows:
        assert _row_in_lattice(r, m.rows)


def test_hnf_fixed_example():
    h, u = hermite_normal_form(IntMatrix([[2, 4], [1, 3]]))
    assert h.rows == ((1, 1), (0, 2))
    assert u * IntMatrix([[2, 4], [1, 3]]) == h


# -- kernels and lattice indices -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(rect_matrices)
def test_left_kernel_lattice(rows):
    m = IntMatrix(rows)
    ker = left_kernel_lattice(m)
    expected_rank = m.nrows - m.rank()
    assert ker.rank == expected_rank
    for v in ker.rows:
        assert vec_mat(v, m) == (0,) * m.ncols
    # saturation: every rational left-kernel vector, cleared to integers,
    # must already lie in the computed lattice
    null = sympy.Matrix(rows).T.nullspace()
    for vec in null:
        denom = sympy.lcm([sympy.fraction(x)[1] for x in vec])
        cleared = [int(x * denom) for x in vec]
        assert _row_in_lattice(cleared, ker.rows)


def test_left_fixed_lattice():
    a = IntMatrix([[1, 0, 2], [0, 0, 1], [0, 1, 2]])
    ka = left_fixed_lattice(a)
    assert ka.rows == ((1, -1, -1),)
    for v in ka.rows:
        assert vec_mat(v, a) == v


def test_lattice_basis_canonicalization():
    # dependent spanning set collapses to a canonical basis
    b = LatticeBasis.from_rows(2, [(2, 0), (0, 2), (2, 2)])
    assert b.rank == 2
    assert b.rows == ((2, 0), (0, 2))
    empty = LatticeBasis.from_rows(2, [(0, 0)])
    assert empty.rank == 0 and empty.rows == ()
    assert b.to_json() == {"ambient_dim": 2, "rows": [[2, 0], [0, 2]]}


def test_lattice_index_cases():
    z2 = LatticeBasis.from_rows(2, [(1, 0), (0, 1)])
    even = LatticeBasis.from_rows(2, [(2, 0), (0, 2)])
    assert lattice_index(even, z2) == 4
    assert lattice_index(LatticeBasis.from_rows(2, [(1, 0), (0, 2)]), z2) == 2
    assert lattice_index(z2, z2) == 1
    # rank drop -> infinite index
    line = LatticeBasis.from_rows(2, [(1, 0)])
    assert lattice_index(line, z2) == math.inf
    # not contained -> error
    half = LatticeBasis.from_rows(2, [(1, 0), (0, 2)])
    with pytest.raises(ValueError):
        lattice_index(z2, half)
    # rank-0 sup
    zero = LatticeBasis.from_rows(2, [])
    assert lattice_index(zero, zero) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_lattice_index_determinant_law(args):
    n, urows = args
    u = IntMatrix(urows)
    d = u.det()
    if d == 0:
        return
    sup = LatticeBasis.from_rows(n, IntMatrix.identity(n).rows)
    sub = LatticeBasis.from_rows(n, (u * IntMatrix.identity(n)).rows)
    assert lattice_index(sub, sup) == abs(d)


def test_guard_trips_on_huge_products(monkeypatch):
    from katolab import ResourceLimitError
    from katolab._limits import ENV_VAR

    monkeypatch.setenv(ENV_VAR, "10")
    big = IntMatrix([[10**9, 0], [0, 1]])
    with pytest.raises(ResourceLimitError):
        big * big
