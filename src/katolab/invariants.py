"""Closed-form invariants of the compact manifolds attached to Kato matrices.

Everything is assembled exactly from the factor word, the block structure,
and integer lattice computations; the only float in the report is the Perron
root: the float nearest the midpoint of an exact rational enclosure of
relative width 1e-10 (see :func:`katolab.dynamics.perron_data`).
``build_report`` recognizes the matrix once and hands the ``Recognized``
value, which computes ``m1``, the fixed lattice and the positivity power once
each, to every invariant.  It also re-checks the proven consistency
relations between the pieces and raises ``RuntimeError`` if any fails (an
internal bug, not bad input).
"""

from __future__ import annotations

import math
from typing import Literal, Optional

from ._frozen import frozen
from .dynamics import perron_data
from .formats import format_matrix_text
from .intmat import IntMatrix, LatticeBasis, Row, lattice_index, vec_mat
from .words import Recognized, StandardForm, recognize

# -- cohomology ------------------------------------------------------------------


def betti_numbers(n: int, k: int) -> list[int]:
    """Betti numbers b_0..b_2n: ones at 0, 1, 2n-1, 2n; k in even middle degrees."""
    if n < 2 or k < 1:
        raise ValueError("need dimension >= 2 and at least one factor")
    b = [0] * (2 * n + 1)
    for p in range(1, n):
        b[2 * p] = k
    b[0] = b[1] = b[2 * n - 1] = b[2 * n] = 1
    return b


def twisted_betti_numbers(n: int, k: int) -> list[int]:
    """Twisted Betti numbers: k in even middle degrees, zero elsewhere.

    Valid for every closed non-exact twisting class, so none is taken as
    input.
    """
    if n < 2 or k < 1:
        raise ValueError("need dimension >= 2 and at least one factor")
    b = [0] * (2 * n + 1)
    for p in range(1, n):
        b[2 * p] = k
    return b


def _alternating_sum(bs: list[int]) -> int:
    return sum((-1) ** p * b for p, b in enumerate(bs))


# -- lattices -----------------------------------------------------------------------


def multiplicity_one(a: IntMatrix) -> int:
    """Geometric multiplicity of eigenvalue 1: ``n - rank(A - I)`` over Q."""
    return a.n - (a - IntMatrix.identity(a.n)).rank()


def _block_fixed_lattice(rec: Recognized) -> LatticeBasis:
    """The fixed lattice ``K_B`` of the lower block, read off ``K_A``.

    ``(0, w)`` is fixed by the matrix exactly when ``w`` is fixed by ``B``,
    and the rows of a Hermite basis that vanish on the first ``l``
    coordinates are the Hermite basis of the lattice's part there (Cohen, *A
    Course in Computational Algebraic Number Theory*, section 2.4).  So
    ``K_B`` is the last ``n - l`` entries of those rows of ``K_A``, with no
    second Hermite form.  The documented rank relation ``rank K_B = rank K_A
    - l`` is asserted; it holds exactly when ``K_A`` has a pivot in each of
    the first ``l`` columns.
    """
    ka, l = rec.fixed_lattice, rec.l
    kb = LatticeBasis(ka.ambient_dim - l, tuple(row[l:] for row in ka.rows if not any(row[:l])))
    if kb.rank != ka.rank - l:
        raise RuntimeError("internal: block kernel rank relation violated")
    return kb


def theta_lattice(a: IntMatrix | Recognized) -> tuple[LatticeBasis, int]:
    """The explicit finite-index sublattice of the fixed lattice, with index.

    Generators: the sum-zero leading directions ``e_i - e_{i+1}``, one mixed
    generator ``((n-l-1) e_1, -J_0)`` realizing the parameter ``a = 1``, and
    the fixed vectors of the lower block, ``K_B``, which come from the rows
    of the fixed lattice ``K_A`` (see :func:`_block_fixed_lattice`).  Every
    generator is checked to be fixed by ``a``.
    """
    rec = recognize(a)
    a, form, ka = rec.matrix, rec.form, rec.fixed_lattice
    n, l = form.n, form.l
    nl = n - l
    kb = _block_fixed_lattice(rec)
    gens: list[Row] = []
    for i in range(l - 1):
        gens.append(
            tuple(int(t == i) - int(t == i + 1) for t in range(l)) + (0,) * nl
        )
    if l >= 1:
        gens.append((n - l - 1,) + (0,) * (l - 1) + (-1,) * nl)
    for row in kb.rows:
        gens.append((0,) * l + row)
    for g in gens:
        if vec_mat(g, a) != g:
            raise RuntimeError("internal: generator is not fixed by the matrix")
    theta = LatticeBasis.from_rows(n, gens)
    if theta.rank != ka.rank:
        raise RuntimeError("internal: the sublattice must have full rank in the fixed lattice")
    idx = lattice_index(theta, ka)
    if idx == math.inf:
        raise RuntimeError("internal: index must be finite")
    return theta, int(idx)


def verify_J0_relation(form: StandardForm) -> bool:
    """Exact check of the all-ones row relation ``J0 B - J0 == (n-l-1) L``."""
    if form.l < 1:
        raise ValueError("the relation involves the off-diagonal line; type must be >= 1")
    nl = form.b.n
    j0b = vec_mat((1,) * nl, form.b)
    scale = form.n - form.l - 1
    return all(j0b[t] - 1 == scale * form.line[t] for t in range(nl))


@frozen
class InvariantMonomial:
    """A Laurent monomial fixed by the germ: exponents plus display string."""

    exponents: Row
    display: str


def invariant_monomials(a: IntMatrix | Recognized) -> list[InvariantMonomial]:
    """Canonical basis of the fixed lattice rendered as Laurent monomials.

    Coordinate names follow the block split: ``z1..zl`` then ``w(l+1)..wn``.
    Each exponent vector satisfies ``I A == I`` exactly.
    """
    rec = recognize(a)
    a, l, ka = rec.matrix, rec.l, rec.fixed_lattice
    names = [f"z{i + 1}" if i < l else f"w{i + 1}" for i in range(a.n)]
    out = []
    for row in ka.rows:
        if vec_mat(row, a) != row:
            raise RuntimeError("internal: basis vector is not fixed")
        parts = [
            (names[i] if e == 1 else f"{names[i]}^{e}")
            for i, e in enumerate(row)
            if e
        ]
        out.append(InvariantMonomial(row, "*".join(parts)))
    return out


# -- dimension estimates ----------------------------------------------------------------


@frozen
class DimensionValue:
    """An exact value, a lower bound, or a two-sided bound."""

    kind: Literal["exact", "lower_bound", "bounds"]
    value: Optional[int] = None
    bounds: Optional[tuple[int, int]] = None

    @classmethod
    def exact(cls, v: int) -> "DimensionValue":
        return cls("exact", value=v)

    @classmethod
    def lower_bound(cls, v: int) -> "DimensionValue":
        return cls("lower_bound", value=v)

    @classmethod
    def between(cls, lo: int, hi: int) -> "DimensionValue":
        return cls("bounds", bounds=(lo, hi))

    def to_json(self) -> dict:
        if self.kind == "exact":
            return {"exact": self.value}
        if self.kind == "lower_bound":
            return {"lower_bound": self.value}
        return {"bounds": list(self.bounds)}

    def __str__(self) -> str:
        if self.kind == "exact":
            return f"{self.value}"
        if self.kind == "lower_bound":
            return f">= {self.value}"
        return f"in [{self.bounds[0]}, {self.bounds[1]}]"


def hol_vf_dimension(a: IntMatrix | Recognized) -> DimensionValue:
    """Dimension of the global holomorphic vector fields: exact when known.

    Exact ``(n-1)(n-2)`` for ``l == n-2`` (for ``n == 2`` this agrees with
    the covering bound through the positive power); exact ``m1`` for positive
    type-0 matrices; otherwise the proven lower bound ``l^2 - l + m1``.
    """
    rec = recognize(a)
    n, l = rec.matrix.n, rec.l
    if l == n - 2:
        return DimensionValue.exact((n - 1) * (n - 2))
    if l == 0 and rec.matrix.is_positive():
        return DimensionValue.exact(rec.m1)
    return DimensionValue.lower_bound(l * l - l + rec.m1)


def alg_dim(a: IntMatrix | Recognized) -> DimensionValue:
    """Algebraic dimension: exact ``n-2`` when ``l == n-2``, else bounds."""
    rec = recognize(a)
    n, l = rec.matrix.n, rec.l
    if l == n - 2:
        return DimensionValue.exact(n - 2)
    return DimensionValue.between(max(rec.m1, l), n - 1)


# -- canonical bundle ---------------------------------------------------------------------


@frozen
class CanonicalData:
    descriptor: str
    kodaira: str
    anticanonical_h0: Optional[int]


def canonical_descriptor(a: IntMatrix | Recognized) -> CanonicalData:
    """Canonical bundle descriptor, Kodaira dimension, and (when defined)
    the anticanonical section count ``C(2n-3, n-2)``.

    With unimodular determinant +1 the canonical bundle is the divisor
    ``-A_(1) - ... - A_(l) - C``; determinant -1 twists by the order-two
    flat bundle ``L``.  The anticanonical count applies only for
    ``l == n-2`` with determinant +1.
    """
    rec = recognize(a)
    n, l = rec.matrix.n, rec.l
    terms = "".join(f"-A_({j})" for j in range(1, l + 1)) + "-C"
    bundle = f"O({terms})"
    descriptor = f"K = {bundle}" if rec.det == 1 else f"K = L⊗{bundle}"
    h0 = math.comb(2 * n - 3, n - 2) if (l == n - 2 and rec.det == 1) else None
    return CanonicalData(descriptor, "-infinity", h0)


# -- full report -----------------------------------------------------------------------------


@frozen
class SemidirectGroup:
    """Presentation of the complement fundamental group."""

    group: str
    action_matrix: IntMatrix

    def to_json(self) -> dict:
        return {"group": self.group, "action_matrix": self.action_matrix.to_rows()}


@frozen
class InvariantReport:
    n: int
    k: int
    l: int
    rank_r: int
    betti: tuple[int, ...]
    twisted_betti: tuple[int, ...]
    euler: int
    m1: int
    kA_basis: LatticeBasis
    theta_basis: LatticeBasis
    theta_index: int
    alg_dim: DimensionValue
    h0_tangent: DimensionValue
    h0_one_forms: int
    kodaira: str
    pi1_M: str
    pi1_M_minus_C: SemidirectGroup
    perron_alpha: float
    torus_rank: int
    k_components: int
    covering_degree_to_base: Optional[int]
    canonical_descriptor: str
    anticanonical_h0: Optional[int]
    alg_reduction: Optional[str]
    det: int

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "rank_r": self.rank_r,
            "betti": list(self.betti),
            "twisted_betti": list(self.twisted_betti),
            "euler": self.euler,
            "m1": self.m1,
            "kA_basis": self.kA_basis.to_json(),
            "theta_basis": self.theta_basis.to_json(),
            "theta_index": self.theta_index,
            "alg_dim": self.alg_dim.to_json(),
            "h0_tangent": self.h0_tangent.to_json(),
            "h0_one_forms": self.h0_one_forms,
            "kodaira": self.kodaira,
            "pi1_M": self.pi1_M,
            "pi1_M_minus_C": self.pi1_M_minus_C.to_json(),
            "perron_alpha": self.perron_alpha,
            "torus_rank": self.torus_rank,
            "k_components": self.k_components,
        }
        if self.covering_degree_to_base is not None:
            out["covering_degree_to_base"] = self.covering_degree_to_base
        out["canonical_descriptor"] = self.canonical_descriptor
        if self.anticanonical_h0 is not None:
            out["anticanonical_h0"] = self.anticanonical_h0
        if self.alg_reduction is not None:
            out["alg_reduction"] = self.alg_reduction
        out["det"] = self.det
        return out


def build_report(a: IntMatrix | Recognized) -> InvariantReport:
    """Assemble every closed-form invariant of the manifold of ``a``.

    Raises recognition errors for non-Kato input and ``RuntimeError`` if any
    proven cross-relation fails internally.
    """
    rec = recognize(a)
    form = rec.form
    n, l, k = rec.matrix.n, rec.l, rec.word.k
    r = n - l

    betti = betti_numbers(n, k)
    twisted = twisted_betti_numbers(n, k)
    euler = _alternating_sum(betti)
    if euler != k * (n - 1) or _alternating_sum(twisted) != euler:
        raise RuntimeError("internal: Euler characteristic consistency failed")

    m1, ka = rec.m1, rec.fixed_lattice
    if ka.rank != m1 or m1 < l:
        raise RuntimeError("internal: fixed-lattice rank inconsistency")
    theta, idx = theta_lattice(rec)
    if l == n - 2 and (idx != 1 or m1 != n - 2):
        raise RuntimeError("internal: the l = n-2 case must have index 1 and m1 = n-2")
    if form.b.is_positive() and k < r:
        raise RuntimeError("internal: l-positive words need at least n-l factors")
    if l >= 1 and not verify_J0_relation(form):
        raise RuntimeError("internal: all-ones row relation failed")

    canonical = canonical_descriptor(rec)
    alg_reduction = None
    if l == n - 2:
        alg_reduction = (
            f"map onto P^{n - 2}; generic fiber bimeromorphic to the surface "
            f"of the block {format_matrix_text(form.b)}"
        )

    return InvariantReport(
        n=n,
        k=k,
        l=l,
        rank_r=r,
        betti=tuple(betti),
        twisted_betti=tuple(twisted),
        euler=euler,
        m1=m1,
        kA_basis=ka,
        theta_basis=theta,
        theta_index=idx,
        alg_dim=alg_dim(rec),
        h0_tangent=hol_vf_dimension(rec),
        h0_one_forms=0,
        kodaira="-infinity",
        pi1_M="Z",
        pi1_M_minus_C=SemidirectGroup(f"Z ⋉ Z^{r}", form.b),
        perron_alpha=perron_data(rec).alpha,
        torus_rank=l,
        k_components=k,
        covering_degree_to_base=(n - l - 1) if l > 0 else None,
        canonical_descriptor=canonical.descriptor,
        anticanonical_h0=canonical.anticanonical_h0,
        alg_reduction=alg_reduction,
        det=rec.det,
    )
