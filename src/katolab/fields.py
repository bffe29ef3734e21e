"""Symbolic verification of the invariance equations for vector fields and
one-forms under the monomial germ.

Three independent routes into the same geometry:

* :func:`pushforward_invariance` checks a single monomial vector field
  symbolically (exact Laurent arithmetic, no truncation);
* :func:`tangent_field_nullity` solves the coefficient system of the
  invariance equation for polynomial fields of bounded degree (positive
  type-0 matrices), whose nullity equals the multiplicity of eigenvalue 1 at
  every degree;
* :func:`one_form_nullity` solves the pullback system for one-form
  coefficients of bounded degree, whose nullity is 0 for l-positive
  matrices at every degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from ._frozen import frozen
from .dynamics import root_of_unity_check
from .intmat import IntMatrix, left_kernel_lattice, vec_mat
from .laurent import SparseLaurentPoly, iter_monomials
from .linsys import system_nullity, system_rank
from .words import Recognized, recognize


@frozen
class MonomialVectorField:
    """A vector field with one Laurent-polynomial coefficient per coordinate."""

    components: tuple[SparseLaurentPoly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a vector field needs at least one component")
        n = self.components[0].nvars
        if any(c.nvars != n for c in self.components) or len(self.components) != n:
            raise ValueError("components must be n polynomials in n variables")

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def is_polynomial(self) -> bool:
        return all(c.is_polynomial for c in self.components)

    def __add__(self, other: "MonomialVectorField") -> "MonomialVectorField":
        return MonomialVectorField(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __rmul__(self, scalar: Union[int, Fraction]) -> "MonomialVectorField":
        return MonomialVectorField(tuple(scalar * c for c in self.components))

    __mul__ = __rmul__


def coordinate_field(n: int, s: int, t: int) -> MonomialVectorField:
    """The field ``z_s * d/dz_t`` (1-based indices)."""
    comps = [SparseLaurentPoly.zero(n) for _ in range(n)]
    comps[t - 1] = SparseLaurentPoly.variable(n, s)
    return MonomialVectorField(tuple(comps))


def monomial_field(exponents_per_component: Sequence[Optional[Sequence[int]]]) -> MonomialVectorField:
    """Build a field from one optional monomial exponent vector per slot."""
    n = len(exponents_per_component)
    comps = []
    for e in exponents_per_component:
        comps.append(
            SparseLaurentPoly.zero(n) if e is None else SparseLaurentPoly.monomial(tuple(e))
        )
    return MonomialVectorField(tuple(comps))


def pushforward_invariance(a: IntMatrix, field: MonomialVectorField) -> bool:
    """Exact symbolic test that the germ's pushforward fixes ``field``.

    Forms both sides as Laurent vectors: the s-th pushforward component is
    ``sum_t a[s][t] * z^(row_s - e_t) * X_t(z)``, compared against
    ``X_s(F(z))``.  Components must be polynomials (nonnegative exponents),
    which keeps every intermediate a Laurent polynomial with nonnegative
    exponents since the matrix entries are nonnegative.
    """
    n = a.n
    if field.nvars != n:
        raise ValueError("field and matrix dimensions differ")
    if not field.is_polynomial:
        raise ValueError("components must be polynomials (no negative exponents)")
    for s in range(n):
        lhs = SparseLaurentPoly.zero(n)
        for t in range(n):
            coeff = a.rows[s][t]
            if coeff == 0:
                continue
            shift = tuple(a.rows[s][u] - int(u == t) for u in range(n))
            lhs = lhs + SparseLaurentPoly.monomial(shift, coeff) * field.components[t]
        rhs = field.components[s].substitute_map(a)
        if lhs != rhs:
            return False
    return True


def standard_field_generators(a: IntMatrix | Recognized) -> tuple[MonomialVectorField, ...]:
    """The explicit invariant fields attached to the block structure.

    For type ``l``: the ``l*l`` coordinate fields ``z_s d/dz_t`` (s, t <= l),
    one diagonal field ``sum_p v_p w_p d/dw_p`` per basis vector ``v`` of
    ``{v : B v = v, G v = 0}``, and — exactly when ``l == n-2`` — the ``l``
    extra fields ``w_{n-1} w_n d/dz_j``.  The list is linearly independent
    and realizes the dimension bounds reported by the invariants module.
    """
    rec = recognize(a)
    form = rec.form
    n, l = form.n, form.l
    gens = [coordinate_field(n, s, t) for s in range(1, l + 1) for t in range(1, l + 1)]

    # right kernel of [[B - I], [G]]: directions fixed by B and killed by G
    stacked_rows = (form.b - IntMatrix.identity(form.b.n)).to_rows()
    stacked_rows.extend(list(r) for r in form.g)
    kernel = left_kernel_lattice(IntMatrix(stacked_rows).transpose())
    if kernel.rank != rec.m1 - l:
        raise RuntimeError("internal: diagonal-field count must be m1 - l")
    for v in kernel.rows:
        comps = [SparseLaurentPoly.zero(n) for _ in range(n)]
        for p in range(form.b.n):
            if v[p]:
                comps[l + p] = SparseLaurentPoly.variable(n, l + p + 1) * v[p]
        gens.append(MonomialVectorField(tuple(comps)))

    if l == n - 2:
        cross = tuple(int(u >= n - 2) for u in range(n))  # w_{n-1} * w_n
        for j in range(1, l + 1):
            comps = [SparseLaurentPoly.zero(n) for _ in range(n)]
            comps[j - 1] = SparseLaurentPoly.monomial(cross)
            gens.append(MonomialVectorField(tuple(comps)))
    return tuple(gens)


def generator_rank(gens: Sequence[MonomialVectorField]) -> int:
    """Rank of the fields' coefficient vectors, one coordinate per (slot, monomial)."""
    variables = sorted({(t, e) for g in gens for t, comp in enumerate(g.components) for e in comp.terms})
    equations = [
        {(t, e): c for t, comp in enumerate(g.components) for e, c in comp.terms.items()} for g in gens
    ]
    return system_rank(variables, equations)


# -- truncated coefficient systems ------------------------------------------------


def tangent_field_nullity(a: IntMatrix, degree: int) -> int:
    """Nullity of the polynomial vector-field invariance system at ``degree``.

    Unknowns are the coefficients ``c_I^(j)`` (|I| <= degree) of candidate
    components ``h_j``; the equation at output monomial ``I`` reads
    ``sum_j a[s][j] c_I^(j) = c_{I A^{-1}}^(s)`` (right side zero when
    ``I A^{-1}`` leaves the monomial lattice).  Because column sums of a
    positive matrix are >= 2, the index map never raises total degree, so the
    window is self-contained.  The nullity equals the multiplicity of
    eigenvalue 1 at every degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not a.is_positive():
        raise ValueError("the truncated solver requires a strictly positive matrix")
    n = a.n
    inv = a.inverse_unimodular()
    monos = list(iter_monomials(n, degree))
    variables = [(j, e) for e in monos for j in range(n)]
    equations = []
    for e in monos:
        pre = vec_mat(e, inv)
        inside = all(x >= 0 for x in pre)
        if inside:
            assert sum(pre) <= degree, "degree must not increase along the index map"
        for s in range(n):
            eq: dict = {}
            for j in range(n):
                if a.rows[s][j]:
                    eq[(j, e)] = a.rows[s][j]
            if inside:
                eq[(s, pre)] = eq.get((s, pre), 0) - 1
            equations.append(eq)
    return system_nullity(variables, equations)


def one_form_nullity(a: IntMatrix | Recognized, degree: int) -> int:
    """Nullity of the truncated one-form pullback system at ``degree``.

    Unknowns are the coefficients of candidate component functions
    ``h_1..h_n`` on monomials ``z^I w^J`` with ``|I| + |J| <= degree``.  The
    pullback acts on exponents by ``(I, J) -> (I, |I| L + J B)``; the leading
    component equations multiply by ``w^L``, the remaining ones mix through
    the ``B``-block and compare against a ``w``-shift of the right side.
    Every output monomial touched by a window variable contributes one
    equation (the candidate components are genuine polynomials, so
    out-of-window coefficients are zero, not unknown).  The nullity is 0 for
    l-positive matrices at every degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    form = recognize(a).form
    if not form.b.is_positive():
        raise ValueError("the one-form solver requires an l-positive matrix")
    n, l = form.n, form.l
    nl = n - l
    line = form.line
    j0 = (1,) * nl
    j0b = vec_mat(j0, form.b)

    window = [
        (zi, wj)
        for zi in iter_monomials(l, degree)
        for wj in iter_monomials(nl, degree - sum(zi))
    ]
    variables = [(t, zi, wj) for t in range(1, n + 1) for (zi, wj) in window]

    equations: dict[tuple, dict] = {}

    def add(key: tuple, var: tuple, coeff: int) -> None:
        eq = equations.setdefault(key, {})
        eq[var] = eq.get(var, 0) + coeff

    for zi, wj in window:
        zsum = sum(zi)
        pulled = vec_mat(wj, form.b)
        if l:
            pulled = tuple(p + zsum * line[t] for t, p in enumerate(pulled))
        shifted = tuple(p + line[t] for t, p in enumerate(pulled)) if l else pulled
        for j in range(1, l + 1):
            var = (j, zi, wj)
            add(("lead", j, zi, shifted), var, 1)
            add(("lead", j, zi, wj), var, -1)
        for t in range(l + 1, n + 1):
            tt = t - l - 1
            for j in range(1, l + 1):
                if line[tt]:
                    bumped = tuple(x + int(u == j - 1) for u, x in enumerate(zi))
                    add(("mix", t, bumped, shifted), (j, zi, wj), line[tt])
            out = tuple(p + j0b[u] for u, p in enumerate(pulled))
            for s in range(l + 1, n + 1):
                coeff = form.b.rows[s - l - 1][tt]
                if coeff:
                    add(("mix", t, zi, out), (s, zi, wj), coeff)
            rhs_exp = tuple(x + 1 for x in wj)
            add(("mix", t, zi, rhs_exp), (t, zi, wj), -1)

    return system_nullity(variables, equations.values())


# -- advisory ---------------------------------------------------------------------------


@frozen
class FunctionTheoryNote:
    """Whether the no-nonconstant-functions criterion applies to ``a``."""

    positive: bool
    root_of_unity: bool
    hypothesis_holds: bool
    note: str

    def to_json(self) -> dict:
        return {
            "positive": self.positive,
            "root_of_unity": self.root_of_unity,
            "hypothesis_holds": self.hypothesis_holds,
            "note": self.note,
        }


def function_nullity_note(a: IntMatrix) -> FunctionTheoryNote:
    """Advisory: does the function-theoretic vanishing criterion apply?

    The criterion needs a strictly positive matrix whose spectrum avoids
    every root of unity; no series computation is attempted here.
    """
    positive = a.is_positive()
    unity = root_of_unity_check(a)
    holds = positive and not unity
    if holds:
        note = "criterion applies: only constant invariant functions exist"
    elif not positive:
        note = "matrix is not positive; apply the criterion to a positive power"
    else:
        note = "spectrum meets a root of unity; criterion inconclusive"
    return FunctionTheoryNote(positive, unity, holds, note)
