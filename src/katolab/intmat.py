"""Exact dense integer matrices and integral lattice utilities.

Everything here is arbitrary-precision and deterministic: matrix products,
fraction-free (Bareiss) elimination for determinants and ranks, Hermite normal
forms with unimodular witnesses (which also give inverses and lattice
indices), and left fixed lattices; no rational arithmetic anywhere.  Matrices
are immutable; sizes are small (a handful of rows), so clarity wins over
asymptotics throughout.

The public constructor ``IntMatrix(rows)`` checks its input: integer
entries, equal row lengths, at least one row and one column.  The private
``IntMatrix._of(rows)`` skips those checks.  It may be used only for results
of exact integer arithmetic on matrices that are already valid (sums,
differences, products, transposes, Hermite forms and their witnesses, blocks
cut from a valid matrix, and identities), and ``rows`` must then already be a
non-empty tuple of equal-length, non-empty tuples of ``int``.  Input from
outside this module always goes through ``IntMatrix(...)``.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence, Union

from ._frozen import frozen
from ._limits import guard_int

Row = tuple[int, ...]


def _as_rows(rows: Iterable[Iterable[int]]) -> tuple[Row, ...]:
    out: list[Row] = []
    width: int | None = None
    for raw in rows:
        row = tuple(int(operator.index(x)) for x in raw)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged rows: all rows must have the same length")
        out.append(row)
    if not out or width == 0:
        raise ValueError("matrix must have at least one row and one column")
    return tuple(out)


class IntMatrix:
    """Immutable row-major integer matrix.

    Rectangular shapes are allowed; operations that only make sense for
    square matrices (``det``, ``n``, powers, ...) raise ``ValueError`` on
    non-square input.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        object.__setattr__(self, "rows", _as_rows(rows))

    @classmethod
    def _of(cls, rows: tuple[Row, ...]) -> "IntMatrix":
        """Trusted constructor: ``rows`` is already valid (see the module docstring)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("IntMatrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(cols).transpose()

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def n(self) -> int:
        """Square dimension; raises if the matrix is rectangular."""
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def col(self, j: int) -> Row:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[Row, ...]:
        return tuple(self.col(j) for j in range(self.ncols))

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    # -- predicates ---------------------------------------------------------

    def is_identity(self) -> bool:
        return self.is_square and all(
            x == int(i == j) for i, r in enumerate(self.rows) for j, x in enumerate(r)
        )

    def is_positive(self) -> bool:
        return all(x > 0 for r in self.rows for x in r)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._shape_match(other)
        return IntMatrix._of(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._shape_match(other)
        return IntMatrix._of(
            tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __mul__(self, other: Union["IntMatrix", int]) -> "IntMatrix":
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("inner dimensions do not match")
            cols = other.columns()
            rows = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in self.rows)
        else:
            other = operator.index(other)
            rows = tuple(tuple(x * other for x in r) for r in self.rows)
        _guard_rows(rows, "matrix entry")
        return IntMatrix._of(rows)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntMatrix":
        n = self.n
        if e < 0:
            return self.inverse_unimodular() ** (-e)
        acc = IntMatrix.identity(n)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.columns())

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    # -- exact linear algebra ------------------------------------------------

    def det(self) -> int:
        """Determinant: the last entry of the fraction-free echelon form."""
        rows = self.to_rows()
        swaps = _echelon(rows)[1]
        return (-1) ** swaps * rows[self.n - 1][-1]

    def rank(self) -> int:
        """Rank over the rationals: the pivot count of the echelon form."""
        return len(_echelon(self.to_rows())[0])

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a matrix with determinant +-1.

        The Hermite form of a unimodular matrix is the identity, so its
        witness ``U`` (with ``U * self == I``) is the inverse.
        """
        h, u = hermite_normal_form(self)
        if not h.is_identity():
            raise ValueError("matrix is not unimodular")
        return u

    # -- dunder plumbing -----------------------------------------------------

    def _shape_match(self, other: "IntMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def _guard_rows(rows: Iterable[Iterable[int]], context: str) -> None:
    """One digit-cap check on the largest magnitude among ``rows``."""
    guard_int(max(abs(x) for r in rows for x in r), context)


def vec_mat(v: Sequence[int], m: IntMatrix) -> Row:
    """Row vector times matrix, exactly."""
    if len(v) != m.nrows:
        raise ValueError("vector length does not match row count")
    out = tuple(sum(v[i] * m.rows[i][j] for i in range(m.nrows)) for j in range(m.ncols))
    _guard_rows((out,), "vector entry")
    return out


# -- fraction-free elimination ------------------------------------------------


def _echelon(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of ``rows``, computed in place.

    Returns the pivot columns and the number of row swaps.  After each step
    the entries below the pivot rows are minors of the input, so every
    division is exact and one guard per step covers them all.  For a
    square input the last entry is the determinant, up to the sign of the
    swaps (a singular input ends in a zero row).
    """
    nr = len(rows)
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for col in range(len(rows[0])):
        top = len(pivots)
        if top == nr:
            break
        piv = next((i for i in range(top, nr) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            swaps += 1
        head = rows[top]
        p = head[col]
        for i in range(top + 1, nr):
            f = rows[i][col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], head)]
        _guard_rows(rows, "elimination minor")
        prev = p
        pivots.append(col)
    return pivots, swaps


# -- Hermite normal form ------------------------------------------------------


def _row_addmul(rows: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        rows[dst] = [x + factor * y for x, y in zip(rows[dst], rows[src])]


def hermite_normal_form(
    m: Union[IntMatrix, Iterable[Iterable[int]]],
) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form with unimodular witness.

    Returns ``(H, U)`` with ``U * m == H``, ``|det U| == 1``, pivots positive,
    entries above each pivot reduced into ``[0, pivot)``, and zero rows of
    ``H`` collected at the bottom.  ``m`` may be rectangular.
    """
    mat = m if isinstance(m, IntMatrix) else IntMatrix(m)
    nr, nc = mat.nrows, mat.ncols
    work = mat.to_rows()
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    top = 0
    for col in range(nc):
        if top == nr:
            break
        # Euclid downward: shrink entries at/below `top` until one survives.
        while True:
            live = [i for i in range(top, nr) if work[i][col] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: (abs(work[i][col]), i))
            if piv != top:
                work[top], work[piv] = work[piv], work[top]
                u[top], u[piv] = u[piv], u[top]
            clean = True
            for i in range(top + 1, nr):
                if work[i][col] != 0:
                    q = work[i][col] // work[top][col]
                    _row_addmul(work, i, top, -q)
                    _row_addmul(u, i, top, -q)
                    if work[i][col] != 0:
                        clean = False
            if clean:
                break
        if work[top][col] == 0:
            continue
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
            u[top] = [-x for x in u[top]]
        for i in range(top):  # reduce the entries above the pivot into [0, p)
            q = work[i][col] // work[top][col]
            _row_addmul(work, i, top, -q)
            _row_addmul(u, i, top, -q)
        top += 1
    _guard_rows(work + u, "normal form entry")
    return IntMatrix._of(tuple(map(tuple, work))), IntMatrix._of(tuple(map(tuple, u)))


# -- lattices ------------------------------------------------------------------


@frozen
class LatticeBasis:
    """Canonical basis (Hermite-reduced rows) of a sublattice of Z^ambient_dim.

    ``rows`` may be empty (the zero lattice).  Two equal lattices always
    produce equal ``LatticeBasis`` values, so ``==`` is lattice equality.
    """

    ambient_dim: int
    rows: tuple[Row, ...]

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Iterable[int]]) -> "LatticeBasis":
        raw = [tuple(int(operator.index(x)) for x in r) for r in rows]
        for r in raw:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
        raw = [r for r in raw if any(r)]
        if not raw:
            return cls(ambient_dim, ())
        h, _ = hermite_normal_form(raw)
        return cls(ambient_dim, tuple(r for r in h.rows if any(r)))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "rows": [list(r) for r in self.rows]}


def left_kernel_lattice(m: IntMatrix) -> LatticeBasis:
    """Saturated lattice ``{v : v m = 0}`` as canonical rows.

    The rows of the unimodular witness opposite the zero rows of the Hermite
    form are an exact basis of the integer left kernel.
    """
    h, u = hermite_normal_form(m)
    kernel = [u.rows[i] for i in range(m.nrows) if not any(h.rows[i])]
    return LatticeBasis.from_rows(m.nrows, kernel)


def left_fixed_lattice(a: IntMatrix) -> LatticeBasis:
    """Lattice of integer row vectors ``v`` with ``v a == v``."""
    return left_kernel_lattice(a - IntMatrix.identity(a.n))


def lattice_index(sub: LatticeBasis, sup: LatticeBasis) -> Union[int, float]:
    """Index ``[sup : sub]``: a positive integer, or ``math.inf`` if rank drops.

    Raises ``ValueError`` when ``sub`` is not contained in ``sup`` (either
    outside the rational span or with non-integer coordinates in it).
    ``sub`` lies in ``sup`` exactly when adding its rows leaves the Hermite
    basis of ``sup`` unchanged.  Nested lattices of equal rank share their
    pivot columns, and projecting onto those is injective on the span, so
    the index is the ratio of the products of the Hermite pivots (Cohen, *A
    Course in Computational Algebraic Number Theory*, section 2.4).
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimensions differ")
    joined = LatticeBasis.from_rows(sup.ambient_dim, sup.rows + sub.rows)
    if joined.rank > sup.rank:
        raise ValueError("sub-lattice is not contained in the rational span")
    if joined != sup:
        raise ValueError("not a sublattice: non-integer coordinates over the big lattice")
    if sub.rank < sup.rank:
        return math.inf
    pivots = [math.prod(next(x for x in r if x) for r in b.rows) for b in (sub, sup)]
    return pivots[0] // pivots[1]


# -- characteristic polynomial -------------------------------------------------


def characteristic_polynomial(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients of ``det(t I - a)`` in ascending order (monic, exact).

    Uses the Faddeev-LeVerrier recurrence; every division is exact for
    integer input, which is asserted.
    """
    n = a.n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a * mk
        tr = am.trace()
        q, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[n - k] = q
        if k < n:
            mk = am + IntMatrix.identity(n) * q
    return tuple(coeffs)
