"""Elementary factor words: recognition, factorization, and normal forms.

An elementary matrix of dimension ``n`` and index ``j`` has columns
``e_1, ..., e_{j-1}, e_{j+1}, ..., e_n, c`` where ``c`` is the all-ones
column.  A *Kato matrix* is a nonempty product of elementaries that is not a
pure power of the index-``n`` factor.  Factorization peels the rightmost
factor by subtracting the first ``n-1`` columns from the last and re-inserting
the difference at the unique position compatible with the column chain order;
:func:`recognize` keeps the word together with the block form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intmat import IntMatrix, Row


class KatoRecognitionError(ValueError):
    """Base class for recognition failures (maps to CLI exit code 3)."""


class NotAProduct(KatoRecognitionError):
    """The matrix is not a product of elementary factors."""


class AmbiguousOrder(NotAProduct):
    """More than one insertion position fits the column chain.

    Unreachable for the chain order implemented here (two valid positions
    would need ``u`` before and after the peeled column simultaneously), but
    kept as a defensive surface: if the order relation is ever changed, the
    factorizer will refuse to guess.
    """


class NotKato(KatoRecognitionError):
    """The matrix is a factor product but lies in the excluded pure family."""


# -- column chain order --------------------------------------------------------


def _unit_index(v: Sequence[int]) -> int | None:
    """1-based ``i`` when ``v == e_i``, else None."""
    idx = None
    for i, x in enumerate(v):
        if x == 0:
            continue
        if x != 1 or idx is not None:
            return None
        idx = i
    return None if idx is None else idx + 1


def column_precedes(v: Sequence[int], w: Sequence[int]) -> bool:
    """Strict chain order on columns of factor products.

    Two standard basis columns are ordered by index; otherwise the order is
    componentwise <= with at least one strict coordinate.  The relation is
    irreflexive and asymmetric but not transitive.
    """
    if len(v) != len(w):
        raise ValueError("columns must have equal length")
    iv, iw = _unit_index(v), _unit_index(w)
    if iv is not None and iw is not None:
        return iv < iw
    return all(x <= y for x, y in zip(v, w)) and tuple(v) != tuple(w)


# -- words ----------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSeq:
    """A word of elementary factors: dimension ``n``, 1-based indices."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(j) for j in self.indices))
        if self.n < 2:
            raise ValueError("words are defined for dimension >= 2")
        if not self.indices:
            raise ValueError("a word needs at least one factor")
        bad = [j for j in self.indices if not 1 <= j <= self.n]
        if bad:
            raise ValueError(f"factor indices must lie in 1..{self.n}, got {bad}")

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def is_kato_word(self) -> bool:
        """False exactly for the excluded pure words ``[n, n, ..., n]``."""
        return any(j != self.n for j in self.indices)


def elementary(n: int, j: int) -> IntMatrix:
    """The dimension-``n`` elementary matrix with index ``j``.

    Columns: the standard basis with ``e_j`` removed, then the all-ones
    column last.  Its determinant is ``(-1)**(n-j)``.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not 1 <= j <= n:
        raise ValueError(f"index must lie in 1..{n}, got {j}")
    cols = [tuple(int(s == t) for s in range(1, n + 1)) for t in range(1, n + 1) if t != j]
    cols.append((1,) * n)
    return IntMatrix.from_columns(cols)


def compose_factors(seq: FactorSeq) -> IntMatrix:
    """Product of the word's elementary factors, left to right."""
    out = elementary(seq.n, seq.indices[0])
    for j in seq.indices[1:]:
        out = out * elementary(seq.n, j)
    return out


def factorize(a: IntMatrix) -> FactorSeq:
    """Recover the unique factor word of a product of elementaries.

    Peels factors from the right: the candidate column ``c`` is the last
    column minus the sum of the others, and the previous matrix is the first
    ``n-1`` columns with ``c`` inserted at the unique chain-compatible
    position.  Raises :class:`NotAProduct` when any step fails, and
    :class:`AmbiguousOrder` (never observed; see the class docstring) if more
    than one position fits.
    """
    n = a.n  # raises ValueError on rectangular input
    if n < 2:
        raise NotAProduct("products of elementary factors need dimension >= 2")
    if any(x < 0 for row in a.rows for x in row):
        raise NotAProduct("a factor product has no negative entries")
    if a.det() not in (1, -1):
        raise NotAProduct("a factor product is unimodular")
    if a.is_identity():
        raise NotAProduct("the identity is the empty word; at least one factor is required")

    cols = list(a.columns())
    total = sum(x for col in cols for x in col)
    cap = total // (n - 1) + 1
    peeled: list[int] = []
    identity_cols = list(IntMatrix.identity(n).columns())
    while cols != identity_cols:
        if len(peeled) >= cap:
            raise NotAProduct("entry-sum budget exhausted without reaching the identity")
        head, last = cols[:-1], cols[-1]
        c = tuple(last[i] - sum(h[i] for h in head) for i in range(n))
        if any(x < 0 for x in c) or not any(c):
            raise NotAProduct("peeled column is not a valid factor column")
        for i in range(n - 2):
            if not column_precedes(head[i], head[i + 1]):
                raise NotAProduct("columns are not chain-ordered")
        positions = [
            q
            for q in range(n)
            if all(column_precedes(head[i], c) for i in range(q))
            and all(column_precedes(c, head[i]) for i in range(q, n - 1))
        ]
        if not positions:
            raise NotAProduct("peeled column fits no position in the column chain")
        if len(positions) > 1:
            raise AmbiguousOrder(f"insertion position is not unique: {positions}")
        q = positions[0]
        peeled.append(q + 1)
        cols = head[:q] + [c] + head[q:]
    return FactorSeq(n, tuple(reversed(peeled)))


def is_kato(a: IntMatrix) -> bool:
    """True when ``a`` is a factor product outside the excluded pure family."""
    try:
        return factorize(a).is_kato_word
    except NotAProduct:
        return False


def _require_kato_word(a: IntMatrix) -> FactorSeq:
    seq = factorize(a)
    if not seq.is_kato_word:
        raise NotKato("matrix is a pure power of the index-n factor")
    return seq


def type_of(a: IntMatrix) -> int:
    """The type ``l``: size of the largest leading identity block.

    Equals ``min(word indices) - 1``; always ``0 <= l <= n-2`` for a Kato
    matrix.
    """
    return min(_require_kato_word(a).indices) - 1


@dataclass(frozen=True)
class StandardForm:
    """Block data ``[[I_l, G], [0, B]]`` of a Kato matrix.

    All ``l`` rows of ``G`` are equal; ``line`` is that common row (empty for
    type 0).  ``b`` is the lower-right block, itself a Kato matrix of
    dimension ``n - l`` when ``l >= 1``.
    """

    l: int
    g: tuple[Row, ...]
    b: IntMatrix
    line: Row

    @property
    def n(self) -> int:
        return self.l + self.b.n

    def to_matrix(self) -> IntMatrix:
        n, l = self.n, self.l
        rows = []
        for i in range(l):
            rows.append([int(i == j) for j in range(l)] + list(self.g[i]))
        for i in range(n - l):
            rows.append([0] * l + list(self.b.rows[i]))
        return IntMatrix(rows)


@dataclass(frozen=True)
class Recognized:
    """A Kato matrix recognized once: the matrix, its factor word, its block form."""

    matrix: IntMatrix
    word: FactorSeq
    form: StandardForm

    @property
    def l(self) -> int:
        return self.form.l


def recognize(a: IntMatrix | Recognized) -> Recognized:
    """Factorize a Kato matrix once and split it into its type-``l`` block form.

    Raises :class:`NotAProduct` or :class:`NotKato` for other input.  A value
    already recognized is returned as it is, so a function that starts with
    ``recognize`` accepts either.  The block structure is guaranteed for
    factor products; it is re-checked here and a violation raises
    ``RuntimeError`` (an internal bug, not bad input).
    """
    if isinstance(a, Recognized):
        return a
    word = _require_kato_word(a)
    l = min(word.indices) - 1
    for i, row in enumerate(a.rows):
        if any(row[j] != int(i == j) for j in range(l)):
            raise RuntimeError("internal: the first l columns are not e_1..e_l")
    g = tuple(a.rows[i][l:] for i in range(l))
    if l:
        if any(row != g[0] for row in g):
            raise RuntimeError("internal: off-diagonal rows are not all equal")
        if not any(g[0]):
            raise RuntimeError("internal: off-diagonal line vanishes")
    line: Row = g[0] if l else ()
    b = IntMatrix([row[l:] for row in a.rows[l:]])
    return Recognized(a, word, StandardForm(l=l, g=g, b=b, line=line))


def standard_form(a: IntMatrix) -> StandardForm:
    """Split a Kato matrix into its type-``l`` block form."""
    return recognize(a).form


def cyclic_normal_form(seq: FactorSeq) -> FactorSeq:
    """Lexicographically least rotation of the word.

    Words with equal normal forms generate the same rotation class, so this
    value serves as the class key.
    """
    w = seq.indices
    best = min(w[i:] + w[:i] for i in range(len(w)))
    return FactorSeq(seq.n, best)


def positivity_power(a: IntMatrix | Recognized) -> int:
    """Least ``p >= 1`` with the lower block of ``a**p`` strictly positive.

    Bounded by the block dimension ``n - l`` for Kato matrices; exceeding the
    bound indicates an internal bug.
    """
    return _positive_power(recognize(a))[0]


def _positive_power(rec: Recognized) -> tuple[int, IntMatrix]:
    """``(p, B**p)`` for the least ``p`` of :func:`positivity_power`."""
    b = rec.form.b
    power = b
    p = 1
    while not power.is_positive():
        if p >= b.n:
            raise RuntimeError("internal: positivity bound exceeded")
        power = power * b
        p += 1
    return p, power


def erase_index(a: IntMatrix, j: int) -> IntMatrix:
    """Delete row and column ``j`` (1-based, ``j <= l``) of a Kato matrix.

    Removing one of the leading identity coordinates of a type-``l`` matrix
    yields a Kato matrix of dimension ``n - 1`` and type ``l - 1``.
    """
    l = type_of(a)
    if not 1 <= j <= l:
        raise ValueError(f"index must lie in 1..{l} (the leading block), got {j}")
    keep = [i for i in range(a.n) if i != j - 1]
    out = IntMatrix([[a.rows[i][t] for t in keep] for i in keep])
    if not is_kato(out):
        raise RuntimeError("internal: erasing a leading index must stay in the family")
    return out
