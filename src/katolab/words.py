"""Elementary factor words: recognition, factorization, and normal forms.

An elementary matrix of dimension ``n`` and index ``j`` has columns
``e_1, ..., e_{j-1}, e_{j+1}, ..., e_n, c`` where ``c`` is the all-ones
column.  A *Kato matrix* is a nonempty product of elementaries that is not a
pure power of the index-``n`` factor.  Factorization peels the rightmost
factor by subtracting the first ``n-1`` columns from the last and re-inserting
the difference among the others.  The chain order allows one position only:
the number of remaining columns that precede the difference.
:func:`recognize` keeps the word, from which the block form and the
determinant follow.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._frozen import frozen
from ._limits import digit_cap, guard_int, limit_error
from .intmat import IntMatrix, LatticeBasis, Row, left_fixed_lattice


class KatoRecognitionError(ValueError):
    """Base class for recognition failures (maps to CLI exit code 3)."""


class NotAProduct(KatoRecognitionError):
    """The matrix is not a product of elementary factors."""


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


@frozen
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
    column last.  Its determinant is ``(-1)**(n-j)``.  Its ``n**2`` entries
    print as at least ``n**2`` digits, so ``n**2`` past the digit cap is
    refused.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not 1 <= j <= n:
        raise ValueError(f"index must lie in 1..{n}, got {j}")
    if n * n > digit_cap():
        raise limit_error(f"a dimension-{n} matrix ({n * n} entries)")
    cols = [tuple(int(s == t) for s in range(1, n + 1)) for t in range(1, n + 1) if t != j]
    cols.append((1,) * n)
    return IntMatrix.from_columns(cols)


def compose_factors(seq: FactorSeq) -> IntMatrix:
    """Product of the word's elementary factors, left to right.

    Multiplying a matrix on the right by ``E_j`` drops its column ``j`` and
    appends the sum of its columns, so each factor after the first costs
    ``O(n**2)`` additions on columns and one digit-cap check of the new one.
    """
    cols = elementary(seq.n, seq.indices[0]).columns()
    for j in seq.indices[1:]:
        total = tuple(map(sum, zip(*cols)))
        guard_int(max(total), "matrix entry")  # entries are nonnegative
        cols = cols[: j - 1] + cols[j:] + (total,)
    return IntMatrix.from_columns(cols)


def factorize(a: IntMatrix) -> FactorSeq:
    """Recover the unique factor word of a product of elementaries.

    Peels factors from the right: the candidate column ``c`` is the last
    column minus the sum of the others, and the previous matrix is the first
    ``n-1`` columns with ``c`` inserted at position ``q``, the number of them
    that precede ``c``.  The chain order is asymmetric, so that count is the
    only position where the columns before ``c`` all precede it and ``c``
    precedes all after it; the peel checks this one position.  The first
    ``n-1`` columns must form a chain; that is tested on the first peel only,
    since a successful peel has then tested every adjacent pair of the new
    columns (those of the old chain, the last one before ``c`` and ``c`` with
    the first one after it).  Raises
    :class:`NotAProduct` when any step fails, and ``ResourceLimitError`` once
    the word would pass the digit cap in factors (it could not be printed).
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

    cols = a.columns()
    total = sum(x for col in cols for x in col)
    cap = total // (n - 1) + 1
    max_factors = digit_cap()
    peeled: list[int] = []
    identity = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    while cols != identity:
        if len(peeled) >= cap:
            raise NotAProduct("entry-sum budget exhausted without reaching the identity")
        if len(peeled) >= max_factors:
            raise limit_error(f"a word of more than {max_factors} factors")
        head, last = cols[:-1], cols[-1]
        c = tuple(last[i] - sum(h[i] for h in head) for i in range(n))
        if any(x < 0 for x in c) or not any(c):
            raise NotAProduct("peeled column is not a valid factor column")
        if not peeled:
            for i in range(n - 2):
                if not column_precedes(head[i], head[i + 1]):
                    raise NotAProduct("columns are not chain-ordered")
        before = [column_precedes(h, c) for h in head]
        q = sum(before)
        if not (all(before[:q]) and all(column_precedes(c, h) for h in head[q:])):
            raise NotAProduct("peeled column fits no position in the column chain")
        peeled.append(q + 1)
        cols = head[:q] + (c,) + head[q:]
    return FactorSeq(n, tuple(reversed(peeled)))


def is_kato(a: IntMatrix) -> bool:
    """True when ``a`` is a factor product outside the excluded pure family."""
    try:
        return factorize(a).is_kato_word
    except NotAProduct:
        return False


def type_of(a: IntMatrix | Recognized) -> int:
    """The type ``l``: size of the largest leading identity block.

    Equals ``min(word indices) - 1``; always ``0 <= l <= n-2`` for a Kato
    matrix.
    """
    return recognize(a).l


@frozen
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


@frozen
class Recognized:
    """A Kato matrix and its factor word; each value derived below is computed once, on first use."""

    matrix: IntMatrix
    word: FactorSeq

    @cached_property
    def l(self) -> int:
        return min(self.word.indices) - 1

    @cached_property
    def form(self) -> StandardForm:
        # Proven for factor products: a failed re-check is an internal bug, not bad input.
        a, l = self.matrix, self.l
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
        b = IntMatrix._of(tuple(row[l:] for row in a.rows[l:]))
        return StandardForm(l=l, g=g, b=b, line=line)

    @cached_property
    def inverse(self) -> IntMatrix:
        return self.matrix.inverse_unimodular()

    @cached_property
    def positive_power(self) -> tuple[int, IntMatrix]:
        """``(p, B**p)`` for the least ``p`` of :func:`positivity_power`."""
        b = self.form.b
        power = b
        p = 1
        while not power.is_positive():
            if p >= b.n:
                raise RuntimeError("internal: positivity bound exceeded")
            power = power * b
            p += 1
        return p, power

    @cached_property
    def m1(self) -> int:
        from .invariants import multiplicity_one  # invariants imports this module
        return multiplicity_one(self.matrix)

    @cached_property
    def det(self) -> int:
        # Each elementary factor ``E_j`` has determinant ``(-1)**(n-j)``.
        n = self.word.n
        return (-1) ** sum(n - j for j in self.word.indices)

    @cached_property
    def fixed_lattice(self) -> LatticeBasis:
        return left_fixed_lattice(self.matrix)


def recognize(a: IntMatrix | Recognized) -> Recognized:
    """Factorize a Kato matrix once and hold it with its word.

    Raises :class:`NotAProduct` or :class:`NotKato` for other input.  A value
    already recognized is returned as it is, so a function that starts with
    ``recognize`` accepts either.
    """
    if isinstance(a, Recognized):
        return a
    word = factorize(a)
    if not word.is_kato_word:
        raise NotKato("matrix is a pure power of the index-n factor")
    return Recognized(a, word)


def standard_form(a: IntMatrix | Recognized) -> StandardForm:
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
    return recognize(a).positive_power[0]


def erase_index(a: IntMatrix | Recognized, j: int) -> IntMatrix:
    """Delete row and column ``j`` (1-based, ``j <= l``) of a Kato matrix.

    Removing one of the leading identity coordinates of a type-``l`` matrix
    yields a Kato matrix of dimension ``n - 1`` and type ``l - 1``: its word
    is the input word with every index lowered by one, and the result is
    checked by composing that word.
    """
    rec = recognize(a)
    if not 1 <= j <= rec.l:
        raise ValueError(f"index must lie in 1..{rec.l} (the leading block), got {j}")
    keep = [i for i in range(rec.matrix.n) if i != j - 1]
    out = IntMatrix([[rec.matrix.rows[i][t] for t in keep] for i in keep])
    lowered = FactorSeq(rec.word.n - 1, tuple(i - 1 for i in rec.word.indices))
    if compose_factors(lowered) != out:
        raise RuntimeError("internal: erasing a leading index must lower every word index")
    return out
