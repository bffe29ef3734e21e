"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Terms are a dict from integer exponent vectors (length ``nvars``; negative
entries allowed) to nonzero ``Fraction`` coefficients.  Only the operations
the verification systems need are provided: ring arithmetic, monomial
construction, and composition with a monomial map.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from ._limits import guard_int
from .intmat import IntMatrix, vec_mat

Exponent = tuple[int, ...]
Coeff = Union[int, Fraction]


class SparseLaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], Coeff] | None = None):
        if nvars < 0:
            raise ValueError("number of variables must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            e = tuple(int(x) for x in exp)
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong length (expected {nvars})")
            c = Fraction(coeff)
            if c:
                clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseLaurentPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparseLaurentPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Coeff) -> "SparseLaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: Coeff = 1) -> "SparseLaurentPoly":
        return cls(len(exponents), {tuple(exponents): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparseLaurentPoly":
        """The variable with 1-based index ``i``."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index must lie in 1..{nvars}")
        return cls(nvars, {tuple(int(t == i) for t in range(1, nvars + 1)): 1})

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_polynomial(self) -> bool:
        return all(x >= 0 for e in self.terms for x in e)

    def total_degrees(self) -> tuple[int, int] | None:
        """(min, max) total degree over the support, or None when zero."""
        if not self.terms:
            return None
        sums = [sum(e) for e in self.terms]
        return min(sums), max(sums)

    # -- arithmetic -------------------------------------------------------------

    def _check_vars(self, other: "SparseLaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "SparseLaurentPoly") -> "SparseLaurentPoly":
        if not isinstance(other, SparseLaurentPoly):
            return NotImplemented
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return SparseLaurentPoly(self.nvars, out)

    def __sub__(self, other: "SparseLaurentPoly") -> "SparseLaurentPoly":
        return self + (-other)

    def __neg__(self) -> "SparseLaurentPoly":
        return SparseLaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["SparseLaurentPoly", Coeff]) -> "SparseLaurentPoly":
        if isinstance(other, (int, Fraction)):
            return SparseLaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SparseLaurentPoly):
            return NotImplemented
        self._check_vars(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        for c in out.values():
            guard_int(c.numerator, "coefficient")
            guard_int(c.denominator, "coefficient")
        return SparseLaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def substitute_map(self, a: IntMatrix) -> "SparseLaurentPoly":
        """Compose with the monomial map whose exponent rows are ``a``.

        A term ``z^K`` becomes ``z^(K a)``, because the t-th coordinate of the
        map is the monomial with exponents in row t.
        """
        if a.nrows != self.nvars:
            raise ValueError("matrix rows must match the variable count")
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            img = vec_mat(e, a)
            out[img] = out.get(img, Fraction(0)) + c
        return SparseLaurentPoly(a.ncols, out)

    # -- plumbing ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseLaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"SparseLaurentPoly({self.nvars}, {self.to_string()!r})"

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(1, self.nvars + 1)]
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [
                (names[i] if x == 1 else f"{names[i]}^{x}")
                for i, x in enumerate(e)
                if x
            ]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}" if factors else f"{c}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def iter_monomials(nvars: int, max_total: int) -> Iterator[Exponent]:
    """All exponent vectors in ``N^nvars`` with total degree <= max_total.

    Deterministic order: by total degree, then lexicographic.
    """
    if nvars == 0:
        yield ()
        return
    for total in range(max_total + 1):
        # compositions of `total` into nvars nonnegative parts
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + nvars - 2 - prev)
            yield tuple(parts)
