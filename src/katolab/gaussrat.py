"""Exact complex numbers with rational real and imaginary parts.

The dynamics code only ever needs field operations and integer powers, so
this stays deliberately small: a frozen pair of ``Fraction`` values with
exact arithmetic, squared modulus, and reciprocal.  Every product passes its
largest numerator or denominator through the digit-cap guard.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._limits import guard_int

RatLike = Union[int, Fraction]


class GaussianRational:
    """An exact complex number ``re + im*i`` with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(
                    f"parts must be exact rationals, not {type(part).__name__}"
                )
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        re = self.re * o.re - self.im * o.im
        im = self.re * o.im + self.im * o.re
        parts = (re.numerator, re.denominator, im.numerator, im.denominator)
        guard_int(max(map(abs, parts)), "real or imaginary part")
        return GaussianRational(re, im)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``."""
        return self.re * self.re + self.im * self.im

    def reciprocal(self) -> "GaussianRational":
        d = self.abs2()
        if not d:
            raise ZeroDivisionError("reciprocal of zero")
        return GaussianRational(self.re / d, -self.im / d)

    def __pow__(self, e: int) -> "GaussianRational":
        if e < 0:
            return self.reciprocal() ** (-e)
        acc = GaussianRational(1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    # -- plumbing -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return o is not None and self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


Point = tuple[GaussianRational, ...]


def as_point(coords: Iterable) -> Point:
    """Coerce a sequence of rationals/pairs into a point."""
    out = []
    for c in coords:
        g = GaussianRational._coerce(c)
        if g is None:
            if isinstance(c, Sequence) and len(c) == 2:
                g = GaussianRational(c[0], c[1])
            else:
                raise TypeError(f"cannot interpret {c!r} as a Gaussian rational")
        out.append(g)
    return tuple(out)


def origin(n: int) -> Point:
    return tuple(GaussianRational(0) for _ in range(n))


def unit_point(n: int, i: int) -> Point:
    """The i-th (1-based) standard basis point."""
    if not 1 <= i <= n:
        raise ValueError(f"index must be in 1..{n}, got {i}")
    return tuple(GaussianRational(int(t == i)) for t in range(1, n + 1))


def sq_norm(z: Point) -> Fraction:
    """Exact squared Euclidean norm."""
    return sum((c.abs2() for c in z), Fraction(0))


def sq_norm_12(z: Point) -> Fraction:
    """Exact squared weighted norm: unit weights except weight 2 on the last."""
    if not z:
        return Fraction(0)
    return sum((c.abs2() for c in z[:-1]), Fraction(0)) + 2 * z[-1].abs2()
