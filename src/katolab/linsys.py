"""Sparse exact Gaussian elimination, fraction-free over the integers.

The verification systems produce equations as dicts from hashable variable
keys to coefficients; all we ever need is the rank (hence nullity).  Rows are
reduced online against the pivots found so far, keyed by the smallest
variable index, which keeps the elimination deterministic for a fixed
variable order.  Every row is kept as a primitive integer vector: a row with
rational coefficients is first scaled by the lcm of their denominators, and
each reduction ``row <- p*row - f*pivot`` (``p`` the pivot's leading entry,
``f`` the row's) is divided by the content gcd of its result, as in
fraction-free elimination (Bareiss 1968; Cohen, *A Course in Computational
Algebraic Number Theory*, 2.2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence, Union

from ._limits import guard_int

Coeff = Union[int, Fraction]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by the gcd of its entries (guarded once)."""
    g = math.gcd(*row.values())
    if g != 1:
        row = {k: c // g for k, c in row.items()}
    guard_int(max(map(abs, row.values())), "elimination row entry")
    return row


def _integer_row(eq: Mapping[Hashable, Coeff], index: Mapping[Hashable, int]) -> dict[int, int]:
    """The equation as a row of integers, scaled by the lcm of its denominators."""
    row: dict[int, Coeff] = {}
    for var, coeff in eq.items():
        if not isinstance(coeff, (int, Fraction)):
            coeff = Fraction(coeff)
        if not coeff:
            continue
        if var not in index:
            raise ValueError(f"equation mentions unknown variable {var!r}")
        row[index[var]] = coeff
    scale = math.lcm(*(c.denominator for c in row.values()))
    if scale == 1:
        return {k: c.numerator for k, c in row.items()}
    return _primitive({k: c.numerator * (scale // c.denominator) for k, c in row.items()})


def system_rank(
    variables: Sequence[Hashable],
    equations: Iterable[Mapping[Hashable, Coeff]],
) -> int:
    index = {v: i for i, v in enumerate(variables)}
    if len(index) != len(variables):
        raise ValueError("duplicate variables")
    pivots: dict[int, dict[int, int]] = {}
    for eq in equations:
        row = _integer_row(eq, index)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            p, f = piv[lead], row[lead]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {k: p * c for k, c in row.items()}
            for k, c in piv.items():
                nv = row.get(k, 0) - f * c
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            if row:
                row = _primitive(row)
    return len(pivots)


def system_nullity(
    variables: Sequence[Hashable],
    equations: Iterable[Mapping[Hashable, Coeff]],
) -> int:
    """Dimension of the solution space of the homogeneous system."""
    return len(variables) - system_rank(variables, equations)
