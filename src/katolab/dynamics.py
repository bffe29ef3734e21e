"""Monomial-germ dynamics: exact evaluation, contraction certificates,
stable-set membership, and certified Perron data.

The germ of an integer matrix ``A`` sends ``z`` to the point whose ``s``-th
coordinate is the product of ``z_t`` raised to the row-``s`` exponents.  All
set membership tests here (balls, stable set, fundamental domain) are decided
in exact rational arithmetic; the only floating-point code is the power
iteration behind :func:`perron_data`, whose result is certified by an exact
rational enclosure of the Perron root.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Literal, Optional

from .gaussrat import GaussianRational, Point, sq_norm, sq_norm_12
from .intmat import IntMatrix, characteristic_polynomial
from .words import NotKato, Recognized, factorize, is_kato, positivity_power, recognize, type_of

# -- exact evaluation -----------------------------------------------------------


def eval_map(a: IntMatrix, z: Point) -> Point:
    """Evaluate the monomial germ of ``a`` at ``z`` exactly.

    Row ``s`` of ``a`` holds the exponents of the ``s``-th output coordinate.
    Zero exponents never touch their coordinate (so zeros in ``z`` are fine
    there); a zero coordinate under a negative exponent raises
    ``ZeroDivisionError``.
    """
    n = a.n
    if len(z) != n:
        raise ValueError(f"point has {len(z)} coordinates, matrix needs {n}")
    out = []
    for row in a.rows:
        acc = GaussianRational(1)
        for e, coord in zip(row, z):
            if e == 0:
                continue
            if not coord and e < 0:
                raise ZeroDivisionError("zero coordinate raised to a negative power")
            acc = acc * coord**e
        out.append(acc)
    return tuple(out)


def eval_inverse(a: IntMatrix, z: Point) -> Point:
    """Evaluate the inverse germ at ``z``; exact two-sided inverse of eval_map.

    Defined on points whose last ``n - l`` coordinates are nonzero (``l`` the
    type of ``a``); the leading coordinates may vanish.
    """
    l = type_of(a)  # also validates that `a` is Kato
    _require_star_domain(z, l)
    return eval_map(a.inverse_unimodular(), z)


def _require_star_domain(z: Point, l: int) -> None:
    if any(not c for c in z[l:]):
        raise ValueError(f"the last {len(z) - l} coordinates must be nonzero")


def _in_ball_star(z: Point, l: int) -> bool:
    """Exact test for the open unit ball with nonzero trailing coordinates."""
    return all(bool(c) for c in z[l:]) and sq_norm(z) < 1


# -- contraction ------------------------------------------------------------------


def contracts_unit_ball(a: IntMatrix) -> bool:
    """Symbolic test: does the germ map the closed unit ball into the open one?

    Decided on the factor word: exactly the words ``(q, n, n, ..., n)``
    (including single factors, ``p = 0``) fail, with witness ``e_n -> e_q`` of
    norm exactly 1.
    """
    seq = factorize(a)
    return not all(j == seq.n for j in seq.indices[1:])


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of an exact sampled contraction certificate."""

    passed: bool
    samples: int
    counterexample: Optional[Point]
    counterexample_norm_sq: Optional[Fraction]
    max_image_norm_sq: Fraction

    def to_json(self) -> dict:
        from .formats import format_point  # local import to avoid a cycle

        out: dict = {
            "passed": self.passed,
            "samples": self.samples,
            "max_image_norm_sq": str(self.max_image_norm_sq),
        }
        if self.counterexample is not None:
            out["counterexample"] = format_point(self.counterexample)
            out["counterexample_norm_sq"] = str(self.counterexample_norm_sq)
        return out


def certify_ball12_contraction(a: IntMatrix, samples: int = 256, seed: int = 0) -> ContractionReport:
    """Exactly check ``samples`` closed-ball points of the weighted (1,2)-norm.

    Every Kato matrix maps the closed weighted ball strictly inside itself;
    the certificate draws exact rational points with squared weighted norm
    <= 1 (half of them within ``2**-16`` of the boundary, where the margin is
    thinnest) and verifies each image norm exactly.
    """
    if not is_kato(a):
        raise NotKato("the weighted-ball certificate applies to Kato matrices")
    pts = sample_ball_points(a.n, samples, seed, norm="one-two", closed=True)
    worst = Fraction(0)
    for z in pts:
        s = sq_norm_12(eval_map(a, z))
        worst = max(worst, s)
        if s >= 1:
            return ContractionReport(False, samples, z, s, worst)
    return ContractionReport(True, samples, None, None, worst)


# -- samplers ----------------------------------------------------------------------

_SCALE_GRID = 1 << 16


def _scale_for(s: Fraction, target: Fraction) -> Fraction:
    """Largest grid fraction ``t`` with ``t**2 * s <= target`` (exact)."""
    k = _SCALE_GRID
    t = Fraction(math.isqrt(target.numerator * s.denominator * k * k // (target.denominator * s.numerator)), k)
    assert t * t * s <= target
    return t


def sample_ball_points(
    n: int,
    count: int,
    seed: int,
    norm: Literal["euclidean", "one-two"] = "euclidean",
    closed: bool = True,
    boundary_share: float = 0.5,
    denominator: int = 64,
) -> list[Point]:
    """Deterministic exact rational points of the (closed) unit ball.

    ``norm`` selects the Euclidean or weighted (1,2) ball.  A
    ``boundary_share`` fraction of the points is scaled to within ``2**-16``
    of the unit sphere from inside; the rest fill the interior.  With
    ``closed=False`` every point gets strictly positive distance to the
    boundary.
    """
    if norm == "euclidean":
        norm_sq = sq_norm
    elif norm == "one-two":
        norm_sq = sq_norm_12
    else:
        raise ValueError(f'norm must be "euclidean" or "one-two", got {norm!r}')
    rng = Random(seed)
    pts: list[Point] = []
    near_cut = int(count * boundary_share)
    for idx in range(count):
        raw = tuple(
            GaussianRational(
                Fraction(rng.randint(-denominator, denominator), denominator),
                Fraction(rng.randint(-denominator, denominator), denominator),
            )
            for _ in range(n)
        )
        s = norm_sq(raw)
        if not s:
            pts.append(raw)
            continue
        if idx < near_cut:
            target = Fraction(1)
        else:
            target = Fraction(rng.randint(1, denominator * denominator), denominator * denominator)
        t = _scale_for(s, target)
        if not closed and t * t * s == 1:
            t = max(t - Fraction(1, _SCALE_GRID), Fraction(0))
        pts.append(tuple(c * t for c in raw))
    return pts


def sample_torus_points(
    n: int, count: int, seed: int, denominator: int = 7, max_abs: int = 2
) -> list[Point]:
    """Deterministic points with every coordinate nonzero (exact rationals)."""
    rng = Random(seed)
    pts = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            while True:
                c = GaussianRational(
                    Fraction(rng.randint(-max_abs * denominator, max_abs * denominator), denominator),
                    Fraction(rng.randint(-max_abs * denominator, max_abs * denominator), denominator),
                )
                if c:
                    coords.append(c)
                    break
        pts.append(tuple(coords))
    return pts


# -- Perron data --------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact value ``rational + coefficient * sqrt(radicand)``."""

    rational: Fraction
    coefficient: Fraction
    radicand: int

    def value(self) -> float:
        return float(self.rational) + float(self.coefficient) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        return f"{self.rational} + {self.coefficient}*sqrt({self.radicand})"


def _reduce_radicand(m: int) -> tuple[int, int]:
    """Write ``m = extracted**2 * reduced`` with ``reduced`` square-reduced.

    Trial division stops at 10**4, which covers every radicand the tests
    touch; larger square factors are cosmetic only.
    """
    extracted = 1
    d = 2
    while d * d <= m and d < 10_000:
        while m % (d * d) == 0:
            m //= d * d
            extracted *= d
        d += 1
    return m, extracted


@dataclass(frozen=True)
class PerronData:
    """Dominant eigendata of the lower block, with an exact enclosure of the root."""

    alpha: float
    vector: tuple[float, ...]
    power_used: int
    iterations: int
    residual: float
    power_residual: float
    tol: float
    surd: Optional[QuadraticSurd]
    enclosure: tuple[Fraction, Fraction]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "vector": list(self.vector),
            "power_used": self.power_used,
            "iterations": self.iterations,
            "residual": self.residual,
            "power_residual": self.power_residual,
            "tol": self.tol,
            "surd": str(self.surd) if self.surd is not None else None,
            "enclosure": [str(x) for x in self.enclosure],
        }


_PERRON_ITER_CAP = 20_000
_FLOAT_NOISE = 2.0**-40  # relative step of a float vector that has settled
_PERRON_STALLS = 16  # settled exact checks in a row that leave the enclosure no narrower


def _rows_times(rows, v: list) -> list:
    return [sum(map(operator.mul, row, v)) for row in rows]


def perron_data(a: IntMatrix | Recognized, tol: float = 1e-10) -> PerronData:
    """Certified dominant eigenvalue/eigenvector of the lower block.

    Float power steps on the strictly positive power ``B**p`` (``p`` from
    :func:`positivity_power`) settle a positive vector.  Scaled by a power of
    two to an integer vector ``q`` that keeps all its bits, it bounds the
    Perron root of ``B`` exactly: ``lo = min_i (Bq)_i/q_i <= alpha <=
    max_i (Bq)_i/q_i = hi`` (Collatz-Wielandt; Meyer, *Matrix Analysis*, 8.3).
    Steps go on until ``lo > 1`` and ``hi - lo <= tol * lo`` in exact
    rationals, so ``tol`` is the relative width of ``enclosure``;
    ``ArithmeticError`` means float64 cannot certify that width.  ``alpha`` is
    the float nearest the midpoint (the enclosure widens to hold it when no
    float lies inside).  Residuals of the unit ``vector`` are only reported.

    For 2x2 blocks the dominant eigenvalue of ``B`` itself is also returned
    exactly, as a quadratic surd: with trace t and determinant d it is
    ``(t + sqrt(t^2 - 4d)) / 2``, the larger real root, which is the spectral
    radius because ``t >= 0``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rec = recognize(a)  # validates Kato
    b = rec.form.b
    p = positivity_power(rec)
    bp = b if p == 1 else b**p
    assert bp.is_positive()

    v = [1.0] * b.n
    its, narrowest, stalls = 0, math.inf, 0
    while its < _PERRON_ITER_CAP and stalls < _PERRON_STALLS:
        its += 1
        w = _rows_times(bp.rows, v)
        top = max(w)
        w = [x / top for x in w]
        moved = max(abs(x - y) / x for x, y in zip(w, v))
        v = w
        if moved > max(tol, _FLOAT_NOISE):
            continue  # still moving: no exact bounds yet
        shift = 53 - math.frexp(min(v))[1]
        q = [int(math.ldexp(x, shift)) for x in v]  # exact: min(q) lies in [2**52, 2**53)
        if min(q) <= 0:
            raise RuntimeError("internal: Perron vector is not positive")
        ratios = [Fraction(y, x) for x, y in zip(q, _rows_times(b.rows, q))]
        alpha = float((min(ratios) + max(ratios)) / 2)
        lo, hi = min(*ratios, Fraction(alpha)), max(*ratios, Fraction(alpha))
        if lo > 1 and hi - lo <= Fraction(tol) * lo:
            break
        stalls = 0 if hi - lo < narrowest or moved > _FLOAT_NOISE else stalls + 1
        narrowest = min(narrowest, hi - lo)
    else:
        raise ArithmeticError(f"tolerance {tol!r} is below what float64 power steps can certify")

    norm = math.hypot(*v)
    f = [x / norm for x in v]
    residual = max(abs(y - alpha * x) for x, y in zip(f, _rows_times(b.rows, f)))
    power_residual = max(abs(y - alpha**p * x) for x, y in zip(f, _rows_times(bp.rows, f)))
    surd = None
    if b.n == 2:
        tr, det = b.trace(), b.det()
        disc = tr * tr - 4 * det
        if disc >= 0:
            rad, ext = _reduce_radicand(disc)
            surd = QuadraticSurd(Fraction(tr, 2), Fraction(ext, 2), rad)
    return PerronData(
        alpha=alpha,
        vector=tuple(f),
        power_used=p,
        iterations=its,
        residual=residual,
        power_residual=power_residual,
        tol=tol,
        surd=surd,
        enclosure=(lo, hi),
    )


# -- stable set and fundamental domain ------------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the forward-orbit membership scan."""

    status: Literal["in", "undetermined"]
    iterations: Optional[int]

    @property
    def is_in(self) -> bool:
        return self.status == "in"

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.iterations is not None:
            out["iterations"] = self.iterations
        return out


DEFAULT_MAX_ITER = 256


def stable_membership(a: IntMatrix, z: Point, max_iter: int = DEFAULT_MAX_ITER) -> MembershipResult:
    """Scan the forward orbit for the first exact entry into the starred ball.

    The stable set is the union of all backward images of the starred open
    unit ball, so reaching it at some iterate certifies membership; running
    past ``max_iter`` yields ``undetermined`` (never a negative claim).
    """
    l = type_of(a)
    if len(z) != a.n:
        raise ValueError(f"point has {len(z)} coordinates, matrix needs {a.n}")
    _require_star_domain(z, l)
    cur = z
    for m in range(max_iter + 1):
        if _in_ball_star(cur, l):
            return MembershipResult("in", m)
        if m < max_iter:
            cur = eval_map(a, cur)
    return MembershipResult("undetermined", None)


def fundamental_domain_membership(a: IntMatrix, z: Point) -> bool:
    """Exact test for the shell between the starred ball and its image.

    True iff ``z`` lies in the starred open unit ball while its inverse image
    does not — i.e. ``z`` belongs to the ball minus the germ's image of it.
    """
    l = type_of(a)
    if len(z) != a.n:
        raise ValueError(f"point has {len(z)} coordinates, matrix needs {a.n}")
    _require_star_domain(z, l)
    if not _in_ball_star(z, l):
        return False
    return not _in_ball_star(eval_map(a.inverse_unimodular(), z), l)


# -- spectrum vs roots of unity ---------------------------------------------------------


def _euler_phi(m: int) -> int:
    out = m
    d = 2
    mm = m
    while d * d <= mm:
        if mm % d == 0:
            while mm % d == 0:
                mm //= d
            out -= out // d
        d += 1
    if mm > 1:
        out -= out // mm
    return out


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division by a monic integer polynomial (ascending coefficients)."""
    assert den[-1] == 1, "divisor must be monic"
    rem = list(num)
    out = [0] * max(1, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1]
        if c:
            out[shift] = c
            for i, y in enumerate(den):
                rem[shift + i] -= c * y
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(out), tuple(rem)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, _cyclotomic(d))
            assert rem == (0,)
    return num


def root_of_unity_check(a: IntMatrix) -> bool:
    """True iff the spectrum of ``a`` meets a root of unity.

    Cyclotomic polynomials are irreducible, so sharing a nontrivial factor
    with the characteristic polynomial is exact divisibility.  Any root of
    unity in the spectrum has degree phi(m) <= n, and phi(m) >= sqrt(m/2)
    bounds the search to m <= 2*n**2.
    """
    cp = characteristic_polynomial(a)
    n = a.n
    for m in range(1, 2 * n * n + 1):
        if _euler_phi(m) > n:
            continue
        _, rem = _poly_divmod(cp, _cyclotomic(m))
        if rem == (0,):
            return True
    return False
