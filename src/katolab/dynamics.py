"""Monomial-germ dynamics: exact evaluation, contraction certificates,
stable-set membership, and certified Perron data.

The germ of an integer matrix ``A`` sends ``z`` to the point whose ``s``-th
coordinate is the product of ``z_t`` raised to the row-``s`` exponents, so
the squared moduli ``r_t = |z_t|**2`` map by ``r_s <- prod_t r_t**a_st``.
All set membership tests here (balls, stable set, fundamental domain) depend
on the squared moduli alone and are decided on them in exact integer
arithmetic; the only floating-point code is the power iteration behind
:func:`perron_data`, whose result is certified by an exact rational
enclosure of the Perron root.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Literal, Optional

from ._frozen import frozen
from ._limits import bit_cap, guard_int, limit_error
from .gaussrat import GaussianRational, Point
from .intmat import IntMatrix, characteristic_polynomial
from .words import Recognized, factorize, recognize

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


def eval_inverse(a: IntMatrix | Recognized, z: Point) -> Point:
    """Evaluate the inverse germ at ``z``; exact two-sided inverse of eval_map.

    Defined on points whose last ``n - l`` coordinates are nonzero (``l`` the
    type of ``a``); the leading coordinates may vanish.
    """
    rec = recognize(a)
    _require_star_domain(z, rec.l)
    return eval_map(rec.inverse, z)


def _require_star_domain(z: Point, l: int) -> None:
    if any(not c for c in z[l:]):
        raise ValueError(f"the last {len(z) - l} coordinates must be nonzero")


# A squared modulus is a pair ``(num, den)`` of coprime integers, ``den > 0``.
Moduli = list[tuple[int, int]]


def _moduli(z: Point, n: int) -> Moduli:
    if len(z) != n:
        raise ValueError(f"point has {len(z)} coordinates, matrix needs {n}")
    return [(r.numerator, r.denominator) for r in map(GaussianRational.abs2, z)]


def _lowest(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _moduli_image(rows, moduli: Moduli) -> Moduli:
    """Squared moduli of the germ's image: ``|F(z)_s|**2 = prod_t r_t**a_st``.

    ``rows`` are the exponent rows of ``a`` or of its inverse.  As in
    :func:`eval_map`, zero exponents never touch their modulus and a zero
    modulus under a negative exponent raises ``ZeroDivisionError``.  Each
    image modulus is reduced to lowest terms and guarded once.  Before each
    power is built, the bits it would add to the row's unreduced numerator
    and denominator are counted: past twice the digit cap (a squared modulus
    has about twice the bits of its coordinate's parts) the row stops, so a
    large exponent never builds a huge power or a slow gcd.
    """
    budget = 2 * bit_cap()
    out = []
    for row in rows:
        num = den = 1
        num_bits = den_bits = 0
        for e, (p, q) in zip(row, moduli):
            if e == 0:
                continue
            if e < 0:
                if not p:
                    raise ZeroDivisionError("zero coordinate raised to a negative power")
                p, q, e = q, p, -e
            num_bits += e * p.bit_length()
            den_bits += e * q.bit_length()
            if max(num_bits, den_bits) > budget:
                raise limit_error("squared modulus")
            num *= p**e
            den *= q**e
        num, den = _lowest(num, den)
        guard_int(max(num, den), "squared modulus")
        out.append((num, den))
    return out


def _norm_sq(moduli: Moduli, last_weight: int = 1) -> tuple[int, int]:
    """Squared norm ``num/den`` (unreduced), the last modulus weighted."""
    num, den = 0, 1
    for p, q in moduli[:-1]:
        num, den = num * q + p * den, den * q
    p, q = moduli[-1]
    return num * q + last_weight * p * den, den * q


def _in_ball(moduli: Moduli) -> bool:
    """Exact test for the open unit ball.

    On the starred domain that the callers check, the germ and its inverse
    keep the trailing coordinates nonzero (their rows have zero exponents on
    the leading ones), so this also decides the starred ball.
    """
    num, den = _norm_sq(moduli)
    return num < den


# -- contraction ------------------------------------------------------------------


def contracts_unit_ball(a: IntMatrix) -> bool:
    """Symbolic test: does the germ map the closed unit ball into the open one?

    Decided on the factor word: exactly the words ``(q, n, n, ..., n)``
    (including single factors, ``p = 0``) fail, with witness ``e_n -> e_q`` of
    norm exactly 1.
    """
    seq = factorize(a)
    return not all(j == seq.n for j in seq.indices[1:])


@frozen
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


def certify_ball12_contraction(
    a: IntMatrix | Recognized, samples: int = 256, seed: int = 0
) -> ContractionReport:
    """Exactly check ``samples`` closed-ball points of the weighted (1,2)-norm.

    Every Kato matrix maps the closed weighted ball strictly inside itself;
    the certificate draws the exact rational points of
    :func:`sample_ball_points` (``norm="one-two"``) with squared weighted norm
    <= 1 (half of them within ``2**-16`` of the boundary, where the margin is
    thinnest) and verifies each image norm exactly, on squared moduli.
    """
    rec = recognize(a)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    den = (_DENOMINATOR * _SCALE_GRID) ** 2
    worst_num, worst_den = 0, 1
    for parts, raw, t in _draw_ball(rec.matrix.n, samples, seed, last_weight=2):
        tt = t * t
        num, d = _norm_sq(_moduli_image(rec.matrix.rows, [_lowest(m * tt, den) for m in raw]), last_weight=2)
        if num * worst_den > worst_num * d:
            worst_num, worst_den = num, d
        if num >= d:
            z = _scaled_point(parts, t)
            return ContractionReport(False, samples, z, Fraction(num, d), Fraction(worst_num, worst_den))
    return ContractionReport(True, samples, None, None, Fraction(worst_num, worst_den))


# -- samplers ----------------------------------------------------------------------

_SCALE_GRID = 1 << 16
_DENOMINATOR = 64


def _draw_ball(n: int, count: int, seed: int, last_weight: int, closed: bool = True):
    """Yield ``(parts, raw_moduli, t)`` for each point of :func:`sample_ball_points`.

    The point is ``t / _SCALE_GRID`` times the raw point whose coordinates
    are ``(x + y*i) / _DENOMINATOR`` for the integer ``parts`` ``(x, y)``;
    ``raw_moduli`` are the integers ``x**2 + y**2``.  The grid scale ``t`` is
    the largest integer that keeps the squared norm (last coordinate weighted
    by ``last_weight``) at or below its target: 1 for the first half of the
    points, a random multiple of ``_DENOMINATOR**-2`` in ``(0, 1]`` for the
    rest.
    """
    rng = Random(seed)
    near_cut = count // 2
    d2, k2 = _DENOMINATOR * _DENOMINATOR, _SCALE_GRID * _SCALE_GRID
    for idx in range(count):
        parts = [
            (rng.randint(-_DENOMINATOR, _DENOMINATOR), rng.randint(-_DENOMINATOR, _DENOMINATOR))
            for _ in range(n)
        ]
        raw = [x * x + y * y for x, y in parts]
        s = sum(raw) + (last_weight - 1) * sum(raw[-1:])  # the raw squared norm is s / d2
        if not s:
            yield parts, raw, 0
            continue
        if idx < near_cut:
            target_num, target_den = 1, 1
        else:
            target_num, target_den = rng.randint(1, d2), d2
        t = math.isqrt(target_num * d2 * k2 // (target_den * s))
        assert t * t * s * target_den <= target_num * d2 * k2
        if not closed and t * t * s == d2 * k2:
            t = max(t - 1, 0)
        yield parts, raw, t


def _scaled_point(parts, t: int) -> Point:
    den = _DENOMINATOR * _SCALE_GRID
    return tuple(GaussianRational(Fraction(x * t, den), Fraction(y * t, den)) for x, y in parts)


def sample_ball_points(
    n: int,
    count: int,
    seed: int,
    norm: Literal["euclidean", "one-two"] = "euclidean",
    closed: bool = True,
) -> list[Point]:
    """Deterministic exact rational points of the (closed) unit ball.

    ``norm`` selects the Euclidean or weighted (1,2) ball.  Each point is a
    random point with parts in ``1/64``ths of ``[-1, 1]``, scaled by a
    multiple of ``2**-16``.  The first half of the points (``count // 2``)
    is scaled to within ``2**-16`` of the unit sphere from inside; the rest
    fill the interior.  With ``closed=False`` every point gets strictly
    positive distance to the boundary.
    """
    if norm == "euclidean":
        last_weight = 1
    elif norm == "one-two":
        last_weight = 2
    else:
        raise ValueError(f'norm must be "euclidean" or "one-two", got {norm!r}')
    draws = _draw_ball(n, count, seed, last_weight, closed)
    return [_scaled_point(parts, t) for parts, _, t in draws]


def sample_torus_points(n: int, count: int, seed: int) -> list[Point]:
    """Deterministic points with every coordinate nonzero (exact rationals).

    Real and imaginary parts are random multiples of ``1/7`` in ``[-2, 2]``;
    a coordinate drawn as zero is drawn again.
    """
    rng = Random(seed)
    pts = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            while True:
                c = GaussianRational(
                    Fraction(rng.randint(-14, 14), 7),
                    Fraction(rng.randint(-14, 14), 7),
                )
                if c:
                    coords.append(c)
                    break
        pts.append(tuple(coords))
    return pts


# -- Perron data --------------------------------------------------------------------


@frozen
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


@frozen
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
    rec = recognize(a)
    b = rec.form.b
    p, bp = rec.positive_power

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
        # det B = det A, because the leading block of A is the identity.
        tr, det = b.trace(), rec.det
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


@frozen
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


def stable_membership(
    a: IntMatrix | Recognized, z: Point, max_iter: int = DEFAULT_MAX_ITER
) -> MembershipResult:
    """Scan the forward orbit for the first exact entry into the starred ball.

    The stable set is the union of all backward images of the starred open
    unit ball, so reaching it at some iterate certifies membership; running
    past ``max_iter`` yields ``undetermined`` (never a negative claim).  The
    scan iterates the squared moduli of the orbit, not its points.
    """
    rec = recognize(a)
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    moduli = _moduli(z, rec.matrix.n)
    _require_star_domain(z, rec.l)
    for m in range(max_iter + 1):
        if _in_ball(moduli):
            return MembershipResult("in", m)
        if m < max_iter:
            moduli = _moduli_image(rec.matrix.rows, moduli)
    return MembershipResult("undetermined", None)


def fundamental_domain_membership(a: IntMatrix | Recognized, z: Point) -> bool:
    """Exact test for the shell between the starred ball and its image.

    True iff ``z`` lies in the starred open unit ball while its inverse image
    does not — i.e. ``z`` belongs to the ball minus the germ's image of it.
    """
    rec = recognize(a)
    moduli = _moduli(z, rec.matrix.n)
    _require_star_domain(z, rec.l)
    if not _in_ball(moduli):
        return False
    return not _in_ball(_moduli_image(rec.inverse.rows, moduli))


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
