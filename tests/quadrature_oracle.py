"""Independent real-period oracle based on numerical quadrature.

The production code computes real periods through the arithmetic-geometric
mean.  This module re-derives the same quantity along a completely different
route so the two can be compared in tests:

* the real roots of the two-division polynomial ``4x^3 + b2 x^2 + 2 b4 x + b6``
  are isolated with exact rational arithmetic (sign changes of ``Fraction``
  evaluations, critical-point separators) and refined by bisection, never by
  a floating-point polynomial solver;

* the period integral ``2 * integral dx / sqrt(g(x))`` over each real
  component is transformed to remove endpoint singularities and evaluated
  with tanh-sinh quadrature.

For the unbounded component the substitution ``x = e1 + t**2`` turns the
integrand into ``2 / sqrt(4 t**4 + (12 e1 + b2) t**2 + g'(e1))`` on
``[0, oo)``; the coefficients are carried as exact rationals so no
cancellation occurs near ``t = 0``.  For the bounded oval (three real roots
``e3 < e2 < e1``) the substitution ``x = e3 + (e2 - e3) sin(theta)**2``
yields ``dtheta / sqrt((e1 - e3) - (e2 - e3) sin(theta)**2)`` on
``[0, pi/2]``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from twistperiod.weierstrass import WeierstrassModel

_BISECTION_GUARD = 8


def _cubic(model: WeierstrassModel):
    inv = model.invariants
    b2, b4, b6 = inv.b2, inv.b4, inv.b6

    def g(x: Fraction) -> Fraction:
        return 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6

    def g_derivative(x: Fraction) -> Fraction:
        return 12 * x**2 + 2 * b2 * x + 2 * b4

    bound = Fraction(1) + max(abs(b2), abs(2 * b4), abs(b6)) / 4
    return g, g_derivative, bound


def _bisect(g, lo: Fraction, hi: Fraction, iterations: int) -> Fraction:
    """Shrink a sign-change bracket ``[lo, hi]`` of ``g`` by exact bisection."""
    value_lo = g(lo)
    if value_lo == 0:
        return lo
    if g(hi) == 0:
        return hi
    for _ in range(iterations):
        mid = (lo + hi) / 2
        value_mid = g(mid)
        if value_mid == 0:
            return mid
        if (value_mid < 0) == (value_lo < 0):
            lo, value_lo = mid, value_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _separator(g, g_derivative, near: Fraction, width: Fraction, want_negative: bool) -> Fraction:
    """Return a rational point close to a critical point of ``g`` at which
    ``g`` has the requested sign.

    ``near`` approximates the critical point to within ``width``.  Because the
    critical value has the requested sign and ``g`` is continuous, steering the
    bisection with the exact sign of ``g'`` converges to such a point.
    """
    lo, hi = near - width, near + width
    for _ in range(1000):
        value = g(lo)
        if (value < 0) == want_negative and value != 0:
            return lo
        value = g(hi)
        if (value < 0) == want_negative and value != 0:
            return hi
        mid = (lo + hi) / 2
        value = g(mid)
        if (value < 0) == want_negative and value != 0:
            return mid
        # g' > 0 outside the two critical points, g' < 0 between them, so the
        # sign of g' tells on which side of the targeted critical point mid is.
        if (g_derivative(mid) > 0) == want_negative:
            hi = mid
        else:
            lo = mid
    raise ArithmeticError("failed to separate cubic roots")


def exact_real_roots(model: WeierstrassModel, precision_bits: int) -> list[Fraction]:
    """Real roots of ``4x^3 + b2 x^2 + 2 b4 x + b6``, largest first.

    Roots are isolated and refined purely with exact rational arithmetic; the
    returned approximations are accurate to roughly ``2**-precision_bits``
    times the initial bracket width.  Requires an integral model so that the
    critical-point separators can use integer square roots.
    """
    if any(a.denominator != 1 for a in model.ainvs):
        raise ValueError("exact root isolation requires an integral model")
    inv = model.invariants
    g, g_derivative, bound = _cubic(model)
    iterations = precision_bits + _BISECTION_GUARD
    if inv.delta < 0:
        return [_bisect(g, -bound, bound, iterations)]

    # Three real roots e3 < e2 < e1.  The critical points of g are
    # (-b2 +- sqrt(c4)) / 12 and interlace the roots; rational points close
    # to them at which g has the sign of the critical value separate the
    # bracket [-bound, bound] into one piece per root.
    c4 = int(inv.c4)
    if c4 <= 0:
        raise ArithmeticError("positive discriminant requires c4 > 0")
    sqrt_floor = math.isqrt(c4)
    b2 = inv.b2
    local_min = _separator(
        g, g_derivative, Fraction(-b2 + sqrt_floor, 12), Fraction(1, 6), want_negative=True
    )
    local_max = _separator(
        g, g_derivative, Fraction(-b2 - sqrt_floor, 12), Fraction(1, 6), want_negative=False
    )
    e3 = _bisect(g, -bound, local_max, iterations)
    e2 = _bisect(g, local_max, local_min, iterations)
    e1 = _bisect(g, local_min, bound, iterations)
    return [e1, e2, e3]


def _to_mpf(value: Fraction) -> mp.mpf:
    return mp.mpf(value.numerator) / value.denominator


def quadrature_real_period(model: WeierstrassModel, precision_bits: int = 128) -> mp.mpf:
    """Total real period of ``model`` (both components when the discriminant
    is positive) via tanh-sinh quadrature.  Independent of the AGM code path.
    """
    inv = model.invariants
    with mp.workprec(precision_bits + 16):
        roots = exact_real_roots(model, precision_bits)
        e1 = roots[0]
        quadratic = 12 * e1 + inv.b2                # 4t^4 + quadratic t^2 + constant
        constant = 12 * e1**2 + 2 * inv.b2 * e1 + 2 * inv.b4
        quadratic_f, constant_f = _to_mpf(quadratic), _to_mpf(constant)
        if quadratic_f < 0:
            # The quartic dips to an interior minimum at t = sqrt(-q/8); the
            # integrand peaks there, so make it a piece boundary where
            # tanh-sinh quadrature clusters its nodes.
            split = mp.sqrt(-quadratic_f / 8)
        else:
            split = max(mp.mpf(1), (constant_f / 4) ** mp.mpf("0.25"))
        total = 4 * mp.quad(
            lambda t: 1 / mp.sqrt(4 * t**4 + quadratic_f * t**2 + constant_f),
            [0, split, mp.inf],
            maxdegree=12,
        )
        if inv.delta > 0:
            e2, e3 = roots[1], roots[2]
            span = _to_mpf(e1 - e3)
            oval = _to_mpf(e2 - e3)
            total += 2 * mp.quad(
                lambda theta: 1 / mp.sqrt(span - oval * mp.sin(theta) ** 2),
                [0, mp.pi / 2],
                maxdegree=12,
            )
        return +total
