"""Period lattices of Weierstrass models over R, by an integer fixed-point kernel.

Y = 2y + a1*x + a3 turns the curve into Y^2 = g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6,
and dx/Y is the invariant differential. For b-invariants of common denominator
D, the kernel takes the integral D^6 * g(y/D^2), whose periods are g's over D.
With e_i the roots of g and M the real AGM (Cremona-Thongjunthug, J. Number
Theory 133, 2013): if delta > 0 and e1 > e2 > e3, omega_complex = i*nu and
    omega_real = pi / M(sqrt(e1-e3), sqrt(e1-e2)),
    nu = pi / M(sqrt(e1-e3), sqrt(e2-e3));
if delta < 0, e1 real, beta = |e1-e2| = sqrt(3e1^2 + b2*e1/2 + b4/2) and
alpha = 3e1 + b2/4, omega_complex = (-omega_real + i*nu)/2 and
    omega_real = 2pi / M(2 sqrt(beta), sqrt(2beta + alpha)),
    nu = 2pi / M(2 sqrt(beta), sqrt(2beta - alpha)),
the smaller of 2beta +- alpha taken as -delta/(16 beta^4) over the larger.

A real x is an integer X near x * 2^K: sums, shifts and products are exact, and
each rounding ((a+b) >> 1, isqrt, floor division) errs by at most one unit 2^-K.
For p requested bits, K = p + 32 + r + G: each root is below 2^r (Fujiwara's
bound on the bit lengths of b2, b4, b6) and each gap between roots exceeds
2^-G, as 16*delta is 256 times the product of the squared gaps, each below
2^(r+1). Bisection on integers scaled by 2^(G+8) isolates the real root
(delta < 0), or e1 and e3 beyond the critical points (-b2 +- isqrt(c4))/12
(delta > 0), and Newton steps doubling the precision (Brent-Zimmermann, Modern
Computer Arithmetic, 4.2) refine it. With V_k(x) = 2^(3k) g(x/2^k) and V'_k
its slope, V_k(y 2^u) = 2^(3u) V_s(y) and V'_k(y 2^u) = 2^(2u) V'_s(y) for
u = k - s, so the step from y at scale 2^s to scale 2^k,
y 2^u - (2^(u+1) V_s(y) + V'_s(y)) // (2 V'_s(y)), is the step at scale 2^k
from operands about half as long. The middle root comes from the trace: the
roots sum to -b2/4, so -b2/4 - e1 - e3 errs by at most two units, and one
Newton step at scale K (2(K-1) >= K + G + 3) ends within one. A root X is
certified when V_K(X-1) and V_K(X+1), exact, do not have the same strict sign
(a zero certifies, as it would make their product 0); g having leading
coefficient 4, both are V_K(X) +- V'_K(X) + (12X + b2 2^K) +- 4, one
evaluation at X. Else the roots are recomputed once with K and G raised by K,
then PrecisionError is raised. Then a gap errs by two units on a value above
2^-G, beta^2 by 2*beta units, sqrt(2beta -+ alpha) exceeds 2^-(G + r/2 + 2).
The smaller of 2beta +- alpha enters as its square root
isqrt(-disc 2^2K) / (16 beta^2 isqrt(wide 2^K)), wide the larger, a quotient
taken with its divisor cut to 64 bits beyond its length (at most one unit
off): beta^2 and wide err relatively by under 2^(G+3-K), isqrt(wide 2^K) by a
unit on a value above 2^(K - G/2), and the floored quotient by two units on a
root above 2^-(G + r/2 + 2), so the root errs relatively by under
2^(G + r/2 + 5 - K). An AGM of n isqrt steps adds n units, and its
end two more: once c^4 < m^3 for m = (a+b)/2 and c = a - b, it returns
m - c^2/(16m), M(a, b) less a term below 5/1024 of a unit, with a half unit
from m and one from the floor. So each period keeps more than p + 16 correct
bits.

c_inf * omega_real integrates |dx/Y| over the real locus; c_inf = 2 (two
components) iff delta > 0. The sign of delta fixes the basis shape (Cohen,
Alg. 7.4.7), so Omega^- = i*nu and (k1, k2) are read off it.

lattice_periods isolates and certifies the roots at once and returns them as
a PeriodReport, which runs each AGM only when its period is first read:
omega_real for Omega, nu for Omega^-. So a twist relation, which reads Omega
or Omega^- of a curve and Omega of its twist, runs two AGMs, not four.
period_report reads the same off the canonical minimal model, so isomorphic
models give equal reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import ceil, isqrt, lcm, log10

from mpmath import mp, mpc, mpf

from .minimality import minimize
from .weierstrass import WeierstrassModel

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
GUARD_BITS = 32
_AGM_MAX_ITERATIONS = 300


class PrecisionError(ArithmeticError):
    """A result could not be certified to the requested precision."""


def _check_precision(precision_bits: int) -> int:
    precision_bits = operator.index(precision_bits)
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}"
        )
    return precision_bits


def _nstr(x, precision_bits: int) -> str:
    """x to ceil(precision_bits*log10(2)) + 1 significant digits. One unit
    in the last place exceeds 2^-(precision_bits+7) of x, so a value within
    2^-(precision_bits+13) of the truth prints every digit correctly rounded,
    save a rounding tie within 1/50 of a unit."""
    return mp.nstr(x, ceil(precision_bits * log10(2)) + 1)


@dataclass(frozen=True)
class PeriodReport:
    """The period lattice of one model and everything the periods CLI
    command exposes of it.

    lattice_periods builds it from g's certified roots `_roots` at scale
    2^`_k`, g having the integer coefficients `_cubic` and 16*delta `_disc`,
    and the model `_scale` times g's periods. c_inf and (k1, k2) follow the
    sign of delta, with no AGM. omega_real, the least positive real period,
    and nu each run their AGM on first read, at precision_bits + GUARD_BITS
    whatever mpmath's ambient precision, and keep the value. The basis is
    (omega_real, omega_complex), omega_complex being i*nu (real part exactly
    0) when delta > 0 and (-omega_real + i*nu)/2 otherwise; Omega =
    c_inf*omega_real and Omega^- = i*nu = k1*omega_complex - k2*omega_real.
    Equality and hash compare the integer data, so they run no AGM."""

    precision_bits: int
    _cubic: tuple[int, int, int]
    _disc: int
    _roots: tuple[int, ...]
    _k: int
    _scale: int

    @property
    def c_inf(self) -> int:
        return 2 if self._disc > 0 else 1

    @property
    def k1(self) -> int:
        return 1 if self._disc > 0 else 2

    @property
    def k2(self) -> int:
        return 0 if self._disc > 0 else -1

    @cached_property
    def omega_real(self) -> mpf:
        return self._period(imaginary=False)

    @cached_property
    def _nu(self) -> mpf:
        return self._period(imaginary=True)

    @cached_property
    def omega_complex(self) -> mpc:
        with mp.workprec(self.precision_bits + GUARD_BITS):
            if self._disc > 0:
                return mpc(0, self._nu)
            return mpc(-self.omega_real / 2, self._nu / 2)

    @cached_property
    def omega(self) -> mpf:
        # c_inf is 1 or 2: an exact shift, at no precision
        return mp.ldexp(self.omega_real, self.c_inf - 1)

    @cached_property
    def omega_minus(self) -> mpc:
        # i*nu is k1*Im(omega_complex) exactly: nu/2 doubles without rounding
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return mpc(0, self._nu)

    def _period(self, imaginary: bool) -> mpf:
        """omega_real, or nu if imaginary: scale*pi over one real AGM."""
        k = self._k
        if self._disc > 0:
            e1, e2, e3 = self._roots
            mean = _agm(
                isqrt((e1 - e3) << k), isqrt((e2 - e3 if imaginary else e1 - e2) << k)
            )
        else:
            (e1,) = self._roots
            b2, b4, _ = self._cubic
            beta = isqrt(3 * e1 * e1 + ((b2 * e1) << (k - 1)) + (b4 << (2 * k - 1)))
            alpha = 3 * e1 + (b2 << (k - 2))
            wide = 2 * beta + abs(alpha)
            b = isqrt(wide << k)  # sqrt of the larger of 2beta +- alpha
            if (alpha >= 0) == imaginary:  # the smaller, sqrt(-disc) / (16 beta^2 b)
                b = _quotient(
                    isqrt(-self._disc << (2 * k)) << (3 * k), (beta * beta * b) << 4
                )
            mean = _agm(2 * isqrt(beta << k), b)
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return mp.ldexp(self._scale * mp.pi / mean, k)

    def to_json_dict(self) -> dict:
        return {
            "omega": _nstr(self.omega, self.precision_bits),
            "omega_minus_im": _nstr(self.omega_minus.imag, self.precision_bits),
            "c_inf": self.c_inf,
            "k1": self.k1,
            "k2": self.k2,
            "precision_bits": self.precision_bits,
        }


def real_components(m: WeierstrassModel) -> int:
    """Number of connected components of the real locus: 2 iff delta > 0."""
    return 2 if m.invariants.delta > 0 else 1


def complex_agm(a, b):
    """AGM iteration with the branch rule |a_n - b_n| <= |a_n + b_n|, ties
    broken toward Im(b_n / a_n) > 0. Raises PrecisionError if the iteration
    budget is exhausted before |a - b| <= |a| * 2^(8 - prec)."""
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    if a == 0 or b == 0:
        return mp.zero
    eps = mpf(2) ** (8 - mp.prec)
    for _ in range(_AGM_MAX_ITERATIONS):
        if abs(a - b) <= eps * abs(a):
            return (a + b) / 2
        am = (a + b) / 2
        gm = mp.sqrt(a * b)
        excess = abs(am - gm) - abs(am + gm)
        if excess > 0 or (excess == 0 and mp.im(gm / am if am != 0 else gm) < 0):
            gm = -gm
        a, b = am, gm
    raise PrecisionError("AGM did not converge within the iteration budget")


def _value(cubic, x: int, k: int) -> int:
    """2^(3k) * g(x / 2^k), exactly."""
    b2, b4, b6 = cubic
    return ((4 * x + (b2 << k)) * x + (b4 << (2 * k + 1))) * x + (b6 << (3 * k))


def _value_and_slope(cubic, x: int, k: int) -> tuple[int, int]:
    """2^(3k) * g(x / 2^k) and 2^(2k) * g'(x / 2^k), exactly, sharing x^2."""
    b2, b4, b6 = cubic
    square = (4 * x + (b2 << k)) * x
    linear = square + (b4 << (2 * k + 1))
    return linear * x + (b6 << (3 * k)), linear + 2 * square - ((b2 * x) << k)


def _newton(cubic, y: int, s: int, k: int) -> int:
    """One Newton step for g from y at scale 2^s, rounded to a unit 2^-k
    (k >= s): the step from x = y * 2^(k-s) at scale 2^k, computed at scale
    2^s, as g's values there are 2^(3(k-s)) and its slopes 2^(2(k-s)) times
    smaller."""
    value, slope = _value_and_slope(cubic, y, s)
    u = k - s
    return (y << u) - ((value << (u + 1)) + slope) // (2 * slope)


def _root(cubic, lo: int, hi: int, s: int, k: int, gap_bits: int) -> int:
    """The root of g in [lo, hi] (scale 2^s, g(lo)*g(hi) < 0) to one unit
    2^-k. Each Newton step to scale 2^k' starts from one unit 2^-h with
    2h >= k' + gap_bits + 3, so that it ends within one unit."""
    rising = _value(cubic, lo, s) < 0
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        lo, hi = (mid, hi) if (_value(cubic, mid, s) < 0) == rising else (lo, mid)
    scales = [k]
    while (scales[-1] + gap_bits + 4) // 2 > s:
        scales.append((scales[-1] + gap_bits + 4) // 2)
    for k in reversed(scales):
        lo = _newton(cubic, lo, s, k)
        s = k
    return lo


def _trace_root(cubic, e1: int, e3: int, k: int) -> int:
    """The middle root of g to one unit 2^-k, given e1 and e3 to one unit:
    the three roots sum to -b2/4, so the start errs by at most two units
    2^-(k-1), and as 2(k-1) >= k + G + 3 (k = p + 32 + r + G), one Newton
    step ends within one unit, as in _root."""
    return _newton(cubic, -(cubic[0] << (k - 2)) - e1 - e3, k, k)


def _certified(cubic, x: int, k: int) -> bool:
    """True when g(x - 1) and g(x + 1), exact at scale 2^k, do not share a
    strict sign, so that a root lies within one unit of x. Both come from
    one evaluation at x: for V(x) = 2^(3k) g(x / 2^k), a cubic with leading
    coefficient 4, V(x +- 1) = V(x) +- V'(x) + (12x + b2*2^k) +- 4."""
    value, slope = _value_and_slope(cubic, x, k)
    curvature = 12 * x + (cubic[0] << k)
    below = value - slope + curvature - 4
    above = value + slope + curvature + 4
    return min(below, above) <= 0 <= max(below, above)


def _real_roots(cubic, disc: int, precision_bits: int):
    """(roots, K): the real roots of g, largest first, each certified to one
    unit 2^-K; K and G are raised by K once if a certificate fails."""
    b2, b4, b6 = cubic
    r = 1 + max(b2.bit_length(), (b4.bit_length() + 1) // 2, (b6.bit_length() + 2) // 3)
    gap_bits = max(0, 2 * r + 6 - (abs(disc).bit_length() - 1) // 2)
    k = precision_bits + GUARD_BITS + r + gap_bits
    for k, gap_bits in ((k, gap_bits), (2 * k, gap_bits + k)):
        s = gap_bits + 8
        bound = 1 << (r + s)
        if disc > 0:
            middle, half = -(b2 << s), isqrt((b2 * b2 - 24 * b4) << (2 * s))
            low, high = (middle - half) // 12, (middle + half) // 12
            e1 = _root(cubic, high, bound, s, k, gap_bits)
            e3 = _root(cubic, -bound, low, s, k, gap_bits)
            roots = (e1, _trace_root(cubic, e1, e3, k), e3)
        else:
            roots = (_root(cubic, -bound, bound, s, k, gap_bits),)
        if all(_certified(cubic, x, k) for x in roots):
            return roots, k
    raise PrecisionError("the cubic's roots failed certification")


def _agm(a: int, b: int) -> int:
    """The AGM of two positive numbers at one fixed-point scale. With
    m = (a + b)/2 and c = a - b, M(a, b) = m - c^2/(16m) - 5c^4/(1024m^3) - ...,
    so once c^4 < m^3 (in units) the first two terms end it."""
    for _ in range(_AGM_MAX_ITERATIONS):
        m, c = (a + b) >> 1, a - b
        if 4 * c.bit_length() <= 3 * (m.bit_length() - 1):
            return m - c * c // (16 * m)
        a, b = m, isqrt(a * b)
    raise PrecisionError("AGM did not converge within the iteration budget")


def _quotient(n: int, d: int) -> int:
    """n // d for n >= d > 0, to within one unit: the divisor is cut to 64
    bits beyond the quotient's length, so the exact ratio moves by less than
    2^-62."""
    cut = max(0, 2 * d.bit_length() - n.bit_length() - 65)
    return (n >> cut) // (d >> cut)


def lattice_periods(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodReport:
    """The period lattice of the model m itself (no minimization), its roots
    certified at once and each period computed when first read."""
    precision_bits = _check_precision(precision_bits)
    inv = m.invariants
    scale = lcm(inv.b2.denominator, inv.b4.denominator, inv.b6.denominator)
    cubic = (
        int(inv.b2 * scale**2), int(inv.b4 * scale**4), int(inv.b6 * scale**6)
    )
    disc = int(16 * inv.delta * scale**12)
    roots, k = _real_roots(cubic, disc, precision_bits)
    return PeriodReport(
        precision_bits, cubic, disc, roots, k, scale if disc > 0 else 2 * scale
    )


def period_report(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodReport:
    """lattice_periods of the canonical minimal model of m: real period,
    imaginary period and component count of the curve, equal for isomorphic
    models."""
    return lattice_periods(minimize(m).minimal, precision_bits)


def raw_real_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """Integral of |dx/(2y + a1*x + a3)| over the real locus of m itself."""
    return lattice_periods(m, precision_bits).omega


def real_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """The real period Omega of the curve: c_inf times the least positive
    real period of a minimal model. Invariant under isomorphisms of m."""
    return period_report(m, precision_bits).omega


def imaginary_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[mpc, int, int]:
    """(Omega^-, k1, k2): the generator of the purely imaginary periods,
    Omega^- = k1*omega_complex - k2*omega_real with Im(Omega^-) > 0 for the
    lattice basis of the minimal model; (k1, k2) is (1, 0) for a rectangular
    lattice (delta > 0), where omega_complex is purely imaginary, else (2, -1)."""
    report = period_report(m, precision_bits)
    return report.omega_minus, report.k1, report.k2
