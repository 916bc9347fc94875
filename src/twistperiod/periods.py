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
2^(r+1). Bisection on integers scaled by 2^(G+8), split at the critical points
(-b2 +- isqrt(c4))/12 when delta > 0, isolates each real root, and Newton steps
doubling the precision (Brent-Zimmermann, Modern Computer Arithmetic, 4.2)
refine it. A root X is certified when g(X-1) and g(X+1), evaluated exactly, do
not share a strict sign; else the roots are recomputed once with K and G raised
by K, then PrecisionError is raised. Then a gap errs by two units on a value
above 2^-G, beta^2 by 2*beta units, sqrt(2beta -+ alpha) exceeds
2^-(G + r/2 + 2), and an AGM of n steps adds n units: each period keeps more
than p + 16 correct bits.

c_inf * omega_real integrates |dx/Y| over the real locus; c_inf = 2 (two
components) iff delta > 0. The sign of delta fixes the basis shape (Cohen,
Alg. 7.4.7), so Omega^- = i*nu and (k1, k2) are read off it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
class PeriodLattice:
    """A period lattice basis: omega_real, the least positive real period,
    and omega_complex, i*nu (real part exactly 0) when delta > 0 and
    (-omega_real + i*nu)/2 otherwise; i*nu generates the imaginary periods."""

    omega_real: mpf
    omega_complex: mpc
    precision_bits: int


@dataclass(frozen=True)
class PeriodReport:
    """Everything the periods CLI command exposes for one curve."""

    omega: mpf
    omega_minus: mpc
    c_inf: int
    k1: int
    k2: int
    precision_bits: int

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
    b2, b4, _ = cubic
    for k in reversed(scales):
        lo <<= k - s
        slope = (12 * lo + (b2 << (k + 1))) * lo + (b4 << (2 * k + 1))
        lo -= (2 * _value(cubic, lo, k) + slope) // (2 * slope)
        s = k
    return lo


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
        brackets = [(-bound, bound)]
        if disc > 0:
            middle, half = -(b2 << s), isqrt((b2 * b2 - 24 * b4) << (2 * s))
            low, high = (middle - half) // 12, (middle + half) // 12
            brackets = [(high, bound), (low, high), (-bound, low)]
        roots = [_root(cubic, lo, hi, s, k, gap_bits) for lo, hi in brackets]
        if all(_value(cubic, x - 1, k) * _value(cubic, x + 1, k) <= 0 for x in roots):
            return roots, k
    raise PrecisionError("the cubic's roots failed certification")


def _agm(a: int, b: int) -> int:
    """The AGM of two positive numbers at one fixed-point scale."""
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, isqrt(a * b)
    return a


def lattice_periods(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodLattice:
    """A period lattice basis for the model m itself (no minimization)."""
    precision_bits = _check_precision(precision_bits)
    inv = m.invariants
    scale = lcm(inv.b2.denominator, inv.b4.denominator, inv.b6.denominator)
    b2, b4, _ = cubic = (
        int(inv.b2 * scale**2), int(inv.b4 * scale**4), int(inv.b6 * scale**6)
    )
    disc = int(16 * inv.delta * scale**12)
    roots, k = _real_roots(cubic, disc, precision_bits)
    if disc > 0:
        e1, e2, e3 = roots
        a = isqrt((e1 - e3) << k)
        omega, nu = _agm(a, isqrt((e1 - e2) << k)), _agm(a, isqrt((e2 - e3) << k))
    else:
        (e1,) = roots
        beta = isqrt(3 * e1 * e1 + ((b2 * e1) << (k - 1)) + (b4 << (2 * k - 1)))
        alpha = 3 * e1 + (b2 << (k - 2))
        wide = 2 * beta + abs(alpha)
        # square roots of wide and of the other one, -disc / (256 beta^4 wide)
        sqrts = isqrt(wide << k), isqrt((-disc << (7 * k)) // ((beta**4 * wide) << 8))
        plus, minus = sqrts if alpha >= 0 else sqrts[::-1]
        a = 2 * isqrt(beta << k)
        omega, nu = _agm(a, plus), _agm(a, minus)
        scale *= 2
    with mp.workprec(precision_bits + GUARD_BITS):
        omega_real, nu = (mp.ldexp(scale * mp.pi / x, k) for x in (omega, nu))
        omega_complex = mpc(0, nu) if disc > 0 else mpc(-omega_real / 2, nu / 2)
        return PeriodLattice(omega_real, omega_complex, precision_bits)


def _periods(m: WeierstrassModel, precision_bits: int) -> PeriodReport:
    """Omega = c_inf*omega_real and Omega^- = i*k1*Im(omega_complex) of m itself
    (no minimization), from one lattice; c_inf and (k1, k2) follow sign(delta)."""
    lattice = lattice_periods(m, precision_bits)
    c_inf = real_components(m)
    k1, k2 = (1, 0) if c_inf == 2 else (2, -1)
    with mp.workprec(lattice.precision_bits + GUARD_BITS):
        omega = c_inf * lattice.omega_real
        omega_minus = mpc(0, k1 * mp.im(lattice.omega_complex))
    return PeriodReport(omega, omega_minus, c_inf, k1, k2, lattice.precision_bits)


def period_report(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodReport:
    """Real period, imaginary period and component count for one curve,
    all from one lattice of its minimal model."""
    return _periods(minimize(m).minimal, precision_bits)


def raw_real_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """Integral of |dx/(2y + a1*x + a3)| over the real locus of m itself."""
    return _periods(m, precision_bits).omega


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
