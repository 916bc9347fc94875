"""Period lattices of Weierstrass models over R, via the complex AGM.

The invariant differential is dx / (2y + a1*x + a3); substituting
Y = 2y + a1*x + a3 turns the curve into Y^2 = g(x) with
g(x) = 4x^3 + b2*x^2 + 2*b4*x + b6, whose roots e_i drive everything.

With M(a, b) the AGM whose square-root branch keeps |a_n - b_n| <= |a_n + b_n|
at every step:

  delta > 0, real roots e1 > e2 > e3 (rectangular lattice):
      omega_real    = pi / M(sqrt(e1 - e3), sqrt(e1 - e2))
      omega_complex = i * pi / M(sqrt(e1 - e3), sqrt(e2 - e3))

  delta < 0, real root e1 and conjugate pair e2 = conj(e3), Im(e2) > 0:
      omega_real    = pi / Re M(sqrt(e1 - e3), sqrt(e1 - e2))
      nu            = pi / M(|z|, |Im z|)      with z = sqrt(e1 - e2)
      omega_complex = (-omega_real + i*nu) / 2

  (The arguments sqrt(e1 - e3) and sqrt(e1 - e2) are complex conjugates, so
  one AGM step lands on the real pair (Re z, |z|); nu is the analogous AGM
  for the generator of the purely imaginary periods.)

In both cases omega_real is the least positive real period, and the integral
of |dx / (2y + a1*x + a3)| over the full real locus is c_inf * omega_real
with c_inf = 2 when delta > 0 (two components) and 1 otherwise. The basis
shape is fixed by the sign of delta (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 7.4.7), so the imaginary period Omega^- = i*nu
and its coefficients (k1, k2) are read off that sign, not recognized
numerically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .minimality import minimize
from .weierstrass import WeierstrassModel

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
GUARD_BITS = 32
_AGM_MAX_ITERATIONS = 300


class PrecisionError(ArithmeticError):
    """An iteration failed to converge within its budget."""


def _check_precision(precision_bits: int) -> int:
    precision_bits = operator.index(precision_bits)
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}"
        )
    return precision_bits


def _to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _digits() -> int:
    return max(mp.dps - 3, 15)


def _nstr(x) -> str:
    return mp.nstr(x, _digits())


@dataclass(frozen=True)
class PeriodLattice:
    """A basis (omega_real, omega_complex) of the period lattice of a model.

    omega_real is the least positive real period. omega_complex is i*nu, its
    real part exactly 0, for a rectangular lattice (delta > 0), and
    (-omega_real + i*nu)/2 otherwise; i*nu generates the purely imaginary
    periods.
    """

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
        with mp.workprec(self.precision_bits):
            return {
                "omega": _nstr(self.omega),
                "omega_minus_im": _nstr(mp.im(self.omega_minus)),
                "c_inf": self.c_inf,
                "k1": self.k1,
                "k2": self.k2,
                "precision_bits": self.precision_bits,
            }


def real_components(m: WeierstrassModel) -> int:
    """Number of connected components of the real locus: 2 iff delta > 0."""
    return 2 if m.invariants.delta > 0 else 1


def complex_agm(a, b):
    """AGM iteration with the branch rule |a_n - b_n| <= |a_n + b_n|.

    Ties are broken toward Im(b_n / a_n) > 0. Raises PrecisionError if the
    iteration budget is exhausted before |a - b| <= |a| * 2^(8 - prec).
    """
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    if a == 0 or b == 0:
        return mp.zero
    eps = mpf(2) ** (8 - mp.prec)
    for _ in range(_AGM_MAX_ITERATIONS):
        if abs(a - b) <= eps * abs(a):
            return (a + b) / 2
        am = (a + b) / 2
        gm = mp.sqrt(a * b)
        if abs(am - gm) > abs(am + gm):
            gm = -gm
        elif abs(am - gm) == abs(am + gm):
            z = gm / am if am != 0 else gm
            if mp.im(z) < 0:
                gm = -gm
        a, b = am, gm
    raise PrecisionError("AGM did not converge within the iteration budget")


def _lattice_cubic(m: WeierstrassModel) -> list[Fraction]:
    inv = m.invariants
    return [Fraction(4), inv.b2, 2 * inv.b4, inv.b6]


def _newton_polish(coeffs, x, steps=3):
    c3, c2, c1, c0 = coeffs
    for _ in range(steps):
        f = ((c3 * x + c2) * x + c1) * x + c0
        fp = (3 * c3 * x + 2 * c2) * x + c1
        if fp == 0:
            break
        x = x - f / fp
    return x


def _cubic_roots(m: WeierstrassModel):
    """Roots of 4x^3 + b2*x^2 + 2*b4*x + b6 at working precision.

    Returns (e1, e2, e3): all real with e1 > e2 > e3 when delta > 0;
    e1 real and e3 = conj(e2) with Im(e2) > 0 when delta < 0.
    """
    exact = _lattice_cubic(m)
    coeffs = [_to_mpf(c) for c in exact]
    try:
        roots = mp.polyroots(coeffs, maxsteps=500, extraprec=mp.prec // 2 + 60)
    except mp.NoConvergence as exc:
        raise PrecisionError(f"cubic root isolation failed: {exc}") from exc
    if m.invariants.delta > 0:
        reals = sorted((mp.re(z) for z in roots), reverse=True)
        e1, e2, e3 = (_newton_polish(coeffs, x) for x in reals)
        return e1, e2, e3
    real_root = min(roots, key=lambda z: abs(mp.im(z)))
    complex_pair = [z for z in roots if z is not real_root]
    e2 = complex_pair[0] if mp.im(complex_pair[0]) > 0 else complex_pair[1]
    e1 = _newton_polish(coeffs, mp.re(real_root))
    e2 = _newton_polish(coeffs, mpc(e2))
    return e1, e2, mp.conj(e2)


def lattice_periods(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodLattice:
    """A period lattice basis for the model m itself (no minimization)."""
    precision_bits = _check_precision(precision_bits)
    with mp.workprec(precision_bits + GUARD_BITS):
        e1, e2, e3 = _cubic_roots(m)
        if m.invariants.delta > 0:
            omega_real = mp.pi / complex_agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            nu = mp.pi / complex_agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
            omega_complex = mpc(0, nu)
        else:
            z = mp.sqrt(mpc(e1) - e2)
            magm = complex_agm(mp.conj(z), z)
            omega_real = mp.pi / mp.re(magm)
            nu = mp.pi / complex_agm(abs(z), abs(mp.im(z)))
            omega_complex = mpc(-omega_real / 2, nu / 2)
        return PeriodLattice(
            omega_real=omega_real,
            omega_complex=omega_complex,
            precision_bits=precision_bits,
        )


def raw_real_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """Integral of |dx/(2y + a1*x + a3)| over the real locus of m itself."""
    return _real_locus_period(m, lattice_periods(m, precision_bits))


def _real_locus_period(m: WeierstrassModel, lattice: PeriodLattice) -> mpf:
    """c_inf(m) * omega_real, at the lattice's working precision."""
    with mp.workprec(lattice.precision_bits + GUARD_BITS):
        return real_components(m) * lattice.omega_real


def real_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpf:
    """The real period Omega of the curve: c_inf times the least positive
    real period of a minimal model. Invariant under isomorphisms of m."""
    return raw_real_period(minimize(m).minimal, precision_bits)


def imaginary_period(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[mpc, int, int]:
    """(Omega^-, k1, k2): the generator of the purely imaginary periods.

    Omega^- = k1*omega_complex - k2*omega_real for the lattice basis of the
    minimal model, with Im(Omega^-) > 0. The basis shape gives (k1, k2):
    (1, 0) for a rectangular lattice (delta > 0), where omega_complex is
    itself purely imaginary, and (2, -1) otherwise.
    """
    return _imaginary_generator(lattice_periods(minimize(m).minimal, precision_bits))


def _imaginary_generator(lattice: PeriodLattice) -> tuple[mpc, int, int]:
    """(Omega^-, k1, k2) of a lattice basis, as imaginary_period describes;
    lattice_periods sets Re(omega_complex) to exactly 0 only when delta > 0."""
    k1, k2 = (1, 0) if mp.re(lattice.omega_complex) == 0 else (2, -1)
    with mp.workprec(lattice.precision_bits + GUARD_BITS):
        return mpc(0, k1 * mp.im(lattice.omega_complex)), k1, k2


def period_report(
    m: WeierstrassModel, precision_bits: int = DEFAULT_PRECISION_BITS
) -> PeriodReport:
    """Real period, imaginary period and component count for one curve,
    all from one lattice of its minimal model."""
    minimal = minimize(m).minimal
    lattice = lattice_periods(minimal, precision_bits)
    omega_minus, k1, k2 = _imaginary_generator(lattice)
    return PeriodReport(
        omega=_real_locus_period(minimal, lattice),
        omega_minus=omega_minus,
        c_inf=real_components(minimal),
        k1=k1,
        k2=k2,
        precision_bits=lattice.precision_bits,
    )
