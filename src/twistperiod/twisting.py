"""Quadratic twists of Weierstrass models.

For a square-free integer d, the twist of y^2 + a1*x*y + a3*y = x^3 + ... by d
keeps a1 and a3 fixed and sets

    a2' = a2*d + a1^2*(d - 1)/4
    a4' = a4*d^2 + a1*a3*(d^2 - 1)/2
    a6' = a6*d^3 + a3^2*(d^3 - 1)/4

so that c4' = c4*d^2, c6' = c6*d^3, delta' = delta*d^6. The model produced may
have denominators at 2 (when a1 or a3 is odd); downstream minimization accepts
rational models, so no integral clearing is done here.

Over the complex numbers the twist is the coordinate change
x = alpha^2*x', y = alpha^3*y' + s(alpha)*x' + t(alpha) with alpha = sqrt(1/d);
TwistMap records that change with alpha kept symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .exact import is_square_free
from .weierstrass import WeierstrassModel


def _check_twist_parameter(d: int) -> int:
    d = int(d)
    if not is_square_free(d):
        raise ValueError(f"twist parameter d = {d} must be square-free")
    return d


def twist(m: WeierstrassModel, d: int) -> WeierstrassModel:
    """The quadratic twist of m by the square-free integer d."""
    d = _check_twist_parameter(d)
    a1, a2, a3, a4, a6 = m.ainvs
    return WeierstrassModel(
        a1,
        a2 * d + a1 * a1 * Fraction(d - 1, 4),
        a3,
        a4 * d * d + a1 * a3 * Fraction(d * d - 1, 2),
        a6 * d**3 + a3 * a3 * Fraction(d**3 - 1, 4),
    )


@dataclass(frozen=True)
class TwistMap:
    """The coordinate change [alpha, 0, s, t] from a model to its twist by d.

    alpha = sqrt(1/d) is kept symbolic. The transformation parameters are

        s = s_const + s_alpha * alpha
        t = t_const + t_alpha * alpha

    stored as exact rational pairs, so the map is x = alpha^2 * x',
    y = alpha^3 * y' + alpha^2 * s * x' + t. The scaling component is alpha,
    hence the invariant differential satisfies w(twist) = alpha * w = w/sqrt(d).
    """

    d: int
    s_const: Fraction
    s_alpha: Fraction
    t_const: Fraction
    t_alpha: Fraction

    @property
    def alpha_squared(self) -> Fraction:
        """Exact value of alpha^2 = 1/d (also the x-scaling coefficient)."""
        return Fraction(1, self.d)

    def is_identity(self) -> bool:
        return self.d == 1

    def numeric(self, precision_bits: int = 128) -> tuple[mpc, mpc, mpc]:
        """(u, s-term, t-term) with alpha evaluated numerically."""

        def to_mpc(value: Fraction) -> mpc:
            return mpc(value.numerator) / value.denominator

        with mp.workprec(precision_bits):
            alpha = mp.sqrt(mpc(1) / self.d)
            s = to_mpc(self.s_const) + to_mpc(self.s_alpha) * alpha
            t = to_mpc(self.t_const) + to_mpc(self.t_alpha) * alpha
            return alpha, s, t


def twist_transformation(m: WeierstrassModel, d: int) -> TwistMap:
    """The coordinate change taking m to twist(m, d), with alpha symbolic.

    Solving the [u, r, s, t] update equations with u = alpha, r = 0 against
    the twist coefficients gives s = a1*(alpha - 1)/2 and
    t = a3*(alpha^3 - 1)/2, with alpha^3 = alpha/d.
    """
    d = _check_twist_parameter(d)
    a1, a3 = m.a1, m.a3
    return TwistMap(
        d=d,
        s_const=-a1 / 2,
        s_alpha=a1 / 2,
        t_const=-a3 / 2,
        t_alpha=a3 / Fraction(2 * d),
    )
