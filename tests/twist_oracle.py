"""The twist isomorphism over Q(sqrt(d)), as an oracle for twisting.twist.

Over the complex numbers the twist of a model m by a square-free d is the
coordinate change x = alpha^2*x', y = alpha^3*y' + s(alpha)*x' + t(alpha)
with alpha = sqrt(1/d). TwistMap records that change with alpha kept
symbolic; its numeric() evaluation lets a test apply it to m and compare the
image with twist(m, d). The scaling component is alpha, so the invariant
differential satisfies w(twist) = w/sqrt(d), the source of the 1/sqrt(d) in
the twisted-period relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from twistperiod.exact import is_square_free
from twistperiod.weierstrass import WeierstrassModel


@dataclass(frozen=True)
class TwistMap:
    """The coordinate change [alpha, 0, s, t] from a model to its twist by d.

    alpha = sqrt(1/d) is kept symbolic. The transformation parameters are

        s = s_const + s_alpha * alpha
        t = t_const + t_alpha * alpha

    stored as exact rational pairs, so the map is x = alpha^2 * x',
    y = alpha^3 * y' + alpha^2 * s * x' + t.
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
    d = int(d)
    if not is_square_free(d):
        raise ValueError(f"twist parameter d = {d} must be square-free")
    a1, a3 = m.a1, m.a3
    return TwistMap(
        d=d,
        s_const=-a1 / 2,
        s_alpha=a1 / 2,
        t_const=-a3 / 2,
        t_alpha=a3 / Fraction(2 * d),
    )
