"""Quadratic twists of Weierstrass models.

For a square-free integer d, the twist of y^2 + a1*x*y + a3*y = x^3 + ... by d
keeps a1 and a3 fixed and sets

    a2' = a2*d + a1^2*(d - 1)/4
    a4' = a4*d^2 + a1*a3*(d^2 - 1)/2
    a6' = a6*d^3 + a3^2*(d^3 - 1)/4

so that c4' = c4*d^2, c6' = c6*d^3, delta' = delta*d^6. The model produced may
have denominators at 2 (when a1 or a3 is odd); downstream minimization accepts
rational models, so no integral clearing is done here.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .exact import is_square_free
from .weierstrass import WeierstrassModel


def twist(m: WeierstrassModel, d: int) -> WeierstrassModel:
    """The quadratic twist of m by the square-free integer d."""
    d = operator.index(d)
    if not is_square_free(d):
        raise ValueError(f"twist parameter d = {d} must be square-free")
    return _twist(m, d)


def _twist(m: WeierstrassModel, d: int) -> WeierstrassModel:
    """twist for an integer d already known to be square-free."""
    a1, a2, a3, a4, a6 = m.ainvs
    return WeierstrassModel(
        a1,
        a2 * d + a1 * a1 * Fraction(d - 1, 4),
        a3,
        a4 * d * d + a1 * a3 * Fraction(d * d - 1, 2),
        a6 * d**3 + a3 * a3 * Fraction(d**3 - 1, 4),
    )
