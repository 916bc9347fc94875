"""Weierstrass models over Q and the coordinate changes between them.

A model is y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with rational
coefficients. Invariants follow the usual formulas:

    b2 = a1^2 + 4*a2          c4 = b2^2 - 24*b4
    b4 = 2*a4 + a1*a3         c6 = -b2^3 + 36*b2*b4 - 216*b6
    b6 = a3^2 + 4*a6          delta = -b2^2*b8 - 8*b4^3 - 27*b6^2 + 9*b2*b4*b6
    b8 = a1^2*a6 + 4*a2*a6 - a1*a3*a4 + a2*a3^2 - a4^2

Coordinate changes are [u, r, s, t] with x = u^2*x' + r and
y = u^3*y' + u^2*s*x' + t, under which c4' = c4/u^4, c6' = c6/u^6,
delta' = delta/u^12 and the invariant differential scales as w' = u*w.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Union

from .exact import ExtendedValuation, vp

Rational = Union[int, str, Fraction]


class SingularCurveError(ValueError):
    """Raised when coefficients describe a curve with discriminant zero."""


def _coerce(x: Rational) -> Fraction:
    if isinstance(x, (float, bool)):
        raise TypeError(f"coefficients must be exact rationals, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class Invariants:
    """The b-, c-invariants, discriminant and j-invariant of a model.

    Total: may be built from any coefficient tuple, including singular ones
    (j is None when delta = 0).
    """

    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    delta: Fraction
    j: Optional[Fraction]

    @classmethod
    def from_coefficients(cls, a1, a2, a3, a4, a6) -> "Invariants":
        a1, a2, a3, a4, a6 = (_coerce(a) for a in (a1, a2, a3, a4, a6))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        j = c4**3 / delta if delta != 0 else None
        return cls(b2, b4, b6, b8, c4, c6, delta, j)


@lru_cache(maxsize=256)
def _invariants_of(ainvs: tuple) -> Invariants:
    return Invariants.from_coefficients(*ainvs)


@dataclass(frozen=True)
class WeierstrassModel:
    """A nonsingular Weierstrass model over Q.

    Construction rejects singular coefficient tuples (delta = 0) with
    SingularCurveError. Accepts ints, Fractions and "n/d" strings.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        if self.invariants.delta == 0:
            raise SingularCurveError(
                f"singular model (delta = 0): {list(map(str, self.ainvs))}"
            )

    @property
    def ainvs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def invariants(self) -> Invariants:
        """The model's Invariants, computed on first access and then kept on
        the instance, so later accesses neither recompute nor hash the
        coefficients."""
        return _invariants_of(self.ainvs)

    @property
    def c4(self) -> Fraction:
        return self.invariants.c4

    @property
    def c6(self) -> Fraction:
        return self.invariants.c6

    @property
    def delta(self) -> Fraction:
        return self.invariants.delta

    @property
    def j(self) -> Fraction:
        return self.invariants.j

    @classmethod
    def from_ainvs(
        cls, ainvs: list[Rational] | tuple[Rational, ...]
    ) -> "WeierstrassModel":
        """Build from [a1,a2,a3,a4,a6], or the short form [A,B] meaning
        y^2 = x^3 + A*x + B. Anything but a list or a tuple is a
        ValueError, so a string of digits is not read as coefficients."""
        if not isinstance(ainvs, (list, tuple)):
            raise ValueError(
                "a model must be a list or tuple of coefficients, "
                f"got {type(ainvs).__name__}"
            )
        ainvs = list(ainvs)
        if len(ainvs) == 2:
            ainvs = [0, 0, 0, ainvs[0], ainvs[1]]
        if len(ainvs) != 5:
            raise ValueError(
                f"expected 5 coefficients [a1,a2,a3,a4,a6] or 2 [A,B], got {len(ainvs)}"
            )
        return cls(*ainvs)

    @classmethod
    def from_json(cls, text: str) -> "WeierstrassModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid model JSON: {exc}") from exc
        return cls.from_ainvs(data)

    def __str__(self) -> str:
        return f"[{', '.join(str(a) for a in self.ainvs)}]"


class PAdicSignature(NamedTuple):
    """(v_p(c4), v_p(c6), v_p(delta)) for one model at one prime."""

    vc4: ExtendedValuation
    vc6: ExtendedValuation
    vdelta: ExtendedValuation


def padic_signature(m: WeierstrassModel, p: int) -> PAdicSignature:
    inv = m.invariants
    return PAdicSignature(vp(inv.c4, p), vp(inv.c6, p), vp(inv.delta, p))


@dataclass(frozen=True)
class Transformation:
    """A coordinate change [u, r, s, t] with u != 0.

    apply() maps the model of E in (x, y) to the model in (x', y') where
    x = u^2*x' + r, y = u^3*y' + u^2*s*x' + t.
    """

    u: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        if self.u == 0:
            raise ValueError("transformation scale u must be nonzero")

    def apply(self, m: WeierstrassModel) -> WeierstrassModel:
        u, r, s, t = self.u, self.r, self.s, self.t
        a1, a2, a3, a4, a6 = m.ainvs
        na1 = (a1 + 2 * s) / u
        na2 = (a2 - s * a1 + 3 * r - s * s) / u**2
        na3 = (a3 + r * a1 + 2 * t) / u**3
        na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
        na6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
        return WeierstrassModel(na1, na2, na3, na4, na6)

    def to_json_dict(self) -> dict:
        return {"u": str(self.u), "r": str(self.r), "s": str(self.s), "t": str(self.t)}
