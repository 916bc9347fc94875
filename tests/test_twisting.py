"""Quadratic twists and the twist isomorphism over Q(sqrt(d))."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings

from helpers import (
    CURVE_A,
    CURVE_B,
    TWIST_A_D,
    TWIST_B_D,
    TWISTED_A,
    TWISTED_B,
    is_integral,
)
from strategies import integral_models, rational_models, square_free_ints
from twist_oracle import twist_transformation
from twistperiod.twisting import twist
from twistperiod.weierstrass import WeierstrassModel


def test_pinned_twists():
    assert twist(CURVE_A, TWIST_A_D) == TWISTED_A
    assert twist(CURVE_B, TWIST_B_D) == TWISTED_B


def test_twist_by_one_is_identity():
    assert twist(CURVE_B, 1) == CURVE_B
    assert twist_transformation(CURVE_B, 1).is_identity()


def test_twist_parameter_must_be_square_free():
    for bad in (0, 4, -8, 12, 50):
        with pytest.raises(ValueError):
            twist(CURVE_A, bad)


def test_twist_parameter_must_be_an_integer():
    for bad in (5.5, Fraction(5), "5"):
        with pytest.raises(TypeError):
            twist(CURVE_A, bad)


def test_short_model_twist_is_classical():
    # For y^2 = x^3 + A x + B the twist by d is y^2 = x^3 + A d^2 x + B d^3.
    m = WeierstrassModel.from_ainvs([-2, 3])
    assert twist(m, -5) == WeierstrassModel.from_ainvs([-2 * 25, 3 * -125])


@given(rational_models(), square_free_ints(30))
@settings(max_examples=200, deadline=None)
def test_twist_invariant_relations(m, d):
    twisted = twist(m, d)
    assert twisted.c4 == m.c4 * d**2
    assert twisted.c6 == m.c6 * d**3
    assert twisted.delta == m.delta * d**6
    assert twisted.j == m.j
    assert twisted.ainvs[0] == m.ainvs[0]
    assert twisted.ainvs[2] == m.ainvs[2]


@given(integral_models(), square_free_ints(30))
@settings(max_examples=100, deadline=None)
def test_double_twist_scales_like_square(m, d):
    double = twist(twist(m, d), d)
    assert double.c4 == m.c4 * d**4
    assert double.c6 == m.c6 * d**6
    assert double.j == m.j


@given(integral_models(), square_free_ints(30))
@settings(max_examples=100, deadline=None)
def test_twist_integrality(m, d):
    # a2' = a2 d + a1^2 (d-1)/4, a4' = a4 d^2 + a1 a3 (d^2-1)/2,
    # a6' = a6 d^3 + a3^2 (d^3-1)/4: only the a1/a3 correction terms can
    # introduce denominators, and never when d = 1 mod 4.
    twisted = twist(m, d)
    a1, _, a3, _, _ = m.ainvs
    if (a1 % 2 == 0 and a3 % 2 == 0) or d % 4 == 1:
        assert is_integral(twisted)


def _apply_numeric(u, s, t, ainvs):
    """Coordinate change [u, 0, s, t] on numeric coefficients (r = 0)."""
    a1, a2, a3, a4, a6 = (mp.mpc(x.numerator) / x.denominator for x in ainvs)
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 - s**2) / u**2,
        (a3 + 2 * t) / u**3,
        (a4 - s * a3 - t * a1 - 2 * s * t) / u**4,
        (a6 - t * a3 - t**2) / u**6,
    )


def test_twist_map_pinned_examples():
    for m, d in ((CURVE_A, TWIST_A_D), (CURVE_B, TWIST_B_D), (CURVE_B, 13)):
        mapping = twist_transformation(m, d)
        assert mapping.alpha_squared == Fraction(1, d)
        twisted = twist(m, d)
        with mp.workprec(200):
            u, s, t = mapping.numeric(precision_bits=200)
            image = _apply_numeric(u, s, t, m.ainvs)
            for got, want in zip(image, twisted.ainvs):
                want_c = mp.mpc(want.numerator) / want.denominator
                assert abs(got - want_c) < mp.mpf(2) ** -150


@given(integral_models(bound=5), square_free_ints(15))
@settings(max_examples=60, deadline=None)
def test_twist_map_sends_model_to_twist(m, d):
    mapping = twist_transformation(m, d)
    twisted = twist(m, d)
    with mp.workprec(180):
        u, s, t = mapping.numeric(precision_bits=180)
        image = _apply_numeric(u, s, t, m.ainvs)
        scale = max(1, *(abs(mp.mpc(x.numerator) / x.denominator) for x in twisted.ainvs))
        for got, want in zip(image, twisted.ainvs):
            want_c = mp.mpc(want.numerator) / want.denominator
            assert abs(got - want_c) < scale * mp.mpf(2) ** -130


def test_twist_preserves_integrality_for_one_mod_four():
    assert is_integral(twist(CURVE_B, -7))
    assert is_integral(twist(CURVE_B, 5))
