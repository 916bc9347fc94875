"""Models, invariants, p-adic signatures and coordinate changes."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    compose,
    integral_models,
    invert,
    is_identity,
    is_integral,
    rational_models,
    transformations,
)
from twistperiod.exact import INFINITY
from twistperiod.weierstrass import (
    Invariants,
    SingularCurveError,
    Transformation,
    WeierstrassModel,
    padic_signature,
)

# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_invariants_of_short_models():
    m = WeierstrassModel.from_ainvs([0, 1])  # y^2 = x^3 + 1
    assert (m.c4, m.c6, m.delta) == (0, -864, -432)
    assert m.j == 0

    m = WeierstrassModel.from_ainvs([-1, 0])  # y^2 = x^3 - x
    assert (m.c4, m.c6, m.delta) == (48, 0, 64)
    assert m.j == 1728

    m = WeierstrassModel.from_ainvs([0, 0, 1, 0, -7])
    assert (m.c4, m.c6, m.delta) == (0, 5832, -19683)
    assert m.j == 0


def test_invariants_of_long_model():
    m = WeierstrassModel(1, -1, 1, -14, 29)  # a full five-coefficient model
    inv = m.invariants
    assert inv.b2 == 1 - 4
    assert inv.b4 == 2 * -14 + 1 * 1
    assert inv.b6 == 1 + 4 * 29
    assert inv.b8 == 29 + 4 * (-1) * 29 - 1 * 1 * (-14) + (-1) * 1 - 14**2
    assert m.c4 == inv.b2**2 - 24 * inv.b4
    assert m.delta != 0


def test_invariants_total_on_singular_input():
    # The invariant computation itself never raises; j is None when delta = 0.
    inv = Invariants.from_coefficients(0, 0, 0, 0, 0)  # cuspidal y^2 = x^3
    assert inv.delta == 0
    assert inv.j is None
    inv = Invariants.from_coefficients(0, 0, 0, -3, 2)  # nodal
    assert inv.delta == 0
    assert inv.j is None


@given(rational_models())
@settings(max_examples=200, deadline=None)
def test_invariant_identities(m):
    inv = m.invariants
    assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
    assert inv.j == inv.c4**3 / inv.delta


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def test_singular_model_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassModel.from_ainvs([-3, 2])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        WeierstrassModel(0, 0, 0, 0.5, 1)


def test_boolean_coefficients_rejected():
    # JSON true is not the coefficient 1
    with pytest.raises(TypeError):
        WeierstrassModel(True, 0, 0, 1, 1)
    with pytest.raises(TypeError):
        WeierstrassModel.from_json("[true, 0, 0, 1, 1]")


def test_rational_coefficients_accepted():
    m = WeierstrassModel(0, 0, 0, Fraction(1, 2), 1)
    assert m.ainvs[3] == Fraction(1, 2)
    assert not is_integral(m)
    assert is_integral(WeierstrassModel(0, 0, 0, -1, 0))


def test_from_ainvs_lengths():
    short = WeierstrassModel.from_ainvs([-1, 0])
    long = WeierstrassModel.from_ainvs([0, 0, 0, -1, 0])
    assert short == long
    with pytest.raises(ValueError):
        WeierstrassModel.from_ainvs([1, 2, 3])


def test_from_ainvs_takes_only_lists_and_tuples():
    assert WeierstrassModel.from_ainvs((-1, 0)) == WeierstrassModel.from_ainvs([-1, 0])
    for bad in ("12345", "12", {"curve": [-1, 0]}, iter([-1, 0]), 12):
        with pytest.raises(ValueError):
            WeierstrassModel.from_ainvs(bad)


def test_json_round_trip():
    # the form the CLI prints a curve in: a list of rational strings
    m = WeierstrassModel(1, -2, 3, Fraction(-7, 4), 5)
    text = json.dumps([str(a) for a in m.ainvs])
    assert WeierstrassModel.from_json(text) == m


def test_from_json_rejects_garbage():
    for text in ["not json", "{}", "[1,2,3]", '["x",0,0,0,1]']:
        with pytest.raises(ValueError):
            WeierstrassModel.from_json(text)


# ---------------------------------------------------------------------------
# p-adic signatures
# ---------------------------------------------------------------------------


def test_padic_signature_pinned():
    m = WeierstrassModel.from_ainvs([0, 0, 1, 0, -7])
    assert padic_signature(m, 3) == (INFINITY, 6, 9)
    assert padic_signature(m, 2) == (INFINITY, 3, 0)
    m = WeierstrassModel.from_ainvs([-1, 0])
    assert padic_signature(m, 2) == (4, INFINITY, 6)


@given(integral_models())
@settings(max_examples=100, deadline=None)
def test_padic_signature_matches_direct_valuations(m):
    from twistperiod.exact import vp

    for p in (2, 3, 5):
        sig = padic_signature(m, p)
        assert sig == (vp(m.c4, p), vp(m.c6, p), vp(m.delta, p))


# ---------------------------------------------------------------------------
# Coordinate changes
# ---------------------------------------------------------------------------


def test_identity_transformation():
    identity = Transformation(1)
    assert (identity.u, identity.r, identity.s, identity.t) == (1, 0, 0, 0)
    m = WeierstrassModel.from_ainvs([-1, 0])
    assert identity.apply(m) == m


def test_transformation_requires_nonzero_u():
    with pytest.raises(ValueError):
        Transformation(0, 1, 2, 3)


def test_scaling_action_on_invariants():
    m = WeierstrassModel(1, -1, 1, -14, 29)
    u = Fraction(3, 2)
    scaled = Transformation(u).apply(m)
    assert scaled.c4 == m.c4 / u**4
    assert scaled.c6 == m.c6 / u**6
    assert scaled.delta == m.delta / u**12
    assert scaled.j == m.j


def test_shift_and_scale_concrete():
    # x -> 4x' + 1, y -> 8y' + 4x' + 2 applied to y^2 = x^3 - x.
    m = WeierstrassModel.from_ainvs([-1, 0])
    t = Transformation(2, 1, Fraction(1, 2), 1)
    image = t.apply(m)
    # a1' = (a1 + 2s)/u, a2' = (a2 - s*a1 + 3r - s^2)/u^2
    assert image.ainvs[0] == Fraction(1, 2)
    assert image.ainvs[1] == Fraction(3 - Fraction(1, 4), 4)
    assert image.delta == m.delta / 2**12
    assert invert(t).apply(image) == m


@given(transformations(), rational_models())
@settings(max_examples=150, deadline=None)
def test_apply_compose_consistency(t, m):
    u = t.u
    image = t.apply(m)
    assert image.c4 == m.c4 / u**4
    assert image.delta == m.delta / u**12
    assert invert(t).apply(image) == m


@given(transformations(), transformations(), rational_models())
@settings(max_examples=150, deadline=None)
def test_compose_is_sequential_application(t1, t2, m):
    assert compose(t1, t2).apply(m) == t2.apply(t1.apply(m))


@given(transformations(), transformations(), transformations())
@settings(max_examples=100, deadline=None)
def test_compose_associative(t1, t2, t3):
    assert compose(compose(t1, t2), t3) == compose(t1, compose(t2, t3))


@given(transformations())
@settings(max_examples=100, deadline=None)
def test_inverse_laws(t):
    assert is_identity(compose(t, invert(t)))
    assert is_identity(compose(invert(t), t))
    assert invert(invert(t)) == t


def test_transformation_json_dict():
    t = Transformation(Fraction(5, 2), 1, Fraction(-1, 3), 0)
    payload = t.to_json_dict()
    assert payload["u"] == "5/2"
    assert payload["s"] == "-1/3"
