"""Shared generators and pinned fixtures for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from twistperiod import (
    SingularCurveError,
    Transformation,
    WeierstrassModel,
    is_prime,
    is_square_free,
    minimize,
)

# Two small curves with known twists and periods, used as pinned fixtures
# everywhere.  CURVE_A has a1 = a3 = 0; CURVE_B has nonzero a1 and a3, so the
# twist map there is not simply (x, y) -> (d x, d^{3/2} y).
CURVE_A = WeierstrassModel.from_ainvs([0, -1, 0, -6883, 222137])
CURVE_B = WeierstrassModel.from_ainvs([1, 0, 1, -173, 879])

# Twists used throughout: CURVE_A by +5, CURVE_B by -7, with the expected
# raw twisted models, the minimal models of those twists, and the scaling
# factors between their discriminants.
TWIST_A_D = 5
TWIST_B_D = -7
TWISTED_A = WeierstrassModel.from_ainvs([0, -5, 0, -172075, 27767125])
TWISTED_B = WeierstrassModel.from_ainvs([1, -2, 1, -8453, -301583])
MINIMAL_TWIST_A = WeierstrassModel.from_ainvs([0, 1, 0, -275, 1667])
MINIMAL_TWIST_B = WeierstrassModel.from_ainvs([1, 1, 0, -3, -4])
UTILDE_A = Fraction(5)
UTILDE_B = Fraction(7)

# A curve with additive reduction at 3 whose twist by -3 exercises the
# lambda >= 6 branch of the odd-prime table (u_p = p).
CURVE_C = WeierstrassModel.from_ainvs([0, 0, 1, 0, -7])
TWIST_C_D = -3
UTILDE_C = Fraction(3)

# Reference period values, quoted to the digits pinned in the tests.
OMEGA_A = "1.29805532262"
OMEGA_TWIST_A = "2.90253993995"
OMEGA_TWIST_B = "1.73968697697"
OMEGA_MINUS_B = "0.65753987145"


def semiprime_beyond_rho_budget() -> int:
    """p * q for the first two primes above 10^24: a square-free d of 49
    digits whose factors Pollard rho cannot find within its budget."""
    p = next(n for n in itertools.count(10**24) if is_prime(n))
    q = next(n for n in itertools.count(p + 1) if is_prime(n))
    return p * q


def random_model(rng: random.Random, bound: int = 20) -> WeierstrassModel:
    """A random nonsingular integral model with |a_i| <= bound."""
    while True:
        coefficients = [rng.randint(-bound, bound) for _ in range(5)]
        try:
            return WeierstrassModel(*coefficients)
        except SingularCurveError:
            continue


def random_minimal_model(rng: random.Random, bound: int = 20) -> WeierstrassModel:
    return minimize(random_model(rng, bound)).minimal


def random_square_free(rng: random.Random, bound: int = 50) -> int:
    """A random square-free integer d with 0 < |d| <= bound."""
    while True:
        d = rng.randint(-bound, bound)
        if d != 0 and is_square_free(d):
            return d


def random_fraction(rng: random.Random, bound: int = 30) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_nonzero_fraction(rng: random.Random, bound: int = 30) -> Fraction:
    while True:
        value = random_fraction(rng, bound)
        if value:
            return value


def random_transformation_tuple(rng: random.Random, bound: int = 12):
    return (
        random_nonzero_fraction(rng, bound),
        random_fraction(rng, bound),
        random_fraction(rng, bound),
        random_fraction(rng, bound),
    )


def random_transformation(rng: random.Random, bound: int = 12) -> Transformation:
    return Transformation(*random_transformation_tuple(rng, bound))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


def _maybe_model(coefficients) -> WeierstrassModel | None:
    try:
        return WeierstrassModel(*coefficients)
    except SingularCurveError:
        return None


def integral_models(bound: int = 8):
    """Strategy producing nonsingular integral models with |a_i| <= bound."""
    coefficient = st.integers(min_value=-bound, max_value=bound)
    return (
        st.tuples(coefficient, coefficient, coefficient, coefficient, coefficient)
        .map(_maybe_model)
        .filter(lambda m: m is not None)
    )


def rational_models(bound: int = 6):
    """Strategy producing nonsingular models with small rational coefficients."""
    coefficient = st.fractions(
        min_value=-bound, max_value=bound, max_denominator=4
    )
    return (
        st.tuples(coefficient, coefficient, coefficient, coefficient, coefficient)
        .map(_maybe_model)
        .filter(lambda m: m is not None)
    )


def small_fractions(bound: int = 6, max_denominator: int = 4):
    return st.fractions(
        min_value=-bound, max_value=bound, max_denominator=max_denominator
    )


def transformations(bound: int = 6):
    value = small_fractions(bound)
    return st.builds(
        Transformation,
        value.filter(bool),
        value,
        value,
        value,
    )


def square_free_ints(bound: int = 50):
    return st.integers(min_value=-bound, max_value=bound).filter(
        lambda d: d != 0 and is_square_free(d)
    )
