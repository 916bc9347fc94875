"""Hypothesis strategies for the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from twistperiod import (
    SingularCurveError,
    Transformation,
    WeierstrassModel,
    is_square_free,
)


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
