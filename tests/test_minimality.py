"""Minimal models, the per-prime scaling table, and their cross-checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CURVE_A,
    CURVE_B,
    CURVE_C,
    MINIMAL_TWIST_A,
    MINIMAL_TWIST_B,
    TWIST_A_D,
    TWIST_B_D,
    TWIST_C_D,
    UTILDE_A,
    UTILDE_B,
    UTILDE_C,
    is_identity,
    is_integral,
    minimal_twist_valuation,
    random_minimal_model,
    random_square_free,
)
from strategies import integral_models, square_free_ints
from twistperiod.exact import vp
from twistperiod.minimality import (
    CASE_LABELS,
    _candidate_primes,
    compute_utilde,
    minimal_model_of_twist,
    minimize,
    signature_gauge,
    utilde_factor_at,
)
from twistperiod.twisting import twist
from twistperiod.weierstrass import Transformation, WeierstrassModel

# label -> (u_p, shift of v_p(discriminant)); None means u_p equals the prime.
EXPECTED_TABLE = {
    "1a": (Fraction(1), 6),
    "1b": (None, -6),
    "odd-p-not-dividing-d": (Fraction(1), 0),
    "2a": (Fraction(1), 0),
    "2b-i": (Fraction(1, 2), 12),
    "2b-ii": (Fraction(2), -12),
    "2b-iii": (Fraction(1), 0),
    "2c-i": (Fraction(1, 2), 18),
    "2c-ii": (Fraction(4), -18),
    "2c-iii": (Fraction(1), 6),
    "2c-iv": (Fraction(2), -6),
}

# Minimal models observed to land in each branch of the classifier, as
# (coefficients, d, p) triples.
BRANCH_WITNESSES = {
    "1a": ([0, 0, 0, -287, 1867], 3, 3),
    "1b": ([1, -1, 1, -14, 15], 6, 3),
    "2a": ([0, 0, 0, -889, 10209], -11, 2),
    "2b-i": ([0, 0, 1, -177, 907], -5, 2),
    "2b-ii": ([0, 0, 0, 13, 114], 3, 2),
    "2b-iii": ([0, 0, 0, -287, 1867], 3, 2),
    "2c-i": ([1, -1, 0, -296, 2048], -6, 2),
    "2c-ii": ([0, 0, 0, -1036, 12816], 6, 2),
    "2c-iii": ([0, 0, 0, -287, 1867], 6, 2),
    "2c-iv": ([0, 1, 0, -797, 8373], -6, 2),
}

# A handful of curves that are known to already be reduced minimal models.
KNOWN_MINIMAL = [
    [0, -1, 1, -10, -20],
    [0, 0, 1, -1, 0],
    [0, 1, 1, -2, 0],
    [0, 0, 1, -7, 6],
    [1, 0, 1, -173, 879],
]


def test_case_labels_complete():
    assert set(EXPECTED_TABLE) == set(CASE_LABELS)
    assert len(CASE_LABELS) == 11


def test_signature_gauge_pinned():
    assert signature_gauge(CURVE_C, 3) == 9
    assert signature_gauge(CURVE_A, 5) == 6
    # good or multiplicative reduction: c4 is a unit, so the gauge is 0
    m = WeierstrassModel.from_ainvs([0, 0, 1, -1, 0])  # discriminant 37
    assert signature_gauge(m, 3) == 0
    assert signature_gauge(m, 37) == 0


def test_every_branch_is_reachable_and_matches_table():
    seen = set()
    for label, (coefficients, d, p) in BRANCH_WITNESSES.items():
        m = WeierstrassModel.from_ainvs(coefficients)
        assert minimize(m).minimal == m, f"witness for {label} is not minimal"
        factor, got_label = utilde_factor_at(m, d, p)
        assert got_label == label
        expected_factor, expected_shift = EXPECTED_TABLE[label]
        if expected_factor is None:
            expected_factor = Fraction(p)
        assert factor == expected_factor
        predicted = minimal_twist_valuation(m, d, p)
        assert predicted == vp(m.delta, p) + expected_shift
        # and the prediction is honest: compare against actual minimization
        actual = vp(minimize(twist(m, d)).minimal.delta, p)
        assert predicted == actual
        seen.add(label)
    assert seen | {"odd-p-not-dividing-d"} == set(CASE_LABELS)


def test_odd_prime_not_dividing_d_is_inert():
    factor, label = utilde_factor_at(CURVE_A, TWIST_A_D, 3)
    assert (factor, label) == (1, "odd-p-not-dividing-d")
    assert minimal_twist_valuation(CURVE_A, TWIST_A_D, 3) == vp(CURVE_A.delta, 3)


def test_pinned_utilde_values():
    report = compute_utilde(CURVE_A, TWIST_A_D)
    assert report.utilde == UTILDE_A
    assert report.per_prime[2] == (1, "2a")
    assert report.per_prime[5] == (5, "1b")

    report = compute_utilde(CURVE_B, TWIST_B_D)
    assert report.utilde == UTILDE_B
    assert report.per_prime[2] == (1, "2a")
    assert report.per_prime[7] == (7, "1b")

    report = compute_utilde(CURVE_C, TWIST_C_D)
    assert report.utilde == UTILDE_C
    assert report.per_prime[3] == (3, "1b")


def test_utilde_report_shape():
    report = compute_utilde(CURVE_C, TWIST_C_D)
    assert report.case_labels() == ["2a", "1b"]
    payload = report.to_json_dict()
    assert payload["utilde"] == "3"
    assert {entry["p"] for entry in payload["per_prime"]} == {2, 3}


def test_utilde_rejects_non_square_free():
    with pytest.raises(ValueError):
        compute_utilde(CURVE_A, 12)


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def test_known_minimal_models_are_fixed_points():
    for coefficients in KNOWN_MINIMAL:
        m = WeierstrassModel.from_ainvs(coefficients)
        result = minimize(m)
        assert result.minimal == m
        assert is_identity(result.map)


def test_minimize_undoes_blowup():
    m = WeierstrassModel.from_ainvs([0, -1, 1, -10, -20])
    blown_up = Transformation(Fraction(1, 3), 2, 5, -1).apply(m)
    assert blown_up.delta == m.delta * 3**12
    result = minimize(blown_up)
    assert result.minimal == m
    assert result.map.u == 3
    assert result.map.apply(blown_up) == m


def test_minimize_handles_rational_models():
    m = WeierstrassModel(0, 0, 0, Fraction(-1, 16), Fraction(1, 64))
    result = minimize(m)
    assert is_integral(result.minimal)
    assert result.map.apply(m) == result.minimal
    assert result.map.u > 0


def test_pinned_twist_minimizations():
    assert minimize(twist(CURVE_A, TWIST_A_D)).minimal == MINIMAL_TWIST_A
    assert minimize(twist(CURVE_B, TWIST_B_D)).minimal == MINIMAL_TWIST_B


@given(integral_models())
@settings(max_examples=100, deadline=None)
def test_minimize_properties(m):
    result = minimize(m)
    minimal = result.minimal
    assert is_integral(minimal)
    assert result.map.u > 0
    assert result.map.apply(m) == minimal
    # discriminant drops by a perfect twelfth power
    ratio = m.delta / minimal.delta
    u = result.map.u
    assert ratio == u**12
    # idempotence
    again = minimize(minimal)
    assert again.minimal == minimal
    assert is_identity(again.map)


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 1_000_003]


@given(
    shared=st.lists(st.sampled_from(SMALL_PRIMES), max_size=6).map(math.prod),
    x=st.integers(-(10**6), 10**6).filter(bool),
    y=st.integers(-(10**6), 10**6),
    known=st.lists(st.sampled_from(SMALL_PRIMES), unique=True),
)
@settings(max_examples=200, deadline=None)
def test_known_primes_change_no_candidate_prime(shared, x, y, known):
    # a known prime need not divide gcd(c4, c6), and a prime of it missing
    # from the list is found by factoring what the known ones leave
    c4, c6 = shared * x, shared * y
    assert _candidate_primes(c4, c6, known) == _candidate_primes(c4, c6)


# ---------------------------------------------------------------------------
# Table against minimization, and special cases of the scaling factor
# ---------------------------------------------------------------------------


def test_minimal_model_of_twist_pinned():
    result, report = minimal_model_of_twist(CURVE_A, TWIST_A_D)
    assert result.minimal == MINIMAL_TWIST_A
    assert report.utilde == UTILDE_A
    assert result.map.u == UTILDE_A

    result, report = minimal_model_of_twist(CURVE_B, TWIST_B_D)
    assert result.minimal == MINIMAL_TWIST_B
    assert report.utilde == UTILDE_B


@given(integral_models(), square_free_ints(30))
@settings(max_examples=100, deadline=None)
def test_table_agrees_with_minimization(m, d):
    result, report = minimal_model_of_twist(m, d)  # raises on any mismatch
    twisted = twist(minimize(m).minimal, d)
    assert twisted.delta / result.minimal.delta == report.utilde**12
    # the table covers exactly the primes dividing 2d
    assert set(report.per_prime) == {2, *{p for p in report.per_prime if p != 2}}
    assert (2 * report.utilde).denominator == 1


@given(integral_models(), square_free_ints(30))
@settings(max_examples=150, deadline=None)
def test_coprime_twist_special_cases(m, d):
    # When d is coprime to the discriminant, the scaling factor is a power of
    # 2, and trivial as soon as d = 1 mod 4.
    minimal = minimize(m).minimal
    report = compute_utilde(minimal, d)
    if math.gcd(d, int(minimal.delta)) == 1:
        odd_part = report.utilde.numerator * report.utilde.denominator
        while odd_part % 2 == 0:
            odd_part //= 2
        assert abs(odd_part) == 1
        if d % 4 == 1:
            assert report.utilde == 1


def test_randomized_valuation_predictions():
    rng = random.Random(20260825)
    from twistperiod.exact import odd_prime_divisors

    for _ in range(60):
        m = random_minimal_model(rng)
        d = random_square_free(rng)
        actual_minimal = minimize(twist(m, d)).minimal
        for p in [2, *odd_prime_divisors(d)]:
            predicted = minimal_twist_valuation(m, d, p)
            assert predicted == vp(actual_minimal.delta, p), (m.ainvs, d, p)


# Minimal models with v_3(c6) = 5 and a 3-adic gauge of 6: the p = 3
# exception keeps them in "1a" for 3 | d.
THREE_ADIC_EXCEPTIONS = [
    [0, 0, 0, -9, -18],
    [0, 0, 0, -9, -36],
    [0, 0, 1, -9, -25],
    [1, -1, 1, -11, -8],
]


def _classify_by_gauge(m, d, p):
    """utilde_factor_at for odd p | d, always through signature_gauge."""
    if signature_gauge(m, p) < 6 or (p == 3 and vp(m.c6, p) == 5):
        return Fraction(1), "1a"
    return Fraction(p), "1b"


def _twisted_back(m, p):
    """The minimal model of twist(m, p): twisting it back by p gives m's
    curve again, so it is where "1b" fires."""
    return minimize(twist(m, p)).minimal


@given(
    st.one_of(
        integral_models(),
        st.sampled_from(THREE_ADIC_EXCEPTIONS).map(WeierstrassModel.from_ainvs),
    ),
    st.sampled_from([3, 5, 7, 11, 13]),
    square_free_ints(30),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_divisibility_shortcut_matches_signature_gauge(m, p, k, round_trip):
    mm = minimize(m).minimal
    if round_trip:
        mm = _twisted_back(mm, p)
    d = k if k % p == 0 else p * k
    assert utilde_factor_at(mm, d, p) == _classify_by_gauge(mm, d, p)


def test_divisibility_shortcut_reaches_every_odd_label():
    labels = set()
    for coefficients in THREE_ADIC_EXCEPTIONS:
        m = WeierstrassModel.from_ainvs(coefficients)
        assert minimize(m).minimal == m
        assert vp(m.c6, 3) == 5 and signature_gauge(m, 3) >= 6
        assert utilde_factor_at(m, -3, 3) == (1, "1a")
        minimal_model_of_twist(m, -3)  # the table agrees with minimization
    for coefficients in KNOWN_MINIMAL:
        for p in (3, 5, 7):
            mm = _twisted_back(WeierstrassModel.from_ainvs(coefficients), p)
            for d in (p, -p, 2 * p):
                factor, label = utilde_factor_at(mm, d, p)
                assert (factor, label) == _classify_by_gauge(mm, d, p)
                labels.add(label)
    assert labels == {"1a", "1b"}
