"""Integer and p-adic utility layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistperiod.exact import (
    INFINITY,
    factorize,
    is_prime,
    is_square_free,
    odd_prime_divisors,
    vp,
)

# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def test_is_prime_small_values():
    primes_below_100 = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }
    for n in range(-5, 100):
        assert is_prime(n) == (n in primes_below_100)


def test_is_prime_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers and strong pseudoprimes to several bases.
    for n in [561, 1105, 1729, 2465, 2821, 6601, 3215031751, 3825123056546413051]:
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**89 - 1)  # Mersenne prime
    assert not is_prime(2**89 + 1)
    assert is_prime(10**50 + 151)
    assert not is_prime((10**25 + 13) * (10**25 + 277))


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_is_prime_agrees_with_trial_division(n):
    by_trial = all(n % k for k in range(2, math.isqrt(n) + 1))
    assert is_prime(n) == by_trial


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2**10 * 3**5 * 101) == {2: 10, 3: 5, 101: 1}


def test_factorize_rejects_non_positive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_semiprime_beyond_trial_division():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_prime_power_beyond_trial_division():
    p = 10**9 + 7
    assert factorize(p**3) == {p: 3}


def _next_prime_by_trial_division(n: int) -> int:
    while n < 2 or any(n % k == 0 for k in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


# Primes on both sides of the trial-division bound (4096) and of the old
# bound (10^6), some squared: the cofactor left to rho then holds one or
# more primes, or a prime power.
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=10**3, max_value=10**7), st.sampled_from([1, 2])
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_factorize_matches_trial_division_reference(chosen, cofactor):
    expected = {}
    for base, exponent in chosen:
        p = _next_prime_by_trial_division(base)
        expected[p] = expected.get(p, 0) + exponent
    n = 1
    for p, e in expected.items():
        n *= p**e
    # The small cofactor's primes, found by plain trial division.
    k, rest = 2, cofactor
    while rest > 1:
        while rest % k == 0:
            expected[k] = expected.get(k, 0) + 1
            rest //= k
        k += 1
    assert factorize(n * cofactor) == expected


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=150, deadline=None)
def test_factorize_reconstructs_and_certifies(n):
    factors = factorize(n)
    product = 1
    for prime, exponent in factors.items():
        assert is_prime(prime)
        assert exponent >= 1
        product *= prime**exponent
    assert product == n


# ---------------------------------------------------------------------------
# Valuations and the infinite element
# ---------------------------------------------------------------------------


def test_vp_basics():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(12, 5) == 0
    assert vp(Fraction(5, 8), 2) == -3
    assert vp(Fraction(-9, 4), 3) == 2
    assert vp(0, 7) is INFINITY


def test_vp_rejects_non_prime_and_floats():
    with pytest.raises(ValueError):
        vp(12, 4)
    with pytest.raises(ValueError):
        vp(12, 1)
    with pytest.raises(TypeError):
        vp(0.5, 2)


def test_infinity_ordering():
    assert INFINITY > 10**100
    assert INFINITY >= INFINITY
    assert not (INFINITY < INFINITY)
    assert min(INFINITY, 3) == 3
    assert max(INFINITY, 3) is INFINITY


@given(
    st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
    st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=300, deadline=None)
def test_vp_is_a_valuation(x, y, p):
    # multiplicativity
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    # ultrametric inequality (with the exact-cancellation case allowed)
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


# ---------------------------------------------------------------------------
# Square-free parts and odd prime divisors
# ---------------------------------------------------------------------------


def test_is_square_free():
    assert is_square_free(1)
    assert is_square_free(-1)
    assert is_square_free(30)
    assert is_square_free(-105)
    assert not is_square_free(4)
    assert not is_square_free(-18)
    assert not is_square_free(12)
    with pytest.raises(ValueError):
        is_square_free(0)


def vp_of_12(p):
    return vp(12, p)


@pytest.mark.parametrize(
    "function", [factorize, is_square_free, odd_prime_divisors, is_prime, vp_of_12]
)
def test_non_integer_arguments_are_type_errors(function):
    # int() would read 5.5 as 5; Fraction(10, 2) is not an int either
    for bad in (5.5, Fraction(10, 2), "5"):
        with pytest.raises(TypeError):
            function(bad)


def test_odd_prime_divisors():
    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(-1) == []
    assert odd_prime_divisors(2) == []
    assert odd_prime_divisors(-30) == [3, 5]
    assert odd_prime_divisors(105) == [3, 5, 7]


def test_odd_prime_divisors_rejects_non_square_free():
    with pytest.raises(ValueError):
        odd_prime_divisors(12)


def test_randomized_factorizations_certify():
    rng = random.Random(12345)
    for _ in range(40):
        n = rng.randint(2, 10**15)
        factors = factorize(n)
        product = 1
        for prime, exponent in factors.items():
            assert is_prime(prime)
            product *= prime**exponent
        assert product == n
