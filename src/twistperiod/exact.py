"""Exact arithmetic helpers.

p-adic valuations on rationals (math.inf for the valuation of zero), square-free
tests, and integer factorization sized for twist parameters: trial division up
to 4096, then Brent's variant of Pollard rho on the cofactor with a fixed
iteration budget, and a Miller-Rabin primality test (deterministic below
3.3e24) that certifies every factor.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Union

TRIAL_DIVISION_BOUND = 4096

# Squarings one Pollard rho call may spend before it gives up: about 1.5 s on
# a 49-digit modulus. Rho finds a prime factor p in about sqrt(p) squarings,
# so factors below about 10^11 come out well within it.
_RHO_BUDGET = 1 << 20

# Deterministic Miller-Rabin witnesses, valid for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


#: The valuation of zero: larger than every integer, so min(), max() and
#: comparisons with integers need no special case, and a positive multiple
#: such as 3 * v(c4) stays INFINITY.
INFINITY = math.inf

#: A p-adic valuation: an integer, or INFINITY for the valuation of zero.
ExtendedValuation = Union[int, float]


class FactorizationBudgetError(ArithmeticError):
    """Pollard rho exhausted its iteration budget on a composite factor."""


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    n = operator.index(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_DETERMINISTIC_LIMIT:
        # Beyond the deterministic range add fixed pseudo-random rounds.
        rng = random.Random(n)
        witnesses = tuple(_MR_WITNESSES) + tuple(
            rng.randrange(2, n - 1) for _ in range(24)
        )
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant; returns a nontrivial factor of composite n.

    Raises FactorizationBudgetError after _RHO_BUDGET squarings without one.
    """
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    budget = _RHO_BUDGET
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if budget <= 0:
                raise FactorizationBudgetError(
                    f"Pollard rho found no factor of the {len(str(n))}-digit "
                    f"composite {n} in {_RHO_BUDGET} iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget -= steps
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an exponent dict.

    Trial division up to TRIAL_DIVISION_BOUND, then Pollard rho splits the
    cofactor until is_prime certifies every piece. Raises
    FactorizationBudgetError when rho exhausts its budget on a piece, so the
    result is never incomplete.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Wheel over numbers coprime to 30.
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p <= TRIAL_DIVISION_BOUND and p * p <= n:
        if n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        else:
            p += increments[i]
            i = (i + 1) % 8
    if n == 1:
        return factors
    if p * p > n:
        factors[n] = factors.get(n, 0) + 1
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def vp(x: Union[int, Fraction], p: int) -> ExtendedValuation:
    """The p-adic valuation of a rational x; INFINITY for x = 0.

    Raises TypeError unless p is an int, ValueError unless it is prime.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if isinstance(x, float):
        raise TypeError("vp expects exact input (int or Fraction), not float")
    x = Fraction(x)
    if x == 0:
        return INFINITY

    def _count(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return _count(abs(x.numerator)) - _count(x.denominator)


def is_square_free(d: int) -> bool:
    """True when no prime square divides the integer d. Raises on d = 0."""
    d = operator.index(d)
    if d == 0:
        raise ValueError("0 is not a valid twist parameter")
    return all(e == 1 for e in factorize(abs(d)).values())


def odd_prime_divisors(d: int) -> list[int]:
    """Sorted odd primes dividing the square-free integer d.

    Raises TypeError when d is not an integer, ValueError when d is zero or
    not square-free, and FactorizationBudgetError when |d| cannot be
    factored within the budget.
    """
    d = operator.index(d)
    if d == 0:
        raise ValueError("0 is not a valid twist parameter")
    factors = factorize(abs(d))
    if any(e > 1 for e in factors.values()):
        raise ValueError(f"d = {d} is not square-free")
    return sorted(p for p in factors if p != 2)

