"""Seeded inputs for the benchmark workloads.

Curves, twist parameters and coordinate changes are built here with plain
integer and Fraction arithmetic, without calling twistperiod, so making an
input leaves nothing in the package's caches. The same seed always gives the
same inputs, and no (curve, d) pair is handed out twice by one generator.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


SMALL_PRIMES = _primes_below(1000)
# Deterministic Miller-Rabin bases for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def _next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def c_invariants(a1, a2, a3, a4, a6):
    """(c4, c6, delta) of y^2 + a1xy + a3y = x^3 + a2x^2 + a4x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, delta


def _reducible_at_small_prime(c4: int, c6: int, delta: int) -> bool:
    """True if some p < 1000 has p^4 | c4, p^6 | c6 and p^12 | delta."""
    g = math.gcd(c4, c6)
    for p in SMALL_PRIMES:
        if p**4 > g:
            return False
        if c4 % p**4 == 0 and c6 % p**6 == 0 and delta % p**12 == 0:
            return True
    return False


def random_minimal_curve(rng: random.Random, bound: int) -> tuple[int, ...]:
    """A nonsingular integral model with |a_i| <= bound that no prime below
    1000 can reduce (for |a_i| <= 10^3 that means it is minimal)."""
    while True:
        ainvs = tuple(rng.randint(-bound, bound) for _ in range(5))
        c4, c6, delta = c_invariants(*ainvs)
        if delta != 0 and not _reducible_at_small_prime(c4, c6, delta):
            return ainvs


def _square_free(n: int) -> bool:
    return all(n % (p * p) for p in SMALL_PRIMES if p * p <= n)


def small_twist(rng: random.Random, bound: int = 200) -> int:
    """A square-free d with 1 <= |d| <= bound, either sign."""
    while True:
        d = rng.randint(1, bound)
        if _square_free(d):
            return d if rng.random() < 0.5 else -d


def mid_twist(rng: random.Random, low: float, high: float) -> int:
    """A square-free d with 10^low <= |d| <= 10^high (6 <= low < high <= 12):
    a few small primes times one prime, its size log-uniform."""
    while True:
        target = int(10 ** rng.uniform(low, high))
        small = 1
        for p in (2, 3, 5, 7, 11, 13):
            if rng.random() < 0.3:
                small *= p
        q = _next_prime(max(17, target // small))
        d = small * q
        if 10**low <= d <= 10**high:
            return d if rng.random() < 0.5 else -d


def large_twist(rng: random.Random) -> int:
    """d = +-p*q with distinct primes p, q between 10^6 and 2*10^6, so that
    factorization needs more than trial division."""
    p = _next_prime(rng.randint(10**6, 2 * 10**6))
    while True:
        q = _next_prime(rng.randint(10**6, 2 * 10**6))
        if q != p:
            return p * q if rng.random() < 0.5 else -p * q


def apply_change(ainvs, u, r, s, t) -> tuple[Fraction, ...]:
    """The model reached by x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""
    a1, a2, a3, a4, a6 = ainvs
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


def _fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 6))


def non_minimal_curve(rng: random.Random, bound: int) -> tuple[Fraction, ...]:
    """A minimal curve moved by a random rational coordinate change whose
    scale u = 1/k (k = 2..6) makes the new model non-minimal."""
    base = random_minimal_curve(rng, bound)
    u = Fraction(1, rng.randint(2, 6))
    return apply_change(
        tuple(map(Fraction, base)), u, _fraction(rng, 12), _fraction(rng, 12),
        _fraction(rng, 12),
    )


class VerifyInputs:
    """Distinct (curve, d) pairs for verify_twist_period_relation.

    In every block of eight pairs, six curves have |a_i| <= 50 and two have
    |a_i| <= 10^6 (the latter cost about three times as much); four d are
    negative, one of them with a wide curve. |d| <= 200, square-free.
    """

    _BIG = (3, 6)
    _NEGATIVE = (1, 3, 4, 5)

    def __init__(self, seed: int):
        self._rng = random.Random(f"verify:{seed}")
        self._seen: set = set()
        self._count = 0

    def next_pair(self) -> tuple[tuple[int, ...], int, bool]:
        """(curve, d, whether the curve is one with |a_i| <= 10^6)."""
        position = self._count % 8
        self._count += 1
        big = position in self._BIG
        while True:
            curve = random_minimal_curve(self._rng, 10**6 if big else 50)
            d = abs(small_twist(self._rng))
            if position in self._NEGATIVE:
                d = -d
            if (curve, d) not in self._seen:
                self._seen.add((curve, d))
                return curve, d, big


class ScanInputs:
    """Curve batches and twist lists for `twistperiod scan`.

    Every third curve of a batch is non-minimal and rational, the others are
    minimal with |a_i| <= 10^3. A twist list has `large` d with two prime
    factors above 10^6, `mid` d between 10^6 and 10^12 (one from each equal
    slice of the exponent range, so that their cost varies little from batch
    to batch) and the rest small, half of them negative. No curve appears in
    two batches, so no pair repeats.

    The default shape reproduces the cost shares of a profiled hand-run scan:
    under cProfile, factorize takes about 40% of the time and minimize about
    42%. The trial division of each large or top-slice d costs about 60 ms
    per curve, so 216 twists per list put factorize near 40%; 24 curves make
    a batch's 5184 retained records a visible part of the process's memory.
    """

    def __init__(self, seed: int, curves: int = 24, twists: int = 216,
                 large: int = 2, mid: int = 4):
        self._rng = random.Random(f"scan:{seed}")
        self._seen: set = set()
        self._batches = 0
        self.curves, self.twists, self.large, self.mid = curves, twists, large, mid

    def _curve(self, index: int) -> tuple:
        while True:
            if index % 3 == 2:
                curve = non_minimal_curve(self._rng, 1000)
            else:
                curve = random_minimal_curve(self._rng, 1000)
            if curve not in self._seen:
                self._seen.add(curve)
                return curve

    def next_batch(self, curves: int | None = None, twists: int | None = None,
                   large: int | None = None, mid: int | None = None,
                   ) -> tuple[list[tuple[str, list[str]]], list[int]]:
        """([(label, coefficient strings)], twist list) for the next batch;
        the arguments override the shape given to the constructor."""
        curves = self.curves if curves is None else curves
        twists = self.twists if twists is None else twists
        large = self.large if large is None else large
        mid = self.mid if mid is None else mid
        batch = self._batches
        self._batches += 1
        labelled = [
            (f"b{batch}-c{i}", [str(a) for a in self._curve(i)])
            for i in range(curves)
        ]
        makers = [large_twist] * large + [
            lambda rng, i=i: mid_twist(rng, 6 + 6 * i / mid, 6 + 6 * (i + 1) / mid)
            for i in range(mid)
        ]
        makers += [None] * (twists - large - mid)
        chosen: list[int] = []
        for index, make in enumerate(makers):
            while True:
                if make is None:
                    d = abs(small_twist(self._rng))
                    d = d if index % 2 else -d
                else:
                    d = make(self._rng)
                if d not in chosen:
                    chosen.append(d)
                    break
        return labelled, chosen
