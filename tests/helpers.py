"""Shared generators and pinned fixtures for the test suite.

The benchmark imports this module for its pinned fixtures, so it imports
nothing from hypothesis; the hypothesis strategies live in strategies.py."""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from fractions import Fraction

from twistperiod import (
    SingularCurveError,
    Transformation,
    WeierstrassModel,
    is_prime,
    is_square_free,
    minimize,
    scan,
    utilde_factor_at,
    vp,
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

# y^2 = x^3 - x: delta > 0 (the curves above all have delta < 0), with the
# exact roots -1, 0, 1 and the lemniscate constant as its least real period.
SQUARE = WeierstrassModel.from_ainvs([-1, 0])

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


def _complete_lines(path) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [line for line in handle if line.endswith("\n")]


def scan_records(curves, d_values, **options) -> list[dict]:
    """The records one scan() call writes, parsed: read from a stream, or
    the lines it appends to `results_path` when that option is given.
    Also asserts that the counts scan returns describe exactly those
    records."""
    path = options.get("results_path")
    if path is None:
        stream = io.StringIO()
        counts = scan(curves, d_values, stream=stream, **options)
        lines = stream.getvalue().splitlines()
    else:
        kept = len(_complete_lines(path))
        counts = scan(curves, d_values, **options)
        lines = _complete_lines(path)[kept:]
    records = [json.loads(line) for line in lines]
    errors = sum(1 for r in records if "error" in r)
    assert counts == {
        "records": len(records),
        "checked": len(records) - errors,
        "verified_failures": sum(1 for r in records if r.get("passed") is False),
        "errors": errors,
    }
    return records


def is_integral(m: WeierstrassModel) -> bool:
    return all(a.denominator == 1 for a in m.ainvs)


def compose(first: Transformation, then: Transformation) -> Transformation:
    """The single transformation equivalent to applying first, then then."""
    u1, r1, s1, t1 = first.u, first.r, first.s, first.t
    u2, r2, s2, t2 = then.u, then.r, then.s, then.t
    return Transformation(
        u1 * u2,
        u1 * u1 * r2 + r1,
        u1 * s2 + s1,
        u1**3 * t2 + u1 * u1 * s1 * r2 + t1,
    )


def invert(transformation: Transformation) -> Transformation:
    u, r, s, t = (
        transformation.u, transformation.r, transformation.s, transformation.t
    )
    return Transformation(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)


def is_identity(t: Transformation) -> bool:
    return t == Transformation(1)


def minimal_twist_valuation(m: WeierstrassModel, d: int, p: int) -> int:
    """v_p(delta) of the minimal model of twist(m, d), for minimal m, as the
    per-prime table predicts it: the twist has discriminant d^6 * delta(m),
    and minimizing it divides that by utilde^12, whose p-part is u_p^12."""
    u_p, _ = utilde_factor_at(m, d, p)
    return vp(m.delta, p) + 6 * vp(d, p) - 12 * vp(u_p, p)


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
