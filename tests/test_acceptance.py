"""End-to-end acceptance checks.

Each test prints exactly one summary line (even under pytest's capture) of
the form

    [acceptance N] PASS: <what was checked> (<elapsed>s, budget <B>s)

and fails if either the check itself or its time budget is violated.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp

from helpers import (
    CURVE_A,
    CURVE_B,
    CURVE_C,
    MINIMAL_TWIST_A,
    MINIMAL_TWIST_B,
    OMEGA_A,
    OMEGA_MINUS_B,
    OMEGA_TWIST_A,
    OMEGA_TWIST_B,
    TWIST_A_D,
    TWIST_B_D,
    TWIST_C_D,
    TWISTED_A,
    TWISTED_B,
    UTILDE_A,
    UTILDE_B,
    UTILDE_C,
    compose,
    invert,
    is_identity,
    minimal_twist_valuation,
    random_minimal_model,
    random_model,
    random_square_free,
    random_transformation,
)
from quadrature_oracle import quadrature_real_period
from twistperiod.exact import odd_prime_divisors, vp
from twistperiod.minimality import (
    compute_utilde,
    minimal_model_of_twist,
    minimize,
)
from twistperiod.periods import (
    imaginary_period,
    raw_real_period,
    real_period,
)
from twistperiod.twisting import twist
from twistperiod.verification import verify_twist_period_relation


def _finish(capsys, number, description, ok, started, budget):
    elapsed = time.monotonic() - started
    on_time = elapsed <= budget
    status = "PASS" if (ok and on_time) else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance {number}] {status}: {description} "
            f"({elapsed:.2f}s, budget {budget:.0f}s)"
        )
    assert ok, f"acceptance {number}: {description}"
    assert on_time, f"acceptance {number}: took {elapsed:.2f}s, budget {budget}s"


def _rel(value, reference) -> float:
    return float(abs(value - reference) / abs(reference))


def test_acceptance_1_exact_twists(capsys):
    started = time.monotonic()
    ok = (
        twist(CURVE_A, TWIST_A_D) == TWISTED_A
        and twist(CURVE_B, TWIST_B_D) == TWISTED_B
    )
    _finish(
        capsys, 1, "quadratic twists of both worked examples are coefficient-exact",
        ok, started, 1.0,
    )


def test_acceptance_2_utilde_values(capsys):
    started = time.monotonic()
    ok = (
        compute_utilde(CURVE_A, TWIST_A_D).utilde == UTILDE_A
        and compute_utilde(CURVE_B, TWIST_B_D).utilde == UTILDE_B
        and compute_utilde(CURVE_C, TWIST_C_D).utilde == UTILDE_C
    )
    _finish(
        capsys, 2, "per-prime tables give utilde = 5, 7, 3 on the pinned pairs",
        ok, started, 1.0,
    )


def test_acceptance_3_minimal_twists(capsys):
    started = time.monotonic()
    ok = (
        minimize(twist(CURVE_A, TWIST_A_D)).minimal == MINIMAL_TWIST_A
        and minimize(twist(CURVE_B, TWIST_B_D)).minimal == MINIMAL_TWIST_B
    )
    _finish(
        capsys, 3, "minimal models of both twisted examples match the pinned models",
        ok, started, 1.0,
    )


def test_acceptance_4_pinned_periods(capsys):
    started = time.monotonic()
    checks = []
    with mp.workprec(170):
        checks.append(_rel(real_period(CURVE_A, 128), mp.mpf(OMEGA_A)) < 1e-10)
        checks.append(
            _rel(real_period(twist(CURVE_A, TWIST_A_D), 128), mp.mpf(OMEGA_TWIST_A))
            < 1e-10
        )
        checks.append(
            _rel(real_period(twist(CURVE_B, TWIST_B_D), 128), mp.mpf(OMEGA_TWIST_B))
            < 1e-10
        )
        omega_minus, k1, k2 = imaginary_period(CURVE_B, 128)
        checks.append(_rel(mp.im(omega_minus), mp.mpf(OMEGA_MINUS_B)) < 1e-10)
        checks.append((k1, k2) == (2, -1))
    _finish(
        capsys, 4,
        "four pinned period values agree to 1e-10 and (k1, k2) = (2, -1)",
        all(checks), started, 5.0,
    )


def test_acceptance_5_pinned_verifications(capsys):
    started = time.monotonic()
    report_a = verify_twist_period_relation(CURVE_A, TWIST_A_D)
    report_b = verify_twist_period_relation(CURVE_B, TWIST_B_D)
    _finish(
        capsys, 5,
        "twisted-period relation verified on both worked examples to 2^-128",
        report_a.passed and report_b.passed, started, 5.0,
    )


def test_acceptance_6_randomized_table_against_minimization(capsys):
    started = time.monotonic()
    rng = random.Random(0xACCE97)
    curves = 0
    pairs = 0
    ok = True
    detail = ""
    while curves < 500 and ok:
        m = random_minimal_model(rng, bound=20)
        curves += 1
        for _ in range(2):
            d = random_square_free(rng, bound=50)
            pairs += 1
            result, report = minimal_model_of_twist(m, d)
            twisted = twist(m, d)
            # exact twelfth-power discriminant drop
            if twisted.delta / result.minimal.delta != report.utilde**12:
                ok, detail = False, f"discriminant ratio at {m.ainvs}, d={d}"
                break
            # 2 * utilde is always integral
            if (2 * report.utilde).denominator != 1:
                ok, detail = False, f"2*utilde not integral at {m.ainvs}, d={d}"
                break
            # per-prime valuation predictions against the actual minimization
            for p in [2, *odd_prime_divisors(d)]:
                predicted = minimal_twist_valuation(m, d, p)
                if predicted != vp(result.minimal.delta, p):
                    ok, detail = False, f"valuation at p={p}, {m.ainvs}, d={d}"
                    break
            if not ok:
                break
            # special cases for twists coprime to the discriminant
            if math.gcd(d, int(m.delta)) == 1:
                odd_part = abs(report.utilde.numerator * report.utilde.denominator)
                while odd_part % 2 == 0:
                    odd_part //= 2
                if odd_part != 1:
                    ok, detail = False, f"utilde not a 2-power at {m.ainvs}, d={d}"
                    break
                if d % 4 == 1 and report.utilde != 1:
                    ok, detail = False, f"utilde != 1 at {m.ainvs}, d={d}"
                    break
    _finish(
        capsys, 6,
        f"table matches minimization on {curves} random curves "
        f"({pairs} twist pairs){': ' + detail if detail else ''}",
        ok, started, 120.0,
    )


def test_acceptance_7_randomized_verification_and_quadrature(capsys):
    started = time.monotonic()
    rng = random.Random(0xACCE98)
    ok = True
    detail = ""

    verified = 0
    while verified < 100 and ok:
        m = random_model(rng, bound=12)
        d = random_square_free(rng, bound=30)
        report = verify_twist_period_relation(m, d)
        verified += 1
        if not report.passed:
            ok = False
            detail = (
                f"verification failed at {tuple(map(str, m.ainvs))}, d={d}: "
                f"rel err {report.abs_rel_error}"
            )

    compared = 0
    while compared < 50 and ok:
        m = random_model(rng, bound=12)
        agm = raw_real_period(m, 128)
        reference = quadrature_real_period(m, 128)
        compared += 1
        if _rel(agm, reference) > 1e-9:
            ok = False
            detail = f"quadrature mismatch at {tuple(map(str, m.ainvs))}"

    _finish(
        capsys, 7,
        f"{verified} random twist verifications at 1e-9 and {compared} "
        f"AGM-vs-quadrature comparisons{': ' + detail if detail else ''}",
        ok, started, 300.0,
    )


def test_acceptance_8_transformation_algebra(capsys):
    started = time.monotonic()
    rng = random.Random(0xACCE99)
    ok = True
    for _ in range(500):
        m = random_model(rng, bound=8)
        t1 = random_transformation(rng, bound=8)
        t2 = random_transformation(rng, bound=8)
        u = t1.u
        image = t1.apply(m)
        if not (
            image.c4 == m.c4 / u**4
            and image.c6 == m.c6 / u**6
            and image.delta == m.delta / u**12
            and compose(t1, t2).apply(m) == t2.apply(image)
            and is_identity(compose(t1, invert(t1)))
            and invert(t1).apply(image) == m
        ):
            ok = False
            break
    _finish(
        capsys, 8,
        "500 randomized exact coordinate-change algebra checks",
        ok, started, 10.0,
    )
