"""Each public entry point minimizes its curve once and builds each lattice
once; a scan factors each twist parameter once, takes each curve's 2-adic
signature once and builds each curve's own lattice once."""

import math
import sys

import pytest

from helpers import CURVE_A, CURVE_B, CURVE_C, TWIST_A_D, TWIST_B_D, scan_records
from twistperiod import exact, minimality, periods, verification, weierstrass
from twistperiod.minimality import ConsistencyError, minimal_model_of_twist, minimize
from twistperiod.periods import PrecisionError, period_report
from twistperiod.verification import verify_twist_period_relation


def count_calls(monkeypatch, original) -> list:
    """Replace `original` in every twistperiod module that holds it by a
    wrapper that records its calls; returns the list of recorded arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name != "twistperiod" and not name.startswith("twistperiod."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("curve, d", [(CURVE_A, TWIST_A_D), (CURVE_B, TWIST_B_D)])
def test_verify_minimizes_curve_and_twist_once(monkeypatch, curve, d):
    calls = count_calls(monkeypatch, minimality.minimize)
    assert verify_twist_period_relation(curve, d).passed
    assert len(calls) == 2


def test_scan_minimizes_once_per_curve(monkeypatch):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B), ("gamma", CURVE_A)]
    twists = [1, 5, -7, 10]
    calls = count_calls(monkeypatch, minimality.minimize)
    records = scan_records(curves, twists, filter="none")
    assert len(records) == len(curves) * len(twists)
    assert len(calls) == len(curves)


def test_scan_factors_each_d_once(monkeypatch):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B), ("gamma", CURVE_A)]
    twists = [1, 5, -7, 10, 1_000_003 * 1_000_033]
    calls = count_calls(monkeypatch, exact.odd_prime_divisors)
    records = scan_records(curves, twists, filter="none")
    assert len(records) == len(curves) * len(twists)
    assert not any("error" in r for r in records)
    assert sorted(args[0] for args in calls) == sorted(twists)


def test_scan_gives_each_bad_d_one_error_record_per_curve(monkeypatch):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B)]
    calls = count_calls(monkeypatch, exact.odd_prime_divisors)
    records = scan_records(curves, [0, 5, 4], filter="none")
    errors = {
        (r["label"], r["d"]): r["error"] for r in records if "error" in r
    }
    assert errors == {
        (label, d): message
        for label, _ in curves
        for d, message in (
            (0, "ValueError: 0 is not a valid twist parameter"),
            (4, "ValueError: d = 4 is not square-free"),
        )
    }
    assert sorted(args[0] for args in calls) == [0, 4, 5]


def test_scan_table_takes_valuations_only_where_they_decide(monkeypatch):
    # 6299 divides the discriminant of CURVE_A and 139 that of CURVE_B, but
    # neither divides gcd(c4, c6) of any curve here. Valuations at 2 are the
    # 2-adic signature's, taken once per curve.
    curves = [("alpha", CURVE_A), ("beta", CURVE_B), ("gamma", CURVE_C)]
    twists = [1, 5, -7, 10, -3, 15, 11 * 13, -6299, 3 * 139, -2 * 5 * 7]
    for label, curve in curves:
        signatures = count_calls(monkeypatch, weierstrass.padic_signature)
        valuations = count_calls(monkeypatch, exact.vp)
        factors = count_calls(monkeypatch, minimality.utilde_factor_at)
        records = scan_records([(label, curve)], twists, filter="none")
        monkeypatch.undo()
        assert len(records) == len(twists)
        assert not any("error" in r for r in records)
        assert sum(1 for _, p in signatures if p == 2) <= 1
        gcd = math.gcd(int(curve.c4), int(curve.c6))
        assert all(gcd % p == 0 for _, p in valuations if p != 2)
        assert len(factors) == sum(
            1 + len(exact.odd_prime_divisors(d)) for d in twists
        )


def test_period_report_builds_one_lattice(monkeypatch):
    minimize_calls = count_calls(monkeypatch, minimality.minimize)
    lattice_calls = count_calls(monkeypatch, periods.lattice_periods)
    report = period_report(CURVE_B, 128)
    assert (report.k1, report.k2) == (2, -1)
    assert len(lattice_calls) == 1
    assert len(minimize_calls) == 1


def test_verify_raises_when_table_disagrees_with_minimization(monkeypatch):
    original = minimality.utilde_factor_at

    def doubled_at_two(m, d, p):
        u_p, label = original(m, d, p)
        return (2 * u_p if p == 2 else u_p), label

    monkeypatch.setattr(minimality, "utilde_factor_at", doubled_at_two)
    with pytest.raises(ConsistencyError):
        verify_twist_period_relation(CURVE_A, TWIST_A_D)


@pytest.mark.parametrize("curve, d", [(CURVE_A, TWIST_A_D), (CURVE_B, TWIST_B_D)])
def test_verify_builds_the_curve_lattice_then_the_twist_lattice(monkeypatch, curve, d):
    calls = count_calls(monkeypatch, periods.lattice_periods)
    assert verify_twist_period_relation(curve, d).passed
    assert [args[0] for args in calls] == [
        minimize(curve).minimal,
        minimal_model_of_twist(curve, d)[0].minimal,
    ]


def test_verified_scan_builds_each_curve_lattice_once(monkeypatch):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B), ("gamma", CURVE_C)]
    twists = [5, -7, 10, -3]
    lattices = count_calls(monkeypatch, periods.lattice_periods)
    # only scan's own check: lattice_periods checks the precision of each lattice
    checks = []
    original = verification._check_precision

    def check(bits):
        checks.append(bits)
        return original(bits)

    monkeypatch.setattr(verification, "_check_precision", check)
    records = scan_records(curves, twists, filter="all")
    assert all(r["passed"] for r in records)
    assert len(lattices) == len(curves) + len(curves) * len(twists)
    built = [args[0] for args in lattices]
    for _, curve in curves:
        assert built.count(minimize(curve).minimal) == 1
    assert len(checks) == 1


def test_scan_gives_each_pair_of_a_curve_whose_lattice_fails_one_error(monkeypatch):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B)]
    twists = [5, -7, 10, -3]
    expected = scan_records(curves, twists, filter="all")
    broken = minimize(CURVE_B).minimal
    original = periods.lattice_periods
    attempts = []

    def failing_for_beta(m, precision_bits):
        if m == broken:
            attempts.append(m)
            raise PrecisionError("planted")
        return original(m, precision_bits)

    monkeypatch.setattr(periods, "lattice_periods", failing_for_beta)
    records = scan_records(curves, twists, filter="all")
    assert len(attempts) == 1
    assert [r for r in records if r["label"] == "alpha"] == [
        r for r in expected if r["label"] == "alpha"
    ]
    beta = [r for r in records if r["label"] == "beta"]
    assert [r["d"] for r in beta] == twists
    assert all(r["error"] == "PrecisionError: planted" for r in beta)
