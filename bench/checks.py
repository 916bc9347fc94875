"""Correctness gates of the benchmark.

The functions return what they measured and/or a list of failure messages
(empty when all is well). None of them is timed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp, mpf


def pinned_fixtures(pkg, helpers, precision_bits: int) -> list[str]:
    """The worked examples pinned in tests/helpers.py, periods at the given
    precision compared to their pinned digits."""
    h = helpers
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(f"pinned fixture: {what}")

    expect(pkg.twist(h.CURVE_A, h.TWIST_A_D) == h.TWISTED_A, "twist of CURVE_A")
    expect(pkg.twist(h.CURVE_B, h.TWIST_B_D) == h.TWISTED_B, "twist of CURVE_B")
    expect(pkg.minimize(h.TWISTED_A).minimal == h.MINIMAL_TWIST_A, "minimal twist A")
    expect(pkg.minimize(h.TWISTED_B).minimal == h.MINIMAL_TWIST_B, "minimal twist B")
    for curve, d, utilde, label in (
        (h.CURVE_A, h.TWIST_A_D, h.UTILDE_A, "A"),
        (h.CURVE_B, h.TWIST_B_D, h.UTILDE_B, "B"),
        (h.CURVE_C, h.TWIST_C_D, h.UTILDE_C, "C"),
    ):
        expect(pkg.compute_utilde(curve, d).utilde == utilde, f"UTILDE_{label}")
    with mp.workprec(precision_bits + 32):
        periods = (
            (pkg.real_period(h.CURVE_A, precision_bits), h.OMEGA_A, "OMEGA_A"),
            (pkg.real_period(h.TWISTED_A, precision_bits), h.OMEGA_TWIST_A,
             "OMEGA_TWIST_A"),
            (pkg.real_period(h.TWISTED_B, precision_bits), h.OMEGA_TWIST_B,
             "OMEGA_TWIST_B"),
            (mp.im(pkg.imaginary_period(h.CURVE_B, precision_bits)[0]),
             h.OMEGA_MINUS_B, "OMEGA_MINUS_B"),
        )
        for value, pinned, label in periods:
            decimals = len(pinned.split(".")[1])
            expect(abs(value - mpf(pinned)) < mpf(10) ** -decimals, label)
    return failures


def agreeing_bits(value, reference, cap: int) -> float:
    """-log2 of the relative difference, at most `cap`."""
    with mp.workprec(2 * cap + 64):
        value, reference = mpf(value), mpf(reference)
        gap = abs(value - reference)
        if gap == 0:
            return float(cap)
        return min(float(cap), float(-mp.log(gap / abs(reference), 2)))


def verify_bits(pkg, sample, precision_bits: int) -> tuple[float, list[str]]:
    """Smallest number of bits to which lhs and rhs of each sampled report
    agree with a recomputation at twice the precision."""
    failures = []
    bits = float(2 * precision_bits)
    for model, d, report in sample:
        try:
            again = pkg.verify_twist_period_relation(model, d, 2 * precision_bits)
        except Exception as exc:  # a failed check, reported below
            failures.append(f"recomputation at 2x precision, d = {d}: {exc!r}")
            continue
        if not again.passed:
            failures.append(f"recomputation at 2x precision failed for d = {d}")
        for mine, ref in ((report.lhs, again.lhs), (report.rhs, again.rhs)):
            bits = min(bits, agreeing_bits(mine, ref, 2 * precision_bits))
    return bits, failures


def real_period_bits(pkg, models, precision_bits: int) -> tuple[float, list[str]]:
    """Bits to which real_period(E, precision_bits), called at mpmath's
    default context precision as a library user would, agrees with a
    recomputation at twice the precision."""
    failures = []
    bits = float(2 * precision_bits)
    for model in models:
        try:
            value = pkg.real_period(model, precision_bits)
            with mp.workprec(2 * precision_bits + 32):
                reference = pkg.real_period(model, 2 * precision_bits)
        except Exception as exc:  # a failed check, reported below
            failures.append(f"real_period of {model} raised {exc!r}")
            continue
        bits = min(bits, agreeing_bits(value, reference, 2 * precision_bits))
    return bits, failures


def scan_records(path, curves, twists, keep: bool = False
                 ) -> tuple[list[dict], list[str]]:
    """Records of one scan output file (only if `keep`), and what is wrong
    with them: it must hold exactly one record per (curve, d) pair, none of
    them an error. The file is read a line at a time, so that checking a
    scan does not hold its records in memory."""
    expected = {(label, d) for label, _ in curves for d in twists}
    records, failures = [], []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record.get("label"), record.get("d"))
            if "error" in record:
                failures.append(f"scan error record {key}: {record['error']}")
            elif key not in expected or key in seen or "utilde" not in record:
                failures.append(f"unexpected scan record {key}")
            seen.add(key)
            if keep:
                records.append(record)
    for key in sorted(expected - seen, key=str):
        failures.append(f"missing scan record {key}")
    return records, failures


def utilde_against_minimization(pkg, records) -> list[str]:
    """Each record's utilde must equal the scale of the minimizing map of the
    twist (the table-vs-LKC cross-check), run through the public function."""
    failures = []
    for record in records:
        model = pkg.WeierstrassModel.from_ainvs(record["curve"])
        d = record["d"]
        try:
            result, _ = pkg.minimal_model_of_twist(model, d)
        except pkg.ConsistencyError as exc:
            failures.append(f"cross-check raised for d = {d}: {exc}")
            continue
        if result.map.u != Fraction(record["utilde"]):
            failures.append(
                f"{record['label']}, d = {d}: utilde {record['utilde']} but "
                f"minimization scale {result.map.u}"
            )
    return failures
