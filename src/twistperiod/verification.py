"""Numerical verification of the twisted-period relation, single and bulk.

For a minimal model E and square-free d, the relation under test is

    d > 0:  Omega(E^d) = (utilde / sqrt(d)) * Omega(E)
    d < 0:  Omega(E^d) = (utilde / sqrt(|d|)) * c_inf(E^d) * |Omega^-(E)|

where E^d is the quadratic twist, utilde the scaling factor of its minimal
model, Omega the real period and Omega^- the imaginary period. Both sides are
compared in absolute value at a configurable precision and tolerance.

scan() runs the per-prime table over a stream of curves and twist parameters,
optionally escalating to a full period verification when a filter on the
utilde result matches. It writes each record once to one sink as a JSON line
and keeps only counts, so its memory does not grow with the scan; a rerun
resumes by skipping pairs already in the results file, known by content (the
normalized a-invariants and d), not by label.
"""

from __future__ import annotations

import json
import operator
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, TextIO

from mpmath import mp, mpf

from .exact import odd_prime_divisors
from .minimality import UTildeResult, _minimal_twist, _utilde_table, minimize
from .periods import (
    DEFAULT_PRECISION_BITS,
    _check_precision,
    _imaginary_generator,
    _nstr,
    lattice_periods,
    raw_real_period,
    real_components,
)
from .weierstrass import WeierstrassModel

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one (curve, d) verification."""

    curve: WeierstrassModel
    d: int
    utilde: str
    case_labels: list[str]
    lhs: mpf
    rhs: mpf
    abs_rel_error: mpf
    passed: bool
    precision_bits: int

    def to_json_dict(self) -> dict:
        with mp.workprec(self.precision_bits):
            return {
                "curve": [str(a) for a in self.curve.ainvs],
                "d": self.d,
                "utilde": self.utilde,
                "case_labels": list(self.case_labels),
                "lhs": _nstr(self.lhs),
                "rhs": _nstr(self.rhs),
                "abs_rel_error": mp.nstr(self.abs_rel_error, 8),
                "passed": self.passed,
                "precision_bits": self.precision_bits,
            }


def verify_twist_period_relation(
    m: WeierstrassModel,
    d: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Measure both sides of the twisted-period relation for (m, d).

    m is minimized first, so the report refers to the curve m defines rather
    than the particular model. Its twist is minimized as in
    minimal_model_of_twist, so ConsistencyError is raised when the per-prime
    table and minimization disagree. Passing means the relative gap between
    the two sides is at most `tolerance`.
    """
    minimal = minimize(m).minimal
    return _verify(m, minimal, d, _utilde_table(minimal, d), precision_bits, tolerance)


def _check_settings(precision_bits: int, tolerance: float) -> int:
    """precision_bits as an int, once both it and tolerance are valid;
    ValueError otherwise (a NaN tolerance is not positive)."""
    precision_bits = _check_precision(precision_bits)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    return precision_bits


def _verify(
    curve: WeierstrassModel,
    minimal: WeierstrassModel,
    d: int,
    report: UTildeResult,
    precision_bits: int,
    tolerance: float,
) -> VerificationReport:
    """verify_twist_period_relation for the minimal model of curve and the
    table's report for (minimal, d)."""
    precision_bits = _check_settings(precision_bits, tolerance)
    twist_minimal = _minimal_twist(minimal, d, report).minimal
    with mp.workprec(precision_bits + 16):
        utilde = mpf(report.utilde.numerator) / report.utilde.denominator
        lhs = raw_real_period(twist_minimal, precision_bits)
        if d > 0:
            rhs = utilde / mp.sqrt(d) * raw_real_period(minimal, precision_bits)
        else:
            omega_minus, _, _ = _imaginary_generator(
                lattice_periods(minimal, precision_bits)
            )
            rhs = (
                utilde
                / mp.sqrt(-d)
                * real_components(twist_minimal)
                * abs(mp.im(omega_minus))
            )
        abs_rel_error = abs(lhs - rhs) / abs(rhs)
        passed = bool(abs_rel_error <= mpf(tolerance))
    return VerificationReport(
        curve=curve,
        d=d,
        utilde=str(report.utilde),
        case_labels=report.case_labels(),
        lhs=lhs,
        rhs=rhs,
        abs_rel_error=abs_rel_error,
        passed=passed,
        precision_bits=precision_bits,
    )


# ---------------------------------------------------------------------------
# Bulk scanning
# ---------------------------------------------------------------------------

def _has_odd_prime_factor(report: UTildeResult) -> bool:
    n = abs(int(2 * report.utilde))
    while n % 2 == 0:
        n //= 2
    return n > 1


FILTERS: dict[str, Callable[[UTildeResult], bool]] = {
    "all": lambda report: True,
    "none": lambda report: False,
    "odd-prime": _has_odd_prime_factor,
    "nontrivial": lambda report: report.utilde != 1,
}

CurveEntry = tuple[str, WeierstrassModel]


def iter_curve_file(path: str) -> Iterable[dict]:
    """Parse a JSON-lines curve file into {'label', 'model'} dicts.

    Each line is either a coefficient array ([a1,a2,a3,a4,a6] or short [A,B])
    or an object {"label": ..., "curve": [...]}. Malformed or singular lines
    yield {'label', 'error'} entries instead of raising, so a scan can record
    them and keep going.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            label = f"curve-{index}"
            try:
                data = json.loads(line)
                if isinstance(data, dict):
                    label = str(data.get("label", label))
                    coeffs = data["curve"]
                else:
                    coeffs = data
                yield {"label": label, "model": WeierstrassModel.from_ainvs(coeffs)}
            except Exception as exc:  # recorded, never fatal
                yield {"label": label, "error": f"{type(exc).__name__}: {exc}"}


def _existing_keys(path: str) -> Counter:
    """How many complete records a results file holds for each pair key:
    (curve, d) with curve the normalized a-invariants, or (label, None) for a
    line that did not parse. A partial last line, left by a crash in the
    middle of a write, is cut off, so that it cannot absorb the next record
    appended."""
    keys: Counter = Counter()
    if not os.path.exists(path):
        return keys
    with open(path, "rb+") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                handle.truncate(handle.tell() - len(line))
                break
            try:
                record = json.loads(line)
                if "curve" in record:
                    keys[tuple(record["curve"]), record["d"]] += 1
                else:
                    keys[record["label"], None] += 1
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
    return keys


def _skip(done: Counter, key: tuple) -> bool:
    """True, using up one of them, when done still holds a record for key."""
    if done[key] <= 0:
        return False
    done[key] -= 1
    return True


def _once(known: dict, key: Hashable, compute: Callable):
    """compute() on the first call for key; later calls return its value, or
    raise again the exception it raised."""
    if key not in known:
        try:
            known[key] = compute()
        except Exception as exc:  # raised below, on this and every later call
            known[key] = exc
    value = known[key]
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def _normalize_entries(curves: Iterable[CurveEntry | dict]) -> Iterable[dict]:
    for entry in curves:
        if isinstance(entry, dict):
            yield entry
        else:
            label, model = entry
            yield {"label": str(label), "model": model}


def scan(
    curves: Iterable[CurveEntry | dict],
    d_values: Iterable[int],
    filter: str = "odd-prime",
    precision_bits: int = DEFAULT_PRECISION_BITS,
    tolerance: float = DEFAULT_TOLERANCE,
    results_path: Optional[str] = None,
    resume: bool = True,
    stream: Optional[TextIO] = None,
) -> dict[str, int]:
    """Run the twist table (and, when the filter matches, full verification)
    over every (curve, d) pair, with curves given as (label, model) pairs or
    iter_curve_file entries.

    Each record is written once, in input order and d-major within each
    curve, to one sink: appended to `results_path` or written to `stream`,
    and flushed at once; none is kept. Pairs already present in
    `results_path` are skipped when `resume` is set, so an interrupted scan
    can be rerun with the same arguments; a partial last line left by the
    interruption is cut off first. A pair is matched by its normalized
    a-invariants and d, so inserting lines into the curve file does not
    shift it; an input that repeats a pair k times skips it as often as the
    file already holds it. Each curve is minimized once and each d factored
    once; verified pairs are cross-checked as in
    verify_twist_period_relation. Per-pair failures become {'error': ...}
    records rather than aborting the scan.

    Returns counts of the records written, skipped pairs not included:
    records, checked (those without an error), verified_failures and errors.

    `filter` is a name in FILTERS. An unknown filter, a precision below the
    minimum, a tolerance that is not positive or two sinks raise ValueError,
    and a d or a precision that is not an integer TypeError, before the
    results file is read or opened.
    """
    try:
        filter_fn = FILTERS[filter]
    except KeyError:
        raise ValueError(
            f"unknown filter {filter!r}; available: {sorted(FILTERS)}"
        ) from None
    _check_settings(precision_bits, tolerance)
    if results_path is not None and stream is not None:
        raise ValueError("scan writes to results_path or to stream, not both")
    d_list = [operator.index(d) for d in d_values]
    existing = _existing_keys(results_path) if results_path else Counter()
    done = existing if resume else Counter()
    odd_primes: dict = {}
    records = errors = failures = 0
    out = stream
    if results_path is not None:
        out = open(results_path, "a", encoding="utf-8")
    try:
        for entry in _normalize_entries(curves):
            label = entry["label"]
            if "error" in entry:
                if not _skip(done, (label, None)):
                    _emit({"label": label, "d": None, "error": entry["error"]}, out)
                    records += 1
                    errors += 1
                continue
            model = entry["model"]
            curve = [str(a) for a in model.ainvs]
            curve_key = tuple(curve)
            minimal: dict = {}
            for d in d_list:
                if _skip(done, (curve_key, d)):
                    continue
                record = {"label": label, "curve": curve, "d": d}
                try:
                    mm = _once(minimal, curve_key, lambda: minimize(model).minimal)
                    primes = _once(odd_primes, d, lambda: odd_prime_divisors(d))
                    report = _utilde_table(mm, d, primes)
                    record.update(report.to_json_dict())
                    if filter_fn(report):
                        verification = _verify(
                            model, mm, d, report, precision_bits, tolerance
                        )
                        vdict = verification.to_json_dict()
                        record.update(
                            verified=True,
                            passed=vdict["passed"],
                            lhs=vdict["lhs"],
                            rhs=vdict["rhs"],
                            abs_rel_error=vdict["abs_rel_error"],
                        )
                        if not verification.passed:
                            failures += 1
                    else:
                        record.update(verified=False, passed=None)
                except Exception as exc:  # recorded, never fatal
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    errors += 1
                _emit(record, out)
                records += 1
    finally:
        if results_path is not None:
            out.close()
    return {
        "records": records,
        "checked": records - errors,
        "verified_failures": failures,
        "errors": errors,
    }


def _emit(record: dict, out: Optional[TextIO]) -> None:
    if out is not None:
        out.write(json.dumps(record) + "\n")
        out.flush()
