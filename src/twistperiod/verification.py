"""Numerical verification of the twisted-period relation, single and bulk.

For a minimal model E and square-free d, the relation under test is

    d > 0:  Omega(E^d) = (utilde / sqrt(d)) * Omega(E)
    d < 0:  Omega(E^d) = (utilde / sqrt(|d|)) * c_inf(E^d) * |Omega^-(E)|

where E^d is the quadratic twist, utilde the scaling factor of its minimal
model, Omega the real period and Omega^- the imaginary period. The relation is
exact, so at p requested bits it passes exactly when the two sides, compared
in absolute value, agree to a relative 2^-p.

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
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, TextIO

from mpmath import mp, mpf

from .exact import odd_prime_divisors
from .minimality import UTildeResult, _minimal_twist, _utilde_table, minimize
from .periods import (
    DEFAULT_PRECISION_BITS,
    PeriodReport,
    _check_precision,
    _nstr,
    lattice_periods,
)
from .weierstrass import WeierstrassModel


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
        return {
            "curve": [str(a) for a in self.curve.ainvs],
            "d": self.d,
            "utilde": self.utilde,
            "case_labels": list(self.case_labels),
            "lhs": _nstr(self.lhs, self.precision_bits),
            "rhs": _nstr(self.rhs, self.precision_bits),
            "abs_rel_error": mp.nstr(self.abs_rel_error, 8),
            "passed": self.passed,
            "precision_bits": self.precision_bits,
        }


def verify_twist_period_relation(
    m: WeierstrassModel,
    d: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> VerificationReport:
    """Measure both sides of the twisted-period relation for (m, d).

    m is minimized first, so the report refers to the curve m defines rather
    than the particular model. Its twist is minimized as in
    minimal_model_of_twist, so ConsistencyError is raised when the per-prime
    table and minimization disagree. Passing means the relative gap between
    the two sides is at most 2^-precision_bits.
    """
    precision_bits = _check_precision(precision_bits)
    minimal = minimize(m).minimal
    report = _utilde_table(minimal, d)
    periods = lattice_periods(minimal, precision_bits)
    return _verify(m, minimal, d, report, periods)


def _verify(
    curve: WeierstrassModel,
    minimal: WeierstrassModel,
    d: int,
    report: UTildeResult,
    periods: PeriodReport,
) -> VerificationReport:
    """verify_twist_period_relation for the minimal model of curve, the
    table's report for (minimal, d) and the periods of minimal, once the
    precision p is checked.

    Each period is certified to more than p + 16 bits, and each side takes at
    most a few roundings at p + 16 bits more, so each side is within about
    2^-(p+13) of its true value. A true relation therefore passes the bound
    2^-p with more than 12 bits to spare, and a gap of 2^-(p-2) fails it."""
    precision_bits = periods.precision_bits
    twist_minimal = _minimal_twist(minimal, d, report).minimal
    twist_periods = lattice_periods(twist_minimal, precision_bits)
    with mp.workprec(precision_bits + 16):
        utilde = mpf(report.utilde.numerator) / report.utilde.denominator
        lhs = twist_periods.omega
        if d > 0:
            rhs = utilde / mp.sqrt(d) * periods.omega
        else:
            rhs = (
                utilde
                / mp.sqrt(-d)
                * twist_periods.c_inf
                * abs(mp.im(periods.omega_minus))
            )
        abs_rel_error = abs(lhs - rhs) / abs(rhs)
        passed = bool(abs_rel_error <= mp.ldexp(1, -precision_bits))
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
    or an object {"label": ..., "curve": [...]}. Malformed, singular or
    undecodable (not UTF-8) lines yield {'label', 'error'} entries instead of
    raising, so a scan can record them and keep going.
    """
    with open(path, "rb") as handle:
        for index, raw in enumerate(handle):
            label = f"curve-{index}"
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                data = json.loads(line)
                if isinstance(data, dict):
                    label = str(data.get("label", label))
                    coeffs = data["curve"]
                else:
                    coeffs = data
                yield {"label": label, "model": WeierstrassModel.from_ainvs(coeffs)}
            except Exception as exc:  # recorded, never fatal
                yield {"label": label, "error": f"{type(exc).__name__}: {exc}"}


def _existing_keys(path: str, slots: dict[int, int]) -> tuple[dict, Counter]:
    """How many complete records a results file holds for each pair of this
    scan: for each curve (its normalized a-invariants), an array of counts
    indexed by slots[d], records of a d outside slots being left out; and for
    each label, the lines that did not parse. A partial last line, left by a
    crash in the middle of a write, is cut off, so that it cannot absorb the
    next record appended."""
    curves: dict = {}
    labels: Counter = Counter()
    if not os.path.exists(path):
        return curves, labels
    with open(path, "rb+") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                handle.truncate(handle.tell() - len(line))
                break
            try:
                record = json.loads(line)
                if "curve" not in record:
                    labels[record["label"]] += 1
                    continue
                slot = slots.get(record["d"])
                if slot is None:
                    continue
                key = tuple(record["curve"])
                counts = curves.get(key)
                if counts is None:
                    counts = curves[key] = array("L", [0]) * len(slots)
                counts[slot] += 1
            except (ValueError, KeyError, TypeError):  # not UTF-8 or not JSON
                continue
    return curves, labels


def _skip(done, key) -> bool:
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
    results_path: Optional[str] = None,
    resume: bool = True,
    stream: Optional[TextIO] = None,
) -> dict[str, int]:
    """Run the twist table (and, when the filter matches, full verification)
    over every (curve, d) pair, with curves given as (label, model) pairs or
    iter_curve_file entries.

    Each record is written once, in input order and d-major within each
    curve, to exactly one sink: appended to `results_path` or written to
    `stream`, and flushed at once; none is kept. Pairs already present in
    `results_path` are skipped when `resume` is set, so an interrupted scan
    can be rerun with the same arguments; a partial last line left by the
    interruption is cut off first. A pair is matched by its normalized
    a-invariants and d, so inserting lines into the curve file does not
    shift it; an input that repeats a pair k times skips it as often as the
    file already holds it. Each curve is minimized once, its lattice built
    once on its first verified pair, its Omega and Omega^- each computed at
    most once, and each d factored once; verified pairs are cross-checked as
    in verify_twist_period_relation. Per-pair failures become {'error': ...}
    records rather than aborting the scan.

    Returns counts of the records written, skipped pairs not included:
    records, checked (those without an error), verified_failures and errors.

    `filter` is a name in FILTERS. An unknown filter, a precision below the
    minimum, or no sink or two, raise ValueError, and a d or a precision that
    is not an integer TypeError, before the results file is read or opened.
    """
    try:
        filter_fn = FILTERS[filter]
    except KeyError:
        raise ValueError(
            f"unknown filter {filter!r}; available: {sorted(FILTERS)}"
        ) from None
    precision_bits = _check_precision(precision_bits)
    if (results_path is None) == (stream is None):
        raise ValueError("scan writes to one of results_path and stream")
    d_list = [operator.index(d) for d in d_values]
    slots = {d: i for i, d in enumerate(dict.fromkeys(d_list))}
    d_slots = [(d, slots[d]) for d in d_list]
    existing = _existing_keys(results_path, slots) if results_path else ({}, Counter())
    done_curves, done_labels = existing if resume else ({}, Counter())
    odd_primes: dict = {}
    records = errors = failures = 0
    out = stream
    if results_path is not None:
        out = open(results_path, "a", encoding="utf-8")
    try:
        for entry in _normalize_entries(curves):
            label = entry["label"]
            if "error" in entry:
                if not _skip(done_labels, label):
                    _emit({"label": label, "d": None, "error": entry["error"]}, out)
                    records += 1
                    errors += 1
                continue
            model = entry["model"]
            curve = [str(a) for a in model.ainvs]
            known: dict = {}
            done = done_curves.get(tuple(curve))
            for d, slot in d_slots:
                if done is not None and _skip(done, slot):
                    continue
                record = {"label": label, "curve": curve, "d": d}
                try:
                    mm = _once(known, "minimal", lambda: minimize(model).minimal)
                    primes = _once(odd_primes, d, lambda: odd_prime_divisors(d))
                    report = _utilde_table(mm, d, primes)
                    record.update(report.to_json_dict())
                    if filter_fn(report):
                        periods = _once(
                            known,
                            "periods",
                            lambda: lattice_periods(mm, precision_bits),
                        )
                        verification = _verify(model, mm, d, report, periods)
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


def _emit(record: dict, out: TextIO) -> None:
    out.write(json.dumps(record) + "\n")
    out.flush()
