"""Numerical verification of the twisted-period relation, and bulk scans."""

import dataclasses
import io
import json
import os
import random
import time
import tracemalloc

import mpmath as mp
import pytest

from helpers import (
    CURVE_A,
    CURVE_B,
    TWIST_A_D,
    TWIST_B_D,
    UTILDE_A,
    UTILDE_B,
    random_model,
    random_square_free,
    scan_records,
    semiprime_beyond_rho_budget,
)
from twistperiod import verification
from twistperiod.exact import is_square_free
from twistperiod.minimality import compute_utilde, minimal_model_of_twist
from twistperiod.verification import (
    FILTERS,
    iter_curve_file,
    scan,
    verify_twist_period_relation,
)
from twistperiod.weierstrass import WeierstrassModel


def test_pinned_verifications():
    report = verify_twist_period_relation(CURVE_A, TWIST_A_D)
    assert report.passed
    assert report.utilde == str(UTILDE_A)
    assert float(report.abs_rel_error) < 1e-20
    assert report.case_labels == ["2a", "1b"]

    report = verify_twist_period_relation(CURVE_B, TWIST_B_D)
    assert report.passed
    assert report.utilde == str(UTILDE_B)
    assert float(report.abs_rel_error) < 1e-20


def test_verify_trivial_twist():
    report = verify_twist_period_relation(CURVE_A, 1)
    assert report.passed
    assert report.utilde == "1"
    # both sides are the same period, computed the same way
    assert float(report.abs_rel_error) < 1e-30


def test_verify_negative_twist_of_two_component_curve():
    # positive discriminant: the twisted curve also has two real components
    m = WeierstrassModel.from_ainvs([-1, 0])
    report = verify_twist_period_relation(m, -3)
    assert report.passed


def test_verify_positive_twist_uses_real_ratio():
    report = verify_twist_period_relation(CURVE_A, TWIST_A_D, precision_bits=160)
    # Omega(E^5) * sqrt(5) == 5 * Omega(E) for this pair
    with mp.workprec(200):
        ratio = report.lhs / report.rhs
        assert abs(ratio - 1) < mp.mpf(2) ** -120


def test_verify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_twist_period_relation(CURVE_A, 12)  # not square-free
    with pytest.raises(ValueError):
        verify_twist_period_relation(CURVE_A, 5, precision_bits=16)


def perturb_lhs(monkeypatch, curve, d, exponent):
    """Scale Omega of the minimal twist of curve by d, the lhs of the
    relation for (curve, d), by 1 + 2^exponent wherever verification reads
    it."""
    twist_minimal = minimal_model_of_twist(curve, d)[0].minimal
    original = verification._periods

    def perturbed(m, precision_bits):
        report = original(m, precision_bits)
        if m != twist_minimal:
            return report
        with mp.workprec(precision_bits + 64):
            omega = report.omega * (1 + mp.ldexp(1, exponent))
        return dataclasses.replace(report, omega=omega)

    monkeypatch.setattr(verification, "_periods", perturbed)


@pytest.mark.parametrize("bits", [64, 128, 512])
@pytest.mark.parametrize("curve, d", [(CURVE_A, TWIST_A_D), (CURVE_B, TWIST_B_D)])
@pytest.mark.parametrize("extra_bits, passed", [(-2, False), (8, True)])
def test_verify_passes_exactly_when_the_sides_agree_to_the_requested_bits(
    monkeypatch, bits, curve, d, extra_bits, passed
):
    perturb_lhs(monkeypatch, curve, d, -(bits + extra_bits))
    report = verify_twist_period_relation(curve, d, bits)
    assert report.passed is passed
    assert (report.abs_rel_error <= mp.ldexp(1, -bits)) is passed


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_verify_keeps_twelve_bits_beyond_the_requested_bits(bits):
    # The bound 2^-p that decides `passed` has about 14.5 bits to spare on
    # true relations; this fails first if some of that margin is lost.
    rng = random.Random(2012)
    for _ in range(12):
        m = random_model(rng, bound=10**6)
        d = random_square_free(rng, bound=10**6)
        report = verify_twist_period_relation(m, d, bits)
        assert report.abs_rel_error <= mp.ldexp(1, -(bits + 12)), (m.ainvs, d)


def test_verification_report_payload():
    report = verify_twist_period_relation(CURVE_B, TWIST_B_D)
    payload = report.to_json_dict()
    assert payload["d"] == TWIST_B_D
    assert payload["utilde"] == "7"
    assert payload["passed"] is True
    assert payload["case_labels"] == ["2a", "1b"]
    assert isinstance(payload["lhs"], str) and payload["lhs"].startswith("1.739")


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def test_filters_on_pinned_reports():
    report_a = compute_utilde(CURVE_A, TWIST_A_D)  # utilde = 5
    assert FILTERS["all"](report_a)
    assert not FILTERS["none"](report_a)
    assert FILTERS["odd-prime"](report_a)
    assert FILTERS["nontrivial"](report_a)

    trivial = compute_utilde(CURVE_A, 1)  # utilde = 1
    assert FILTERS["all"](trivial)
    assert not FILTERS["odd-prime"](trivial)
    assert not FILTERS["nontrivial"](trivial)


def test_filter_half_utilde_has_no_odd_part():
    from fractions import Fraction

    m = WeierstrassModel.from_ainvs([1, -1, 0, -296, 2048])
    report = compute_utilde(m, -6)
    assert report.utilde == Fraction(1, 2)
    # 1/2 is nontrivial but carries no odd prime
    assert not FILTERS["odd-prime"](report)
    assert FILTERS["nontrivial"](report)


# ---------------------------------------------------------------------------
# Curve files
# ---------------------------------------------------------------------------


def _write_curve_file(path):
    lines = [
        json.dumps([0, -1, 0, -6883, 222137]),
        json.dumps({"label": "with-a1", "curve": [1, 0, 1, -173, 879]}),
        "not json at all",
        json.dumps([0, 0, 0, 0, 0]),  # singular
        json.dumps([-1, 0]),  # short form
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_iter_curve_file(tmp_path):
    source = tmp_path / "curves.jsonl"
    _write_curve_file(source)
    entries = list(iter_curve_file(str(source)))
    assert len(entries) == 5
    assert entries[0]["label"] == "curve-0"
    assert entries[0]["model"] == CURVE_A
    assert entries[1]["label"] == "with-a1"
    assert entries[1]["model"] == CURVE_B
    assert "error" in entries[2]
    assert "error" in entries[3] and "Singular" in entries[3]["error"]
    assert entries[4]["model"] == WeierstrassModel.from_ainvs([-1, 0])


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def test_scan_streams_records_in_order(tmp_path):
    curves = [("alpha", CURVE_A), ("beta", CURVE_B)]
    records = scan_records(curves, [1, 5], filter="none")
    assert [(r["label"], r["d"]) for r in records] == [
        ("alpha", 1),
        ("alpha", 5),
        ("beta", 1),
        ("beta", 5),
    ]
    assert all(r["verified"] is False for r in records)
    assert records[1]["utilde"] == "5"
    # a results file gets the same JSON lines as the stream
    results = str(tmp_path / "results.jsonl")
    assert scan_records(curves, [1, 5], filter="none", results_path=results) == records


def test_scan_verifies_matching_pairs():
    records = scan_records([("alpha", CURVE_A)], [TWIST_A_D], filter="odd-prime")
    assert len(records) == 1
    record = records[0]
    assert record["verified"] is True
    assert record["passed"] is True
    assert record["utilde"] == "5"


def test_scan_records_errors_and_continues(tmp_path):
    source = tmp_path / "curves.jsonl"
    _write_curve_file(source)
    records = scan_records(iter_curve_file(str(source)), [5], filter="none")
    # three parsed curves x one d, plus two error entries
    assert len(records) == 5
    error_records = [r for r in records if "error" in r]
    assert len(error_records) == 2
    assert all(r["d"] is None for r in error_records)


def test_scan_resume_skips_done_pairs(tmp_path):
    results = tmp_path / "results.jsonl"
    first = scan_records(
        [("alpha", CURVE_A), ("beta", CURVE_B)],
        [1, 5],
        filter="none",
        results_path=str(results),
    )
    assert len(first) == 4
    stored = results.read_text(encoding="utf-8").splitlines()
    assert len(stored) == 4

    second = scan_records(
        [("alpha", CURVE_A), ("beta", CURVE_B), ("gamma", CURVE_A)],
        [1, 5],
        filter="none",
        results_path=str(results),
    )
    # only the new curve is processed, and the file grows by exactly its pairs
    assert [(r["label"], r["d"]) for r in second] == [("gamma", 1), ("gamma", 5)]
    stored = results.read_text(encoding="utf-8").splitlines()
    assert len(stored) == 6


def test_scan_resume_counts_repeated_pairs(tmp_path):
    results = tmp_path / "results.jsonl"
    # one curve under two labels and d = 5 twice: the pair (CURVE_A, 5) four
    # times, and (CURVE_A, 1) twice
    first = scan_records(
        [("a", CURVE_A), ("b", CURVE_A)], [5, 5, 1], filter="none",
        results_path=str(results),
    )
    assert len(first) == 6
    # six inputs of (CURVE_A, 5) and three of (CURVE_A, 1): only the ones
    # the file does not hold yet are written
    curves = [("a", CURVE_A), ("b", CURVE_A), ("c", CURVE_A)]
    second = scan_records(curves, [5, 5, 1], filter="none", results_path=str(results))
    assert [(r["label"], r["d"]) for r in second] == [("c", 5), ("c", 5), ("c", 1)]
    # records of other twists count for nothing
    third = scan_records(curves, [-1], filter="none", results_path=str(results))
    assert [(r["label"], r["d"]) for r in third] == [("a", -1), ("b", -1), ("c", -1)]


def test_scan_resume_drops_partial_last_line(tmp_path):
    results = tmp_path / "results.jsonl"
    curves = [("alpha", CURVE_A), ("beta", CURVE_B)]
    scan(curves, [1, 5], filter="none", results_path=str(results))
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    # a kill in the middle of writing the third record
    results.write_text(
        "".join(lines[:2]) + lines[2][: len(lines[2]) // 2], encoding="utf-8"
    )

    scan(curves, [1, 5], filter="none", results_path=str(results))
    text = results.read_text(encoding="utf-8")
    keys = [(r["label"], r["d"]) for r in map(json.loads, text.splitlines())]
    assert sorted(keys) == [("alpha", 1), ("alpha", 5), ("beta", 1), ("beta", 5)]


def test_scan_resume_skips_undecodable_lines_of_the_results_file(tmp_path):
    results = tmp_path / "results.jsonl"
    curves = [("alpha", CURVE_A), ("beta", CURVE_B)]
    scan(curves, [1, 5], filter="none", results_path=str(results))
    lines = results.read_bytes().splitlines(keepends=True)
    results.write_bytes(lines[0] + b"\xff\xfe{}\n" + b"".join(lines[2:]))

    counts = scan(curves, [1, 5], filter="none", results_path=str(results))
    assert counts["records"] == 1
    appended = json.loads(results.read_bytes().splitlines()[len(lines)])
    assert (appended["label"], appended["d"]) == ("alpha", 5)


def test_scan_resume_matches_pairs_by_content(tmp_path):
    source = tmp_path / "curves.jsonl"
    lines = [json.dumps([0, -1, 0, -6883, 222137]), json.dumps([1, 0, 1, -173, 879])]
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    results = tmp_path / "results.jsonl"
    scan(iter_curve_file(str(source)), [1, 5], filter="none", results_path=str(results))

    # A new first line shifts every default label by one.
    source.write_text("\n".join([json.dumps([-1, 0])] + lines) + "\n", encoding="utf-8")
    second = scan_records(
        iter_curve_file(str(source)), [1, 5], filter="none", results_path=str(results)
    )
    assert [(r["label"], r["d"]) for r in second] == [("curve-0", 1), ("curve-0", 5)]
    stored = results.read_text(encoding="utf-8").splitlines()
    keys = [(tuple(r["curve"]), r["d"]) for r in map(json.loads, stored)]
    assert len(keys) == 6
    assert len(set(keys)) == 6


def test_scan_records_a_d_beyond_the_factorization_budget():
    big = semiprime_beyond_rho_budget()
    start = time.perf_counter()
    records = scan_records([("alpha", CURVE_A)], [big, 3], filter="none")
    assert time.perf_counter() - start < 10
    assert [r["d"] for r in records] == [big, 3]
    assert records[0]["error"].startswith("FactorizationBudgetError: ")
    assert "error" not in records[1]
    assert records[1]["utilde"] == str(compute_utilde(CURVE_A, 3).utilde)


def test_scan_no_resume_reprocesses(tmp_path):
    results = tmp_path / "results.jsonl"
    scan([("alpha", CURVE_A)], [1], filter="none", results_path=str(results))
    scan(
        [("alpha", CURVE_A)],
        [1],
        filter="none",
        results_path=str(results),
        resume=False,
    )
    stored = results.read_text(encoding="utf-8").splitlines()
    assert len(stored) == 2


def test_scan_rejects_unknown_filter():
    with pytest.raises(ValueError):
        scan([("alpha", CURVE_A)], [1], filter="bogus")


@pytest.mark.parametrize(
    "bad", [{"precision_bits": 10}, {"precision_bits": 63}, {"precision_bits": 0}]
)
def test_scan_checks_settings_before_touching_results(tmp_path, bad):
    # a filter that verifies nothing still rejects settings verify would
    results = tmp_path / "results.jsonl"
    results.write_text('{"label": "partial', encoding="utf-8")
    with pytest.raises(ValueError):
        scan([("alpha", CURVE_A)], [5], filter="none", results_path=str(results), **bad)
    assert results.read_text(encoding="utf-8") == '{"label": "partial'


def test_scan_records_json_string_curves_as_errors(tmp_path):
    source = tmp_path / "curves.jsonl"
    source.write_text('"12345"\n{"label": "short", "curve": "12"}\n', encoding="utf-8")
    records = scan_records(iter_curve_file(str(source)), [5], filter="none")
    assert [(r["label"], r["d"]) for r in records] == [
        ("curve-0", None),
        ("short", None),
    ]
    assert all(r["error"].startswith("ValueError: ") for r in records)


def test_scan_records_boolean_coefficients_as_errors(tmp_path):
    # JSON true is not the coefficient 1
    source = tmp_path / "curves.jsonl"
    source.write_text("[true, 0, 0, 1, 1]\n", encoding="utf-8")
    records = scan_records(iter_curve_file(str(source)), [5], filter="none")
    assert [(r["label"], r["d"]) for r in records] == [("curve-0", None)]
    assert records[0]["error"].startswith("TypeError: ")


def test_non_integer_twist_parameter_is_a_type_error(tmp_path):
    with pytest.raises(TypeError):
        compute_utilde(CURVE_A, 5.5)
    with pytest.raises(TypeError):
        verify_twist_period_relation(CURVE_A, 5.5)
    results = tmp_path / "results.jsonl"
    results.write_text('{"label": "partial', encoding="utf-8")
    with pytest.raises(TypeError):
        scan([("alpha", CURVE_A)], [5.5, 6.9], filter="none", results_path=str(results))
    assert results.read_text(encoding="utf-8") == '{"label": "partial'


def test_non_integer_precision_is_a_type_error(tmp_path):
    # int() would read 128.9 as 128
    with pytest.raises(TypeError):
        verify_twist_period_relation(CURVE_A, 5, precision_bits=128.9)
    results = tmp_path / "results.jsonl"
    results.write_text('{"label": "partial', encoding="utf-8")
    with pytest.raises(TypeError):
        scan([("alpha", CURVE_A)], [5], filter="none", precision_bits="128",
             results_path=str(results))
    assert results.read_text(encoding="utf-8") == '{"label": "partial'


def test_scan_rejects_two_sinks_and_keeps_results(tmp_path):
    results = tmp_path / "results.jsonl"
    results.write_bytes(b'{"label": "partial')
    stream = io.StringIO()
    with pytest.raises(ValueError):
        scan([("alpha", CURVE_A)], [5], filter="none", results_path=str(results),
             stream=stream)
    assert results.read_bytes() == b'{"label": "partial'
    assert stream.getvalue() == ""


def test_scan_rejects_no_sink_before_any_work():
    started = []

    def curves():
        started.append(True)
        yield ("alpha", CURVE_A)

    with pytest.raises(ValueError):
        scan(curves(), [5], filter="none")
    assert started == []


def test_scan_returns_counts_of_the_records_it_wrote(monkeypatch, tmp_path):
    # The pinned pair fails once its lhs is off by a factor 1 + 2^-(128-2).
    perturb_lhs(monkeypatch, CURVE_A, TWIST_A_D, -126)
    curves = [("alpha", CURVE_A), {"label": "bad", "error": "ValueError: bad"}]
    results = tmp_path / "results.jsonl"
    options = dict(filter="all", results_path=str(results))
    counts = scan(curves, [TWIST_A_D, 4], **options)
    assert counts == {"records": 3, "checked": 1, "verified_failures": 1, "errors": 2}
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert len(records) == counts["records"]
    assert sum("error" in r for r in records) == counts["errors"]
    assert records[0]["passed"] is False
    assert 2.0**-128 < float(records[0]["abs_rel_error"]) < 2.0**-125
    # resumed pairs are neither written nor counted
    stored = results.read_bytes()
    counts = scan(curves, [TWIST_A_D, 4], **options)
    assert counts == {"records": 0, "checked": 0, "verified_failures": 0, "errors": 0}
    assert results.read_bytes() == stored


def _forty_curves_by_240_twists():
    rng = random.Random(40)
    curves = [(f"c{i}", random_model(rng)) for i in range(40)]
    square_free = (d for d in range(-200, 201) if d and is_square_free(d))
    twists = sorted(square_free, key=abs)[:240]
    assert len(twists) == 240
    return curves, twists


def test_scan_memory_does_not_grow_with_its_length():
    curves, twists = _forty_curves_by_240_twists()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            counts = scan(curves, twists, filter="none", stream=sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 500_000
    assert counts["records"] == 40 * 240


def test_scan_resume_memory_grows_with_curves_not_pairs(tmp_path):
    curves, twists = _forty_curves_by_240_twists()
    results = str(tmp_path / "results.jsonl")
    scan(curves, twists, filter="none", results_path=results)
    tracemalloc.start()
    try:
        counts = scan(curves, twists, filter="none", results_path=results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert counts["records"] == 0
