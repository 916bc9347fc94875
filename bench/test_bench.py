"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_with_every_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith('{"workload"')
    ]
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names
    metrics = {r["workload"]: r["metrics"] for r in results}
    assert metrics["verify-p128"]["minimality.minimize.calls_per_pair"]["value"] == 4
    for name, metric in metrics["scan-table"].items():
        if name.startswith("periods.") and name.endswith(".calls_per_pair"):
            assert metric["value"] == 0, name


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        checks, "pinned_fixtures", lambda *args: ["pinned fixture: planted"]
    )
    code = run.main(["--workload", "verify-p128", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_incomplete_checkout_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-p128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_scan_records_flags_duplicate_error_and_missing(tmp_path):
    path = tmp_path / "records.jsonl"
    rows = [
        {"label": "a", "d": 5, "utilde": "1"},
        {"label": "a", "d": 5, "utilde": "1"},
        {"label": "b", "d": 5, "error": "ValueError: planted"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    curves = [("a", ["0", "1"]), ("b", ["0", "2"])]
    _, problems = checks.scan_records(path, curves, [5, -7])
    text = "\n".join(problems)
    assert "unexpected scan record ('a', 5)" in text
    assert "planted" in text
    assert "missing scan record ('a', -7)" in text
    assert "missing scan record ('b', -7)" in text


def test_cross_check_catches_a_wrong_utilde():
    import twistperiod

    record = {"label": "a", "curve": ["0", "-1", "0", "-6883", "222137"], "d": 5}
    right = checks.utilde_against_minimization(twistperiod, [{**record, "utilde": "5"}])
    wrong = checks.utilde_against_minimization(twistperiod, [{**record, "utilde": "1"}])
    assert right == []
    assert len(wrong) == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(100, 0, -1)]) == ("p90.00", 90.0)
    assert run.tail([float(v) for v in range(1, 1201)]) == ("p99.17", 1190.0)
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_scan_batches_have_the_profiled_shape_and_never_repeat():
    source = inputs.ScanInputs(seed=3)
    warm = source.next_batch(curves=3, twists=8, large=0, mid=1)
    batches = [warm, source.next_batch(), source.next_batch()]
    assert inputs.ScanInputs(seed=3).next_batch(3, 8, 0, 1) == warm
    labels = set()
    curves_seen = set()
    for curves, twists in batches:
        assert len(twists) == len(set(twists))
        labels.update(label for label, _ in curves)
        curves_seen.update(tuple(c) for _, c in curves)
    assert len(curves_seen) == 3 + 24 + 24 == len(labels)
    curves, twists = batches[1]
    assert len(curves) == 24 and len(twists) == 216
    # Every third curve has a rational coefficient: the non-minimal ones.
    rational = [i for i, (_, c) in enumerate(curves) if any("/" in a for a in c)]
    assert set(rational) <= set(range(2, 24, 3))
    sizes = sorted(abs(d) for d in twists)
    assert sum(d > 10**12 for d in sizes) == 2
    assert sum(10**6 <= d <= 10**12 for d in sizes) == 4
    assert sum(d <= 200 for d in sizes) == 210
