"""Benchmark of twistperiod: period-relation checks and bulk scans.

    python3 bench/run.py --workload verify-p128 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a source checkout: the package is imported from
src/ and the pinned fixtures from tests/helpers.py. One process, one thread.
With --trace 0 the timed phase runs untraced and the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 half the time runs untraced and
half with spans around every layer's public functions, and the per-layer
metrics are reported. --smoke runs every workload at a tiny size with both
phases and prints all metrics. setup_s is timed in fresh interpreters that
run this file with --setup-only: from the start of the process, before
mpmath or the package is imported, to the moment the first pair would be
timed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Spans and a full report with machine facts go
to .bench_out/. Exit code 0 when every output was correct, 1 when any check
failed, 2 when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import ScanWorkload, VerifyWorkload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = {
    "verify-p128": lambda seed, sizes, _: VerifyWorkload(seed, sizes, 128),
    "verify-p4096": lambda seed, sizes, _: VerifyWorkload(seed, sizes, 4096),
    "scan-table": ScanWorkload,
}
# The tail is the highest percentile with at least TAIL_BEYOND samples above
# it. Fixed percentiles would jump to the next lower one whenever a run timed
# a few pairs fewer than a threshold.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Sizes:
    """How much work one run does besides the timed loop.

    setups: set-ups per run, each in a fresh interpreter, setup_s is their
    median; scan_batch: curves, twists, large and mid d of a scan batch,
    empty for the shape inputs.ScanInputs sets by default; sample_wide and
    sample_small: timed verify pairs recomputed at twice the precision, from
    the |a_i| <= 10^6 and the |a_i| <= 50 curves (the wide ones lose bits, so
    they need the larger sample for a steady minimum); cross_check_cap: most
    scan records put through the table-vs-minimization cross-check.
    """

    setups: int = 5
    warmup_pairs: int = 2
    scan_batch: tuple = ()
    sample_wide: int = 32
    sample_small: int = 4
    cross_check_cap: int = 512


FULL = {
    "verify-p128": Sizes(),
    "verify-p4096": Sizes(sample_wide=1, sample_small=1),
    "scan-table": Sizes(),
}
SMOKE = Sizes(setups=1, warmup_pairs=1, scan_batch=(3, 12, 1, 1),
              sample_wide=1, sample_small=1, cross_check_cap=36)
SMOKE_SECONDS = 0.2


def set_up(name: str, seed: int, sizes: Sizes, workdir: Path):
    """The workload, ready to time its first pair, and the set-up failures."""
    import helpers
    import twistperiod
    import twistperiod.cli

    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, sizes, str(workdir))
    return workload, workload.setup(twistperiod, twistperiod.cli, helpers)


def timed_setups(name: str, seed: int, smoke: bool, count: int):
    """Seconds from the start of a fresh interpreter to the end of its
    set-up, for `count` interpreters run one after another, and the
    failures they reported. Each interpreter imports mpmath and the package
    afresh, so their import and first-use costs are part of the time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    seconds, failures = [], []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            ready = child.stdout.readline()
            seconds.append(time.perf_counter() - start)
            child.stdout.read()
        try:
            failures += json.loads(ready)["setup_failures"]
        except (ValueError, KeyError):
            failures.append(f"set-up process exited with code {child.returncode} "
                            "without reporting")
    return seconds, failures


def setup_only(name: str, seed: int, sizes: Sizes) -> int:
    """Set the workload up, report its failures on one line, and exit."""
    workdir = OUT / f"work-{os.getpid()}-{name}"
    try:
        _, failures = set_up(name, seed, sizes, workdir)
        print(json.dumps({"setup_failures": failures}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


def tail(values: list[float]) -> tuple[str, float]:
    """(label, value) of the highest percentile that has TAIL_BEYOND samples
    beyond it: by nearest rank, p = 100 * (n - TAIL_BEYOND) / n, whose value
    is the (TAIL_BEYOND + 1)-th largest. The maximum when n is too small."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return "max", ordered[-1]
    return f"p{100 * (n - TAIL_BEYOND) / n:.2f}", ordered[-TAIL_BEYOND - 1]


def machine_facts(seed: int) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_info(pkg):
    return pkg.weierstrass._invariants_of.cache_info()


def run_workload(name: str, seed: int, seconds: float, end_to_end: bool,
                 per_layer: bool, sizes: Sizes, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; the metrics asked for."""
    workdir = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(name, seed, seconds, end_to_end, per_layer, sizes, smoke,
                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, end_to_end, per_layer, sizes, smoke, workdir) -> dict:
    setup_s, setup_failures = [], []
    if end_to_end:
        setup_s, setup_failures = timed_setups(name, seed, smoke, sizes.setups)
    workload, failures = set_up(name, seed, sizes, workdir)
    setup_failures += failures
    pkg = workload.pkg

    timed_from = time.perf_counter()
    untraced_seconds = seconds / 2 if per_layer else seconds
    gc.collect()
    setup_rss_mb = peak_rss()
    untraced = workload.measure(untraced_seconds)
    peak_rss_mb = peak_rss()
    metrics: dict = {}
    phases = [untraced]
    if per_layer:
        tracer = Tracer()
        before = cache_info(pkg)
        gc.collect()
        origin = time.perf_counter()
        with tracer.installed():
            traced = workload.measure(seconds / 2, tracer)
        after = cache_info(pkg)
        phases.append(traced)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl", origin)
        metrics.update(layer_metrics(tracer, untraced, traced, before, after))
        metrics["periods.real_period.correct_bits.min"] = workload.real_period_bits()
    if end_to_end:
        per_pair_ms = [
            1000 * s / workload.pairs_per_op for s in untraced.op_seconds
        ]
        tail_label, tail_ms = tail(per_pair_ms)
        metrics.update({
            "pairs_per_s": untraced.pairs / untraced.busy,
            "pair_ms.p50": statistics.median(per_pair_ms),
            "pair_ms.tail": tail_ms,
            "correct_bits.min": workload.correct_bits(),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        })
    checks_from = time.perf_counter()
    cross_checked = workload.final_checks()
    checks_s = time.perf_counter() - checks_from

    attempted = sum(p.pairs for p in phases)
    gate_failures = setup_failures + workload.failures
    failed = min(attempted, sum(p.failed for p in phases) + len(gate_failures))
    details = {
        "workload": name,
        "seconds": seconds,
        "ops": [len(p.op_seconds) for p in phases],
        "pairs_per_op": workload.pairs_per_op,
        "setup_s_each": setup_s,
        "peak_rss_mb_after_setup": setup_rss_mb,
        "wall_s": {"timed_and_accuracy": checks_from - timed_from,
                   "cross_check": checks_s},
        "fail_ratio": failed / attempted,
        "cross_checked": cross_checked,
        "failures": [m for p in phases for m in p.messages][:20] + gate_failures[:20],
    }
    if end_to_end:
        details["pair_ms.tail_percentile"] = tail_label
        details["pair_ms.n"] = len(untraced.op_seconds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def layer_metrics(tracer, untraced, traced, before, after) -> dict:
    pairs = traced.pairs
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in tracer.names:
        metrics[f"{name}.calls_per_pair"] = tracer.calls[name] / pairs
        metrics[f"{name}.self_ms_per_pair"] = 1000 * tracer.self_s[name] / pairs
        layer_self[name.split(".")[0]] += tracer.self_s[name]
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.self_ms_per_pair"] = 1000 * seconds / pairs
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    metrics["weierstrass.invariants_cache.hit_ratio"] = (
        hits / lookups if lookups else 0.0
    )
    metrics["trace.pair_ms"] = 1000 * traced.busy / pairs
    metrics["trace.overhead_ratio"] = (pairs / traced.busy) / (
        untraced.pairs / untraced.busy
    )
    metrics["trace.self_sum_ratio"] = sum(layer_self.values()) / traced.busy
    return metrics


def report(result: dict, spec_metrics: list[dict], facts: dict, path: Path) -> dict:
    """Print every metric by name with its unit and write the full report.
    Returns the result line: correct, attempted, failed and the metrics."""
    chosen = {}
    for entry in spec_metrics:
        value = result["metrics"][entry["name"]]
        chosen[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']} "
              f"({entry['better']} is better)")
    details = result["details"]
    print(f"fail_ratio = {details['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']}; lower is better)")
    for message in details["failures"]:
        print(f"FAILED: {message}")
    full = {**result, "facts": facts}
    path.write_text(json.dumps(full, indent=1, default=str) + "\n")
    print(json.dumps({"facts": facts, "details": details}, default=str))
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": chosen
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny sizes, all metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.setup_only or not args.smoke) and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    for needed in ("src/twistperiod/__init__.py", "tests/helpers.py",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"bench: {ROOT / needed} is missing; run from a source "
                  "checkout of twistperiod", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args.workload, args.seed,
                          SMOKE if args.smoke else FULL[args.workload])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = machine_facts(args.seed)

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result = run_workload(name, args.seed, SMOKE_SECONDS, True, True,
                                  SMOKE, smoke=True)
            line = report(result, spec["end_to_end"] + spec["per_layer"], facts,
                          OUT / f"smoke-{name}.json")
            print(json.dumps({"workload": name, **line}))
            ok = ok and result["correct"]
        return 0 if ok else 1

    traced = args.trace == 1
    result = run_workload(args.workload, args.seed, args.seconds, not traced,
                          traced, FULL[args.workload])
    line = report(
        result, spec["per_layer" if traced else "end_to_end"], facts,
        OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
