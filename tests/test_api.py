"""The package's public surface, and every name the benchmark reaches.

`__all__` is pinned name by name, so a name enters or leaves the API only by
a change to this list. The benchmark under `bench/` binds and traces package
functions by name from outside; the checks below resolve each of those names,
so a later trim cannot silently break `bench/run.py --trace 1`.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import twistperiod
from twistperiod import twisting

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC_API = [
    "CASE_LABELS",
    "ConsistencyError",
    "DEFAULT_PRECISION_BITS",
    "FILTERS",
    "FactorizationBudgetError",
    "Invariants",
    "MinimalModelResult",
    "PeriodReport",
    "PrecisionError",
    "SingularCurveError",
    "Transformation",
    "UTildeResult",
    "VerificationReport",
    "WeierstrassModel",
    "complex_agm",
    "compute_utilde",
    "factorize",
    "imaginary_period",
    "is_prime",
    "is_square_free",
    "iter_curve_file",
    "lattice_periods",
    "minimal_model_of_twist",
    "minimize",
    "odd_prime_divisors",
    "padic_signature",
    "period_report",
    "raw_real_period",
    "real_components",
    "real_period",
    "scan",
    "twist",
    "utilde_factor_at",
    "verify_twist_period_relation",
    "vp",
]

# The package attributes bench/checks.py calls.
BENCH_CHECKS_API = [
    "twist",
    "minimize",
    "compute_utilde",
    "real_period",
    "imaginary_period",
    "verify_twist_period_relation",
    "minimal_model_of_twist",
    "WeierstrassModel",
    "ConsistencyError",
]


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 35
    assert sorted(twistperiod.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(twistperiod, name) is not None, name


def test_twisting_does_not_use_mpmath():
    for name, value in vars(twisting).items():
        module = getattr(value, "__module__", None) or getattr(value, "__name__", "")
        assert not str(module).startswith("mpmath"), name


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"twistperiod.{module_name}")
        assert callable(_resolve(module, attr)), (module_name, attr)
    # bench/run.py reads the invariants cache's statistics
    assert twistperiod.weierstrass._invariants_of.cache_info() is not None


def test_bench_package_attributes_resolve():
    used = set(BENCH_CHECKS_API)
    for source in BENCH.glob("*.py"):
        used.update(re.findall(r"\bpkg\.([\w.]+)", source.read_text(encoding="utf-8")))
    for dotted in sorted(used):
        assert _resolve(twistperiod, dotted.rstrip(".")) is not None, dotted


def test_helpers_import_without_hypothesis():
    # bench/run.py imports helpers for its pinned fixtures, in the process it
    # times and measures; the hypothesis strategies live in strategies.py.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = (
        "import sys, helpers; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hypothesis'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
