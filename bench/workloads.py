"""The benchmark's workloads: closed loops over twistperiod's public entry
points, one caller, the next input sent only after the previous call returns.

A workload is set up (possibly several times), measured in one or two timed
phases, and then checked; every check runs outside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import checks
from inputs import ScanInputs, VerifyInputs
from tracing import rebound

clock = time.perf_counter


@dataclass
class Phase:
    """One timed phase: seconds spent in each operation, pairs done, and the
    pairs that failed."""

    op_seconds: list = field(default_factory=list)
    busy: float = 0.0
    pairs: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, seconds: float, pairs: int) -> None:
        self.op_seconds.append(seconds)
        self.busy += seconds
        self.pairs += pairs


class VerifyWorkload:
    """verify_twist_period_relation at a fixed precision on distinct pairs."""

    pairs_per_op = 1

    def __init__(self, seed: int, sizes, precision_bits: int):
        self.seed = seed
        self.sizes = sizes
        self.bits = precision_bits
        self.failures: list[str] = []
        # The accuracy sample: the first timed pairs of each curve class,
        # keyed by whether the curve has |a_i| <= 10^6.
        self.sample: list = []
        self.wanted = {True: sizes.sample_wide, False: sizes.sample_small}

    def setup(self, pkg, cli, helpers) -> list[str]:
        """Fresh inputs, the pinned fixtures, and warm-up pairs that the
        timed pairs never repeat."""
        self.pkg = pkg
        self.inputs = VerifyInputs(self.seed)
        failures = checks.pinned_fixtures(pkg, helpers, self.bits)
        for _ in range(self.sizes.warmup_pairs):
            curve, d, _ = self.inputs.next_pair()
            model = pkg.WeierstrassModel.from_ainvs(curve)
            if not pkg.verify_twist_period_relation(model, d, self.bits).passed:
                failures.append(f"warm-up pair {curve}, d = {d} did not pass")
        return failures

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        verify = self.pkg.verify_twist_period_relation
        while phase.busy < seconds or not phase.op_seconds:
            curve, d, big = self.inputs.next_pair()
            model = self.pkg.WeierstrassModel.from_ainvs(curve)
            if tracer is not None:
                tracer.op += 1
            start = clock()
            try:
                report = verify(model, d, self.bits)
                outcome = "" if report.passed else "did not pass"
            except Exception as exc:  # a failed operation, counted below
                report, outcome = None, f"raised {type(exc).__name__}: {exc}"
            phase.record(clock() - start, 1)
            if outcome:
                phase.failed += 1
                phase.messages.append(f"verify {curve}, d = {d} {outcome}")
            elif self.wanted[big] > 0:
                self.wanted[big] -= 1
                self.sample.append((model, d, report))
        return phase

    def correct_bits(self) -> float:
        bits, failures = checks.verify_bits(self.pkg, self.sample, self.bits)
        self.failures.extend(failures)
        return bits

    def real_period_bits(self) -> float:
        models = [model for model, _, _ in self.sample]
        bits, failures = checks.real_period_bits(self.pkg, models, self.bits)
        self.failures.extend(failures)
        return bits

    def final_checks(self) -> int:
        """Nothing left to check: every pair was checked as it was timed."""
        return 0


class ScanWorkload:
    """`twistperiod scan --filter none` through cli.main on batch files."""

    def __init__(self, seed: int, sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.failures: list[str] = []
        self.outputs: list[str] = []
        self.first_batch = None
        self._files = 0

    @property
    def pairs_per_op(self) -> int:
        return self.inputs.curves * self.inputs.twists

    def _fresh(self, stem: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"{stem}-{self._files}.jsonl")
        if os.path.exists(path):
            raise RuntimeError(f"{path} exists; a reused output would resume")
        return path

    def _command(self, curves, twists, scan_filter, *options):
        """(argv, output path) of a scan over a freshly written curve file;
        `options` are global ones, placed before the subcommand."""
        source = self._fresh("curves")
        with open(source, "w", encoding="utf-8") as handle:
            for label, coefficients in curves:
                handle.write(json.dumps({"label": label, "curve": coefficients}) + "\n")
        output = self._fresh("records")
        argv = [*options, "--output", output, "scan", source,
                "--twists", *map(str, twists), "--filter", scan_filter]
        return argv, output

    def _scan(self, curves, twists, scan_filter, *options) -> tuple[int, str]:
        argv, output = self._command(curves, twists, scan_filter, *options)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        return code, output

    def setup(self, pkg, cli, helpers) -> list[str]:
        self.pkg, self.cli = pkg, cli
        self.inputs = ScanInputs(self.seed, *self.sizes.scan_batch)
        failures = checks.pinned_fixtures(pkg, helpers, 128)
        # A small warm-up batch: a full one would take seconds. Its curves
        # are never timed.
        curves, twists = self.inputs.next_batch(curves=3, twists=8, large=0, mid=1)
        code, output = self._scan(curves, twists, "none")
        _, problems = checks.scan_records(output, curves, twists)
        if code != 0 or problems:
            failures.append(f"warm-up scan exit code {code}: {problems[:3]}")
        return failures

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        pairs = self.pairs_per_op
        while phase.busy < seconds or not phase.op_seconds:
            curves, twists = self.inputs.next_batch()
            self.first_batch = self.first_batch or (curves, twists)
            argv, output = self._command(curves, twists, "none")
            if tracer is not None:
                tracer.op += 1
            start = clock()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            phase.record(clock() - start, pairs)
            _, problems = checks.scan_records(output, curves, twists)
            if code != 0:
                problems.insert(0, f"scan exit code {code}")
            if problems:
                phase.failed += pairs if code != 0 else min(pairs, len(problems))
                phase.messages.extend(problems)
            self.outputs.append(output)
        return phase

    def _accuracy_pairs(self):
        """The first three curves of the first timed batch (two minimal, one
        not), each with the first two positive and the first two negative
        small d of its twist list."""
        curves, twists = self.first_batch
        small = [d for d in twists if abs(d) <= 200]
        chosen = [d for d in small if d > 0][:2] + [d for d in small if d < 0][:2]
        return curves[:3], chosen

    def correct_bits(self) -> float:
        """Bits to which the lhs and rhs printed by `scan --filter all` at
        128 bits agree with the same scan at 256 bits."""
        curves, twists = self._accuracy_pairs()
        runs = []
        for bits in (128, 256):
            code, output = self._scan(
                curves, twists, "all", "--precision-bits", str(bits)
            )
            records, problems = checks.scan_records(output, curves, twists,
                                                    keep=True)
            problems += [
                f"scan --filter all at {bits} bits: {r['label']}, d = {r['d']} "
                "did not pass"
                for r in records if r.get("passed") is not True
            ]
            if code != 0 or problems:
                self.failures.append(f"exit code {code}: {problems[:3]}")
            runs.append({(r["label"], r["d"]): r for r in records})
        bits = 256.0
        for key, record in runs[0].items():
            reference = runs[1].get(key, {})
            for side in ("lhs", "rhs"):
                if side in record and side in reference:
                    bits = min(bits, checks.agreeing_bits(
                        record[side], reference[side], 256))
        return bits

    def real_period_bits(self) -> float:
        curves, _ = self._accuracy_pairs()
        models = [self.pkg.WeierstrassModel.from_ainvs(c) for _, c in curves]
        bits, failures = checks.real_period_bits(self.pkg, models, 128)
        self.failures.extend(failures)
        return bits

    def final_checks(self) -> int:
        """The table-vs-minimization cross-check on the timed records: all of
        them, or an even stride of at most `sizes.cross_check_cap`. Returns
        the number of records checked."""
        records = []
        for output in self.outputs:
            with open(output, "r", encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        stride = -(-len(records) // self.sizes.cross_check_cap)
        records = records[::stride]
        memo: dict = {}

        def remembered(factorize):
            def cached(n):
                if n not in memo:
                    memo[n] = factorize(n)
                return dict(memo[n])

            return cached

        # d is factored once per check, not once per call: the factorization
        # is exact, so this only saves time.
        with rebound({("exact", "factorize"): remembered}):
            problems = checks.utilde_against_minimization(self.pkg, records)
        self.failures.extend(problems)
        return len(records)
