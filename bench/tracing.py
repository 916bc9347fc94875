"""Spans around twistperiod's public functions, installed from outside.

A target function is replaced, in every loaded ``twistperiod`` module that
holds a reference to it (or on its class, for a method), by a wrapper that
records a span: id, name, start, end, parent span id and the timed operation
it belongs to (a pair, or a scan batch). Calls between modules are traced
too, because each module looks the name up in its own namespace. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

# (module, attribute) of every traced function, grouped by layer.
TARGETS = (
    ("exact", "factorize"),
    ("exact", "is_prime"),
    ("exact", "vp"),
    ("exact", "is_square_free"),
    ("exact", "odd_prime_divisors"),
    ("weierstrass", "padic_signature"),
    ("weierstrass", "Transformation.apply"),
    ("twisting", "twist"),
    ("minimality", "minimize"),
    ("minimality", "compute_utilde"),
    ("minimality", "utilde_factor_at"),
    ("periods", "lattice_periods"),
    ("periods", "complex_agm"),
    ("periods", "raw_real_period"),
    ("periods", "real_period"),
    ("periods", "imaginary_period"),
    ("verification", "verify_twist_period_relation"),
    ("verification", "scan"),
    ("cli", "main"),
)
LAYERS = (
    "exact", "weierstrass", "twisting", "minimality", "periods", "verification",
    "cli",
)
SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "op")
MAX_SPANS = 300_000


@contextlib.contextmanager
def rebound(replacements):
    """Temporarily rebind functions of the twistperiod package.

    `replacements` maps (module, attribute) to a function of the original:
    every twistperiod module attribute that is the original (or, for
    "Class.method", the class attribute) points at the result while the
    context is open.
    """
    undo = []
    try:
        for (module_name, attr), make in replacements.items():
            module = sys.modules[f"twistperiod.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, make(original))
                continue
            original = getattr(module, attr)
            replacement = make(original)
            for name, mod in list(sys.modules.items()):
                if name != "twistperiod" and not name.startswith("twistperiod."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, replacement)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """Collects spans and per-function call counts and self time."""

    def __init__(self):
        self.names = [f"{module}.{attr}" for module, attr in TARGETS]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0

    def installed(self):
        return rebound(
            {
                (module, attr): self._wrapper(f"{module}.{attr}")
                for module, attr in TARGETS
            }
        )

    def _wrapper(self, name):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrap(fn):
            def traced(*args, **kwargs):
                self._next_id += 1
                frame = [self._next_id, 0.0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    if parent is not None:
                        parent[1] += elapsed
                    self.calls[name] += 1
                    self.self_s[name] += elapsed - frame[1]
                    if len(spans) < MAX_SPANS:
                        spans.append(
                            (frame[0], name, start, end,
                             parent[0] if parent else 0, self.op)
                        )
                    else:
                        self.dropped += 1

            return traced

        return wrap

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to `origin`."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"fields": SPAN_FIELDS, "dropped": self.dropped}) + "\n"
            )
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        [span_id, name, round(start - origin, 9),
                         round(end - origin, 9), parent, op]
                    )
                    + "\n"
                )
