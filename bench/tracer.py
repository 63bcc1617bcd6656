"""Spans around calls into eprsim's public functions, recorded from outside.

The program is not edited: `Tracer.install` replaces each traced function
by a timing wrapper on every `eprsim.*` module that holds a reference to it.
The CLI imports names with `from .x import y`, so patching only the defining
module would miss its calls.  A traced name that no longer exists is skipped
and listed in `missing`, so a later API change does not break the harness.

Spans stay in memory until the benchmark ends.  Calls run on one thread, so
spans nest: a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "eprsim"

TRACED = (
    "cli.main",
    "sampling.chsh",
    "sampling.run_experiment",
    "layers.build_universe",
    "layers.sample_layer_pair",
    "layers.save_universe",
    "layers.load_universe",
    "analysis.pair_expectation",
    "analysis.conditional_outcome_bias",
    "analysis.dependence_report",
    "emission.generate_trace",
    "emission.discrepancy_stats",
    "emission.star_discrepancy",
    "emission.extreme_discrepancy",
    "emission.detector_gate",
    "measure.build_measure",
    "splines.basis_matrix",
    "splines.clipped_weight_matrix",
)

# work counted at the boundary: traced name -> (parameter, how to count it)
COUNTED = {
    "sampling.run_experiment": ("trials", int),
    "emission.star_discrepancy": ("points", len),
    "emission.extreme_discrepancy": ("points", len),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "count")

    def __init__(self, name, parent, op, count):
        self.name = name
        self.parent = parent
        self.op = op
        self.count = count
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "count": self.count,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = None  # id stamped on every span until changed
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.missing = []
        for qualname in TRACED:
            mod_name, fn_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not inspect.isfunction(fn):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, fn)
            for mod in modules:
                for attr in [k for k, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = None
        if name in COUNTED:
            param, measure = COUNTED[name]
            sig = inspect.signature(fn)
            if param in sig.parameters:
                counter = (sig, param, measure)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = None
            if counter is not None:
                sig, param, measure = counter
                count = measure(sig.bind(*args, **kwargs).arguments[param])
            parent = stack[-1] if stack else -1
            span = Span(name, parent, self.op, count)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start

        return wrapper

    def per_op(self) -> dict:
        """op id -> traced name -> {"calls", "s", "self_s", "count"} summed over the op."""
        table: dict = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        )
        for span in self.spans:
            row = table[span.op][span.name]
            row["calls"] += 1
            row["s"] += span.seconds
            row["self_s"] += span.self_seconds
            row["count"] += span.count or 0
        return table
