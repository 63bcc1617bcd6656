"""Opt-in stage timings for `--timings FILE`: wall time and peak RSS per stage.

`cli.main` imports this module only when the flag is given, so a plain run
does no extra work.  The timer wraps the library functions the CLI calls in
stages named like the benchmark tracer's spans (`layers.load_universe`,
`sampling.run_experiment`, ...) and the whole command in `cmd.<name>`.  A
stage's time includes the stages it calls.  Reports never depend on it.
"""

from __future__ import annotations

import functools
import inspect
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "eprsim"


def _peak_rss_mb() -> float:
    """The process's peak resident set so far: ru_maxrss is KiB on Linux,
    bytes on macOS."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (2**20 if sys.platform == "darwin" else 2**10)


class StageTimer:
    """Per stage: call count, total wall seconds, and the process's peak RSS
    in MB when the stage last ended."""

    def __init__(self):
        self.stages: dict[str, dict] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            entry = self.stages.setdefault(name, {"calls": 0, "wall_s": 0.0})
            entry["calls"] += 1
            entry["wall_s"] += time.perf_counter() - start
            entry["peak_rss_mb"] = _peak_rss_mb()

    def _timed(self, fn):
        name = f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__name__}"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.stage(name):
                return fn(*args, **kwargs)

        return timed

    @contextmanager
    def attached(self, namespace: dict, modules):
        """Time every function of the package `modules` (short names such as
        "sampling") that a module's globals `namespace` refers to, until the
        block ends.  The names are replaced in `namespace` itself, so two
        timed blocks must not overlap on one namespace."""
        qualified = {f"{PACKAGE}.{module}" for module in modules}
        saved = {
            name: fn
            for name, fn in namespace.items()
            if inspect.isfunction(fn) and fn.__module__ in qualified
        }
        namespace.update((name, self._timed(fn)) for name, fn in saved.items())
        try:
            yield
        finally:
            namespace.update(saved)

    def as_dict(self) -> dict:
        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "stages": self.stages,
        }
