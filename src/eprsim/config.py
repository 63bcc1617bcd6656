"""Experiment configuration: run defaults, size checks, flat-file loading."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .measure import as_setting
from .splines import MIN_ORDER_PARAM


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# the run flags a config file may set, each with the value a simulate/chsh
# run takes when neither sets it; trials and seed have none and must be given
RUN_DEFAULTS = {"n": 4, "L": 2, "layers": 50, "trials": None, "seed": None}

# the smallest valid value of every size and seed flag (and config key)
# (poisson's uniformity test needs two labels for one degree of freedom)
MINIMUMS = {"n": MIN_ORDER_PARAM, "L": 1, "layers": 1, "trials": 1, "seed": 0, "grid": 2, "k": 1,
            "labels": 2}


# the largest array a command may allocate, in bytes
BUDGET = 1 << 30

# the largest valid value of every size flag (and config key): where the
# largest array of the command it sizes would pass BUDGET, with the other
# sizes at their minimum
MAXIMUMS = {
    # the first-layer measure, whose build peaks near 120 bytes per unit of n
    # under tracemalloc: verify's whole run takes near 170, and chsh, which
    # builds one per component, one after another, near 130 (a universe's
    # relocations take 48 per pair; layers is capped lower anyway)
    "n": BUDGET // 512,
    # layers: sized for 2M x (3n+12) int64 relocations at n = 4, 384 bytes
    # per pair.  Every pass over a universe takes a block of rows at a
    # time, so at n = 4, L = 2 the whole command's tracemalloc peak grows
    # by 108 bytes per pair for layers, 113 for simulate --universe and 95
    # for analyze (M = 1e4 to 2e4, numpy 2.4, x86-64 Linux): the cap
    # over-counts until it is re-sized (simulate and chsh, which build no
    # universe, keep the same cap so a size valid for one command is valid
    # for all three)
    "layers": BUDGET // 384,
    # the M x L float64 interval weights at M = 1
    "L": BUDGET // 8,
    # splines: each grid x grid float64 surface
    "grid": math.isqrt(BUDGET // 8),
    # poisson: the k float64 fractional parts, sorted in place, are its one
    # k-float array, beside one-chunk buffers: tracemalloc peak +8.0 B per k
    # (k = 2e6 to 4e6) over an intercept near 0.3 MiB (numpy 2.4)
    "k": BUDGET // 8,
    # poisson: the label counts, the gated counts and the chi-square's one
    # float temporary; the whole command's tracemalloc peak grows by 24.2
    # bytes per label from labels = 2e5 to 2e6 at k = 2e6 (numpy 2.4, x86-64
    # Linux), so 64 leaves room
    "labels": BUDGET // 64,
}

# what sizes checked together would allocate, in bytes, keyed by the
# command: splines' (n+5) x grid float64 basis recursion, and under "layers"
# the sizes of a universe file, which `layers` checks before it builds one
# and `layers._read_header` before any command reads a body, so every file
# `layers` writes is one `analyze` can hold.  Its n alone sizes
# `dependence_report`'s S x S float64 joint table (S = 3n+12 cells): the
# tracemalloc peak of in-process `cli.main` analyze runs on files of one pair
# and one interval grows by 32.0-32.1 bytes per S^2 from n = 100 to 800, and
# is 32.1-33.3 bytes per S^2 in all.  With n and the pairs, the interval count
# L sizes analyze's loaded M x L weights, `dependence_report`'s min(M, 1024)
# x L spread block and `outcome_biases`' S x L sums and their temporaries:
# the peak grows by 2904, 7008 and 23504 bytes per interval at n = 4, 16 and
# 64 with M = 1 (about 115-121 per S x L), and by 16005 at n = 4 with M =
# 1000 and 40923 with M = 4096 (numpy 2.4, x86-64 Linux).  1024 is
# `layers.BLOCK_ROWS`, which this module cannot import: layers imports it
JOINT_ARRAYS = {
    "layers": {
        ("n",): lambda n: 34 * (3 * n + 12) ** 2,
        # 2M x (3n+12) int64 relocations: the uint16 array and the
        # BLOCK_ROWS-row scratch of each pass take less, so this over-counts;
        # at L = 64 (n = 4) the peaks grow by 618 bytes per pair for layers and
        # simulate --universe and 647 for analyze, the file's 608 and blocks
        ("n", "layers"): lambda n, pairs: 16 * pairs * (3 * n + 12),
        # the M x L float64 weights, beside one block's uint64 words and
        # edges in `streams.uniform_spacings`: `build_universe(4, L, M)`
        # peaks 24.0 bytes per interval higher from L = 2^16 to 2^20 at
        # M = 1, and 12.0 per pair and interval at M = 4096
        ("L", "layers"): lambda intervals, pairs: 8 * intervals * (pairs + 2 * min(pairs, 1024)),
        ("n", "L", "layers"): lambda n, intervals, pairs: (
            8 * intervals * (pairs + min(pairs, 1024) + 16 * (3 * n + 14))
        ),
    },
    "splines": {("n", "grid"): lambda n, grid: 8 * (n + 5) * grid},
    # the trace held beside the label counts: the poisson peaks above at
    # 8.0 B per k and 24.2 B per label, each measured with the other fixed
    "poisson": {("k", "labels"): lambda k, labels: 8 * k + 24 * labels},
}


def check_size(name: str, value: int) -> int:
    """Return `value` if it lies between the minimum and the cap of size `name`."""
    if value < MINIMUMS[name]:
        raise ConfigError(f"--{name} must be >= {MINIMUMS[name]} (got {value})")
    if name in MAXIMUMS and value > MAXIMUMS[name]:
        raise ConfigError(
            f"--{name} must be <= {MAXIMUMS[name]} (got {value}): its largest array "
            f"would pass the {BUDGET >> 30} GiB budget"
        )
    return value


def check_budget(command: str, sizes: dict) -> None:
    """Reject sizes that pass their caps one by one but together would need
    more than BUDGET in a run of `command` (a `JOINT_ARRAYS` entry may count
    several arrays, and the "layers" entries count what `analyze` holds of
    the file too); a size that is None or absent is unused.  The message
    gives the bytes in MiB rounded up, so it never reads as the budget."""
    for names, nbytes in JOINT_ARRAYS.get(command, {}).items():
        values = [sizes.get(name) for name in names]
        if None not in values and nbytes(*values) > BUDGET:
            flags = " with ".join(f"--{name} {value}" for name, value in zip(names, values))
            raise ConfigError(
                f"{flags} would need about {-(-nbytes(*values) >> 20)} MiB, "
                f"above the {BUDGET >> 30} GiB budget"
            )


def parse_setting(text: str, normalize: bool = False) -> np.ndarray:
    """Parse a comma-separated triple into a validated unit setting."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"setting {text!r} must be three comma-separated numbers")
    try:
        vec = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"setting {text!r}: {exc}") from exc
    try:
        return as_setting(vec, normalize=normalize)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> dict:
    """Load the flat key=value config file of a `simulate` or `chsh` run into
    a dict keyed by flag name.

    Recognized keys: n, L, layers, trials, seed, and settings
    (semicolon-separated triples, kept as the texts a setting flag takes,
    with their line under `settings_line`, so the one parse where
    `--normalize` is known names it).  Each size is checked here.  `n` is
    required; any other key is an error (`tie_weights` too: these runs
    build no universe to tie).
    """
    values: dict = {}
    lines_of: dict = {}  # each key given, and its line
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key in lines_of:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is given again (first on line "
                              f"{lines_of[key]})")
        lines_of[key] = lineno
        if key in RUN_DEFAULTS:
            try:
                values[key] = check_size(key, int(text))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
        elif key == "settings":
            values[key] = [item.strip() for item in text.split(";") if item.strip()]
            values["settings_line"] = lineno
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if "n" not in values:
        raise ConfigError(f"{path}: missing required key 'n'")
    return values
