"""Experiment configuration: run defaults, size checks, flat-file loading."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .measure import as_setting


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# the run flags a config file may set, each with the value a simulate/chsh
# run takes when neither sets it; trials and seed have none and must be given
RUN_DEFAULTS = {"n": 4, "L": 2, "layers": 50, "trials": None, "seed": None}

# the smallest valid value of every size and seed flag (and config key)
# (poisson's uniformity test needs two labels for one degree of freedom)
MINIMUMS = {"n": 4, "L": 1, "layers": 1, "trials": 1, "seed": 0, "grid": 2, "k": 1, "labels": 2}


# the largest array a command may allocate, in bytes
BUDGET = 1 << 30

# the largest valid value of every size flag (and config key): where the
# largest array of the command it sizes would pass BUDGET, with the other
# sizes at their minimum
MAXIMUMS = {
    # layers: 2M x (3n+12) int64 relocations at M = 1 pair (simulate and chsh,
    # which build no universe, keep the same caps so a size valid for one
    # command is valid for all three)
    "n": BUDGET // 48 - 4,
    # the same relocations at n = 4: 384 bytes per pair
    "layers": BUDGET // 384,
    # the M x L float64 interval weights at M = 1
    "L": BUDGET // 8,
    # splines: each grid x grid float64 surface
    "grid": math.isqrt(BUDGET // 8),
    # poisson: the float64 fractional parts of k emission times, and their
    # sorted copy (the gate and the times themselves go chunk by chunk)
    "k": BUDGET // 8,
    # poisson: the int64 counts of labels 0 .. labels
    "labels": BUDGET // 8 - 1,
}

# arrays sized by two flags at once, in bytes, keyed by the command that
# allocates them: the universe's relocations and weights, and splines'
# (n+5) x grid float64 basis recursion
JOINT_ARRAYS = {
    "layers": {
        ("n", "layers"): lambda n, pairs: 16 * pairs * (3 * n + 12),
        ("L", "layers"): lambda intervals, pairs: 8 * pairs * intervals,
    },
    "splines": {("n", "grid"): lambda n, grid: 8 * (n + 5) * grid},
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
    """Reject sizes that pass their caps one by one but together would make
    one of `command`'s arrays larger than BUDGET; a size that is None or
    absent is unused."""
    for names, nbytes in JOINT_ARRAYS.get(command, {}).items():
        values = [sizes.get(name) for name in names]
        if None not in values and nbytes(*values) > BUDGET:
            flags = " with ".join(f"--{name} {value}" for name, value in zip(names, values))
            raise ConfigError(
                f"{flags} would make a {nbytes(*values) >> 20} MiB array, "
                f"above the {BUDGET >> 30} GiB budget"
            )


def _triple(text: str) -> list[float]:
    """The three numbers of a comma-separated setting, unchecked as a vector."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"setting {text!r} must be three comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"setting {text!r}: {exc}") from exc


def parse_setting(text: str, normalize: bool = False) -> np.ndarray:
    """Parse a comma-separated triple into a validated unit setting."""
    vec = _triple(text)
    try:
        return as_setting(vec, normalize=normalize)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> dict:
    """Load the flat key=value config file of a `simulate` or `chsh` run into
    a dict keyed by flag name.

    Recognized keys: n, L, layers, trials, seed, and settings
    (semicolon-separated triples, kept as the text a setting flag takes).
    `n` is required; any other key is an error (`tie_weights` too: these
    runs build no universe to tie).  A setting's syntax is checked here, its
    norm where `--normalize` is known.
    """
    values: dict = {}
    lines = Path(path).read_text().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key in RUN_DEFAULTS:
            try:
                values[key] = check_size(key, int(text))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
        elif key == "settings":
            values[key] = [item.strip() for item in text.split(";") if item.strip()]
            for item in values[key]:
                try:
                    _triple(item)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if "n" not in values:
        raise ConfigError(f"{path}: missing required key 'n'")
    return values
