"""Experiment configuration: run defaults, size checks, flat-file loading."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .measure import as_setting


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# the run flags a config file may set, each with the value a simulate/chsh
# run takes when neither sets it; trials and seed have none and must be given
RUN_DEFAULTS = {"n": 4, "L": 2, "layers": 50, "trials": None, "seed": None}

# the smallest valid value of every size and seed flag (and config key)
MINIMUMS = {"n": 4, "L": 1, "layers": 1, "trials": 1, "seed": 0, "grid": 2, "k": 1, "labels": 1}


def check_size(name: str, value: int) -> int:
    """Return `value` if it is at least the minimum of size `name`."""
    if value < MINIMUMS[name]:
        raise ConfigError(f"--{name} must be >= {MINIMUMS[name]} (got {value})")
    return value


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
    """Load a flat key=value config file into a dict keyed by flag name.

    Recognized keys: n, L, layers, trials, seed, tie_weights, and settings
    (semicolon-separated triples, kept as the text a setting flag takes).
    `n` is required; any other key is an error.  A setting's syntax is
    checked here, its norm where `--normalize` is known.
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
        elif key == "tie_weights":
            if text.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{path}:{lineno}: key {key!r} must be boolean, got {text!r}")
            values[key] = text.lower() in ("true", "1")
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
