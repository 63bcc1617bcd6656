"""Experiment configuration: dataclass, validation, flat-file loading."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measure import as_setting


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 4
    interval_count: int = 2
    pair_count: int = 50
    trials: int = 10_000
    seed: int | None = None
    settings: tuple = ()
    tie_weights: bool = False

    def __post_init__(self):
        if self.n < 4:
            raise ConfigError(f"n must be >= 4 (got {self.n})")
        if self.interval_count < 1:
            raise ConfigError(f"interval_count must be >= 1 (got {self.interval_count})")
        if self.pair_count < 1:
            raise ConfigError(f"pair_count must be >= 1 (got {self.pair_count})")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1 (got {self.trials})")


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


_BOOL_KEYS = {"tie_weights"}
_INT_KEYS = {"n": "n", "L": "interval_count", "layers": "pair_count", "trials": "trials", "seed": "seed"}


def load_config(path) -> ExperimentConfig:
    """Load a flat key=value config file.

    Recognized keys: n, L, layers, trials, seed, settings (semicolon-separated
    triples), tie_weights.  `n` is required; any other key is an error.
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
        if key in _INT_KEYS:
            try:
                values[_INT_KEYS[key]] = int(text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
        elif key in _BOOL_KEYS:
            if text.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{path}:{lineno}: key {key!r} must be boolean, got {text!r}")
            values[key] = text.lower() in ("true", "1")
        elif key == "settings":
            values["settings"] = tuple(
                parse_setting(item.strip()) for item in text.split(";") if item.strip()
            )
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if "n" not in values:
        raise ConfigError(f"{path}: missing required key 'n'")
    return ExperimentConfig(**values)
