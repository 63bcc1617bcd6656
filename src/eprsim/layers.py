"""Randomized permuted layers with sign-flipped companions.

A layer relocates every diagonal unit ensemble (cell mass plus the detector
strips of its column and row) to a new position: one permutation of the
column strips and an independent permutation of the row strips.  Because
each column and each row of the base layer holds exactly one mass-carrying
ensemble, restricting placements to one ensemble per row and column makes a
layer exactly a pair of permutations, and every relocation preserves both
the factored density form and the per-layer correlation integral.

Each layer comes with a companion carrying the identical density but negated
detector functions; summed over a companion pair the outcome functions
cancel pointwise, which is what removes any conditional outcome bias.

A `LayerUniverse` therefore stores one row per companion pair in three
arrays validated once on construction: `col_to` and `row_to` of shape
(M, 3n+12), whose rows permute the diagonal positions, and `weights` of
shape (M, L), whose rows are interval weight vectors.  Label m = 1 .. 2M is
pair (m-1)//2 with sign +1 for odd m and -1 for even m.  Universe files
hold the three arrays packed as base64 bytes in one JSON object
(`save_universe`).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, check_budget
from .measure import diagonal_cell_count, validate_weights

UNIVERSE_SCHEMA = "layer-universe/2"


def layer_count(n: int) -> int:
    """Published count of distinct layer arrangements, one half of the label
    range: 36 * C(3n+3, 3)^2 * C(9n^2, 3n) * (3n)!  (exact integer)."""
    if n < 4:
        raise ValueError(f"order parameter n must be >= 4, got {n}")
    return (
        36
        * math.comb(3 * n + 3, 3) ** 2
        * math.comb(9 * n * n, 3 * n)
        * math.factorial(3 * n)
    )


def _permutations(perms, size: int, name: str) -> np.ndarray:
    """Validate rows (last axis) permuting 0 .. size-1; read-only int64 copy."""
    arr = np.asarray(perms)
    if arr.shape[-1:] != (size,) or np.any(np.sort(arr, axis=-1) != np.arange(size)):
        raise ValueError(f"{name} must permute the {size} diagonal positions")
    out = arr.astype(np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LayerUniverse:
    """A finite sampled family of companion layer pairs.

    Row k of `col_to`, `row_to` (shape (M, 3n+12)) and `weights` (shape
    (M, L)) is pair k.  Labels m = 1 .. 2M: label m belongs to pair
    (m-1)//2; odd labels are originals (sign +1), even labels their
    companions (sign -1), which share the pair's relocation and weights.
    """

    n: int
    interval_count: int
    col_to: np.ndarray = field(repr=False, compare=False)
    row_to: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"order parameter n must be >= 4, got {self.n}")
        size = diagonal_cell_count(self.n)
        col_to = _permutations(self.col_to, size, "columns")
        row_to = _permutations(self.row_to, size, "rows")
        weights = validate_weights(self.weights)
        if not col_to.ndim == row_to.ndim == weights.ndim == 2 or not (
            col_to.shape[0] == row_to.shape[0] == weights.shape[0] > 0
        ):
            raise ValueError("pairs: columns, rows and weights need one row per pair")
        if weights.shape[1] != self.interval_count:
            raise ValueError(
                f"interval_count {self.interval_count!r} differs from the "
                f"{weights.shape[1]} weights per pair"
            )
        for name, arr in (("col_to", col_to), ("row_to", row_to), ("weights", weights)):
            object.__setattr__(self, name, arr)

    @property
    def label_count(self) -> int:
        return 2 * self.pair_count

    @property
    def pair_count(self) -> int:
        return self.col_to.shape[0]


def build_universe(
    n: int,
    interval_count: int,
    pair_count: int,
    rng: np.random.Generator,
    tie_weights: bool = False,
) -> LayerUniverse:
    """Sample `pair_count` companion pairs into a universe of 2M labels.

    Columns and rows are relocated by independent uniform permutations, which
    is the uniform law over all placements with one mass ensemble per row and
    column.  Weights come from a symmetric Dirichlet(1) prior, renormalized
    per row, unless `tie_weights` pins them to the uniform vector 1/L.  The
    stream is consumed in two calls: one `rng.permuted` of 2M rows of
    0 .. 3n+11 along each row, whose rows [:M] are `col_to` and rows [M:] are
    `row_to`, then (untied weights only) one `rng.dirichlet(np.ones(L), size=M)`.
    """
    if n < 4:
        raise ValueError(f"order parameter n must be >= 4, got {n}")
    if interval_count < 1 or pair_count < 1:
        raise ValueError("interval count and pair count must be >= 1")
    size = diagonal_cell_count(n)
    perms = rng.permuted(np.tile(np.arange(size), (2 * pair_count, 1)), axis=1)
    if tie_weights:
        weights = np.broadcast_to(1.0 / interval_count, (pair_count, interval_count))
    else:
        draw = rng.dirichlet(np.ones(interval_count), size=pair_count)
        weights = draw / draw.sum(axis=1, keepdims=True)
    return LayerUniverse(n, interval_count, perms[:pair_count], perms[pair_count:], weights)


# --- serialization -------------------------------------------------------------

_POSITION = np.dtype("<u2")
_WEIGHT = np.dtype("<f8")

# the largest n whose 3n+12 positions 0 .. 3n+11 fit the uint16 positions of
# a `layer-universe/2` file
MAX_SAVED_N = (np.iinfo(_POSITION).max - 11) // 3


def _pack(arr: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(arr.astype(dtype).tobytes()).decode("ascii")


def _unpack(doc: dict, key: str, dtype: np.dtype, shape: tuple[int, int]) -> np.ndarray:
    text = doc.get(key)
    if not isinstance(text, str):
        raise ValueError(f"universe field {key!r} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"universe field {key!r} is not valid base64") from None
    need = shape[0] * shape[1] * dtype.itemsize
    if len(raw) != need:
        raise ValueError(
            f"universe field {key!r} holds {len(raw)} bytes, but 'pair_count' = "
            f"{shape[0]} rows of {shape[1]} {dtype.str} values take {need}"
        )
    return np.frombuffer(raw, dtype).reshape(shape)


def _int_field(doc: dict, key: str, minimum: int) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"universe field {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"universe field {key!r} must be >= {minimum}, got {value!r}")
    return value


def universe_from_dict(doc: dict) -> LayerUniverse:
    """Universe from a parsed file of schema `layer-universe/2`, the only one
    this build reads."""
    if not isinstance(doc, dict):
        raise ValueError("universe document must be a JSON object")
    schema = doc.get("schema")
    if schema != UNIVERSE_SCHEMA:
        raise ValueError(
            f"unsupported universe schema {schema!r}; this build reads {UNIVERSE_SCHEMA!r}"
        )
    n = _int_field(doc, "n", 4)
    interval_count = _int_field(doc, "interval_count", 1)
    pair_count = _int_field(doc, "pair_count", 1)
    # the sizes `layers` refuses to write are refused here, before decoding
    if n > MAX_SAVED_N:
        raise ValueError(f"universe field 'n' must be <= {MAX_SAVED_N}, got {n}")
    try:
        check_budget("layers", {"n": n, "L": interval_count, "layers": pair_count})
    except ConfigError as exc:
        raise ValueError(
            f"universe fields 'n' = {n}, 'interval_count' = {interval_count} and "
            f"'pair_count' = {pair_count} are past the sizes `layers` writes: {exc}"
        ) from None
    positions = (pair_count, diagonal_cell_count(n))
    return LayerUniverse(
        n,
        interval_count,
        _unpack(doc, "columns", _POSITION, positions),
        _unpack(doc, "rows", _POSITION, positions),
        _unpack(doc, "weights", _WEIGHT, (pair_count, interval_count)),
    )


def save_universe(universe: LayerUniverse, path) -> None:
    """Write one JSON object of schema `layer-universe/2`: `n`,
    `interval_count`, `pair_count`, and base64 of the row-major arrays
    `columns` and `rows` (the (M, 3n+12) positions as little-endian uint16)
    and `weights` ((M, L) little-endian float64, so weights round-trip bit
    for bit)."""
    if universe.n > MAX_SAVED_N:
        raise ValueError(
            f"'n' = {universe.n} gives {universe.col_to.shape[1]} positions per row, more "
            f"than {UNIVERSE_SCHEMA} stores as uint16 (n <= {MAX_SAVED_N})"
        )
    doc = {
        "schema": UNIVERSE_SCHEMA,
        "n": universe.n,
        "interval_count": universe.interval_count,
        "pair_count": universe.pair_count,
        "columns": _pack(universe.col_to, _POSITION),
        "rows": _pack(universe.row_to, _POSITION),
        "weights": _pack(universe.weights, _WEIGHT),
    }
    # the bytes of json.dumps(doc, sort_keys=True), less its escape scan of the
    # strings (the schema and the base64), which hold no character JSON escapes
    text = ", ".join(
        f'"{key}": "{value}"' if isinstance(value, str) else f'"{key}": {json.dumps(value)}'
        for key, value in sorted(doc.items())
    )
    Path(path).write_text("{" + text + "}")


def load_universe(path) -> LayerUniverse:
    """Read and validate a universe file (`universe_from_dict`)."""
    return universe_from_dict(json.loads(Path(path).read_text()))
