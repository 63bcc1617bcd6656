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
(M, 3n+12), whose rows permute the diagonal positions, held as read-only
uint16 (2 bytes a position, so n <= `MAX_SAVED_N`), and `weights` of shape
(M, L), whose rows are interval weight vectors.  Read-only arrays of those
dtypes, such as a loaded file's views or a build's own draws, are kept
without a copy; anything else is copied once.  Every pass over the rows,
the draw, the permutation check and the sums in `analysis`, takes at most
`BLOCK_ROWS` rows at a time, so beside the three arrays it holds scratch of
a fixed size, not one of M rows.  Label m = 1 .. 2M is
pair (m-1)//2 with sign +1 for odd m and -1 for even m.  A universe file
(`save_universe`) is one line of JSON giving the schema and the three sizes,
then the three arrays as raw little-endian bytes, so `load_universe` checks
the sizes before it reads any array, and decodes no array from text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, check_budget
from .measure import diagonal_cell_count, validate_weights
from .splines import MIN_ORDER_PARAM, check_order
from .streams import fixed_words, key_layout, sorted_keys, tied, uniform_spacings

UNIVERSE_SCHEMA = "layer-universe/3"

_POSITION = np.dtype("<u2")
_WEIGHT = np.dtype("<f8")

# the largest n whose 3n+12 positions 0 .. 3n+11 fit the uint16 positions a
# universe holds, in memory and in a `layer-universe/3` file
MAX_SAVED_N = (np.iinfo(_POSITION).max - 11) // 3

# rows that a pass over a universe's rows takes at a time: the permutations
# and the weights `build_universe` draws, the permutation check (fewer rows
# past 32 positions a row, in the draw and the check), and the outcome and
# weight sums in `analysis`, whose binned tables take `analysis.BLOCK_SHARES`
# shares at a time instead; so each pass holds scratch of a fixed size
BLOCK_ROWS = 1024


def layer_count(n: int) -> int:
    """Published count of distinct layer arrangements, one half of the label
    range: 36 * C(3n+3, 3)^2 * C(9n^2, 3n) * (3n)!  (exact integer)."""
    check_order(n)
    return (
        36
        * math.comb(3 * n + 3, 3) ** 2
        * math.comb(9 * n * n, 3 * n)
        * math.factorial(3 * n)
    )


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of x >= 1, without `str`, which refuses
    ints past 4300 digits (layer_count passes that from n = 249).  With
    g = round(b log10 2) for x's bit length b, 2^(b-1) <= x < 2^b puts
    log10 x at least 0.19 inside [g - 1, g + 1), so x has g or g + 1 digits."""
    g = round(x.bit_length() * math.log10(2))
    return g + (x >= 10**g)


def layer_count_digits(n: int) -> int:
    """The number of decimal digits of `layer_count(n)`, from its log10 as a
    sum of `math.lgamma` terms, C(9n^2, 3n) (3n)! being (9n^2)! / (9n^2 - 3n)!.
    The sum was within 0.8 eps * S of the exact log10 (S the sum of the
    terms' magnitudes, eps = 2**-52) at every n up to MAX_SAVED_N tried, so
    the exact integer is built only where the sum lies within 8 eps * S of
    a whole number (n = 8800 and 9395 of 4 .. MAX_SAVED_N)."""
    check_order(n)
    m = 9 * n * n
    terms = (
        math.log(36),
        2 * math.lgamma(3 * n + 4),
        -2 * math.lgamma(4),
        -2 * math.lgamma(3 * n + 1),
        math.lgamma(m + 1),
        -math.lgamma(m - 3 * n + 1),
    )
    log10 = math.fsum(terms) / math.log(10)
    margin = 8 * 2.0**-52 * sum(abs(t) for t in terms) / math.log(10)
    if abs(log10 - round(log10)) < margin:
        return _decimal_digits(layer_count(n))
    return math.floor(log10) + 1


def _check_n(n: int) -> None:
    check_order(n)
    if n > MAX_SAVED_N:
        raise ValueError(
            f"'n' = {n} gives {diagonal_cell_count(n)} positions per row, more than "
            f"uint16 holds (n <= {MAX_SAVED_N})"
        )


def _all_permute(rows: np.ndarray, size: int) -> bool:
    """Whether every row of the (M, size) array permutes 0 .. size-1."""
    # A row longer than one word has no single-word mask, and a float, bool
    # or object row may hold values (0.5, True, ...) that no integer shift
    # represents; both keep the sort, which accepts integral floats as well.
    if size > 64 or rows.dtype.kind not in "iu":
        return not any(
            np.any(np.sort(rows[lo : lo + BLOCK_ROWS], axis=-1) != np.arange(size))
            for lo in range(0, len(rows), BLOCK_ROWS)
        )
    if rows.size and (rows.min() < 0 or rows.max() >= size):
        return False
    full = np.uint64((1 << size) - 1)
    step = BLOCK_ROWS * 32 // max(size, 32)
    block = np.empty((size, min(len(rows), step)), dtype=np.uint64)
    masks = np.empty(block.shape[1], dtype=np.uint64)
    for lo in range(0, len(rows), step):
        bits, mask = block[:, : len(rows) - lo], masks[: len(rows) - lo]
        np.left_shift(1, rows[lo : lo + step].T, out=bits, dtype=np.uint64, casting="unsafe")
        np.bitwise_or.reduce(bits, axis=0, out=mask)
        if np.bitwise_and.reduce(mask) != full:
            return False
    return True


def _permutations(perms, size: int, name: str) -> np.ndarray:
    """Validate rows (last axis) permuting 0 .. size-1.

    Integer rows of at most 64 positions are checked in two steps.  First
    every value must lie in 0 .. size-1, checked once in the array's own
    dtype, so no cast or shift can wrap one into range.  Then a row of size
    such values is a permutation exactly when the OR of 1 << v over it sets
    all size bits of a uint64 word.  The shifts of a block of rows are
    formed in one reused uint64 block, transposed to (size, rows) so the OR
    runs down contiguous rows; it holds at most BLOCK_ROWS rows and
    BLOCK_ROWS * 32 words (256 KiB), whatever M is.  Longer rows and
    non-integer rows (float, bool, object) are sorted and compared
    BLOCK_ROWS rows at a time, so integral floats pass.  A read-only uint16
    array is returned as it is; anything else is copied to a read-only
    uint16 array, only after the check, so no cast wraps a position into
    range."""
    arr = np.asarray(perms)
    rows = arr.reshape(-1, size) if arr.shape[-1:] == (size,) else None
    if rows is None or not _all_permute(rows, size):
        raise ValueError(f"{name} must permute the {size} diagonal positions")
    if arr.dtype == _POSITION and not arr.flags.writeable:
        return arr
    out = arr.astype(_POSITION)
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
        _check_n(self.n)
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
    column.  Weights come from a symmetric Dirichlet(1) prior unless
    `tie_weights` pins them to the uniform vector 1/L.  The stream holds,
    from raw words in the layouts of `streams`:

    - as its fixed words, the sort keys of 2M rows of the S = 3n+12
      positions, row after row, each row its own `key_layout(S)[2]` words;
      rows [:M] are `col_to` and rows [M:] are `row_to`.  A row is its keys'
      index bits in the order of their random bits, so the uniform law holds
      exactly while those bits are distinct;
    - as its refinement words, for each row whose random bits tie, in row
      order, fresh rows of words until one does not tie;
    - for untied weights, L - 1 words a pair, pair after pair, whose sorted
      top 53 bits cut [0, 1) into the pair's L weights
      (`streams.uniform_spacings`).

    Rows are drawn BLOCK_ROWS at a time (fewer past 32 positions a row) and
    weights BLOCK_ROWS pairs at a time, and each row reads its own words, so
    BLOCK_ROWS changes no number.  A bit generator whose `advance` does not
    count words is refused before anything is drawn."""
    _check_n(n)
    if interval_count < 1 or pair_count < 1:
        raise ValueError("interval count and pair count must be >= 1")
    size = diagonal_cell_count(n)
    rows = 2 * pair_count
    _, bits, row_words = key_layout(size)
    fixed = fixed_words(rng, rows * row_words)
    index = (1 << bits) - 1
    perms = np.empty((rows, size), dtype=_POSITION)
    step = max(1, BLOCK_ROWS * 32 // max(size, 32))
    for start in range(0, rows, step):
        count = min(step, rows - start)
        keys = sorted_keys(fixed.bit_generator.random_raw((count, row_words)), size)
        for row in tied(keys):
            while tied(keys[row : row + 1]).size:
                keys[row] = sorted_keys(rng.bit_generator.random_raw((1, row_words)), size)[0]
        np.bitwise_and(keys, index, out=perms[start : start + count], casting="unsafe")
    perms.setflags(write=False)
    if tie_weights:
        weights = np.full((pair_count, interval_count), 1.0 / interval_count)
    else:
        weights = np.empty((pair_count, interval_count))
        for start in range(0, pair_count, BLOCK_ROWS):
            out = weights[start : start + BLOCK_ROWS]
            uniform_spacings(rng.bit_generator.random_raw((len(out), interval_count - 1)), out)
    weights.setflags(write=False)
    return LayerUniverse(n, interval_count, perms[:pair_count], perms[pair_count:], weights)


# --- serialization -------------------------------------------------------------

# the longest header line read, newline included; a file whose first line is
# longer (a `layer-universe/2` file is one line of megabytes) is refused
# before more of it is read
HEADER_CAP = 4096


def _read_header(fh) -> tuple[int, int, int]:
    """(n, interval_count, pair_count) from the header line of an open
    universe file, checked against the sizes `layers` writes."""
    line = fh.readline(HEADER_CAP)
    if not line.endswith(b"\n"):
        raise ValueError(
            f"universe header: the file does not start with a line of at most "
            f"{HEADER_CAP} bytes, so it is not {UNIVERSE_SCHEMA!r}"
        )
    try:
        doc = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"universe header is not UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("universe header must be a JSON object")
    if doc.get("schema") != UNIVERSE_SCHEMA:
        raise ValueError(
            f"unsupported universe schema {doc.get('schema')!r}; this build reads "
            f"{UNIVERSE_SCHEMA!r}"
        )
    for key, minimum in (("n", MIN_ORDER_PARAM), ("interval_count", 1), ("pair_count", 1)):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"universe field {key!r} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"universe field {key!r} must be >= {minimum}, got {value!r}")
    n, interval_count, pair_count = doc["n"], doc["interval_count"], doc["pair_count"]
    # the sizes `layers` refuses to write are refused here, before the body
    try:
        check_budget("layers", {"n": n, "L": interval_count, "layers": pair_count})
    except ConfigError as exc:
        raise ValueError(
            f"{fh.name}: universe fields 'n' = {n}, 'interval_count' = {interval_count} "
            f"and 'pair_count' = {pair_count} are past the sizes `layers` writes: {exc}"
        ) from None
    return n, interval_count, pair_count


def save_universe(universe: LayerUniverse, path) -> None:
    """Write a file of schema `layer-universe/3`: one header line,
    `json.dumps` with sorted keys of `interval_count`, `n`, `pair_count` and
    `schema`, then the raw row-major arrays and nothing after them: `columns`
    and `rows` (the (M, 3n+12) positions as little-endian uint16) and
    `weights` ((M, L) little-endian float64, so weights round-trip bit for
    bit).  The arrays are written as the universe holds them."""
    header = dict(
        interval_count=universe.interval_count, n=universe.n,
        pair_count=universe.pair_count, schema=UNIVERSE_SCHEMA,
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for arr, dtype in ((universe.col_to, _POSITION), (universe.row_to, _POSITION),
                           (universe.weights, _WEIGHT)):
            fh.write(np.ascontiguousarray(arr, dtype))


def load_universe(path) -> LayerUniverse:
    """Read and validate a `layer-universe/3` file.  The header is checked
    first, schema, sizes and the size rule of `config.JOINT_ARRAYS["layers"]`,
    and only then is the body read: exactly the bytes the header's sizes
    take, which `LayerUniverse` validates."""
    with open(path, "rb") as fh:
        n, interval_count, pair_count = _read_header(fh)
        positions = pair_count * diagonal_cell_count(n)
        span = positions * _POSITION.itemsize  # the bytes of `columns`, and of `rows`
        need = 2 * span + pair_count * interval_count * _WEIGHT.itemsize
        body = fh.read(need + 1)
    if len(body) != need:
        held = f"more than {need}" if len(body) > need else len(body)
        raise ValueError(
            f"universe body holds {held} bytes, but 'n' = {n}, 'interval_count' = "
            f"{interval_count} and 'pair_count' = {pair_count} take {need}"
        )
    columns = np.frombuffer(body, _POSITION, positions).reshape(pair_count, -1)
    rows = np.frombuffer(body, _POSITION, positions, span).reshape(pair_count, -1)
    weights = np.frombuffer(body, _WEIGHT, offset=2 * span).reshape(pair_count, -1)
    return LayerUniverse(n, interval_count, columns, rows, weights)
