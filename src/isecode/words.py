"""Words over the alphabet {1..s}: index codec, meets, agreement profiles, pinned order.

A word is a plain tuple of n symbols from {1..s}.  Its dense index is
little-endian in positions: position 1 is the least significant base-s digit,
so slicing a family by the symbol at the last position is a contiguous block
of the index range.  Families are bool arrays in this order, one byte per
word; `reshape(-1, s, s**(j-1))` of one puts the symbol at position j on the
middle axis, so whole-space work never decodes every index.

The agreement kernel `agreement_rows` answers the pairwise demand for the
rows of a decoded symbol matrix as packed uint64 bitset rows, one row chunk
at a time.  Per demanded symbol it packs the n position planes (the rows
carrying the symbol at each position) and runs a saturating "at least k"
counter of bitset ANDs and ORs over each row's positions, so a chunk costs
O(n * depth) bitset operations, depth the shorter of the hit and miss
counts, and every count is exact.  Demand checks on families and the
search's compatibility graph share it.

The "pinned" order on words: x is below y for a set of pinned symbols when
every coordinate of x carrying a pinned symbol is unchanged in y; coordinates
carrying non-pinned symbols may be rewritten freely.  A family closed upward
under this order is called pinned-complete for that symbol set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_DENSE_CAP = 1 << 26
_PLANE_BYTES = 1 << 18  # bound on the bytes of one counter plane of `agreement_rows`

Word = tuple[int, ...]


class ParameterError(ValueError):
    """Raised when an operation's preconditions are violated."""


def check_space(s: int, n: int) -> None:
    """Validate an alphabet size s >= 2 and a word length n >= 1, without the dense-storage cap."""
    if not isinstance(s, int) or s < 2:
        raise ParameterError(f"alphabet size must be an integer >= 2, got {s!r}")
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"word length must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class SpaceParams:
    """The word space: alphabet {1..s} (s >= 2) and fixed length n >= 1.

    Construction fails when s**n exceeds the dense-storage cap; everything in
    this package materializes families as dense bool arrays over [0, s**n).
    """

    s: int
    n: int

    def __post_init__(self) -> None:
        check_space(self.s, self.n)
        if self.s**self.n > DEFAULT_DENSE_CAP:
            raise ParameterError(
                f"s**n = {self.s}**{self.n} exceeds the dense-storage cap {DEFAULT_DENSE_CAP}"
            )

    @property
    def size(self) -> int:
        """Number of words, s**n."""
        return self.s**self.n


def check_word(params: SpaceParams, word: Sequence[int]) -> Word:
    """Validate length and symbol range; return the word as a tuple."""
    w = tuple(int(x) for x in word)
    if len(w) != params.n:
        raise ParameterError(f"word length {len(w)} does not match n = {params.n}")
    for sym in w:
        if not 1 <= sym <= params.s:
            raise ParameterError(f"symbol {sym} outside alphabet 1..{params.s}")
    return w


def check_demand(s: int, demand: Sequence[int]) -> tuple[int, ...]:
    """Validate an intersection demand vector: s non-negative integer entries."""
    t = tuple(int(x) for x in demand)
    if len(t) != s:
        raise ParameterError(f"demand vector needs {s} entries, got {len(t)}")
    for ti in t:
        if ti < 0:
            raise ParameterError(f"demand entries must be non-negative, got {ti}")
    return t


def check_symbol_set(
    params: SpaceParams,
    symbols: Iterable[int],
    *,
    nonempty: bool = False,
) -> frozenset[int]:
    """Validate a proper subset of the alphabet."""
    syms = frozenset(int(x) for x in symbols)
    for sym in syms:
        if not 1 <= sym <= params.s:
            raise ParameterError(f"symbol {sym} outside alphabet 1..{params.s}")
    if len(syms) == params.s:
        raise ParameterError("symbol set must be a proper subset of the alphabet")
    if nonempty and not syms:
        raise ParameterError("symbol set must be nonempty")
    return syms


def encode(params: SpaceParams, word: Sequence[int]) -> int:
    """Dense index of a word; position 1 is the least significant base-s digit."""
    w = check_word(params, word)
    idx = 0
    for sym in reversed(w):
        idx = idx * params.s + (sym - 1)
    return idx


def decode(params: SpaceParams, index: int) -> Word:
    """Inverse of encode."""
    if not 0 <= index < params.size:
        raise ParameterError(f"index {index} outside [0, {params.size})")
    out = []
    rem = index
    for _ in range(params.n):
        rem, digit = divmod(rem, params.s)
        out.append(digit + 1)
    return tuple(out)


def decode_matrix(params: SpaceParams, indices: np.ndarray) -> np.ndarray:
    """Decode many indices at once into an (m, n) uint8 symbol matrix."""
    rem = np.array(indices, dtype=np.int64)
    out = np.empty((rem.shape[0], params.n), dtype=np.uint8)
    for pos in range(params.n):
        out[:, pos] = rem % params.s + 1
        rem //= params.s
    return out


def symbol_count(params: SpaceParams, positions: Iterable[int], symbol: int) -> np.ndarray:
    """Per word index, how many of the given 1-based positions carry `symbol` (uint8, length s**n)."""
    count = np.zeros(params.size, dtype=np.uint8)
    for j in positions:
        count.reshape(-1, params.s, params.s ** (j - 1))[:, symbol - 1, :] += 1
    return count


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (k, m) bool matrix into (k, ceil(m / 64)) uint64 bitset rows.

    Column y is bit y % 8 of byte y // 8 of a row's bytes (little-endian bit
    order), so `int.from_bytes(row.tobytes(), "little")` has bit y set for
    column y; the padding bits at and above m are zero.
    """
    k, m = bits.shape
    out = np.zeros((k, 8 * ((m + 63) // 64)), dtype=np.uint8)
    out[:, : (m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


def _at_least(planes: np.ndarray, marks: np.ndarray, credit: np.ndarray, depth: int) -> np.ndarray:
    """Per row i, the columns that set at least `depth` counts: credit[i] free ones,
    plus one at each position j with marks[i, j] whose plane planes[j] has the column.

    A saturating counter of bitset levels (level c holds "at least c + 1").
    Each position with a mark first builds its hit plane, planes[j] on the
    marked rows and empty elsewhere, then costs one AND and one OR per live
    level; a masked OR (`where=`) per level measured 3x slower than a plain
    one on 256 KB planes.
    """
    rows, width = marks.shape[0], planes.shape[1]
    level = np.zeros((depth, rows, width), dtype=np.uint64)
    live = min(depth, int(credit.max()))  # levels that may hold a bit so far
    for c in range(live):
        level[c][credit > c] = ~np.uint64(0)
    on = np.where(marks, ~np.uint64(0), np.uint64(0))
    hit = np.empty((rows, width), dtype=np.uint64)
    tmp = np.empty((rows, width), dtype=np.uint64)
    for j in np.flatnonzero(marks.any(axis=0)).tolist():
        np.bitwise_and(on[:, j, None], planes[j], out=hit)
        for c in range(min(live, depth - 1), 0, -1):
            np.bitwise_and(level[c - 1], hit, out=tmp)
            np.bitwise_or(level[c], tmp, out=level[c])
        np.bitwise_or(level[0], hit, out=level[0])
        live = min(depth, live + 1)
    return level[-1]


def agreement_rows(
    digits: np.ndarray, demand: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise demand over the rows of an (m, n) symbol matrix, as packed bitset rows.

    Yields (lo, rows) for consecutive row chunks: rows is a fresh (r, w)
    uint64 array, w = ceil(m / 64), in the layout of `pack_rows`, whose row i
    has bit y set when rows lo + i and y agree on at least demand[l]
    coordinates carrying symbol l + 1, for every l.  Self pairs are included,
    so a row whose own count of some demanded symbol is below its demand is
    empty.  One counter plane of a chunk, 8 * r * w bytes, stays within
    _PLANE_BYTES, or holds one row when a row alone is larger.

    For symbol l with need k, let V_j be the bitset of rows carrying l at
    position j and M_x the positions of row x carrying l.  Row x counts, per
    column, the hits V_j over j in M_x and keeps the columns with at least
    k; or, when max |M_x| - k + 1 < k, it counts the misses ~V_j and keeps
    the columns with at most |M_x| - k.  Either count is an exact
    saturating counter of bitset levels, so a chunk costs
    O(n * min(k, max |M_x| - k + 1)) bitset operations per demanded symbol.
    """
    m = digits.shape[0]
    full = pack_rows(np.ones((1, m), dtype=bool))[0]
    chunk = max(1, _PLANE_BYTES // max(full.nbytes, 1))
    symbols = []
    for sym, need in enumerate(demand, start=1):
        if need:
            marks = digits == sym
            symbols.append((marks, marks.sum(axis=1), pack_rows(marks.T), need))
    for lo in range(0, m, chunk):
        out = np.tile(full, (min(chunk, m - lo), 1))
        for marks, counts, planes, need in symbols:
            part, own = marks[lo : lo + chunk], counts[lo : lo + chunk]
            misses = int(own.max()) - need + 1  # depth of the miss count
            if misses <= 0:
                out[:] = 0
            elif need <= misses:
                out &= _at_least(planes, part, np.zeros_like(own), need)
            else:
                # a row with fewer own marks starts with the misses it cannot afford;
                # the padding bits of out are zero, so the complement needs no mask
                credit = own.max() - own
                out &= ~_at_least(~planes, part, credit, misses)
        yield lo, out


def meet(params: SpaceParams, y: Sequence[int], z: Sequence[int]) -> Word:
    """Coordinatewise agreement vector: agreeing coordinates keep their symbol, others become 0."""
    wy = check_word(params, y)
    wz = check_word(params, z)
    return tuple(a if a == b else 0 for a, b in zip(wy, wz))


def profile(params: SpaceParams, y: Sequence[int], z: Sequence[int]) -> tuple[int, ...]:
    """Agreement profile (c_1, ..., c_s): c_l = number of coordinates where both words carry l."""
    counts = [0] * params.s
    for sym in meet(params, y, z):
        if sym:
            counts[sym - 1] += 1
    return tuple(counts)


def satisfies(
    params: SpaceParams, y: Sequence[int], z: Sequence[int], demand: Sequence[int]
) -> bool:
    """True when the pair's agreement profile dominates the demand componentwise."""
    t = check_demand(params.s, demand)
    prof = profile(params, y, z)
    return all(c >= need for c, need in zip(prof, t))


def leq_pinned(
    params: SpaceParams, x: Sequence[int], y: Sequence[int], pinned: Iterable[int]
) -> bool:
    """Pinned order: every coordinate of x carrying a pinned symbol must be unchanged in y.

    The pinned set must be a proper subset of the alphabet.  Coordinates whose
    symbol is not pinned are free, so two words that differ only on such
    coordinates are below each other in both directions.
    """
    syms = check_symbol_set(params, pinned)
    wx = check_word(params, x)
    wy = check_word(params, y)
    return all(a == b or a not in syms for a, b in zip(wx, wy))


def format_word(params: SpaceParams, word: Sequence[int]) -> str:
    """Digit-string text form, e.g. (1, 2, 3, 1) -> \"1231\"; requires s <= 9."""
    if params.s > 9:
        raise ParameterError("digit-string form needs s <= 9; use the binary family format")
    return "".join(str(sym) for sym in check_word(params, word))


def parse_word(params: SpaceParams, text: str) -> Word:
    """Inverse of format_word."""
    if params.s > 9:
        raise ParameterError("digit-string form needs s <= 9; use the binary family format")
    if not text.isdigit():
        raise ParameterError(f"word {text!r} is not a digit string")
    return check_word(params, tuple(int(ch) for ch in text))
