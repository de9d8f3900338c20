"""Words over the alphabet {1..s}: index codec, bitset rows, agreement kernel, pinned order.

A word is a plain tuple of n symbols from {1..s}.  Its dense index is
little-endian in positions: position 1 is the least significant base-s digit,
so slicing a family by the symbol at the last position is a contiguous block
of the index range.  Families are bool arrays in this order, one byte per
word; `reshape(-1, s, s**(j-1))` of one puts the symbol at position j on the
middle axis, so whole-space work never decodes every index.  `encode` and
`decode` map one word, `encode_matrix` and `decode_matrix` many at once.

This module also owns the little-endian bitset layout: bit y of a row is
column y.  `pack_rows` packs bool rows into uint64 words, `int_rows` turns
packed rows into Python ints and `unpack_ints` turns ints back into bool
rows; the search's adjacency rows use no other route.  `Family.bits` and
the int blocks of the closure sweeps keep the same layout but pack a bool
array directly (`families._bitset`, one little-endian `packbits`).
`clear_diagonal` drops the self bits from a chunk of a square matrix's rows.

The agreement kernel `agreement_rows` answers the pairwise demand for the
rows of a decoded symbol matrix as packed uint64 bitset rows, one row chunk
at a time.  Per demanded symbol it packs the n position planes (the rows
carrying the symbol at each position) and runs a saturating "at least k"
counter of bitset ANDs and ORs over each row's positions, so a chunk costs
O(n * depth) bitset operations, depth the shorter of the hit and miss
counts, and every count is exact.  A row's answer for a symbol depends only
on its set of positions carrying the symbol, so when 2**n < m, and rows must
repeat such sets, the counter runs once per distinct set into a table of at
most min(m, 2**n) rows of ceil(m / 64) words per demanded symbol, fewer than
the m rows produced; each chunk gathers its rows from the tables.  Demand
checks on families and the search's compatibility graph share it.

The "pinned" order on words: x is below y for a set of pinned symbols when
every coordinate of x carrying a pinned symbol is unchanged in y; coordinates
carrying non-pinned symbols may be rewritten freely.  A family closed upward
under this order is called pinned-complete for that symbol set.

The input rules on words, symbols and demands are each stated once, here,
and every entry point that needs one calls it: `check_space` (s >= 2 and
n >= 1), `as_integer` (word, demand, pin and position entries are integers;
a float or a string is refused, never truncated or parsed), `check_symbol`
(a symbol lies in 1..s), `check_word`, `check_demand` (s non-negative
entries; given n, a sum of at most n) and `check_symbol_set` (a pin set
is a nonempty proper subset of the alphabet).  The rules on other objects live beside them:
`SetFamily._index` (subset elements lie in 1..n), `measures.check_window`
and the measures' bias rule, and `Family._require_same` (one word space).
"""

from __future__ import annotations

import operator
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


def as_integer(value) -> int:
    """The integer-entry rule: an int, or an integer type such as a numpy integer.

    Floats, strings and other non-integers are refused, not truncated or parsed.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"entries must be integers, got {value!r}") from None


def check_symbol(s: int, symbol) -> int:
    """The alphabet rule: an integer symbol in 1..s."""
    symbol = as_integer(symbol)
    if not 1 <= symbol <= s:
        raise ParameterError(f"symbol {symbol} outside alphabet 1..{s}")
    return symbol


def check_word(params: SpaceParams, word: Sequence[int]) -> Word:
    """Validate length and symbol range; return the word as a tuple."""
    w = tuple(word)
    if len(w) != params.n:
        raise ParameterError(f"word length {len(w)} does not match n = {params.n}")
    return tuple(check_symbol(params.s, sym) for sym in w)


def check_demand(s: int, demand: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Validate an intersection demand vector: s non-negative integer entries.

    Given a word length n, the space (s, n) is checked first, without the
    dense-storage cap, and the demand must fit into n: sum(t) <= n.
    """
    if n is not None:
        check_space(s, n)
    t = tuple(map(as_integer, demand))
    if len(t) != s:
        raise ParameterError(f"demand vector needs {s} entries, got {len(t)}")
    for ti in t:
        if ti < 0:
            raise ParameterError(f"demand entries must be non-negative, got {ti}")
    if n is not None and sum(t) > n:
        raise ParameterError(f"demand sum {sum(t)} exceeds word length {n}")
    return t


def check_symbol_set(params: SpaceParams, symbols: Iterable[int]) -> frozenset[int]:
    """Validate a pin set: a nonempty proper subset of the alphabet."""
    syms = frozenset(map(as_integer, symbols))
    for sym in syms:
        check_symbol(params.s, sym)
    if len(syms) == params.s:
        raise ParameterError("symbol set must be a proper subset of the alphabet")
    if not syms:
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


def encode_matrix(params: SpaceParams, digits: np.ndarray) -> np.ndarray:
    """Int64 indices of the rows of an (m, n) symbol matrix, unchecked; inverse of decode_matrix."""
    idx = np.zeros(digits.shape[0], dtype=np.int64)
    for pos in reversed(range(params.n)):  # Horner: position 1 is the least significant digit
        idx *= params.s
        idx += digits[:, pos] - 1
    return idx


def symbol_count(params: SpaceParams, positions: Iterable[int], symbol: int) -> np.ndarray:
    """Per word index, how many of the given 1-based positions carry `symbol` (uint8, length s**n)."""
    count = np.zeros(params.size, dtype=np.uint8)
    for j in positions:
        count.reshape(-1, params.s, params.s ** (j - 1))[:, symbol - 1, :] += 1
    return count


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (k, m) bool matrix into (k, ceil(m / 64)) uint64 bitset rows.

    Column y is bit y % 8 of byte y // 8 of a row's bytes (little-endian bit
    order), so `int_rows` has bit y set for column y; the padding bits at and
    above m are zero.
    """
    k, m = bits.shape
    out = np.zeros((k, 8 * ((m + 63) // 64)), dtype=np.uint8)
    out[:, : (m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


def clear_diagonal(packed: np.ndarray, lo: int) -> None:
    """Clear bit lo + i of row i of a packed bitset chunk (`pack_rows` layout), in place.

    The chunk holds rows lo, lo + 1, ... of a square matrix, so this clears its
    diagonal.
    """
    i = np.arange(packed.shape[0])
    col = lo + i  # bit col % 8 of the row's byte col // 8
    packed.view(np.uint8)[i, col >> 3] &= ~(1 << (col & 7)).astype(np.uint8)


def int_rows(packed: np.ndarray) -> list[int]:
    """Each row of a packed bitset matrix (`pack_rows` layout) as an int: bit y is column y."""
    raw, width = packed.tobytes(), packed.shape[1] * packed.itemsize
    if not width:
        return [0] * len(packed)
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def unpack_ints(rows: Sequence[int], m: int) -> np.ndarray:
    """The (len(rows), m) bool matrix of int bitsets over m columns; inverse of `int_rows`.

    Every row must be below 2**m.
    """
    nbytes = (m + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in rows), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(rows), nbytes), axis=1, count=m, bitorder="little")
    return bits.view(bool)


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


def _meeting(planes: np.ndarray, marks: np.ndarray, need: int) -> np.ndarray:
    """Per row x of marks, the columns set in at least `need` of the planes at x's marks.

    Exact in every column below m; the padding bits above it may be set, so
    callers AND the result into zero-padded rows.
    """
    own = marks.sum(axis=1)
    misses = int(own.max()) - need + 1  # depth of the miss count
    if misses <= 0:
        return np.zeros((marks.shape[0], planes.shape[1]), dtype=np.uint64)
    if need <= misses:
        return _at_least(planes, marks, np.zeros_like(own), need)
    # a row with fewer own marks starts with the misses it cannot afford
    return ~_at_least(~planes, marks, own.max() - own, misses)


def agreement_rows(
    digits: np.ndarray, demand: Sequence[int], rows: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise demand over the rows of an (m, n) symbol matrix, as packed bitset rows.

    Yields (lo, rows) for consecutive row chunks: rows is a fresh (r, w)
    uint64 array, w = ceil(m / 64), in the layout of `pack_rows`, whose row i
    has bit y set when rows lo + i and y agree on at least demand[l]
    coordinates carrying symbol l + 1, for every l.  Given an index array
    rows, row i of a chunk answers row rows[lo + i] instead, against every
    row.  Self pairs are included, so a row whose own count of some demanded
    symbol is below its demand is empty.  One counter plane of a chunk,
    8 * r * w bytes, stays within _PLANE_BYTES, or holds one row when a row
    alone is larger.

    For symbol l with need k, let V_j be the bitset of rows carrying l at
    position j and M_x the positions of row x carrying l.  Row x counts, per
    column, the hits V_j over j in M_x and keeps the columns with at least
    k; or, when max |M_x| - k + 1 < k, it counts the misses ~V_j and keeps
    the columns with at most |M_x| - k.  Either count is an exact
    saturating counter of bitset levels, so a chunk costs
    O(n * min(k, max |M_x| - k + 1)) bitset operations per demanded symbol.

    Row x's answer for symbol l depends on x only through M_x.  When
    2**n < m, rows must repeat some M_x, so the counters run once per
    distinct M_x, in chunks of the same plane bound, into a table of at most
    min(m, 2**n) rows of w words per demanded symbol, fewer than the m rows
    yielded; each chunk gathers its rows from the tables.  The key of M_x is
    its bitmask over the positions, an exact int64 since 2**n < m.  (With
    given rows, the tables count when 2**n is below their number.)
    """
    m, n = digits.shape
    full = pack_rows(np.ones((1, m), dtype=bool))[0]
    chunk = max(1, _PLANE_BYTES // max(full.nbytes, 1))
    count = m if rows is None else len(rows)
    symbols = []  # (marks, need, planes, table, inverse) per demanded symbol
    for sym, need in enumerate(demand, start=1):
        if need:
            marks = digits == sym
            planes = pack_rows(marks.T)
            if rows is not None:
                marks = marks[rows]
            table = inverse = None
            if 2**n < count:
                key = marks @ (1 << np.arange(n))
                _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
                table = np.empty((len(first), full.shape[0]), dtype=np.uint64)
                for lo in range(0, len(first), chunk):
                    table[lo : lo + chunk] = _meeting(planes, marks[first[lo : lo + chunk]], need)
            symbols.append((marks, need, planes, table, inverse))
    for lo in range(0, count, chunk):
        out = np.tile(full, (min(chunk, count - lo), 1))
        for marks, need, planes, table, inverse in symbols:
            if table is None:
                out &= _meeting(planes, marks[lo : lo + chunk], need)
            else:
                out &= table[inverse[lo : lo + chunk]]
        yield lo, out


def parse_word(params: SpaceParams, text: str) -> Word:
    """A word from its digit-string text form, e.g. "1231" -> (1, 2, 3, 1); requires s <= 9."""
    if params.s > 9:
        raise ParameterError("digit-string form needs s <= 9; use the binary family format")
    if not (text.isascii() and text.isdigit()):  # str.isdigit also passes "²" and "٣"
        raise ParameterError(f"word {text!r} is not a digit string")
    return check_word(params, tuple(int(ch) for ch in text))
