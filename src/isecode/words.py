"""Words over the alphabet {1..s}: index codec, meets, agreement profiles, pinned order.

A word is a plain tuple of n symbols from {1..s}.  Its dense index is
little-endian in positions: position 1 is the least significant base-s digit,
so slicing a family by the symbol at the last position is a contiguous block
of the index range.  Families are bool arrays in this order, one byte per
word; `reshape(-1, s, s**(j-1))` of one puts the symbol at position j on the
middle axis, so whole-space work never decodes every index.

The agreement kernel `agreement_blocks` answers the pairwise demand for the
rows of a decoded symbol matrix in row chunks of per-symbol gram products;
demand checks on families and the search's compatibility graph share it.

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
_GRAM_CHUNK_CELLS = 1 << 22  # bound on rows * m of one agreement block

Word = tuple[int, ...]


class ParameterError(ValueError):
    """Raised when an operation's preconditions are violated."""


@dataclass(frozen=True)
class SpaceParams:
    """The word space: alphabet {1..s} (s >= 2) and fixed length n >= 1.

    Construction fails when s**n exceeds the dense-storage cap; everything in
    this package materializes families as dense bool arrays over [0, s**n).
    """

    s: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.s, int) or self.s < 2:
            raise ParameterError(f"alphabet size must be an integer >= 2, got {self.s!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"word length must be an integer >= 1, got {self.n!r}")
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
    proper: bool = True,
    nonempty: bool = False,
) -> frozenset[int]:
    """Validate a subset of the alphabet."""
    syms = frozenset(int(x) for x in symbols)
    for sym in syms:
        if not 1 <= sym <= params.s:
            raise ParameterError(f"symbol {sym} outside alphabet 1..{params.s}")
    if proper and len(syms) == params.s:
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


def agreement_blocks(
    digits: np.ndarray, demand: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise demand over the rows of an (m, n) symbol matrix, one row chunk at a time.

    Yields (lo, block) with block[i, j] True when rows lo + i and j agree on
    at least demand[l] coordinates carrying symbol l + 1, for every l.  Self
    pairs are included; each block is a fresh bool array of at most
    _GRAM_CHUNK_CELLS cells, or one row when m exceeds that.
    """
    m = digits.shape[0]
    # uint8 grams are exact: agreement counts are at most n, and s**n words
    # fit in memory only for n < 256
    marks = [
        ((digits == sym).astype(np.uint8), need)
        for sym, need in enumerate(demand, start=1)
        if need
    ]
    chunk = max(1, _GRAM_CHUNK_CELLS // max(m, 1))
    for lo in range(0, m, chunk):
        block = np.ones((min(chunk, m - lo), m), dtype=bool)
        for e, need in marks:
            block &= (e[lo : lo + chunk] @ e.T) >= need
        yield lo, block


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
    syms = check_symbol_set(params, pinned, proper=True)
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
