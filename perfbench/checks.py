"""Output checks that share no code with the package under test.

Every oracle here works from raw membership bits (a family's `bits` int, in
the package's documented index order: position 1 is the least significant
base-s digit) or from files, and recomputes the expected answer with its own
numpy code.  Nothing here imports isecode.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np


def bool_of(bits: int, size: int) -> np.ndarray:
    """Membership array of length `size` from a little-endian int bitset."""
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def bits_of(member: np.ndarray) -> int:
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")


def digits(indices: np.ndarray, s: int, n: int) -> np.ndarray:
    """(m, n) matrix of symbols 1..s for the given word indices."""
    rem = np.asarray(indices, dtype=np.int64).copy()
    out = np.empty((rem.shape[0], n), dtype=np.uint8)
    for pos in range(n):
        out[:, pos] = rem % s + 1
        rem //= s
    return out


@lru_cache(maxsize=16)
def _symbol_table(s: int, n: int) -> np.ndarray:
    """table[j, c]: membership array of the words carrying symbol c + 1 at position j + 1."""
    d = digits(np.arange(s**n), s, n)
    return np.stack([np.stack([d[:, j] == c + 1 for c in range(s)]) for j in range(n)])


def min_agreement(words: np.ndarray, sym: int) -> int:
    """Fewest coordinates carrying `sym` that any ordered pair of rows shares, self pairs included."""
    marks = (words == sym).astype(np.float32)  # exact: agreement counts stay <= n
    return int((marks @ marks.T).min()) if len(words) else words.shape[1]


def pairwise_ok(words: np.ndarray, demand) -> bool:
    """Every ordered pair of rows agrees on >= demand[l] coordinates carrying l+1."""
    return all(min_agreement(words, sym) >= need for sym, need in enumerate(demand, start=1) if need)


def pinned_closure(seeds, pins, s: int, n: int) -> np.ndarray:
    """Words y with y_j = x_j wherever x_j is pinned, for some seed word x.

    This is the up-set of the seeds under the pinned order: a union of
    subcubes, one per seed.
    """
    table = _symbol_table(s, n)
    out = np.zeros(s**n, dtype=bool)
    for word in seeds:
        cube = np.ones(s**n, dtype=bool)
        for j, sym in enumerate(word):
            if sym in pins:
                cube &= table[j, sym - 1]
        out |= cube
    return out


def projection(member: np.ndarray, s: int, n: int, symbol: int) -> np.ndarray:
    """Subset family {j : y_j = symbol} over the members, as a membership array of length 2**n."""
    table = _symbol_table(s, n)
    masks = np.zeros(s**n, dtype=np.int64)
    for j in range(n):
        masks |= table[j, symbol - 1].astype(np.int64) << j
    out = np.zeros(1 << n, dtype=bool)
    out[masks[member]] = True
    return out


def symbol_count_at_least(s: int, n: int, positions, symbol: int, need: int) -> np.ndarray:
    """Words carrying `symbol` on at least `need` of the given 1-based positions."""
    table = _symbol_table(s, n)
    count = np.zeros(s**n, dtype=np.int64)
    for j in positions:
        count += table[j - 1, symbol - 1]
    return count >= need


def last_slices(member: np.ndarray, s: int) -> tuple[int, ...]:
    """Sizes of the slices by the symbol at the last (most significant) position."""
    return tuple(int(x) for x in member.reshape(s, -1).sum(axis=1))


def binomial_tail(m: int, need: int, p: Fraction) -> Fraction:
    return sum(
        (comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(need, m + 1)), start=Fraction(0)
    )


def majority_count(m: int, t: int) -> int:
    """Subsets of an m-block holding at least (m + t) / 2 marked positions."""
    return sum(comb(m, k) for k in range(-(-(m + t) // 2), m + 1))


def window_count(n: int, t: int, r: int) -> np.ndarray:
    """Subsets of [n] (as masks) with at least t + r of the first t + 2r elements."""
    masks = np.arange(1 << n, dtype=np.int64) & ((1 << (t + 2 * r)) - 1)
    pop = np.zeros(1 << n, dtype=np.int64)
    for j in range(t + 2 * r):
        pop += (masks >> j) & 1
    return pop >= t + r


def demand_vectors(s: int, n: int, t_max: int):
    return [t for t in product(range(min(t_max, n) + 1), repeat=s) if sum(t) <= n]


def read_binary(path: str) -> tuple[int, int, int]:
    """(s, n, bits) from a binary family file: u32le s, u32le n, little-endian bitset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    s, n = struct.unpack("<II", blob[:8])
    return s, n, int.from_bytes(blob[8:], "little")


def read_text_words(path: str) -> tuple[int, int, np.ndarray]:
    """(s, n, words) from a text family file: header 's n', then one digit string per line."""
    with open(path, encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    s, n = (int(tok) for tok in lines[0].split())
    words = np.array([[int(ch) for ch in line] for line in lines[1:]], dtype=np.uint8)
    return s, n, words.reshape(-1, n)
