"""Dense families of words and of subsets, with closures, slices, and projections.

A Family is an immutable flat bool array over all s**n word indices, in the
index order of `isecode.words`.  One byte per word (64 MB at the 2**26 cap)
buys array operations that never decode the s**n x n word matrix.
A SetFamily is the same over all 2**n subsets of {1..n}: subset A sits at
index sum(1 << (j - 1) for j in A), the layout of binary words with digit 1
meaning "present".  Per-position operations act on the view
`reshape(-1, s, s**(j-1))`, whose middle axis is the symbol at position j.
`bits` and the file formats keep the little-endian bitset layout.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .words import (
    ParameterError,
    SpaceParams,
    Word,
    agreement_blocks,
    check_demand,
    check_symbol_set,
    decode,
    decode_matrix,
    encode,
    parse_word,
)


class FamilyFormatError(ValueError):
    """Malformed family file; carries the offending 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _unpack(bits: int, size: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _pack(member: np.ndarray) -> bytes:
    """Little-endian bitset bytes, ceil(len / 8) of them, zero padded."""
    return np.packbits(member, bitorder="little").tobytes()


def _from_positions(positions: Iterable[int], size: int, what: str) -> np.ndarray:
    try:
        idx = np.fromiter(positions, dtype=np.int64)
    except OverflowError as exc:
        raise ParameterError(f"{what} outside [0, {size})") from exc
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        raise ParameterError(f"{what} {idx[bad][0]} outside [0, {size})")
    member = np.zeros(size, dtype=bool)
    member[idx] = True
    return member


def _copy_member(member, size: int) -> np.ndarray:
    arr = np.array(member, dtype=bool)
    if arr.shape != (size,):
        raise ParameterError(f"membership array must have shape ({size},)")
    return arr


def _free_union(view: np.ndarray, free: Sequence[int]) -> np.ndarray:
    """OR of the digit slices in `free` of a (rows, s, stride) position view."""
    # Binary ORs of the digit slices beat a reduction over the short digit axis.
    acc = view[:, free[0], :]
    for c in free[1:]:
        acc = acc | view[:, c, :]
    return acc


def _closure(member: np.ndarray, s: int, free: Sequence[int]) -> np.ndarray:
    """Closure of `member` under rewriting any digit in `free` to any digit.

    One pass over the positions suffices: the rewrites at different
    positions commute.
    """
    out = member.copy()
    stride = 1
    while stride < out.size:
        view = out.reshape(-1, s, stride)
        view |= _free_union(view, free)[:, None, :]
        stride *= s
    return out


def _first_gap(member: np.ndarray, s: int, free: Sequence[int]) -> tuple[int, int, int] | None:
    """(position, stride, lowest added index) at the first position whose rewrites add words.

    Returns None when no position adds a word, that is when `member` is closed.
    """
    pos, stride = 1, 1
    while stride < member.size:
        view = member.reshape(-1, s, stride)
        gap = _free_union(view, free)[:, None, :] > view  # reachable and not a member
        if np.count_nonzero(gap):  # cheaper than gap.any() on small arrays
            return pos, stride, int(np.argmax(gap))
        pos, stride = pos + 1, stride * s
    return None


class _Dense:
    """Read-only membership array with its cached cardinality."""

    __slots__ = ("_member", "_size")

    def _set(self, member: np.ndarray) -> None:
        member.flags.writeable = False
        self._member = member
        self._size = int(np.count_nonzero(member))

    @property
    def array(self) -> np.ndarray:
        """The read-only bool membership array, in index order."""
        return self._member

    @property
    def bits(self) -> int:
        """Membership as a little-endian int bitset: bit k is index k."""
        return int.from_bytes(_pack(self._member), "little")

    def __len__(self) -> int:
        return self._size


class Family(_Dense):
    """Immutable dense family F of words in [s]^n with cached cardinality."""

    __slots__ = ("params",)

    def __init__(self, params: SpaceParams, bits: int = 0):
        if bits < 0 or bits >> params.size:
            raise ParameterError("membership bits outside the index range")
        self.params = params
        self._set(_unpack(bits, params.size))

    @classmethod
    def _wrap(cls, params: SpaceParams, member: np.ndarray) -> "Family":
        fam = cls.__new__(cls)
        fam.params = params
        fam._set(member)
        return fam

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, params: SpaceParams) -> "Family":
        return cls._wrap(params, np.zeros(params.size, dtype=bool))

    @classmethod
    def full(cls, params: SpaceParams) -> "Family":
        return cls._wrap(params, np.ones(params.size, dtype=bool))

    @classmethod
    def from_array(cls, params: SpaceParams, member) -> "Family":
        """Family from a bool membership array of length s**n (copied)."""
        return cls._wrap(params, _copy_member(member, params.size))

    @classmethod
    def from_indices(cls, params: SpaceParams, indices: Iterable[int]) -> "Family":
        return cls._wrap(params, _from_positions(indices, params.size, "index"))

    @classmethod
    def from_words(cls, params: SpaceParams, words: Iterable[Sequence[int]]) -> "Family":
        return cls.from_indices(params, (encode(params, w) for w in words))

    # -- basic queries -----------------------------------------------------

    def contains_index(self, index: int) -> bool:
        return 0 <= index < self.params.size and bool(self._member[index])

    def __contains__(self, word: Sequence[int]) -> bool:
        return self.contains_index(encode(self.params, word))

    def indices(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._member).tolist())

    def _digits(self) -> np.ndarray:
        return decode_matrix(self.params, np.flatnonzero(self._member))

    def members(self) -> Iterator[Word]:
        return map(tuple, self._digits().tolist())

    def density(self) -> Fraction:
        """Exact |F| / s**n."""
        return Fraction(self._size, self.params.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.params == other.params and np.array_equal(self._member, other._member)

    def __hash__(self) -> int:
        return hash((self.params, _pack(self._member)))

    def __repr__(self) -> str:
        return f"Family(s={self.params.s}, n={self.params.n}, size={self._size})"

    # -- set algebra -------------------------------------------------------

    def _require_same(self, other: "Family") -> None:
        if self.params != other.params:
            raise ParameterError("families live in different word spaces")

    def __or__(self, other: "Family") -> "Family":
        self._require_same(other)
        return Family._wrap(self.params, self._member | other._member)

    def __and__(self, other: "Family") -> "Family":
        self._require_same(other)
        return Family._wrap(self.params, self._member & other._member)

    def __sub__(self, other: "Family") -> "Family":
        self._require_same(other)
        return Family._wrap(self.params, self._member & ~other._member)

    def complement(self) -> "Family":
        return Family._wrap(self.params, ~self._member)

    def issubset(self, other: "Family") -> bool:
        self._require_same(other)
        return not (self._member & ~other._member).any()

    # -- intersection demands ----------------------------------------------

    def is_t_intersecting(self, demand: Sequence[int]) -> bool:
        """True when every ordered pair of members, self pairs included, meets the demand."""
        t = check_demand(self.params.s, demand)
        if not any(t) or self._size == 0:
            return True
        digits = self._digits()
        for sym, need in enumerate(t, start=1):
            if need and int((digits == sym).sum(axis=1).min()) < need:
                return False  # some self pair already fails
        return all(block.all() for _, block in agreement_blocks(digits, t))

    # -- pinned closure ----------------------------------------------------

    def _free_digits(self, pinned: Iterable[int]) -> list[int]:
        syms = check_symbol_set(self.params, pinned, proper=True, nonempty=True)
        return [c for c in range(self.params.s) if c + 1 not in syms]

    def pinned_closure(self, pinned: Iterable[int]) -> "Family":
        """Minimal superset closed upward under the pinned order.

        Equivalently: every member may have all coordinates carrying
        non-pinned symbols rewritten arbitrarily.  The pinned set must be a
        nonempty proper subset of the alphabet.
        """
        free = self._free_digits(pinned)
        return Family._wrap(self.params, _closure(self._member, self.params.s, free))

    def pinned_violation(self, pinned: Iterable[int]) -> tuple[Word, Word, int] | None:
        """A witness (x in F, y not in F, 1-based position) that x is below y, or None.

        The position is the first one whose rewrites reach a non-member, y
        the lowest such non-member and x a member it is reached from.
        """
        free = self._free_digits(pinned)
        member, s = self._member, self.params.s
        found = _first_gap(member, s, free)
        if found is None:
            return None
        pos, stride, y_idx = found
        digit = (y_idx // stride) % s
        x_idx = next(x for x in (y_idx + (c - digit) * stride for c in free) if member[x])
        return decode(self.params, x_idx), decode(self.params, y_idx), pos

    def is_pinned_complete(self, pinned: Iterable[int]) -> bool:
        return _first_gap(self._member, self.params.s, self._free_digits(pinned)) is None

    # -- slices and projections ---------------------------------------------

    def slice(self, symbol: int) -> "Family":
        """Sub-family of words whose last position carries `symbol`, with that position dropped.

        The last position is the most significant digit, so this is a
        contiguous block of the index range.
        """
        s, n = self.params.s, self.params.n
        if n < 2:
            raise ParameterError("slicing needs word length n >= 2")
        if not 1 <= symbol <= s:
            raise ParameterError(f"symbol {symbol} outside alphabet 1..{s}")
        block = s ** (n - 1)
        return Family._wrap(
            SpaceParams(s, n - 1), self._member[(symbol - 1) * block : symbol * block]
        )

    def slices(self) -> tuple["Family", ...]:
        return tuple(self.slice(sym) for sym in range(1, self.params.s + 1))

    def project(self, symbol: int) -> "SetFamily":
        """Subsets of positions realized as {j : y_j = symbol} by some member.

        Each position axis in turn collapses from s states to two: "another
        symbol" (digit 0) and `symbol` (digit 1).
        """
        s, n = self.params.s, self.params.n
        if not 1 <= symbol <= s:
            raise ParameterError(f"symbol {symbol} outside alphabet 1..{s}")
        others = [c for c in range(s) if c != symbol - 1]
        out = self._member
        for j in range(n):
            view = out.reshape(-1, s, 1 << j)
            out = np.stack((view[:, others, :].any(axis=1), view[:, symbol - 1, :]), axis=1)
        return SetFamily._wrap(n, out.reshape(-1))


class SetFamily(_Dense):
    """Immutable dense family of subsets of {1..n}."""

    __slots__ = ("n",)

    def __init__(self, n: int, bits: int = 0):
        size = _ground_size(n)
        if bits < 0 or bits >> size:
            raise ParameterError("membership bits outside the subset range")
        self.n = n
        self._set(_unpack(bits, size))

    @classmethod
    def _wrap(cls, n: int, member: np.ndarray) -> "SetFamily":
        fam = cls.__new__(cls)
        fam.n = n
        fam._set(member)
        return fam

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls._wrap(n, np.zeros(_ground_size(n), dtype=bool))

    @classmethod
    def full(cls, n: int) -> "SetFamily":
        return cls._wrap(n, np.ones(_ground_size(n), dtype=bool))

    @classmethod
    def from_array(cls, n: int, member) -> "SetFamily":
        """Subset family from a bool membership array of length 2**n (copied)."""
        return cls._wrap(n, _copy_member(member, _ground_size(n)))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        return cls._wrap(n, _from_positions(masks, _ground_size(n), "subset mask"))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        masks = []
        for elems in sets:
            mask = 0
            for j in elems:
                if not 1 <= j <= n:
                    raise ParameterError(f"element {j} outside ground set 1..{n}")
                mask |= 1 << (j - 1)
            masks.append(mask)
        return cls.from_masks(n, masks)

    def contains_mask(self, mask: int) -> bool:
        return 0 <= mask < self._member.size and bool(self._member[mask])

    def __contains__(self, elems: Iterable[int]) -> bool:
        return self.contains_mask(sum(1 << (int(j) - 1) for j in set(elems)))

    def masks(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._member).tolist())

    def sets(self) -> Iterator[frozenset[int]]:
        present = (np.flatnonzero(self._member)[:, None] >> np.arange(self.n)) & 1
        elems = np.arange(1, self.n + 1)
        for row in present.astype(bool):
            yield frozenset(elems[row].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._member, other._member)

    def __hash__(self) -> int:
        return hash((self.n, _pack(self._member)))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, size={self._size})"

    def is_upward_closed(self) -> bool:
        return _first_gap(self._member, 2, [0]) is None

    def up_closure(self) -> "SetFamily":
        return SetFamily._wrap(self.n, _closure(self._member, 2, [0]))


def _ground_size(n: int) -> int:
    """2**n, the number of subsets of {1..n}, after checking n against the dense-storage cap."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"ground-set size must be an integer >= 1, got {n!r}")
    return SpaceParams(2, n).size  # subsets of [n] are binary words


# -- file formats ------------------------------------------------------------
#
# Text: line 1 "s n", then one word per line as a digit string (s <= 9).
# Order irrelevant, duplicates rejected.  Binary: u32le s, u32le n, then the
# raw little-endian bitset, exactly ceil(s**n / 8) bytes.

BINARY_SUFFIX = ".famb"


def save_family(family: Family, path: str) -> None:
    """Write the binary format when `path` ends in .famb, else the text format."""
    if str(path).endswith(BINARY_SUFFIX):
        _save_binary(family, path)
    else:
        _save_text(family, path)


def load_family(path: str) -> Family:
    """Read the binary format when `path` ends in .famb, else the text format."""
    return _load_binary(path) if str(path).endswith(BINARY_SUFFIX) else _load_text(path)


def _save_text(family: Family, path: str) -> None:
    params = family.params
    if params.s > 9:
        raise ParameterError("text family format needs s <= 9; use a .famb path (binary format)")
    lines = np.full((len(family), params.n + 1), ord("\n"), dtype=np.uint8)
    lines[:, : params.n] = family._digits() + ord("0")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{params.s} {params.n}\n")
        fh.write(lines.tobytes().decode("ascii"))


def _load_text(path: str) -> Family:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FamilyFormatError("missing 's n' header", line=1)
    head = lines[0].split()
    if len(head) != 2 or not all(tok.isdigit() for tok in head):
        raise FamilyFormatError(f"expected 's n' header, got {lines[0]!r}", line=1)
    try:
        params = SpaceParams(int(head[0]), int(head[1]))
    except ParameterError as exc:
        raise FamilyFormatError(str(exc), line=1) from exc
    if params.s > 9:
        raise FamilyFormatError("text family format needs s <= 9", line=1)
    member = np.zeros(params.size, dtype=bool)
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        try:
            idx = encode(params, parse_word(params, text))
        except ParameterError as exc:
            raise FamilyFormatError(str(exc), line=lineno) from exc
        if member[idx]:
            raise FamilyFormatError(f"duplicate word {text!r}", line=lineno)
        member[idx] = True
    return Family._wrap(params, member)


def _save_binary(family: Family, path: str) -> None:
    params = family.params
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", params.s, params.n))
        fh.write(_pack(family.array))


def _load_binary(path: str) -> Family:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FamilyFormatError("binary family file shorter than its 8-byte header")
    s, n = struct.unpack("<II", blob[:8])
    try:
        params = SpaceParams(s, n)
    except ParameterError as exc:
        raise FamilyFormatError(str(exc)) from exc
    nbytes = (params.size + 7) // 8
    payload = np.frombuffer(blob, dtype=np.uint8, offset=8)
    if payload.size != nbytes:
        raise FamilyFormatError(
            f"expected {nbytes} bitset bytes for s={s}, n={n}, found {payload.size}"
        )
    member = np.unpackbits(payload, bitorder="little").view(bool)
    if member[params.size :].any():
        raise FamilyFormatError("nonzero padding bits beyond s**n")
    return Family._wrap(params, member[: params.size])
