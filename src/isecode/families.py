"""Dense families of words and of subsets, with closures, slices, and projections.

A Family is an immutable flat bool array over all s**n word indices, in the
index order of `isecode.words`.  One byte per word (64 MB at the 2**26 cap)
buys array operations that never decode the s**n x n word matrix.
A SetFamily is the same object over the binary space SpaceParams(2, n):
subset A of {1..n} is the binary word with digit 1 ("present") at each j in
A, at index sum(1 << (j - 1) for j in A).  The two share one class body,
`_Dense`, which holds the space, the array, construction, equality and the
sweeps; each subclass only says what an index means.  Per-position
operations act on the view `reshape(-1, s, s**(j-1))`, whose middle axis is
the symbol at position j.  `bits` and the file formats keep the
little-endian bitset layout.

A closure of at most n members is the union of its members' cylinders (a
member's pinned digits kept, every free digit allowed), one array assignment
per member; at most n such writes touch at most n * s**n cells, the bound of
the position sweep that closes larger families.

The position sweeps of closures and completeness checks cut the array into
blocks of s**m contiguous words, m the most low positions (at most n) whose
block fits in 2**16 bits, and run positions 1..m on each block as a Python
int: at each position one shift and one AND per digit move a digit's slice
onto digit 0, where slices are compared (checks) or ORed (closures).  The
positions above m have strides of at least s**m and run on the array.  A
check packs a block only when the blocks before it passed, so a family that
fails at a low position in its first block stops there.  A family's
completeness answer is swept once per free-digit set and kept; its array is
read-only.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .words import (
    ParameterError,
    SpaceParams,
    Word,
    agreement_rows,
    as_integer,
    check_demand,
    check_symbol,
    check_symbol_set,
    decode,
    decode_matrix,
    encode,
    encode_matrix,
    pack_rows,
    parse_word,
    unpack_ints,
)


class FamilyFormatError(ValueError):
    """Malformed family file; carries the offending 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _pack(member: np.ndarray) -> bytes:
    """Little-endian bitset bytes, ceil(len / 8) of them, zero padded."""
    return np.packbits(member, bitorder="little").tobytes()


_BLOCK_WORDS = 1 << 16  # most words in one int block of the low-position sweep
_BLOCK_MASKS: dict[tuple[int, int], tuple[int, ...]] = {}


def _bitset(arr: np.ndarray) -> int:
    """The bool array as an int bitset, bit x for arr[x].

    This is the `words.pack_rows` / `int_rows` layout; one direct packbits
    is about 5 us cheaper per 3**6-word block, as much as the sweep of it.
    """
    return int.from_bytes(_pack(arr), "little")


def _block_masks(s: int, n: int) -> tuple[int, ...]:
    """masks[j] has bit x set, for x < s**m, when digit j of x (position j + 1) is 0.

    m is the most low positions, at most n, whose s**m words fit one block
    of _BLOCK_WORDS bits.  Cached per (s, n), and every n with the same m
    shares the tuple of (s, m), so no mask holds more than _BLOCK_WORDS
    bits, whatever n.  Mask j is s**j set bits repeated with period
    s**(j + 1), built by shift-and-OR doubling and cut to s**m bits.
    """
    masks = _BLOCK_MASKS.get((s, n))
    if masks is None:
        m = 0
        while m < n and s ** (m + 1) <= _BLOCK_WORDS:
            m += 1
        if (s, m) not in _BLOCK_MASKS:  # n = m has the same m
            width = s**m
            built = []
            for j in range(m):
                mask, period = (1 << s**j) - 1, s ** (j + 1)
                while period < width:
                    mask |= mask << period
                    period *= 2
                built.append(mask & (1 << width) - 1)
            _BLOCK_MASKS[s, m] = tuple(built)
        masks = _BLOCK_MASKS[s, n] = _BLOCK_MASKS[s, m]
    return masks


def _position_pass(
    arr: np.ndarray, s: int, stride: int, free: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite-reachability at the digit of stride `stride` of a contiguous array.

    Returns (view, reach): `view` is `arr.reshape(-1, s, stride)`, whose middle
    axis is that digit, and `reach` broadcasts against it, True where a
    rewrite of a free digit there reaches the cell from a member.
    """
    view = arr.reshape(-1, s, stride)
    # Binary ORs of the digit slices beat a reduction over the short digit axis.
    reach = view[:, free[0], :]
    for c in free[1:]:
        reach = reach | view[:, c, :]
    return view, reach[:, None, :]


def _sweep_block(
    x: int, s: int, masks: tuple[int, ...], free: Sequence[int], close: bool
) -> int | None:
    """Positions 1..m of the block int x under rewriting any digit in `free`.

    At position j + 1, slice c is `x >> c * s**j & masks[j]`: the words whose
    digit j is c, moved onto digit 0.  With `close`, returns x with the OR of
    the free slices ORed into every digit at each position in turn.  Without,
    returns None at the first position where a free slice differs from the
    first free slice or a pinned slice lacks part of it, and x when none does.
    """
    head = free[0]
    rest = [(c, c in free) for c in range(s) if c != head]
    for j, low in enumerate(masks):
        stride = s**j
        first = (x >> head * stride if head else x) & low  # a shift by 0 still copies x
        if close:
            for c in free[1:]:
                first |= x >> c * stride & low
            for c in range(s):
                x |= first << c * stride
            continue
        for c, is_free in rest:
            if (x >> c * stride if c else x) & (low if is_free else first) != first:
                return None
    return x


def _closure(
    member: np.ndarray, s: int, n: int, free: Sequence[int], size: int
) -> np.ndarray:
    """Closure of `member`, with `size` members, under rewriting any digit in `free`.

    A member x reaches exactly the cylinder that keeps x's non-free digits
    and allows any digit elsewhere.  With size <= n the closure is the union
    of those cylinders, one basic-index assignment each into the (s,) * n
    view; these write at most n * s**n cells, the bound of the sweep below.
    Larger families take that sweep: one pass over the positions suffices,
    because the rewrites at different positions commute.  Positions 1..m run
    on the int blocks of `_sweep_block`, the rest on the array.
    """
    if size <= n:
        out = np.zeros(member.size, dtype=bool)
        cube = out.reshape((s,) * n)
        for x in np.flatnonzero(member).tolist():
            axes = [slice(None)] * n
            for j in reversed(range(n)):  # position 1 is the last axis
                x, d = divmod(x, s)
                if d not in free:
                    axes[j] = d
            cube[tuple(axes)] = True
        return out
    masks = _block_masks(s, n)
    if masks:
        step = s ** len(masks)
        blocks = [
            _sweep_block(_bitset(member[lo : lo + step]), s, masks, free, True)
            for lo in range(0, member.size, step)
        ]
        out = unpack_ints(blocks, step).reshape(-1)
    else:
        out = member.copy()
    for j in range(len(masks), n):
        view, reach = _position_pass(out, s, s**j, free)
        view |= reach
    return out


def _is_closed(member: np.ndarray, s: int, n: int, free: Sequence[int]) -> bool:
    """True when no rewrite of a digit in `free` at any position reaches a non-member.

    Positions 1..m are checked on int blocks of s**m words (`_sweep_block`),
    each packed only when the blocks before it passed, so a family that
    fails in its first block stops there.  The positions above m, whose
    strides are at least s**m, are checked on the array itself.
    """
    masks = _block_masks(s, n)
    step = s ** len(masks)
    for lo in range(0, member.size, step) if masks else ():
        if _sweep_block(_bitset(member[lo : lo + step]), s, masks, free, False) is None:
            return False
    for j in range(len(masks), n):
        view, reach = _position_pass(member, s, s**j, free)
        if np.count_nonzero(reach > view):  # cheaper than any() on small arrays
            return False
    return True


_D = TypeVar("_D", bound="_Dense")


class _Dense:
    """Read-only membership array over a word space, with its cardinality and sweeps.

    Nothing here depends on what an index means.  Each subclass names its
    space through `_space`, which maps the first argument of every
    constructor (a SpaceParams for a Family, n for a SetFamily) to the
    SpaceParams whose words index the array.
    """

    __slots__ = ("params", "_member", "_size", "_complete_for")
    _unit = "index"  # what one array index is called in error messages

    def __init__(self, space, bits: int = 0):
        params = self._space(space)
        if bits < 0 or bits >> params.size:
            raise ParameterError(f"membership bits outside the {self._unit} range")
        self._set(params, unpack_ints([bits], params.size)[0])

    def _set(self, params: SpaceParams, member: np.ndarray) -> None:
        member.flags.writeable = False
        self.params = params
        self._member = member
        self._size = int(np.count_nonzero(member))
        self._complete_for: dict[tuple[int, ...], bool] = {}

    @classmethod
    def _wrap(cls: type[_D], params: SpaceParams, member: np.ndarray) -> _D:
        fam = cls.__new__(cls)
        fam._set(params, member)
        return fam

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls: type[_D], space) -> _D:
        params = cls._space(space)
        return cls._wrap(params, np.zeros(params.size, dtype=bool))

    @classmethod
    def full(cls: type[_D], space) -> _D:
        params = cls._space(space)
        return cls._wrap(params, np.ones(params.size, dtype=bool))

    @classmethod
    def from_array(cls: type[_D], space, member) -> _D:
        """From a bool membership array with one entry per index (copied)."""
        params = cls._space(space)
        arr = np.array(member, dtype=bool)
        if arr.shape != (params.size,):
            raise ParameterError(f"membership array must have shape ({params.size},)")
        return cls._wrap(params, arr)

    @classmethod
    def from_indices(cls: type[_D], space, indices: Iterable[int]) -> _D:
        params = cls._space(space)
        size, what = params.size, cls._unit
        try:
            idx = np.fromiter(indices, dtype=np.int64)
        except OverflowError as exc:
            raise ParameterError(f"{what} outside [0, {size})") from exc
        bad = (idx < 0) | (idx >= size)
        if bad.any():
            raise ParameterError(f"{what} {idx[bad][0]} outside [0, {size})")
        member = np.zeros(size, dtype=bool)
        member[idx] = True
        return cls._wrap(params, member)

    # -- basic queries -----------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The read-only bool membership array, in index order."""
        return self._member

    @property
    def bits(self) -> int:
        """Membership as a little-endian int bitset: bit k is index k."""
        return _bitset(self._member)

    def __len__(self) -> int:
        return self._size

    def contains_index(self, index: int) -> bool:
        return 0 <= index < self.params.size and bool(self._member[index])

    def indices(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._member).tolist())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and np.array_equal(self._member, other._member)

    def __hash__(self) -> int:
        return hash((self.params, _pack(self._member)))

    # -- sweeps ------------------------------------------------------------

    def _closed(self: _D, free: Sequence[int]) -> _D:
        """Closure under rewriting any digit in `free` to any digit."""
        s, n = self.params.s, self.params.n
        return self._wrap(self.params, _closure(self._member, s, n, free, self._size))

    def _complete(self, free: Sequence[int]) -> bool:
        """`_is_closed` of the membership array, swept once per free-digit set.

        The array is read-only, so the answer cannot go stale.
        """
        key = tuple(free)
        if key not in self._complete_for:
            self._complete_for[key] = _is_closed(self._member, self.params.s, self.params.n, key)
        return self._complete_for[key]


class Family(_Dense):
    """Immutable dense family F of words in [s]^n with cached cardinality."""

    __slots__ = ()

    @staticmethod
    def _space(params: SpaceParams) -> SpaceParams:
        return params

    @classmethod
    def from_words(cls, params: SpaceParams, words: Iterable[Sequence[int]]) -> "Family":
        return cls.from_indices(params, (encode(params, w) for w in words))

    # -- basic queries -----------------------------------------------------

    def __contains__(self, word: Sequence[int]) -> bool:
        return self.contains_index(encode(self.params, word))

    def _digits(self) -> np.ndarray:
        return decode_matrix(self.params, np.flatnonzero(self._member))

    def members(self) -> Iterator[Word]:
        return map(tuple, self._digits().tolist())

    def density(self) -> Fraction:
        """Exact |F| / s**n."""
        return Fraction(self._size, self.params.size)

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
        full = pack_rows(np.ones((1, self._size), dtype=bool))
        return all((rows == full).all() for _, rows in agreement_rows(digits, t))

    # -- pinned closure ----------------------------------------------------

    def _free_digits(self, pinned: Iterable[int]) -> list[int]:
        syms = check_symbol_set(self.params, pinned)
        return [c for c in range(self.params.s) if c + 1 not in syms]

    def pinned_closure(self, pinned: Iterable[int]) -> "Family":
        """Minimal superset closed upward under the pinned order.

        Equivalently: every member may have all coordinates carrying
        non-pinned symbols rewritten arbitrarily.  The pinned set must be a
        nonempty proper subset of the alphabet.  A family of at most n
        members is closed as the union of its members' cylinders, a larger
        one by the position sweep; both give the same family.
        """
        return self._closed(self._free_digits(pinned))

    def pinned_violation(self, pinned: Iterable[int]) -> tuple[Word, Word, int] | None:
        """A witness (x in F, y not in F, 1-based position) that x is below y, or None.

        The position is the first one whose rewrites reach a non-member, y
        the lowest such non-member and x a member it is reached from: after a
        failed completeness check, one plain pass per position over the array
        names the witness.
        """
        free = self._free_digits(pinned)
        if self._complete(free):
            return None
        s = self.params.s
        for j in range(self.params.n):
            view, reach = _position_pass(self._member, s, s**j, free)
            gap = reach > view  # reachable and not a member, in index order
            if gap.any():
                y_idx, stride = int(np.argmax(gap)), s**j
                digit = (y_idx // stride) % s
                x_idx = next(
                    x for x in (y_idx + (c - digit) * stride for c in free) if self._member[x]
                )
                return decode(self.params, x_idx), decode(self.params, y_idx), j + 1
        raise AssertionError("a family that failed the completeness check has no gap")

    def is_pinned_complete(self, pinned: Iterable[int]) -> bool:
        return self._complete(self._free_digits(pinned))

    # -- slices and projections ---------------------------------------------

    def slice(self, symbol: int) -> "Family":
        """Sub-family of words whose last position carries `symbol`, with that position dropped.

        The last position is the most significant digit, so this is a
        contiguous block of the index range.
        """
        s, n = self.params.s, self.params.n
        if n < 2:
            raise ParameterError("slicing needs word length n >= 2")
        symbol = check_symbol(s, symbol)
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
        symbol = check_symbol(s, symbol)
        others = [c for c in range(s) if c != symbol - 1]
        out = self._member
        for j in range(n):
            view = out.reshape(-1, s, 1 << j)
            out = np.stack((view[:, others, :].any(axis=1), view[:, symbol - 1, :]), axis=1)
        return SetFamily._wrap(SpaceParams(2, n), out.reshape(-1))


class SetFamily(_Dense):
    """Immutable dense family of subsets of {1..n}, the binary words of SpaceParams(2, n)."""

    __slots__ = ()
    _unit = "subset mask"

    @staticmethod
    def _space(n: int) -> SpaceParams:
        return SpaceParams(2, n)

    @property
    def n(self) -> int:
        return self.params.n

    @staticmethod
    def _index(n: int, elems: Iterable[int]) -> int:
        """The index of a subset: bit j - 1 for each element j, each an integer in 1..n."""
        mask = 0
        for j in map(as_integer, elems):
            if not 1 <= j <= n:
                raise ParameterError(f"element {j} outside ground set 1..{n}")
            mask |= 1 << (j - 1)
        return mask

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_indices(n, [cls._index(n, elems) for elems in sets])

    def __contains__(self, elems: Iterable[int]) -> bool:
        return self.contains_index(self._index(self.n, elems))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, size={self._size})"

    def is_upward_closed(self) -> bool:
        return self._complete([0])

    def up_closure(self) -> "SetFamily":
        return self._closed([0])


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
    s, n = params.s, params.n
    texts = [raw.strip() for raw in lines[1:]]  # texts[k] is line k + 2
    sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # one n-byte row per line: shorter lines are zero padded, longer cut
    chars = np.array(texts, dtype=f"S{n}").view(np.uint8).reshape(len(texts), n)
    ok = (sizes == n) & ((chars >= ord("1")) & (chars <= ord("0") + s)).all(axis=1)
    rows, idx = np.flatnonzero(ok), encode_matrix(params, chars[ok] - ord("0"))
    repeat = np.ones(rows.size, dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    first_bad = int(np.flatnonzero((sizes > 0) & ~ok).min(initial=len(texts)))
    first_repeat = int(rows[repeat].min(initial=len(texts)))
    if first_bad < first_repeat:
        try:
            parse_word(params, texts[first_bad])  # rejects the line, with the reason
        except ParameterError as exc:
            raise FamilyFormatError(str(exc), line=first_bad + 2) from exc
    if first_repeat < len(texts):
        raise FamilyFormatError(f"duplicate word {texts[first_repeat]!r}", line=first_repeat + 2)
    member = np.zeros(params.size, dtype=bool)
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
