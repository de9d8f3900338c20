"""Negative-correlation checks for pinned-complete family pairs.

For disjoint nonempty pinned sets A and B, a family complete for A and one
complete for B are negatively correlated under the uniform measure:
|F| * |G| >= s**n * |F & G|.  This module checks the inequality exactly on
given pairs, on seeded random closures, and exhaustively for n = 1, and
verifies the structural slice facts the induction on n relies on.  The random
closures are drawn from the standard-library generator `random.Random`: the
same seed always gives the same family, though the streams differ from those
of versions that drew from numpy's generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .families import Family
from .words import ParameterError, SpaceParams, Word, as_integer, check_symbol_set


class CompletenessError(ParameterError):
    """A family fails its pinned-completeness precondition; carries a witness pair."""

    def __init__(self, label: str, witness: tuple[Word, Word, int]):
        x, y, pos = witness
        super().__init__(
            f"family {label} is not pinned-complete: member {x} is below {y}"
            f" (rewritten at position {pos}) which is missing"
        )
        self.witness = witness


@dataclass(frozen=True)
class CorrelationCheck:
    """One exact instance of the product inequality |F| * |G| >= s**n * |F & G|."""

    params: SpaceParams
    pins_a: frozenset[int]
    pins_b: frozenset[int]
    size_a: int
    size_b: int
    common: int
    seed: int | None = None

    @property
    def lhs(self) -> int:
        return self.size_a * self.size_b

    @property
    def rhs(self) -> int:
        return self.params.size * self.common

    @property
    def slack(self) -> int:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= 0


def _check_pins(params: SpaceParams, pins_a, pins_b) -> tuple[frozenset[int], frozenset[int]]:
    a = check_symbol_set(params, pins_a)
    b = check_symbol_set(params, pins_b)
    if a & b:
        raise ParameterError(f"pinned sets must be disjoint, both contain {sorted(a & b)}")
    return a, b


def _verified_pair(
    fam_a: Family, fam_b: Family, pins_a, pins_b, *, min_n: int = 1
) -> tuple[SpaceParams, frozenset[int], frozenset[int]]:
    """The shared space and validated pin sets of a pair, after verifying completeness.

    Refuses, in this order: different spaces, word length below min_n, bad
    pin sets, then the first incomplete family (CompletenessError).
    """
    fam_a._require_same(fam_b)
    params = fam_a.params
    if params.n < min_n:
        raise ParameterError(f"slice facts need word length n >= {min_n}")
    a, b = _check_pins(params, pins_a, pins_b)
    for label, fam, pins in (("A", fam_a, a), ("B", fam_b, b)):
        witness = fam.pinned_violation(pins)
        if witness is not None:
            raise CompletenessError(label, witness)
    return params, a, b


def check_correlation(
    fam_a: Family, fam_b: Family, pins_a, pins_b, *, seed: int | None = None
) -> CorrelationCheck:
    """Exact correlation check; completeness of both inputs is verified, not assumed.

    `seed` is only recorded on the result, for checks of a seeded campaign.
    """
    params, a, b = _verified_pair(fam_a, fam_b, pins_a, pins_b)
    seed = None if seed is None else as_integer(seed)
    common = int(np.count_nonzero(fam_a.array & fam_b.array))
    return CorrelationCheck(params, a, b, len(fam_a), len(fam_b), common, seed)


def random_complete_family(params: SpaceParams, pins, seed: int) -> Family:
    """Seeded pinned closure of k random words, k uniform in 1..n.

    The standard-library generator draws k and then k word indices (repeats
    allowed), each as int(random() * N) for N = n and N = s**n, the one draw
    Python keeps the same across versions.  It is `random.Random(seed)` for
    seed >= 0 and `random.Random(str(seed))` for seed < 0: an int seed
    draws as its absolute value, so this keeps -seed from repeating seed's
    stream, and distinct seeds never share one.  The same seed always gives
    the same family, pinned-complete by construction; the streams differ
    from versions that drew from numpy.
    """
    seed = as_integer(seed)
    rng = random.Random(seed if seed >= 0 else str(seed))
    n, size = params.n, params.size
    member = np.zeros(size, dtype=bool)
    for _ in range(int(rng.random() * n) + 1):
        member[int(rng.random() * size)] = True  # in range by construction
    return Family._wrap(params, member).pinned_closure(pins)


def trial_pair(params: SpaceParams, pins_a, pins_b, seed: int) -> tuple[Family, Family]:
    """The campaign's pair for one trial seed: F from sub-seed 2*seed, G from 2*seed + 1."""
    return (
        random_complete_family(params, pins_a, 2 * seed),
        random_complete_family(params, pins_b, 2 * seed + 1),
    )


def random_correlation_trials(
    s: int, n: int, pins_a, pins_b, trials: int, *, seed_base: int = 0
) -> list[CorrelationCheck]:
    """Seeded campaign: trial k checks the `trial_pair` of seed seed_base + k."""
    params = SpaceParams(s, n)
    a, b = _check_pins(params, pins_a, pins_b)
    trials, seed_base = as_integer(trials), as_integer(seed_base)
    if trials < 0:
        raise ParameterError("trial count must be non-negative")
    return [
        check_correlation(*trial_pair(params, a, b, seed), a, b, seed=seed)
        for seed in range(seed_base, seed_base + trials)
    ]


def exhaustive_correlation(s: int, pins_a, pins_b) -> list[CorrelationCheck]:
    """All pairs of complete families for word length 1 (2**s candidate families per side)."""
    params = SpaceParams(s, 1)
    a, b = _check_pins(params, pins_a, pins_b)
    candidates = [Family(params, bits) for bits in range(1 << s)]
    complete_a = [fam for fam in candidates if fam.is_pinned_complete(a)]
    complete_b = [fam for fam in candidates if fam.is_pinned_complete(b)]
    return [
        check_correlation(fam_a, fam_b, a, b)
        for fam_a in complete_a
        for fam_b in complete_b
    ]


@dataclass(frozen=True)
class SliceReport:
    """Structural facts about last-position slices of a complete pair.

    sizes_a[i] is |slice of F at symbol i+1|; common_a is the shared slice size
    over non-pinned symbols.  Violations list the broken facts: equal slices
    off the pinned set for each family, and the per-symbol product
    (f_i - f) * (g_i - g) = 0 forced by disjointness.
    """

    sizes_a: tuple[int, ...]
    sizes_b: tuple[int, ...]
    common_a: int
    common_b: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def slice_structure_report(
    fam_a: Family, fam_b: Family, pins_a, pins_b
) -> SliceReport:
    """Check the slice facts on actual data; needs n >= 2 and verified completeness."""
    params, a, b = _verified_pair(fam_a, fam_b, pins_a, pins_b, min_n=2)
    # the last position is the most significant digit: slice i is row i of the (s, -1)
    # view; counting row by row beats count_nonzero(axis=1), which is not a byte count
    sizes_a, sizes_b = (
        tuple(np.count_nonzero(row) for row in fam.array.reshape(params.s, -1))
        for fam in (fam_a, fam_b)
    )
    free_a = [sizes_a[sym - 1] for sym in range(1, params.s + 1) if sym not in a]
    free_b = [sizes_b[sym - 1] for sym in range(1, params.s + 1) if sym not in b]
    violations = []
    if len(set(free_a)) != 1:
        violations.append(f"slices of A off the pinned set differ: {free_a}")
    if len(set(free_b)) != 1:
        violations.append(f"slices of B off the pinned set differ: {free_b}")
    common_a = free_a[0]
    common_b = free_b[0]
    for sym in range(1, params.s + 1):
        da = sizes_a[sym - 1] - common_a
        db = sizes_b[sym - 1] - common_b
        if da * db != 0:
            violations.append(
                f"symbol {sym}: both slice deviations nonzero ({da} and {db})"
            )
    return SliceReport(sizes_a, sizes_b, common_a, common_b, tuple(violations))
