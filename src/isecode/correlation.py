"""Negative-correlation checks for pinned-complete family pairs.

For disjoint nonempty pinned sets A and B, a family complete for A and one
complete for B are negatively correlated under the uniform measure:
|F| * |G| >= s**n * |F & G|.  This module checks the inequality exactly on
given pairs, on seeded random closures, and exhaustively for n = 1, and
verifies the structural slice facts the induction on n relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .families import Family
from .measures import as_rational
from .words import ParameterError, SpaceParams, Word, check_symbol_set

DEFAULT_TRIAL_DENSITIES = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


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
    trial_density: Fraction | None = None

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
    a = check_symbol_set(params, pins_a, nonempty=True)
    b = check_symbol_set(params, pins_b, nonempty=True)
    if a & b:
        raise ParameterError(f"pinned sets must be disjoint, both contain {sorted(a & b)}")
    return a, b


def _require_complete(fam_a: Family, fam_b: Family, a: frozenset[int], b: frozenset[int]) -> None:
    """Raise CompletenessError for the first incomplete input; a and b are validated pin sets."""
    s = fam_a.params.s
    for label, fam, pins in (("A", fam_a, a), ("B", fam_b, b)):
        witness = fam._violation([c for c in range(s) if c + 1 not in pins])
        if witness is not None:
            raise CompletenessError(label, witness)


def check_correlation(fam_a: Family, fam_b: Family, pins_a, pins_b) -> CorrelationCheck:
    """Exact correlation check; completeness of both inputs is verified, not assumed."""
    if fam_a.params != fam_b.params:
        raise ParameterError("families live in different word spaces")
    params = fam_a.params
    a, b = _check_pins(params, pins_a, pins_b)
    _require_complete(fam_a, fam_b, a, b)
    common = int(np.count_nonzero(fam_a.array & fam_b.array))
    return CorrelationCheck(params, a, b, len(fam_a), len(fam_b), common)


def random_complete_family(params: SpaceParams, pins, density, seed: int) -> Family:
    """Seeded Bernoulli sample over all word indices, then closure.

    Word index i is kept when the i-th of s**n uniform draws from
    [0, denominator) of numpy's default generator, seeded with |seed|, falls
    below the numerator, so the sample is exactly Bernoulli(density).  The
    same seed always produces the same family; the output is pinned-complete
    by construction.  Denominators above 2**63 are refused.
    """
    syms = check_symbol_set(params, pins, nonempty=True)
    rho = as_rational(density)
    if not 0 <= rho <= 1:
        raise ParameterError(f"density must lie in [0, 1], got {rho}")
    num, den = rho.numerator, rho.denominator
    if den > 1 << 63:
        raise ParameterError(f"density denominator {den} exceeds 2**63")
    sample = np.random.default_rng(abs(seed)).integers(den, size=params.size) < num
    return Family.from_array(params, sample).pinned_closure(syms)


def trial_pair(params: SpaceParams, pins_a, pins_b, density, seed: int) -> tuple[Family, Family]:
    """The campaign's pair for one trial seed: F from sub-seed 2*seed, G from 2*seed + 1."""
    return (
        random_complete_family(params, pins_a, density, 2 * seed),
        random_complete_family(params, pins_b, density, 2 * seed + 1),
    )


def random_correlation_trials(
    s: int,
    n: int,
    pins_a,
    pins_b,
    trials: int,
    *,
    seed_base: int = 0,
    densities: Sequence[Fraction] = DEFAULT_TRIAL_DENSITIES,
) -> list[CorrelationCheck]:
    """Seeded campaign: trial k uses seed_base + k, sampling F and G by
    `trial_pair` at a density cycling through `densities`."""
    params = SpaceParams(s, n)
    a, b = _check_pins(params, pins_a, pins_b)
    if trials < 0:
        raise ParameterError("trial count must be non-negative")
    checks = []
    for k in range(trials):
        seed = seed_base + k
        rho = as_rational(densities[k % len(densities)])
        fam_a, fam_b = trial_pair(params, a, b, rho, seed)
        check = check_correlation(fam_a, fam_b, a, b)
        checks.append(replace(check, seed=seed, trial_density=rho))
    return checks


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
    if fam_a.params != fam_b.params:
        raise ParameterError("families live in different word spaces")
    params = fam_a.params
    if params.n < 2:
        raise ParameterError("slice facts need word length n >= 2")
    a, b = _check_pins(params, pins_a, pins_b)
    _require_complete(fam_a, fam_b, a, b)
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
