"""Exact biased measures of subset families and the two maximum-size bounds.

Everything here is exact rational arithmetic (fractions.Fraction); floats are
rejected on input.  The central object is the window-threshold measure: the
p-biased weight of the family of subsets meeting a majority threshold inside
a window of length t + 2r, and the selection rule that picks, for a given p,
the radius r whose window measure is the maximum p-biased measure of any
family in which every two subsets share at least t elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .families import SetFamily
from .words import ParameterError, check_demand

Rational = Fraction


def _check_demand_formula(n: int, s: int, demand: Sequence[int]) -> tuple[int, ...]:
    # Bounds are pure formulas: validate shapes only, without the dense-storage
    # cap that applies to materialized families.
    if not isinstance(s, int) or s < 2:
        raise ParameterError(f"alphabet size must be an integer >= 2, got {s!r}")
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"word length must be an integer >= 1, got {n!r}")
    return check_demand(s, demand)


class CapacityError(ParameterError):
    """Window lengths do not fit into the word length; carries the deficit."""

    def __init__(self, message: str, deficit: int):
        super().__init__(message)
        self.deficit = deficit


def as_rational(value) -> Fraction:
    """Coerce to an exact rational; floats are refused to keep arithmetic exact."""
    if isinstance(value, float):
        raise ParameterError("pass exact rationals (Fraction, int, or 'p/q'), not floats")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a plain integer string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}; expected 'p/q'") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def biased_measure(family: SetFamily, p) -> Fraction:
    """Product measure of a subset family: each element present independently with probability p."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"bias must lie in [0, 1], got {p}")
    n = family.n
    size_counts = np.bincount(np.bitwise_count(np.flatnonzero(family.array)), minlength=n + 1)
    q = 1 - p
    return sum(
        (cnt * p**k * q ** (n - k) for k, cnt in enumerate(size_counts.tolist()) if cnt),
        start=Fraction(0),
    )


def window_measure(t: int, r: int, p) -> Fraction:
    """Biased measure of the window-threshold family: >= t + r marked inside a window of t + 2r.

    Coordinates outside the window are free, so the value does not depend on
    the ambient ground-set size.
    """
    if t < 0 or r < 0:
        raise ParameterError("threshold and radius must be non-negative")
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"bias must lie in [0, 1], got {p}")
    m = t + 2 * r
    q = 1 - p
    return sum(
        (comb(m, k) * p**k * q ** (m - k) for k in range(t + r, m + 1)),
        start=Fraction(0),
    )


def max_window_radius(n: int, t: int) -> int:
    """Largest radius r with a window t + 2r fitting inside n, i.e. floor((n - t) / 2)."""
    if n < t:
        raise ParameterError(f"ground-set size {n} smaller than threshold {t}")
    return (n - t) // 2


@dataclass(frozen=True)
class WindowSelection:
    """A chosen window radius and the resulting measure value."""

    t: int
    p: Fraction
    radius: int
    radius_cap: int
    value: Fraction


def best_window_measure(n: int, t: int, p) -> WindowSelection:
    """Maximum p-biased measure over families of pairwise >= t-sharing subsets of [n].

    For t >= 2 the radius is selected by the interval rule
    r/(t+2r-1) <= p <= (r+1)/(t+2r+1) with r below the radius cap, falling
    back to the cap when p lies beyond the last interval; at a boundary the
    smaller radius is chosen (the two window measures coincide there).
    Extensions: t = 0 gives 1 and t = 1 gives p (the single-element family).
    Only biases in (0, 1/2] are accepted.
    """
    p = as_rational(p)
    if not 0 < p <= Fraction(1, 2):
        raise ParameterError(f"bias must lie in (0, 1/2], got {p}")
    if t < 0:
        raise ParameterError("threshold must be non-negative")
    cap = max_window_radius(n, t)
    if t == 0:
        return WindowSelection(t, p, 0, cap, Fraction(1))
    if t == 1:
        return WindowSelection(t, p, 0, cap, p)
    for r in range(cap):
        if Fraction(r, t + 2 * r - 1) <= p <= Fraction(r + 1, t + 2 * r + 1):
            return WindowSelection(t, p, r, cap, window_measure(t, r, p))
    if p < Fraction(cap, t + 2 * cap - 1):
        raise ParameterError(f"no radius interval covers bias {p}")  # unreachable for p in (0, 1/2]
    return WindowSelection(t, p, cap, cap, window_measure(t, cap, p))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def min_window_length(t: int, s: int) -> int:
    """Smallest window length m so that the radius selected at bias 1/s fits: t + 2r <= m."""
    if s < 3:
        raise ParameterError("window-length rule needs alphabet size s >= 3")
    if t < 0:
        raise ParameterError("threshold must be non-negative")
    return t + 2 * max(0, ceil_div(t - s + 1, s - 2))


def power_bound(n: int, s: int, demand: Sequence[int]) -> int:
    """Upper bound s**(n - sum(t)) on the size of a demand-intersecting family.

    Asserted only when every demand entry is below s; attained by fixing
    sum(t) coordinates.
    """
    t = _check_demand_formula(n, s, demand)
    for i, ti in enumerate(t):
        if ti >= s:
            raise ParameterError(
                f"power bound not asserted when a demand entry reaches s (t[{i}] = {ti} >= {s})"
            )
    total = sum(t)
    if total > n:
        raise ParameterError(f"demand sum {total} exceeds word length {n}")
    return s ** (n - total)


@dataclass(frozen=True)
class ProductBound:
    """Exact maximum density and count from the product of per-symbol window measures."""

    density: Fraction
    count: int
    selections: tuple[WindowSelection, ...]
    windows: tuple[int, ...]


def window_product_bound(n: int, s: int, demand: Sequence[int]) -> ProductBound:
    """Product over symbols of the best window measures at bias 1/s, with its exact count.

    Requires s >= 3 and the capacity condition: the minimal window lengths of
    all demand entries must fit into n.
    """
    t = _check_demand_formula(n, s, demand)
    if s < 3:
        raise ParameterError("product bound needs alphabet size s >= 3")
    windows = tuple(min_window_length(ti, s) for ti in t)
    deficit = sum(windows) - n
    if deficit > 0:
        raise CapacityError(
            f"window lengths {windows} need {sum(windows)} positions but n = {n}"
            f" (deficit {deficit})",
            deficit,
        )
    selections = tuple(best_window_measure(n, ti, Fraction(1, s)) for ti in t)
    density = Fraction(1)
    for sel in selections:
        density *= sel.value
    count = density * s**n
    if count.denominator != 1:
        raise RuntimeError("product density times s**n must be integral")
    return ProductBound(density, int(count), selections, windows)
