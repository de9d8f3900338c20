"""Exact biased measures of subset families, the power and product bounds and the block allocation.

Everything here is exact rational arithmetic (fractions.Fraction); floats are
rejected on input.  The central object is the window-threshold measure: the
p-biased weight of the family of subsets meeting a majority threshold inside
a window of length t + 2r, and the selection rule that picks, for a given p,
the radius r whose window measure is the maximum p-biased measure of any
family in which every two subsets share at least t elements.  The product
bound U multiplies each symbol's best window measure, each window fitting
into n alone; it bounds every demand.  The block allocation A is the
finite-n form of the product that a family attains: the best radii whose
windows fit together into n positions.  A equals U wherever U's windows fit
together, and is at most U everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, prod
from typing import Sequence

import numpy as np

from .families import SetFamily
from .words import ParameterError, as_integer, check_demand


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


def _bias(p) -> Fraction:
    """The bias rule of the measures: an exact rational in [0, 1]."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"bias must lie in [0, 1], got {p}")
    return p


def check_window(t: int, r: int) -> tuple[int, int]:
    """The window-argument rule: a threshold t and a radius r, both non-negative integers."""
    t, r = as_integer(t), as_integer(r)
    if t < 0 or r < 0:
        raise ParameterError("threshold and radius must be non-negative")
    return t, r


def biased_measure(family: SetFamily, p) -> Fraction:
    """Product measure of a subset family: each element present independently with probability p."""
    p = _bias(p)
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
    t, r = check_window(t, r)
    p = _bias(p)
    a, b = p.numerator, p.denominator
    return Fraction(_window_count(t, r, a, b), b ** (t + 2 * r))


@lru_cache(maxsize=4096)
def _window_count(t: int, r: int, a: int, b: int) -> int:
    """window_measure(t, r, a/b) times b**(t + 2r), an integer.

    At a/b = 1/s it counts the window's words, of s**(t + 2r), that carry a
    given symbol at least t + r times.
    """
    m = t + 2 * r
    return sum(comb(m, k) * a**k * (b - a) ** (m - k) for k in range(t + r, m + 1))


def max_window_radius(n: int, t: int) -> int:
    """Largest radius r with a window t + 2r fitting inside n, i.e. floor((n - t) / 2)."""
    n, t = as_integer(n), as_integer(t)
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
    n, t = as_integer(n), as_integer(t)
    p = as_rational(p)
    if not 0 < p <= Fraction(1, 2):
        raise ParameterError(f"bias must lie in (0, 1/2], got {p}")
    if t < 0:
        raise ParameterError("threshold must be non-negative")
    return _best_window(n, t, p)


@lru_cache(maxsize=4096)
def _best_window(n: int, t: int, p: Fraction) -> WindowSelection:
    """`best_window_measure` of a validated bias and threshold, cached per (n, t, p)."""
    cap = max_window_radius(n, t)
    if t == 0:
        return WindowSelection(t, p, 0, cap, Fraction(1))
    if t == 1:
        return WindowSelection(t, p, 0, cap, p)
    for r in range(cap):
        if Fraction(r, t + 2 * r - 1) <= p <= Fraction(r + 1, t + 2 * r + 1):
            return WindowSelection(t, p, r, cap, window_measure(t, r, p))
    return WindowSelection(t, p, cap, cap, window_measure(t, cap, p))


def power_bound(n: int, s: int, demand: Sequence[int]) -> int:
    """Upper bound s**(n - sum(t)) on the size of a demand-intersecting family.

    Asserted only when every demand entry is below s; attained by fixing
    sum(t) coordinates.
    """
    t = check_demand(s, demand, n)
    for i, ti in enumerate(t):
        if ti >= s:
            raise ParameterError(
                f"power bound not asserted when a demand entry reaches s (t[{i}] = {ti} >= {s})"
            )
    return s ** (n - sum(t))


@dataclass(frozen=True)
class ProductBound:
    """A product of per-symbol window measures at bias 1/s, with its count floor(density * s**n).

    `selections` holds each symbol's window and measure, `windows` their lengths t_i + 2*r_i.
    """

    density: Fraction
    count: int
    selections: tuple[WindowSelection, ...]
    windows: tuple[int, ...]


def window_product_bound(n: int, s: int, demand: Sequence[int]) -> ProductBound:
    """U, the product bound: no family meeting the demand has more than U.count words.

    Let F meet the demand t and let F_i be its pinned closure for {i}.  F_i
    contains F, is complete for {i}, and every two of its members still carry
    symbol i together at t_i or more positions.  A family complete for {i} is
    complete for every pin set containing i, so F_1 & ... & F_(i-1) is
    complete for {1, ..., i-1}, and the correlation inequality (Harris-Kleitman;
    Kleitman, J. Combin. Theory 1, 1966) applies one symbol at a time: the density of
    F is at most the product of the densities of the F_i.  Projected onto
    symbol i, F_i is a t_i-intersecting subset family whose 1/s-biased
    measure is its density, so that density is at most
    best_window_measure(n, t_i, 1/s): by Katona's theorem (1964) at s = 2 and
    by Filmus's weighted complete intersection theorem (J. Combin. Theory A
    151, 2017) at s >= 3.  `density` is the product of these selections.
    Each window fits into n alone, but together they may not; there the
    block construction cannot realize the product, and product_allocation
    may fall below U.  Valid for every s >= 2 and every demand with
    sum(t) <= n.
    """
    t = check_demand(s, demand, n)
    selections = tuple(best_window_measure(n, ti, Fraction(1, s)) for ti in t)
    density = prod(sel.value for sel in selections)
    windows = tuple(sel.t + 2 * sel.radius for sel in selections)
    return ProductBound(density, floor(density * s**n), selections, windows)


def product_allocation(n: int, s: int, demand: Sequence[int]) -> ProductBound:
    """Best product of window measures at bias 1/s whose windows fit together into n positions.

    Maximizes the product over symbols of window_measure(t_i, r_i, 1/s) over
    radii with sum(t_i + 2*r_i) <= n, by a dynamic programme over symbols and
    used length (O(s * n**2) products of exact integers).  Ties go to the
    smallest total window length, then to the lexicographically smallest
    radii.  `windows` holds the allocated lengths t_i + 2*r_i, and each
    selection's radius_cap is the largest radius fitting into n alone, as in
    best_window_measure.  Valid for every s >= 2 and every demand with
    sum(t) <= n; it equals window_product_bound wherever the windows of that
    bound fit together into n.
    """
    t = check_demand(s, demand, n)
    # counts[i][r] of the s**L words of a window of length L = t_i + 2r meet its threshold, so
    # a prefix whose windows take `used` positions has density (product of counts) / s**used
    counts = [[_window_count(ti, r, 1, s) for r in range(max_window_radius(n, ti) + 1)] for ti in t]
    # best[used] = (product of counts, radii) of the best prefix taking exactly `used` positions
    best = {0: (1, ())}
    for ti, row in zip(t, counts):
        nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
        for used, (product, radii) in best.items():
            for r, count in enumerate(row):
                end = used + ti + 2 * r
                if end > n:
                    break
                cand = (product * count, radii + (r,))
                old = nxt.get(end)
                if old is None or cand[0] > old[0] or (cand[0] == old[0] and cand[1] < old[1]):
                    nxt[end] = cand
        best = nxt
    total = min(best, key=lambda u: (-best[u][0] * s ** (n - u), u))  # densities over s**n
    radii = best[total][1]
    p = Fraction(1, s)
    selections = tuple(
        WindowSelection(ti, p, r, len(row) - 1, Fraction(row[r], s ** (ti + 2 * r)))
        for ti, r, row in zip(t, radii, counts)
    )
    return _product(n, s, selections, tuple(ti + 2 * r for ti, r in zip(t, radii)))


def _product(
    n: int, s: int, selections: tuple[WindowSelection, ...], windows: tuple[int, ...]
) -> ProductBound:
    density = prod(sel.value for sel in selections)
    count = density * s**n
    if count.denominator != 1:
        raise RuntimeError("product density times s**n must be integral")
    return ProductBound(density, int(count), selections, windows)
