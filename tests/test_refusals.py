"""Exact refusal texts of the input rules, each stated once and called from every entry point."""

from fractions import Fraction

import numpy as np
import pytest

from isecode import (
    Family,
    ParameterError,
    SetFamily,
    SpaceParams,
    best_window_measure,
    biased_measure,
    check_correlation,
    encode,
    lift_family,
    majority_density,
    majority_family,
    max_family,
    max_window_radius,
    random_correlation_trials,
    slice_structure_report,
    window_measure,
    window_threshold_family,
)
from isecode.words import check_demand, check_symbol, check_symbol_set, check_word, parse_word

P = SpaceParams(3, 2)
OTHER = SpaceParams(3, 3)
FULL = Family.full(P)
SETS = SetFamily.from_sets(3, [{1, 2}])

CASES = {
    # alphabet rule: words name their first bad symbol in word order, symbol sets in set
    # order ([7, 5] iterates 7 first, its set 5 first)
    "check_symbol": (lambda: check_symbol(3, 0), "symbol 0 outside alphabet 1..3"),
    "check_word": (lambda: check_word(P, (5, 0)), "symbol 5 outside alphabet 1..3"),
    "encode": (lambda: encode(P, (1, 4)), "symbol 4 outside alphabet 1..3"),
    "Family.__contains__": (lambda: (0, 1) in FULL, "symbol 0 outside alphabet 1..3"),
    "Family.from_words": (
        lambda: Family.from_words(P, [(1, 1), (4, 1)]),
        "symbol 4 outside alphabet 1..3",
    ),
    "check_symbol_set": (lambda: check_symbol_set(P, [7, 5]), "symbol 5 outside alphabet 1..3"),
    "pinned_closure": (lambda: FULL.pinned_closure([7, 5]), "symbol 5 outside alphabet 1..3"),
    "pin set empty": (lambda: FULL.pinned_violation(()), "symbol set must be nonempty"),
    "pin set full": (
        lambda: FULL.is_pinned_complete([3, 1, 2]),
        "symbol set must be a proper subset of the alphabet",
    ),
    "Family.slice": (lambda: FULL.slice(4), "symbol 4 outside alphabet 1..3"),
    "Family.project": (lambda: FULL.project(0), "symbol 0 outside alphabet 1..3"),
    "lift_family": (
        lambda: lift_family(SetFamily.full(2), 4, 3),
        "symbol 4 outside alphabet 1..3",
    ),
    "check_correlation pins": (
        lambda: check_correlation(FULL, FULL, [1], [4]),
        "symbol 4 outside alphabet 1..3",
    ),
    "random_correlation_trials pins": (
        lambda: random_correlation_trials(3, 2, [0], [1], 1),
        "symbol 0 outside alphabet 1..3",
    ),
    # subset-element rule: the first bad element in iteration order
    "SetFamily.from_sets": (
        lambda: SetFamily.from_sets(3, [{1}, [4, 0]]),
        "element 4 outside ground set 1..3",
    ),
    "SetFamily.from_sets zero": (
        lambda: SetFamily.from_sets(3, [[0, 4]]),
        "element 0 outside ground set 1..3",
    ),
    "SetFamily.__contains__": (lambda: {0} in SETS, "element 0 outside ground set 1..3"),
    "SetFamily.__contains__ above n": (lambda: [4, 0] in SETS, "element 4 outside ground set 1..3"),
    # window-argument rule, checked before the bias
    "window_measure t": (
        lambda: window_measure(-1, 0, Fraction(1, 2)),
        "threshold and radius must be non-negative",
    ),
    "window_measure r": (
        lambda: window_measure(1, -1, 2),
        "threshold and radius must be non-negative",
    ),
    "window_threshold_family": (
        lambda: window_threshold_family(3, 1, -1),
        "threshold and radius must be non-negative",
    ),
    # bias rule
    "biased_measure": (lambda: biased_measure(SETS, 2), "bias must lie in [0, 1], got 2"),
    "biased_measure negative": (
        lambda: biased_measure(SETS, Fraction(-1, 2)),
        "bias must lie in [0, 1], got -1/2",
    ),
    "window_measure bias": (
        lambda: window_measure(1, 0, "3/2"),
        "bias must lie in [0, 1], got 3/2",
    ),
    # word-space rule
    "Family.__or__": (lambda: FULL | Family.full(OTHER), "families live in different word spaces"),
    "Family.__and__": (lambda: FULL & Family.full(OTHER), "families live in different word spaces"),
    "Family.__sub__": (lambda: FULL - Family.full(OTHER), "families live in different word spaces"),
    "Family.issubset": (
        lambda: FULL.issubset(Family.full(OTHER)),
        "families live in different word spaces",
    ),
    "check_correlation": (
        lambda: check_correlation(FULL, Family.full(OTHER), [1], [2]),
        "families live in different word spaces",
    ),
    "slice_structure_report": (
        lambda: slice_structure_report(FULL, Family.full(OTHER), [1], [2]),
        "families live in different word spaces",
    ),
    # integer-entry rule
    "check_word entry": (lambda: check_word(P, (1.5, 1)), "entries must be integers, got 1.5"),
    "check_demand entry": (lambda: check_demand(2, ("1", 0)), "entries must be integers, got '1'"),
    "check_symbol_set entry": (
        lambda: check_symbol_set(P, [1.0]),
        "entries must be integers, got 1.0",
    ),
    "Family.slice entry": (lambda: FULL.slice(1.5), "entries must be integers, got 1.5"),
    "majority_family position": (
        lambda: majority_family(4, 2, [[1, 2.5]], [1]),
        "entries must be integers, got 2.5",
    ),
    "majority_density threshold": (
        lambda: majority_density(4, 2, [[1, 2]], [0.5]),
        "entries must be integers, got 0.5",
    ),
    "SetFamily.__contains__ entry": (lambda: {1.0} in SETS, "entries must be integers, got 1.0"),
    "max_family demand": (lambda: max_family(4, 2, (1.9, 0)), "entries must be integers, got 1.9"),
    # window arguments: a float threshold or radius is refused, not compared or halved
    "window_measure threshold entry": (
        lambda: window_measure(1.5, 0, Fraction(1, 2)),
        "entries must be integers, got 1.5",
    ),
    "window_measure radius entry": (
        lambda: window_measure(1, 0.5, Fraction(1, 2)),
        "entries must be integers, got 0.5",
    ),
    "best_window_measure threshold entry": (
        lambda: best_window_measure(5, 2.0, Fraction(1, 3)),
        "entries must be integers, got 2.0",
    ),
    "max_window_radius threshold entry": (
        lambda: max_window_radius(5, 1.5),
        "entries must be integers, got 1.5",
    ),
    "window_threshold_family threshold entry": (
        lambda: window_threshold_family(3, 1.5, 0),
        "entries must be integers, got 1.5",
    ),
    "window_threshold_family radius entry": (
        lambda: window_threshold_family(3, 1, 0.5),
        "entries must be integers, got 0.5",
    ),
    # digit strings are ASCII: str.isdigit also passes superscripts and other scripts' digits
    "parse_word superscript": (
        lambda: parse_word(P, "1\u00b2"),
        "word '1\u00b2' is not a digit string",
    ),
    "parse_word Arabic-Indic digit": (
        lambda: parse_word(P, "1\u0663"),
        "word '1\u0663' is not a digit string",
    ),
    # timeout rule
    "max_family timeout": (
        lambda: max_family(4, 2, (1, 1), timeout_ms=-5),
        "timeout must be non-negative, got -5 ms",
    ),
}


@pytest.mark.parametrize("entry", CASES)
def test_refusal_text(entry):
    call, message = CASES[entry]
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "entry",
    [1.9, 1.0, np.float64(1), "1", "a"],
    ids=["float", "integral float", "numpy float", "digit string", "letter string"],
)
def test_integer_entries_refuse_floats_and_strings(entry):
    # refused, not truncated or parsed: (1.9, 0) is not solved as (1, 0), nor "1" read as 1
    message = f"entries must be integers, got {entry!r}"
    calls = [
        lambda: check_word(P, (entry, 1)),
        lambda: check_demand(2, (entry, 0)),
        lambda: check_symbol_set(P, [entry]),
        lambda: majority_family(4, 2, [[entry, 2]], [1]),
        lambda: majority_density(4, 2, [[1, 2]], [entry]),
        lambda: [entry] in SETS,
        lambda: max_family(4, 2, (entry, 0)),
    ]
    for call in calls:
        with pytest.raises(ParameterError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("one", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
def test_integer_entries_accept_integer_types(one):
    assert check_word(P, (one, 2)) == (1, 2) and type(check_word(P, (one, 2))[0]) is int
    assert check_demand(2, (one, 0)) == (1, 0)
    assert check_symbol_set(P, [one]) == frozenset({1})
    assert majority_family(4, 2, [[one, 2]], [one]) == majority_family(4, 2, [[1, 2]], [1])
    assert majority_density(4, 2, [[one, 2]], [one]) == majority_density(4, 2, [[1, 2]], [1])
    assert [one] not in SETS and [one, 2] in SETS
    assert max_family(4, 2, (one, 0)).max_size == max_family(4, 2, (1, 0)).max_size == 8
