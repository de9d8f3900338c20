"""Exact toolkit for intersection-constrained families of words over a finite alphabet.

Core objects: SpaceParams (the word space [s]^n), Family (a dense word
family), SetFamily (a dense family of subsets of positions).  On top of them:
explicit constructions, pinned closures, exact biased measures, size bounds,
a brute-force maximum-family search, and negative-correlation checks.
"""

from .words import DEFAULT_DENSE_CAP, ParameterError, SpaceParams, decode, encode
from .families import Family, FamilyFormatError, SetFamily, load_family, save_family
from .measures import (
    ProductBound,
    WindowSelection,
    best_window_measure,
    biased_measure,
    format_rational,
    max_window_radius,
    parse_rational,
    power_bound,
    product_allocation,
    window_measure,
    window_product_bound,
)
from .constructions import (
    BlockSpec,
    ProductConstruction,
    block_product_family,
    fixed_coordinate_family,
    lift_family,
    majority_density,
    majority_family,
    window_threshold_family,
)
from .search import (
    CompatGraph,
    SearchResult,
    SearchStats,
    build_compat_graph,
    max_family,
)
from .correlation import (
    CompletenessError,
    CorrelationCheck,
    SliceReport,
    check_correlation,
    exhaustive_correlation,
    random_complete_family,
    random_correlation_trials,
    slice_structure_report,
)

__version__ = "0.1.0"
