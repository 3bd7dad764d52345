"""Exact convex geometry over valued fields.

Construct, decompose, intersect, and test convex sets (translates of
valuation-ring modules) over p-adic rationals and rational function
fields, with certificates for the classical combinatorial theorems.
"""

from .field import (
    Field,
    FieldElement,
    INFINITY,
    ParseError,
    is_prime,
)
from .linalg import (
    DimensionError,
    FREE,
    INTEGRAL,
    LinearSolver,
    Matrix,
    OrthoBasis,
    Vector,
    orthogonalize,
    solve,
)
from .convex import (
    BoxPresentation,
    ConvexSet,
    FULL,
    FlagForm,
    MixedModule,
    ONLY_INFINITY,
    RadonCertificate,
    TooFewPointsError,
    box_presentation,
    caratheodory_indices,
    conv_hull,
    equals,
    flag_decompose,
    intersect,
    quasi_ball,
    radon_point,
    subset,
    validate_radon,
)
from .combinatorics import (
    EmptyIntersectionError,
    Family,
    ShatterReport,
    TooLargeError,
    TverbergPartition,
    breadth_reduce,
    coordinate_hyperplanes,
    count_tverberg_partitions,
    dual_atoms,
    fractional_helly_stats,
    helly_lower_bound_witness,
    helly_point,
    hyperplane_family,
    is_shattered,
    pierce,
    selection_point,
    tverberg_partition,
    validate_tverberg,
)
from .serialize import PayloadError

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "INFINITY", "ParseError", "is_prime",
    "Vector", "Matrix", "LinearSolver", "OrthoBasis", "DimensionError",
    "orthogonalize", "solve", "FREE", "INTEGRAL",
    "MixedModule", "ConvexSet", "FlagForm", "BoxPresentation",
    "RadonCertificate", "TooFewPointsError", "FULL", "ONLY_INFINITY",
    "conv_hull", "quasi_ball", "radon_point", "validate_radon",
    "caratheodory_indices", "subset", "equals",
    "intersect", "flag_decompose", "box_presentation",
    "Family", "EmptyIntersectionError", "TooLargeError",
    "helly_point", "helly_lower_bound_witness", "coordinate_hyperplanes",
    "breadth_reduce", "TverbergPartition", "tverberg_partition",
    "validate_tverberg", "count_tverberg_partitions", "ShatterReport",
    "is_shattered", "dual_atoms", "hyperplane_family",
    "fractional_helly_stats", "pierce", "selection_point",
    "Sampler", "PayloadError", "PropertyResult", "run_suite",
    "__version__",
]


def __getattr__(name):
    # the sampler and the verify suites load on first use, so a CLI call
    # that needs neither does not pay for their imports
    from importlib import import_module
    module = {"Sampler": "randgen", "PropertyResult": "verify", "run_suite": "verify"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
