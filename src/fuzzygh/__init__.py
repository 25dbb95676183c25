"""Computations on finite non-Archimedean fuzzy metric spaces.

Axiom verification, Hausdorff and Gromov-Hausdorff fuzzy distances with
certified two-sided bounds, admissible gluings of space pairs, nets and cover
numbers, and the constructive pigeonhole machinery for extracting GH-close
subfamilies.
"""

from .covering import NetCertificate, cover_number, find_net, metric_cover_number, uniform_cover_bound
from .errors import (
    ConstructionError,
    DomainError,
    FuzzyMetricError,
    HypothesisError,
    SizeLimitError,
)
from .ghdist import (
    DistanceMatrix,
    GHBounds,
    LowerBoundResult,
    UpperBoundResult,
    classical_gh_exact,
    gh_fuzzy_bounds,
    gh_fuzzy_lower_bound,
    gh_fuzzy_upper_bound,
)
from .gluing import (
    MatchedNets,
    UnionMetric,
    attempt_net_gluing,
    extract_matched_nets,
    floor_envelope,
    glue_constant,
    glue_via_nets,
    glue_via_relation,
    match_nets,
    mutual_eps_domination,
    persistence_delta,
    union_hausdorff,
    validate_union,
)
from .grids import GridSpec
from .hausdorff import SubsetRef, hausdorff_block, hausdorff_conditions, hausdorff_fuzzy, point_to_set
from .sequences import (
    BridgeReport,
    FloorReport,
    GroupCertificate,
    NoCauchyReport,
    PigeonholeTable,
    RatioReport,
    SequenceFamily,
    StationaryReport,
    certify_group,
    check_diameter_floor,
    check_ratio_condition,
    check_stationary_hypotheses,
    diagonal_subsequence,
    gen_no_cauchy_family,
    pigeonhole_subsequence,
    register_nets,
    standard_bridge_check,
    verify_no_cauchy,
)
from .space import (
    AxiomReport,
    FuzzySpace,
    check_axioms,
    is_isometric,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    t_diameter,
    validate_distance_matrix,
)
from .tnorm import TNorm, tn_check_axioms, tn_has_tn1, tn_leq
from .valuefn import ONE, ZERO, Standard, Stationary, Step, ValueFn

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
