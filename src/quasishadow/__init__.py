"""Quasi-shadowing for partially hyperbolic skew products on the 3-torus.

Trace pseudo orbits by sequences that differ from true orbits only by
small motions along the center fibers, close near returns into periodic
center leaves, and build gridwise semiconjugacies to nearby maps.
"""

__version__ = "0.1.0"

from .applications import (
    ConjugacyMap,
    PeriodicCenterLeaf,
    build_semiconjugacy,
    find_periodic_center_leaf,
    find_periodic_center_leaf_from_leaf_return,
    grid_points,
    perturbation_size,
    verify_semiconjugacy,
)
from .errors import (
    AdmissibilityError,
    ChartError,
    ConfigError,
    ConvergenceError,
    QuasiShadowError,
    RateOrderError,
    SearchError,
    SplittingError,
)
from .orbits import (
    NearReturn,
    PseudoOrbit,
    find_near_return,
    generate_noisy,
    make_cyclic,
    measure_defect,
    true_orbit_window,
)
from .solver import (
    ContractionEstimates,
    OrbitOperators,
    ShadowResult,
    SolverConfig,
    estimate_contraction,
    shadow,
    shadow_batch,
    tau2_lipschitz,
    transversal_slide,
)
from .systems import (
    CatCircleSystem,
    HyperbolicityRates,
    SplitConfig,
    Splitting,
    cat_circle_system,
    center_flow,
    leaf_dist,
    splitting_at,
    verify_rates,
)
from .torus import ChartConfig, dist, expmap, logmap, minimal_rep, wrap

__all__ = [
    "__version__",
    "AdmissibilityError",
    "CatCircleSystem",
    "ChartConfig",
    "ChartError",
    "ConfigError",
    "ConjugacyMap",
    "ContractionEstimates",
    "ConvergenceError",
    "HyperbolicityRates",
    "NearReturn",
    "OrbitOperators",
    "PeriodicCenterLeaf",
    "PseudoOrbit",
    "QuasiShadowError",
    "RateOrderError",
    "SearchError",
    "ShadowResult",
    "SolverConfig",
    "SplitConfig",
    "Splitting",
    "SplittingError",
    "build_semiconjugacy",
    "cat_circle_system",
    "center_flow",
    "dist",
    "estimate_contraction",
    "expmap",
    "find_near_return",
    "find_periodic_center_leaf",
    "find_periodic_center_leaf_from_leaf_return",
    "generate_noisy",
    "grid_points",
    "leaf_dist",
    "logmap",
    "make_cyclic",
    "measure_defect",
    "minimal_rep",
    "perturbation_size",
    "shadow",
    "shadow_batch",
    "splitting_at",
    "tau2_lipschitz",
    "transversal_slide",
    "true_orbit_window",
    "verify_rates",
    "verify_semiconjugacy",
    "wrap",
]
