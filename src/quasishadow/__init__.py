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
    true_orbit_window,
)
from .solver import (
    ContractionBounds,
    OrbitOperators,
    ShadowResult,
    SolverConfig,
    shadow,
    shadow_batch,
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
)
from .torus import dist, expmap, logmap, minimal_rep, wrap
