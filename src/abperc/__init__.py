"""Continuum AB percolation and AB random geometric graphs.

Samplers for coupled Poisson point processes, geometric graph construction,
connectivity thresholds, Monte Carlo critical-intensity estimation, and the
closed-form upper bounds on the critical B intensity.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    asymptotic_constant,
    delta_count,
    epsilon_of_alpha,
    mu_bound_exact_delta,
    mu_bound_optimized,
    mu_bound_relaxed,
    p_occupy,
    q_coupling,
    s_of_alpha,
    unit_ball_volume,
)
from .connectivity import (
    ThresholdSample,
    g1_min_degree_is_zero,
    lln_statistic,
    lln_sweep,
    min_degree_diagnostic,
    rho_threshold,
)
from .errors import EstimationError, ResourceLimitError
from .geomgraph import (
    Graph,
    NeighborGrid,
    build_bipartite,
    build_unigraph,
    components,
    crossing_exists,
    crossing_steps,
    is_connected_g1,
    radius_for_sqdist,
)
from .latticecoupling import (
    SiteField,
    implication_holds,
    sample_coupled_fields,
)
from .percolation import (
    CriticalEstimate,
    ProbeResult,
    crossing_probability,
    estimate_lambda_c,
    estimate_mu_c,
    wilson_interval,
)
from .pointprocess import CoupledSampler, PointPattern, Region, sample_poisson

__version__ = "0.1.0"
