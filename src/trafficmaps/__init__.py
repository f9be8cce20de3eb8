"""Traffic-map estimation toolkit.

Recovers a low-rank nominal traffic matrix and a sparse anomaly matrix from
aggregated link counts and partially sampled flow counts, via convex nuclear +
l1 solvers (ADMM, accelerated proximal gradient) and a correlation-aware
bilinear solver (alternating majorization-minimization), plus synthetic
scenario generation, correlation learning, and exact-recovery diagnostics.
"""

__version__ = "0.1.0"

from .model import (
    DegenerateTruthError,
    DivergenceError,
    Observations,
    RoutingMatrix,
    SamplingMask,
    SubspaceBundle,
    Topology,
    TrafficMatrices,
    apply_routing,
    project_phi,
    project_sampling,
    relative_errors,
    subspace_bundle,
)
from .synth import (
    BurstParams,
    GeoGraphParams,
    InfeasibleRoutingError,
    build_routing,
    choose_od_pairs,
    gen_bursty_anomalies,
    gen_geometric_graph,
    gen_lowrank_traffic,
    gen_mask,
    gen_sparse_anomalies,
    gen_structured_mask,
    observe,
)
from .admm import (
    AdmmConfig,
    admm_solve_p1,
    admm_solve_p2,
    admm_solve_p2_path,
    admm_solve_p6,
    soft_threshold,
    svt,
)
from .mm import FactorState, MmConfig, mm_solve, mm_step, p5_objective
from .correlation import (
    CorrelationSet,
    burst_correlations,
    condition_pd,
    corr_from_moments,
    learn_Ra_from_history,
    learn_RQ_RL,
    split_RB_RC,
)
from .diagnostics import (
    IncoherenceReport,
    SizeGuardError,
    dual_certificate,
    demonstrate_nonidentifiability,
    gammas,
    instance_bases,
    mu,
    tau,
    check_recovery_conditions,
)
