"""Shared domain types, linear operators, and error metrics.

Everything downstream (generators, solvers, diagnostics) works with the
types defined here.  All containers are immutable after construction and
safe to share across workers; the operators are pure functions on dense
float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance used by "equals zero" style invariants throughout.
ZERO_ATOL = 1e-9


class DegenerateTruthError(ValueError):
    """A ground-truth matrix required for normalization is identically zero."""

    def __init__(self, which: str):
        super().__init__(f"the true {which} matrix is all zero, so its relative error "
                         "is undefined")


class DivergenceError(RuntimeError):
    """An iterative solver produced non-finite iterates."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class SolverReport:
    """How a solve ended, for every solver.

    `residuals` holds the per-iteration norms of p1, p2 and p6 by name and
    `objectives` the MM objective trajectory; each stays empty for the other
    family.  `objective` is the final objective value, None where the solver
    has none (p2).  `restarts` counts momentum restarts: rejected MM
    extrapolations, and the gradient restarts of p1 and p6.
    """

    converged: bool
    iterations: int
    residuals: dict = field(default_factory=dict)
    objectives: list = field(default_factory=list)
    objective: float | None = None
    restarts: int = 0


def _frozen_array(a, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.setflags(write=False)
    return out


def _node_pairs(pairs, node_count: int, what: str) -> tuple[tuple[int, int], ...]:
    """Node-id pairs as ints; every id must be a finite integer in
    [0, node_count), and the first pair that is not is reported."""
    ids = np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2)
    # written so that a NaN id, which fails every comparison, fails the check
    ok = (ids == np.floor(ids)) & (ids >= 0) & (ids < node_count)
    if not ok.all():
        a, b = ids[np.flatnonzero(~ok.all(axis=1))[0]]
        raise ValueError(f"{what} ({a:g},{b:g}): node ids must be integers in [0, {node_count})")
    return tuple(map(tuple, ids.astype(int).tolist()))


@dataclass(frozen=True)
class Topology:
    """Directed graph of routers: `node_count` nodes and a fixed link order.

    `links` is an ordered tuple of directed (origin, destination) node pairs;
    its order defines the row order of any routing matrix built on top.
    `coords` optionally holds per-node 2-D positions in the unit square.
    """

    node_count: int
    links: tuple[tuple[int, int], ...]
    coords: np.ndarray | None = None

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("topology needs at least 2 nodes")
        links = _node_pairs(self.links, self.node_count, "link")
        for a, b in links:
            if a == b:
                raise ValueError(f"self-loop link ({a},{b}) not allowed")
        object.__setattr__(self, "links", links)
        if self.coords is not None:
            coords = _frozen_array(self.coords)
            if coords.shape != (self.node_count, 2):
                raise ValueError("coords must be (node_count, 2)")
            object.__setattr__(self, "coords", coords)

    @property
    def link_count(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class RoutingMatrix:
    """L-by-F matrix of per-link flow fractions obeying flow conservation.

    `links` carries the endpoint pairs of each row so the conservation
    invariant (in-fraction equals out-fraction at every node that is neither
    the origin nor the destination of the flow) can be stated and checked.
    """

    entries: np.ndarray
    od_pairs: tuple[tuple[int, int], ...]
    links: tuple[tuple[int, int], ...]
    node_count: int

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        if entries.ndim != 2:
            raise ValueError("routing entries must be a 2-d array")
        if entries.shape[0] != len(self.links):
            raise ValueError("row count must match number of links")
        if entries.shape[1] != len(self.od_pairs):
            raise ValueError("column count must match number of OD pairs")
        # written so that a NaN entry, which fails every comparison, fails the check
        if entries.size and not (entries.min() >= -ZERO_ATOL and entries.max() <= 1 + ZERO_ATOL):
            raise ValueError("routing fractions must lie in [0, 1]")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "od_pairs", _node_pairs(self.od_pairs, self.node_count, "OD pair"))
        object.__setattr__(self, "links", _node_pairs(self.links, self.node_count, "link"))
        self._check_conservation()

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def disjoint_paths(self) -> np.ndarray:
        """Per OD pair, the links out of its origin that carry a positive
        fraction of it: its path count when, as from `build_routing`, its
        paths are link-disjoint min-hop paths, each leaving on its own link."""
        tails = np.array([a for a, _ in self.links], dtype=int)
        origins = np.array([o for o, _ in self.od_pairs], dtype=int)
        return ((self.entries > 0) & (tails[:, None] == origins)).sum(axis=0)

    def _check_conservation(self, atol: float = ZERO_ATOL):
        """Node-by-flow in- and out-fractions from node-by-link incidence
        products; the first violation in flow-then-node order is reported."""
        L, N = len(self.links), self.node_count
        ends = np.array(self.links, dtype=int).reshape(L, 2)
        into, out_of = np.zeros((N, L)), np.zeros((N, L))
        into[ends[:, 1], np.arange(L)] = 1.0
        out_of[ends[:, 0], np.arange(L)] = 1.0
        flow_in, flow_out = into @ self.entries, out_of @ self.entries
        od = np.array(self.od_pairs, dtype=int).reshape(-1, 2)
        nodes = np.arange(N)[:, None]
        bad = (np.abs(flow_in - flow_out) > atol) & (nodes != od[:, 0]) & (nodes != od[:, 1])
        if bad.any():
            f, n = np.argwhere(bad.T)[0]
            raise ValueError(
                f"flow conservation violated for flow {f} at node {n}: "
                f"in={flow_in[n, f]:.3e} out={flow_out[n, f]:.3e}"
            )


@dataclass(frozen=True)
class TrafficMatrices:
    """Ground-truth or estimated (nominal, anomalous) traffic pair, both F-by-T."""

    nominal: np.ndarray
    anomalies: np.ndarray

    def __post_init__(self):
        nominal = _frozen_array(self.nominal)
        anomalies = _frozen_array(self.anomalies)
        if nominal.shape != anomalies.shape:
            raise ValueError("nominal and anomaly matrices must share dimensions")
        if not (np.isfinite(nominal).all() and np.isfinite(anomalies).all()):
            raise ValueError("traffic matrices must be finite")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "anomalies", anomalies)

    @property
    def shape(self) -> tuple[int, int]:
        return self.nominal.shape


@dataclass(frozen=True)
class SamplingMask:
    """Boolean F-by-T matrix; True marks an observed (flow, time) pair."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if mask.ndim != 2:
            raise ValueError("mask must be 2-d")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def observed_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


@dataclass(frozen=True)
class Observations:
    """Link counts Y (L-by-T) plus masked flow counts Z (F-by-T, zero off-mask)."""

    link_counts: np.ndarray
    flow_counts: np.ndarray
    mask: SamplingMask

    def __post_init__(self):
        Y = _frozen_array(self.link_counts)
        Z = _frozen_array(self.flow_counts)
        if Y.ndim != 2 or Z.ndim != 2:
            raise ValueError("observation matrices must be 2-d")
        if Z.shape != self.mask.shape:
            raise ValueError("flow counts and mask dimensions differ")
        if Y.shape[1] != Z.shape[1]:
            raise ValueError("link and flow counts must share the time horizon")
        if not (np.isfinite(Y).all() and np.isfinite(Z).all()):
            raise ValueError("link and flow counts must be finite")
        if Z.size and np.abs(Z[~self.mask.mask]).max(initial=0.0) != 0.0:
            raise ValueError("flow counts must be exactly zero outside the mask")
        object.__setattr__(self, "link_counts", Y)
        object.__setattr__(self, "flow_counts", Z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.flow_counts.shape


@dataclass(frozen=True)
class SubspaceBundle:
    """Column/row spaces of the true nominal traffic plus the anomaly support.

    U0 (F-by-r) and V0 (T-by-r) are orthonormal; `support` is a boolean
    F-by-T matrix, True where the true anomaly matrix is nonzero.
    """

    U0: np.ndarray
    V0: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        U0 = _frozen_array(self.U0)
        V0 = _frozen_array(self.V0)
        if U0.ndim != 2 or V0.ndim != 2 or U0.shape[1] != V0.shape[1]:
            raise ValueError("U0 and V0 must be 2-d with a shared rank")
        for name, M in (("U0", U0), ("V0", V0)):
            if M.shape[1]:
                gram = M.T @ M
                if np.abs(gram - np.eye(M.shape[1])).max() > 1e-10:
                    raise ValueError(f"{name} columns are not orthonormal")
        support = _frozen_array(self.support, dtype=bool)
        if support.shape != (U0.shape[0], V0.shape[0]):
            raise ValueError("support must be a boolean matrix on the flow/time grid")
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "V0", V0)
        object.__setattr__(self, "support", support)

    @property
    def rank(self) -> int:
        return self.U0.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U0.shape[0], self.V0.shape[0])


def subspace_bundle(X0: np.ndarray, A0: np.ndarray, rank_tol: float = 1e-9) -> SubspaceBundle:
    """Build a SubspaceBundle from true matrices: SVD of X0 plus supp(A0)."""
    X0 = np.asarray(X0, dtype=np.float64)
    A0 = np.asarray(A0, dtype=np.float64)
    if X0.shape != A0.shape:
        raise ValueError("X0 and A0 dimensions differ")
    U, s, Vt = np.linalg.svd(X0, full_matrices=False)
    r = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    return SubspaceBundle(U[:, :r], Vt[:r, :].T, A0 != 0)


def routing_entries(routing) -> np.ndarray:
    """Accept either a RoutingMatrix or a plain L-by-F array."""
    if isinstance(routing, RoutingMatrix):
        return routing.entries
    R = np.asarray(routing, dtype=np.float64)
    if R.ndim != 2:
        raise ValueError("routing matrix must be 2-d")
    return R


def apply_routing(routing, M: np.ndarray) -> np.ndarray:
    """Link loads R @ M induced by the flow-by-time matrix M."""
    R = routing_entries(routing)
    M = np.asarray(M, dtype=np.float64)
    if R.shape[1] != M.shape[0]:
        raise ValueError(f"routing has {R.shape[1]} flows but matrix has {M.shape[0]} rows")
    return R @ M


def project_sampling(mask: SamplingMask, M: np.ndarray) -> np.ndarray:
    """Keep observed entries of M, zero the rest."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape != mask.shape:
        raise ValueError(f"matrix shape {M.shape} does not match mask {mask.shape}")
    return np.where(mask.mask, M, 0.0)


def project_phi(bundle: SubspaceBundle, Z: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto matrices in the column or row space of X0.

    Returns P_U Z + Z P_V - P_U Z P_V with P_U = U0 U0', P_V = V0 V0'.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape != bundle.shape:
        raise ValueError(f"matrix shape {Z.shape} does not match bundle {bundle.shape}")
    U0, V0 = bundle.U0, bundle.V0
    PuZ = U0 @ (U0.T @ Z)
    ZPv = (Z @ V0) @ V0.T
    PuZPv = U0 @ ((U0.T @ Z) @ V0) @ V0.T
    return PuZ + ZPv - PuZPv


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float | None:
    """||estimate - truth||_F / ||truth||_F, or None when the truth is all zero."""
    n = np.linalg.norm(truth)
    return None if n == 0.0 else float(np.linalg.norm(estimate - truth) / n)


def relative_errors(estimate: TrafficMatrices, truth: TrafficMatrices):
    """Relative Frobenius errors (e_x, e_a, e_x + e_a) against ground truth."""
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth dimensions differ")
    e_x = relative_error(estimate.nominal, truth.nominal)
    e_a = relative_error(estimate.anomalies, truth.anomalies)
    if e_x is None or e_a is None:
        raise DegenerateTruthError("nominal" if e_x is None else "anomaly")
    return e_x, e_a, e_x + e_a
