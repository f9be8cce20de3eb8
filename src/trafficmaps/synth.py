"""Synthetic topologies, routing, ground-truth traffic, masks, and observations.

All generators are pure functions of their parameters and a 64-bit seed:
identical inputs reproduce bit-identical outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (
    Observations,
    RoutingMatrix,
    SamplingMask,
    Topology,
    apply_routing,
    project_sampling,
)


class InfeasibleRoutingError(RuntimeError):
    """No path exists for some requested OD pair."""


@dataclass(frozen=True)
class GeoGraphParams:
    """Random geometric graph parameters: n nodes, connection radius, seed."""

    n: int
    d_c: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if self.d_c < 0:
            raise ValueError("connection radius must be nonnegative")


@dataclass(frozen=True)
class BurstParams:
    """Multiplicative burst model: amplitude, AR(1) coefficient/noise, burst chain.

    a_{f,t} = gamma_f * b_{f,t} * c_{f,t} with c an AR(1) Gaussian process
    (c_0 = 0) and b a correlated 0/1 chain: b_t = d_t b_{t-1} + (1-d_t) e_t,
    d ~ Ber(alpha), e ~ Ber(nu), b_0 ~ Ber(nu).
    """

    gamma_f: float
    theta: float
    sigma_n: float
    alpha: float
    nu: float
    anomalous_flows: tuple[int, ...]

    def __post_init__(self):
        if not abs(self.theta) < 1:
            raise ValueError("AR coefficient must satisfy |theta| < 1")
        if not (0 <= self.alpha <= 1 and 0 <= self.nu <= 1):
            raise ValueError("alpha and nu must lie in [0, 1]")
        if self.sigma_n < 0:
            raise ValueError("innovation std must be nonnegative")
        object.__setattr__(self, "anomalous_flows", tuple(int(f) for f in self.anomalous_flows))

    def rows(self, flows: int) -> list[int]:
        """The anomalous flows as row indices of a matrix with `flows` rows."""
        for f in self.anomalous_flows:
            if not 0 <= f < flows:
                raise ValueError(f"anomalous flow {f} is outside [0, {flows})")
        return list(self.anomalous_flows)


def gen_geometric_graph(p: GeoGraphParams) -> Topology:
    """Nodes uniform in the unit square; link pair (i<->j) iff distance < d_c."""
    rng = np.random.default_rng(p.seed)
    coords = rng.random((p.n, 2))
    links: list[tuple[int, int]] = []
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if np.hypot(*(coords[i] - coords[j])) < p.d_c:
                links.append((i, j))
                links.append((j, i))
    return Topology(node_count=p.n, links=tuple(links), coords=coords)


def is_connected(topo: Topology) -> bool:
    """Weak connectivity over the undirected skeleton."""
    if topo.node_count == 0:
        return False
    adj = [set() for _ in range(topo.node_count)]
    for a, b in topo.links:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == topo.node_count


def choose_od_pairs(topo: Topology, count: int, seed: int) -> tuple[tuple[int, int], ...]:
    """`count` distinct ordered node pairs drawn uniformly without replacement."""
    n = topo.node_count
    total = n * (n - 1)
    if count > total:
        raise ValueError(f"cannot choose {count} OD pairs from {total} ordered pairs")
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=count, replace=False)
    pairs = []
    for k in picks:
        o, rem = divmod(int(k), n - 1)
        d = rem if rem < o else rem + 1
        pairs.append((o, d))
    return tuple(pairs)


def _shortest_path(out_adj: dict[int, list[int]], origin: int, dest: int) -> list[int] | None:
    """Min-hop path origin -> dest, ties broken by smallest node sequence."""
    # Distance-to-destination via BFS over reversed edges.
    rev: dict[int, list[int]] = {}
    for u, vs in out_adj.items():
        for v in vs:
            rev.setdefault(v, []).append(u)
    dist = {dest: 0}
    queue = deque([dest])
    while queue:
        u = queue.popleft()
        for w in rev.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if origin not in dist:
        return None
    # Greedy descent: always the smallest-index neighbor one hop closer.
    path = [origin]
    node = origin
    while node != dest:
        step = None
        for v in sorted(out_adj.get(node, ())):
            if dist.get(v, -1) == dist[node] - 1:
                step = v
                break
        path.append(step)
        node = step
    return path


def build_routing(
    topo: Topology,
    od_pairs,
    paths_per_od: int,
    seed: int = 0,
) -> RoutingMatrix:
    """Min-hop multipath routing matrix over up to `paths_per_od` disjoint paths.

    Per OD flow, link-disjoint min-hop paths are found greedily by removing
    the links of each found path before searching for the next, so a pair
    may get fewer (`RoutingMatrix.disjoint_paths` counts them).  Each path
    carries a random fraction of the flow (uniform draws normalized to sum to
    one).  Links that end up carrying no traffic are discarded, so the
    returned matrix may have fewer rows than the topology has links.
    """
    if paths_per_od < 1:
        raise ValueError("need at least one path per OD pair")
    od_pairs = tuple((int(o), int(d)) for o, d in od_pairs)
    rng = np.random.default_rng(seed)
    link_index = {link: i for i, link in enumerate(topo.links)}
    weights = np.zeros((topo.link_count, len(od_pairs)))
    for f, (orig, dest) in enumerate(od_pairs):
        out_adj: dict[int, list[int]] = {}
        for a, b in topo.links:
            out_adj.setdefault(a, []).append(b)
        paths: list[list[int]] = []
        for _ in range(paths_per_od):
            path = _shortest_path(out_adj, orig, dest)
            if path is None:
                break
            paths.append(path)
            for a, b in zip(path[:-1], path[1:]):
                out_adj[a].remove(b)
        if not paths:
            raise InfeasibleRoutingError(f"no path from node {orig} to node {dest}")
        draws = rng.random(len(paths))
        fractions = draws / draws.sum()
        for path, w in zip(paths, fractions):
            for a, b in zip(path[:-1], path[1:]):
                weights[link_index[(a, b)], f] += w
    used = np.flatnonzero(weights.any(axis=1))
    links = tuple(topo.links[i] for i in used)
    return RoutingMatrix(
        entries=weights[used],
        od_pairs=od_pairs,
        links=links,
        node_count=topo.node_count,
    )


def gen_lowrank_traffic(flows: int, periods: int, rank: int, seed: int) -> np.ndarray:
    """Rank-`rank` traffic L @ Q' with L ~ N(0, 1/F) and Q ~ N(0, 1/T) entries."""
    if rank > min(flows, periods):
        raise ValueError("rank cannot exceed min(flows, periods)")
    if rank == 0:
        return np.zeros((flows, periods))
    rng = np.random.default_rng(seed)
    L = rng.normal(scale=1.0 / np.sqrt(flows), size=(flows, rank))
    Q = rng.normal(scale=1.0 / np.sqrt(periods), size=(periods, rank))
    return L @ Q.T


def gen_sparse_anomalies(flows: int, periods: int, p: float, seed: int) -> np.ndarray:
    """i.i.d. entries in {-1, 0, +1} with Pr(+1) = Pr(-1) = p/2."""
    if not 0 <= p <= 1:
        raise ValueError("anomaly probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.random((flows, periods))
    out = np.zeros((flows, periods))
    out[u < p / 2] = -1.0
    out[(u >= p / 2) & (u < p)] = 1.0
    return out


def gen_bursty_anomalies(flows: int, periods: int, bp: BurstParams, seed: int) -> np.ndarray:
    """Bursty anomalies a = gamma * b * c on the designated flows, zeros elsewhere."""
    rng = np.random.default_rng(seed)
    out = np.zeros((flows, periods))
    rows = bp.rows(flows)
    if not rows:
        return out
    m = len(rows)
    innovations = rng.standard_normal((m, periods))
    d = rng.random((m, periods)) < bp.alpha
    e = rng.random((m, periods)) < bp.nu
    b_prev = rng.random(m) < bp.nu
    # AR(1) Gaussian part c, started from c_0 = 0, and the correlated
    # Bernoulli burst chain b.
    c = np.empty((m, periods))
    c_prev = np.zeros(m)
    b = np.empty((m, periods), dtype=bool)
    for t in range(periods):
        c_prev = bp.sigma_n * innovations[:, t] + bp.theta * c_prev
        c[:, t] = c_prev
        b_prev = np.where(d[:, t], b_prev, e[:, t])
        b[:, t] = b_prev
    out[rows, :] = bp.gamma_f * b * c
    return out


def gen_mask(flows: int, periods: int, pi: float, seed: int) -> SamplingMask:
    """i.i.d. Bernoulli(pi) sampling mask."""
    if not 0 <= pi <= 1:
        raise ValueError("sampling probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return SamplingMask(rng.random((flows, periods)) < pi)


def gen_structured_mask(
    flows: int,
    periods: int,
    pi_row_miss: float,
    pi_time: float,
    seed: int,
) -> SamplingMask:
    """A fraction of rows fully unobserved; the rest sampled Bernoulli(pi_time)."""
    if not (0 <= pi_row_miss <= 1 and 0 <= pi_time <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n_miss = int(round(pi_row_miss * flows))
    missing = rng.choice(flows, size=n_miss, replace=False) if n_miss else np.array([], dtype=int)
    mask = rng.random((flows, periods)) < pi_time
    mask[missing, :] = False
    return SamplingMask(mask)


def observe(
    routing,
    X0: np.ndarray,
    A0: np.ndarray,
    mask: SamplingMask,
    sigma_v: float = 0.0,
    sigma_w: float = 0.0,
    seed: int = 0,
) -> Observations:
    """Link counts Y = R(X0+A0) + V and masked flow counts Z = P(X0+A0+W)."""
    X0 = np.asarray(X0, dtype=np.float64)
    A0 = np.asarray(A0, dtype=np.float64)
    if X0.shape != A0.shape or X0.shape != mask.shape:
        raise ValueError("traffic matrices and mask dimensions differ")
    if not (0 <= sigma_v < np.inf and 0 <= sigma_w < np.inf):  # NaN fails
        raise ValueError(f"noise std must be nonnegative and finite, got {sigma_v} and {sigma_w}")
    rng = np.random.default_rng(seed)
    total = X0 + A0
    Y = apply_routing(routing, total)
    if sigma_v > 0:
        Y = Y + rng.normal(scale=sigma_v, size=Y.shape)
    Z = total.copy()
    if sigma_w > 0:
        Z = Z + rng.normal(scale=sigma_w, size=Z.shape)
    return Observations(link_counts=Y, flow_counts=project_sampling(mask, Z), mask=mask)


def gen_cyclostationary_traffic(
    flows: int,
    period: int,
    days: int,
    rank: int,
    seed: int,
    scale: float = 1.0,
    day_jitter: float = 0.2,
) -> np.ndarray:
    """Day-periodic low-rank traffic: F x (days*period), rank <= `rank` per day.

    Each day k reads L @ (Q0 + jitter * G_k)' where the spatial factors L and
    the smooth diurnal profiles Q0 are shared across days and G_k is fresh
    Gaussian noise, giving a cyclostationary process with flow-to-flow
    correlation through L.
    """
    if rank > min(flows, period):
        raise ValueError("rank cannot exceed min(flows, period)")
    rng = np.random.default_rng(seed)
    L = scale * rng.normal(size=(flows, rank)) / np.sqrt(rank)
    t = np.arange(period) / period
    Q0 = np.empty((period, rank))
    for i in range(rank):
        phase = rng.random() * 2 * np.pi
        cycles = rng.integers(1, 4)
        amp = 0.5 + rng.random()
        Q0[:, i] = amp * (1.2 + np.sin(2 * np.pi * cycles * t + phase))
    out = np.empty((flows, days * period))
    for k in range(days):
        Qk = Q0 + day_jitter * rng.normal(size=(period, rank))
        out[:, k * period : (k + 1) * period] = L @ Qk.T
    return out
