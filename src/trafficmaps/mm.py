"""Alternating majorization-minimization solver for the Bayesian estimator.

The nominal traffic is factored as L Q' and the anomalies as B . C (Hadamard
product); each outer iteration takes one exact-step gradient update per block
in the order L -> Q -> B -> C, minimizing a locally tight quadratic surrogate
whose curvature is an upper bound on the block Hessian norm.  Every block
update is therefore non-increasing in the objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .correlation import CorrelationSet
from .model import DivergenceError, Observations, routing_entries

_BLOCKS = ("L", "Q", "B", "C")


@dataclass(frozen=True)
class FactorState:
    """Factors of the bilinear model: X = L Q', A = B . C."""

    L: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in _BLOCKS:
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.L.shape[1] != self.Q.shape[1] or self.L.shape[1] < 1:
            raise ValueError("L and Q must share a factor rank >= 1")
        if self.B.shape != self.C.shape or self.B.shape != (self.L.shape[0], self.Q.shape[0]):
            raise ValueError("B and C must be flows-by-periods")

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def nominal(self) -> np.ndarray:
        return self.L @ self.Q.T

    def anomalies(self) -> np.ndarray:
        return self.B * self.C

    def is_finite(self) -> bool:
        return all(np.isfinite(getattr(self, n)).all() for n in _BLOCKS)


@dataclass
class MmConfig:
    """Factor rank, penalty weights, stopping rule, and step-size policy."""

    rho: int = 2
    lambda_star: float = 0.1
    lambda_1: float = 0.1
    max_iters: int = 5000
    tol: float = 1e-8
    step_safety: float = 1.1
    accelerate: bool = False

    def __post_init__(self):
        if self.rho < 1:
            raise ValueError("factor rank must be at least 1")
        if self.step_safety < 1:
            raise ValueError("step_safety must be at least 1")
        if self.lambda_star < 0 or self.lambda_1 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class MmReport:
    converged: bool
    iterations: int
    objectives: list
    grad_norms: dict = field(default_factory=dict)
    restarts: int = 0
    wall_time: float = 0.0


def power_norm_sym(apply_fn, dim: int) -> float:
    """Largest eigenvalue of a symmetric PSD operator on R^dim, exactly.

    The operator is applied to the identity to form its dim-by-dim matrix (a
    rho-by-rho or F-by-F Gram matrix here), whose top eigenvalue `eigvalsh`
    returns.  The name dates from the power iteration this replaced; the
    benchmark's span table (perfbench/spans.py) looks it up by that name.
    """
    if dim == 0:
        return 0.0
    return float(np.linalg.eigvalsh(apply_fn(np.eye(dim)))[-1])


def gram_spectral_norm(routing) -> float:
    """sigma_max(R'R), exactly."""
    R = routing_entries(routing)
    return power_norm_sym(lambda v: R.T @ (R @ v), R.shape[1])


def residuals(state: FactorState, obs: Observations, routing):
    """(Phi_y, Phi_z): data residuals of the current factorization."""
    R = routing_entries(routing)
    M = state.nominal() + state.anomalies()
    if R.shape[1] != M.shape[0] or M.shape != obs.flow_counts.shape:
        raise ValueError("factor dimensions do not match the observations")
    phi_y = R @ M - obs.link_counts
    phi_z = np.where(obs.mask.mask, M - obs.flow_counts, 0.0)
    return phi_y, phi_z


def p5_objective(state: FactorState, obs: Observations, routing,
                 corr: CorrelationSet, cfg: MmConfig) -> float:
    """Data fit plus correlation-weighted quadratic factor penalties."""
    phi_y, phi_z = residuals(state, obs, routing)
    fit = 0.5 * (np.linalg.norm(phi_y) ** 2 + np.linalg.norm(phi_z) ** 2)
    reg_lr = 0.5 * cfg.lambda_star * (
        float(np.sum(state.L * corr.solve_RL(state.L)))
        + float(np.sum(state.Q * corr.solve_RQ(state.Q)))
    )
    reg_bc = 0.5 * cfg.lambda_1 * (corr.quad_RB(state.B) + corr.quad_RC(state.C))
    return float(fit + reg_lr + reg_bc)


def p4_objective(state: FactorState, obs: Observations, routing, cfg: MmConfig) -> float:
    """Plain bilinear objective: data fit plus Frobenius factor penalties."""
    phi_y, phi_z = residuals(state, obs, routing)
    fit = 0.5 * (np.linalg.norm(phi_y) ** 2 + np.linalg.norm(phi_z) ** 2)
    reg = 0.5 * cfg.lambda_star * (
        np.linalg.norm(state.L) ** 2 + np.linalg.norm(state.Q) ** 2
    ) + 0.5 * cfg.lambda_1 * (np.linalg.norm(state.B) ** 2 + np.linalg.norm(state.C) ** 2)
    return float(fit + reg)


def block_gradient(block: str, state: FactorState, obs: Observations, routing,
                   corr: CorrelationSet, cfg: MmConfig) -> np.ndarray:
    """Gradient of the objective with respect to one block at the current state."""
    R = routing_entries(routing)
    phi_y, phi_z = residuals(state, obs, routing)
    S = R.T @ phi_y + phi_z
    if block == "L":
        return S @ state.Q + cfg.lambda_star * corr.solve_RL(state.L)
    if block == "Q":
        return S.T @ state.L + cfg.lambda_star * corr.solve_RQ(state.Q)
    if block == "B":
        return state.C * S + cfg.lambda_1 * corr.solve_RB(state.B)
    if block == "C":
        return state.B * S + cfg.lambda_1 * corr.solve_RC(state.C)
    raise ValueError(f"unknown block {block!r}")


def step_bound(block: str, state: FactorState, routing, corr: CorrelationSet,
               cfg: MmConfig, gram_norm: float | None = None) -> float:
    """Curvature bound (>= block Hessian spectral norm) for one block.

    The Gram norms are exact, so this is an upper bound for any
    `step_safety` >= 1.
    """
    if gram_norm is None:
        gram_norm = gram_spectral_norm(routing)
    data_scale = gram_norm + 1.0
    if block == "L":
        Q = state.Q
        bound = data_scale * power_norm_sym(lambda v: Q.T @ (Q @ v), Q.shape[1])
        bound += cfg.lambda_star * corr.inv_norm_RL
    elif block == "Q":
        L = state.L
        bound = data_scale * power_norm_sym(lambda v: L.T @ (L @ v), L.shape[1])
        bound += cfg.lambda_star * corr.inv_norm_RQ
    elif block == "B":
        bound = data_scale * float(np.max(state.C**2, initial=0.0))
        bound += cfg.lambda_1 * corr.inv_norm_RB
    elif block == "C":
        bound = data_scale * float(np.max(state.B**2, initial=0.0))
        bound += cfg.lambda_1 * corr.inv_norm_RC
    else:
        raise ValueError(f"unknown block {block!r}")
    return cfg.step_safety * max(bound, 1e-12)


def mm_step(state: FactorState, obs: Observations, routing, corr: CorrelationSet,
            cfg: MmConfig, k: int = 0, return_block_objectives: bool = False,
            gram_norm: float | None = None):
    """One outer iteration: majorized updates of L, Q, B, C in order.

    Each block uses residuals at the freshest iterates.  With
    `return_block_objectives` the objective value after every block update is
    returned alongside the new state (used by the monotonicity checks).
    `gram_norm` lets a driver reuse sigma_max(R'R) across iterations.
    """
    if gram_norm is None:
        gram_norm = gram_spectral_norm(routing)
    block_objs = []
    for block in _BLOCKS:
        grad = block_gradient(block, state, obs, routing, corr, cfg)
        mu = step_bound(block, state, routing, corr, cfg, gram_norm=gram_norm)
        state = replace(state, **{block: getattr(state, block) - grad / mu})
        if not state.is_finite():
            raise DivergenceError(f"non-finite {block} block at iteration {k}", iteration=k)
        if return_block_objectives:
            block_objs.append(p5_objective(state, obs, routing, corr, cfg))
    if return_block_objectives:
        return state, block_objs
    return state


def init_state(flows: int, periods: int, cfg: MmConfig, seed: int = 0) -> FactorState:
    """Random Gaussian factors scaled by 1/sqrt(rho)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(cfg.rho)
    return FactorState(
        L=scale * rng.standard_normal((flows, cfg.rho)),
        Q=scale * rng.standard_normal((periods, cfg.rho)),
        B=scale * rng.standard_normal((flows, periods)),
        C=scale * rng.standard_normal((flows, periods)),
    )


def _extrapolate(state: FactorState, prev: FactorState, w: float) -> FactorState:
    return FactorState(
        L=state.L + w * (state.L - prev.L),
        Q=state.Q + w * (state.Q - prev.Q),
        B=state.B + w * (state.B - prev.B),
        C=state.C + w * (state.C - prev.C),
    )


def mm_solve(obs: Observations, routing, corr: CorrelationSet,
             cfg: MmConfig | None = None, seed: int = 0,
             init: FactorState | None = None):
    """Run the alternating MM scheme to a stationary point.

    Returns (X_hat, A_hat, report); the report carries the monotone objective
    trajectory and the final block-gradient norms.  With `accelerate` the
    iterate is extrapolated Nesterov-style and restarted whenever the
    objective would increase.
    """
    cfg = cfg or MmConfig()
    F, T = obs.flow_counts.shape
    gram_norm = gram_spectral_norm(routing)
    state = init if init is not None else init_state(F, T, cfg, seed)
    obj = p5_objective(state, obs, routing, corr, cfg)
    objectives = [obj]
    prev = state
    t_acc = 1.0
    restarts = 0
    converged = False
    start = time.perf_counter()
    iteration = 0
    for iteration in range(1, cfg.max_iters + 1):
        if cfg.accelerate and iteration > 1:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            trial = _extrapolate(state, prev, (t_acc - 1.0) / t_next)
            cand = mm_step(trial, obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
            cand_obj = p5_objective(cand, obs, routing, corr, cfg)
            if cand_obj <= obj:
                t_acc = t_next
            else:
                restarts += 1
                t_acc = 1.0
                cand = mm_step(state, obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
                cand_obj = p5_objective(cand, obs, routing, corr, cfg)
        else:
            cand = mm_step(state, obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
            cand_obj = p5_objective(cand, obs, routing, corr, cfg)
        prev, state = state, cand
        objectives.append(cand_obj)
        if abs(cand_obj - obj) <= cfg.tol * (1.0 + abs(cand_obj)):
            converged = True
            obj = cand_obj
            break
        obj = cand_obj
    grad_norms = {
        b: float(np.linalg.norm(block_gradient(b, state, obs, routing, corr, cfg)))
        for b in _BLOCKS
    }
    report = MmReport(
        converged=converged,
        iterations=iteration,
        objectives=objectives,
        grad_norms=grad_norms,
        restarts=restarts,
        wall_time=time.perf_counter() - start,
    )
    return state.nominal(), state.anomalies(), report
