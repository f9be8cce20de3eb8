"""Alternating majorization-minimization solver for the Bayesian estimator.

The nominal traffic is factored as L Q' and the anomalies as B . C (Hadamard
product); each outer iteration takes one exact-step gradient update per block
in the order L -> Q -> B -> C, minimizing a locally tight quadratic surrogate
whose curvature is an upper bound on the block Hessian norm.  Every block
update is therefore non-increasing in the objective.

The solver carries the prior solves R^{-1} of each block (products with the
stored inverses of `CorrelationSet`) from one iteration to the next: a sweep
solves each block once, after its update, and that solve serves both the
sweep's objective and the next gradient.  An extrapolated point's solves are
the same combination of the cached ones, so an iteration makes four prior
solves (eight when the extrapolation is rejected).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .correlation import CorrelationSet
from .model import DivergenceError, Observations, SolverReport, routing_entries

_BLOCKS = ("L", "Q", "B", "C")
# 1.0 majorizes too, but fails test_hidden_rows_interpolated_through_correlations
_STEP_MARGIN = 1.1


@dataclass(frozen=True)
class FactorState:
    """Factors of the bilinear model: X = L Q', A = B . C.

    The solver also keeps a state's per-block prior solves in this form.  The
    blocks are held as given; `mm_solve` converts an outside `init`.
    """

    L: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
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


@dataclass
class MmConfig:
    """Factor rank, penalty weights and stopping rule."""

    rho: int = 2
    lambda_star: float = 0.1
    lambda_1: float = 0.1
    max_iters: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        # each check is written so that NaN fails it
        if self.rho < 1:
            raise ValueError("factor rank must be at least 1")
        if not (self.lambda_star >= 0 and self.lambda_1 >= 0):
            raise ValueError("penalty weights must be nonnegative")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def power_norm_sym(G: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix G (a rho-by-rho or F-by-F
    Gram matrix here), exactly, from `eigvalsh`; 0 for an empty G.

    The name dates from the power iteration this replaced; the benchmark's
    span table (perfbench/spans.py) looks it up by that name.
    """
    if len(G) == 0:
        return 0.0
    return float(np.linalg.eigvalsh(G)[-1])


def gram_spectral_norm(routing) -> float:
    """sigma_max(R'R), exactly."""
    R = routing_entries(routing)
    return power_norm_sym(R.T @ R)


def residuals(state: FactorState, obs: Observations, routing):
    """(Phi_y, Phi_z): data residuals of the current factorization."""
    R = routing_entries(routing)
    M = state.nominal() + state.anomalies()
    if R.shape[1] != M.shape[0] or M.shape != obs.flow_counts.shape:
        raise ValueError("factor dimensions do not match the observations")
    phi_y = R @ M - obs.link_counts
    phi_z = np.where(obs.mask.mask, M - obs.flow_counts, 0.0)
    return phi_y, phi_z


def prior_solves(state: FactorState, corr: CorrelationSet) -> FactorState:
    """R^{-1} of each block at `state`: R_L^{-1} L, R_Q^{-1} Q and the row-wise
    anomaly solves of B and C."""
    return FactorState(**{b: getattr(corr, f"solve_R{b}")(getattr(state, b)) for b in _BLOCKS})


def _objective(state: FactorState, solves: FactorState, phi, cfg: MmConfig) -> float:
    """The objective from the residuals `phi` and the prior solves of `state`."""
    phi_y, phi_z = phi
    fit = 0.5 * (np.linalg.norm(phi_y) ** 2 + np.linalg.norm(phi_z) ** 2)
    reg_lr = 0.5 * cfg.lambda_star * (
        float(np.sum(state.L * solves.L)) + float(np.sum(state.Q * solves.Q))
    )
    reg_bc = 0.5 * cfg.lambda_1 * (
        float(np.sum(state.B * solves.B)) + float(np.sum(state.C * solves.C))
    )
    return float(fit + reg_lr + reg_bc)


def p5_objective(state: FactorState, obs: Observations, routing,
                 corr: CorrelationSet, cfg: MmConfig) -> float:
    """Data fit plus correlation-weighted quadratic factor penalties."""
    return _objective(state, prior_solves(state, corr), residuals(state, obs, routing), cfg)


def p4_objective(state: FactorState, obs: Observations, routing, cfg: MmConfig) -> float:
    """Plain bilinear objective: data fit plus Frobenius factor penalties."""
    phi_y, phi_z = residuals(state, obs, routing)
    fit = 0.5 * (np.linalg.norm(phi_y) ** 2 + np.linalg.norm(phi_z) ** 2)
    reg = 0.5 * cfg.lambda_star * (
        np.linalg.norm(state.L) ** 2 + np.linalg.norm(state.Q) ** 2
    ) + 0.5 * cfg.lambda_1 * (np.linalg.norm(state.B) ** 2 + np.linalg.norm(state.C) ** 2)
    return float(fit + reg)


def block_gradient(block: str, state: FactorState, obs: Observations, routing,
                   solves: FactorState, cfg: MmConfig) -> np.ndarray:
    """Gradient of the objective with respect to one block at the current state.

    `solves` holds the prior solves of `state` (`prior_solves`); only the
    named block's is read.
    """
    R = routing_entries(routing)
    phi_y, phi_z = residuals(state, obs, routing)
    S = R.T @ phi_y + phi_z
    if block == "L":
        return S @ state.Q + cfg.lambda_star * solves.L
    if block == "Q":
        return S.T @ state.L + cfg.lambda_star * solves.Q
    if block == "B":
        return state.C * S + cfg.lambda_1 * solves.B
    if block == "C":
        return state.B * S + cfg.lambda_1 * solves.C
    raise ValueError(f"unknown block {block!r}")


def step_bound(block: str, state: FactorState, routing, corr: CorrelationSet,
               cfg: MmConfig, gram_norm: float | None = None) -> float:
    """Curvature bound (>= block Hessian spectral norm) for one block.

    The Gram norms are exact, so the bound is a true upper bound before the
    `_STEP_MARGIN` factor.
    """
    if gram_norm is None:
        gram_norm = gram_spectral_norm(routing)
    data_scale = gram_norm + 1.0
    if block == "L":
        bound = data_scale * power_norm_sym(state.Q.T @ state.Q)
        bound += cfg.lambda_star * corr.inv_norm_RL
    elif block == "Q":
        bound = data_scale * power_norm_sym(state.L.T @ state.L)
        bound += cfg.lambda_star * corr.inv_norm_RQ
    elif block == "B":
        bound = data_scale * float(np.max(state.C**2, initial=0.0))
        bound += cfg.lambda_1 * corr.inv_norm_RB
    elif block == "C":
        bound = data_scale * float(np.max(state.B**2, initial=0.0))
        bound += cfg.lambda_1 * corr.inv_norm_RC
    else:
        raise ValueError(f"unknown block {block!r}")
    return _STEP_MARGIN * max(bound, 1e-12)


def mm_step(state: FactorState, solves: FactorState, obs: Observations, routing,
            corr: CorrelationSet, cfg: MmConfig, k: int = 0,
            return_block_objectives: bool = False, gram_norm: float | None = None):
    """One outer iteration: majorized updates of L, Q, B, C in order.

    `solves` holds the prior solves of `state` (`prior_solves`).  Each block
    uses residuals at the freshest iterates, and only the updated block is
    solved again, so a sweep makes four prior solves.  Returns the new state,
    its prior solves and its objective value; with `return_block_objectives`
    also the objective value after every block update (used by the
    monotonicity checks).  `gram_norm` lets a driver reuse sigma_max(R'R)
    across iterations.
    """
    if gram_norm is None:
        gram_norm = gram_spectral_norm(routing)
    block_objs = []
    for block in _BLOCKS:
        grad = block_gradient(block, state, obs, routing, solves, cfg)
        mu = step_bound(block, state, routing, corr, cfg, gram_norm=gram_norm)
        new = getattr(state, block) - grad / mu
        if not np.isfinite(new).all():
            raise DivergenceError(f"non-finite {block} block at iteration {k}", iteration=k)
        state = replace(state, **{block: new})
        solves = replace(solves, **{block: getattr(corr, f"solve_R{block}")(new)})
        if return_block_objectives:
            block_objs.append(p5_objective(state, obs, routing, corr, cfg))
    obj = _objective(state, solves, residuals(state, obs, routing), cfg)
    if return_block_objectives:
        return state, solves, obj, block_objs
    return state, solves, obj


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
    return FactorState(**{b: getattr(state, b) + w * (getattr(state, b) - getattr(prev, b))
                          for b in _BLOCKS})


def mm_solve(obs: Observations, routing, corr: CorrelationSet,
             cfg: MmConfig | None = None, seed: int = 0,
             init: FactorState | None = None):
    """Run the alternating MM scheme to a stationary point.

    Returns (X_hat, A_hat, report); the report carries the monotone objective
    trajectory.  From iteration 2 on the iterate is extrapolated Nesterov-style,
    with a plain step instead whenever the objective would rise.  The prior solves of
    the current and previous states are carried along, so the solver makes
    4 + 4 * (iterations + restarts) prior solves in all.  An `init` must hold
    an F-by-rho L, a T-by-rho Q and F-by-T B and C; it is read as C-contiguous
    float64 arrays.
    """
    cfg = cfg or MmConfig()
    F, T = obs.flow_counts.shape
    if init is not None:
        if (init.L.shape, init.Q.shape, init.B.shape) != ((F, cfg.rho), (T, cfg.rho), (F, T)):
            raise ValueError(f"init must hold L {F}x{cfg.rho}, Q {T}x{cfg.rho} and B, C "
                             f"{F}x{T}; got L {init.L.shape}, Q {init.Q.shape}, B {init.B.shape}")
        init = FactorState(**{b: np.ascontiguousarray(getattr(init, b), dtype=np.float64)
                              for b in _BLOCKS})
    gram_norm = gram_spectral_norm(routing)
    state = init if init is not None else init_state(F, T, cfg, seed)
    solves = prior_solves(state, corr)
    obj = _objective(state, solves, residuals(state, obs, routing), cfg)
    objectives = [obj]
    prev, prev_solves = state, solves
    t_acc = 1.0
    restarts = 0
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iters + 1):
        if iteration > 1:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            w = (t_acc - 1.0) / t_next
            cand, cand_solves, cand_obj = mm_step(
                _extrapolate(state, prev, w), _extrapolate(solves, prev_solves, w),
                obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
            if cand_obj <= obj:
                t_acc = t_next
            else:
                restarts += 1
                t_acc = 1.0
                cand, cand_solves, cand_obj = mm_step(
                    state, solves, obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
        else:
            cand, cand_solves, cand_obj = mm_step(
                state, solves, obs, routing, corr, cfg, k=iteration, gram_norm=gram_norm)
        prev, prev_solves = state, solves
        state, solves = cand, cand_solves
        objectives.append(cand_obj)
        if abs(cand_obj - obj) <= cfg.tol * (1.0 + abs(cand_obj)):
            converged = True
            obj = cand_obj
            break
        obj = cand_obj
    report = SolverReport(converged=converged, iterations=iteration, objectives=objectives,
                          objective=objectives[-1], restarts=restarts)
    return state.nominal(), state.anomalies(), report
