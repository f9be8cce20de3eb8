"""ADMM solvers for the convex traffic/anomaly estimators.

One splitting loop, `_split`, serves all three: auxiliary copies O of X and B
of A, so the routing matrix never couples a prox step.  Each iteration
soft-thresholds A, solves for O column by column, thresholds the singular
values of X and solves for B; each solve is one batched product over the
per-column inverses.  The estimators differ only in their data-fit term,
which a per-estimator fit step supplies as targets for O + B:

* p2, the equality-constrained noiseless program: multipliers on the link
  and flow constraints (`_Multipliers`);
* p1, its penalized least-squares counterpart: the counts (`_FixedTargets`);
* p6, the outlier-robust extension: the counts minus sparse link/flow
  outliers, soft-thresholded after each sweep (`_Outliers`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import DivergenceError, Observations, SolverReport, project_sampling, routing_entries


@dataclass
class AdmmConfig:
    """Solver knobs; `lam` weighs the l1 term of the constrained program,
    (lambda_star, lambda_1) the penalized ones, (lambda_y, lambda_z) outliers.

    Tolerances default to 1e-6 * (1 + ||Y||_F) when left unset.
    """

    lam: float | None = None
    lambda_star: float = 1.0
    lambda_1: float = 0.1
    lambda_y: float = 1.0
    lambda_z: float = 1.0
    c: float = 1.0
    max_iters: int = 2000
    tol_primal: float | None = None
    tol_dual: float | None = None

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("penalty coefficient must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("lam", "tol_primal", "tol_dual"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when set")
        for name in ("lambda_star", "lambda_1", "lambda_y", "lambda_z"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def resolved_tols(self, Y: np.ndarray) -> tuple[float, float]:
        base = 1e-6 * (1.0 + np.linalg.norm(Y))
        return (
            self.tol_primal if self.tol_primal is not None else base,
            self.tol_dual if self.tol_dual is not None else base,
        )


def soft_threshold(M, tau: float):
    """Entrywise sgn(m) * max(|m| - tau, 0); the l1 prox."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def svt(M: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding, the nuclear-norm prox."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    if not np.isfinite(M).all():
        raise ValueError("cannot take the SVD of a non-finite matrix")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(M)
    return (U[:, keep] * s[keep]) @ Vt[keep]


class ColumnSolves:
    """Cached per-column solve handles for (scale*I + Pi_t + R' Piy_t R)^{-1}.

    Slot t of one (T, F, F) array holds column t's inverse; columns sharing a
    mask pattern share one factorization and copy its slot.  `apply` solves
    every column in one batched product, each column independently, so
    results do not depend on column ordering.
    """

    def __init__(self, R: np.ndarray, mask: np.ndarray, diag_scale: float = 1.0,
                 link_mask: np.ndarray | None = None):
        R = np.asarray(R, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        F = R.shape[1]
        T = mask.shape[1]
        if mask.shape[0] != F:
            raise ValueError("mask rows must match routing columns")
        if link_mask is not None:
            link_mask = np.asarray(link_mask, dtype=bool)
            if link_mask.shape != (R.shape[0], T):
                raise ValueError("link mask must be links-by-periods")
        self._R = R
        self._mask = mask
        self._link_mask = link_mask
        self._scale = float(diag_scale)
        self._gram = R.T @ R if link_mask is None else None
        self._inverses = np.empty((T, F, F))
        first: dict = {}
        eye = np.eye(F)
        for t in range(T):
            key = mask[:, t].tobytes()
            if link_mask is not None:
                key = (key, link_mask[:, t].tobytes())
            if key in first:
                self._inverses[t] = self._inverses[first[key]]
            else:
                self._inverses[t] = cho_solve(cho_factor(self.system_matrix(t)), eye)
                first[key] = t
        self._n_patterns = len(first)

    @property
    def n_patterns(self) -> int:
        return self._n_patterns

    def system_matrix(self, t: int) -> np.ndarray:
        """The matrix whose inverse column t is solved against."""
        if self._link_mask is None:
            gram = self._gram
        else:
            Rm = self._R[self._link_mask[:, t]]
            gram = Rm.T @ Rm
        G = self._scale * np.eye(len(gram)) + gram
        obs = np.flatnonzero(self._mask[:, t])
        G[obs, obs] += 1.0
        return G

    def apply_column(self, t: int, v: np.ndarray) -> np.ndarray:
        return self._inverses[t] @ v

    def apply(self, V: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.matmul(self._inverses, V.T[:, :, None])[:, :, 0].T)


def _check_finite(M: np.ndarray, k: int):
    if not np.isfinite(M).all():
        raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)


def default_lambda(F: int, T: int) -> float:
    return 1.0 / np.sqrt(max(F, T))


def _on_links(M: np.ndarray, link_mask: np.ndarray | None) -> np.ndarray:
    """Zero the unobserved link cells; every link is observed without a mask."""
    return M if link_mask is None else np.where(link_mask, M, 0.0)


class _FixedTargets:
    """p1 fit step: the targets are the observed counts."""

    def __init__(self, R: np.ndarray, obs: Observations):
        self._data = (R.T @ obs.link_counts, obs.flow_counts)

    def data(self):
        return self._data

    def update(self, OB: np.ndarray):
        return {}, ()


class _Multipliers:
    """p2 fit step: dual ascent on the constraints Y = R(O+B), Pi(Z) = Pi(O+B).

    The targets are Y + M_y/c and Z + M_z/c.  The multipliers absorb the last
    residual just before each sweep, so the first sweep sees c*Y and c*Z and
    the final multipliers lag the final residuals, as M_a and M_x do.
    """

    def __init__(self, R: np.ndarray, obs: Observations, c: float):
        self._R, self._obs, self._c = R, obs, c
        self.M_y, self.M_z = np.zeros_like(obs.link_counts), np.zeros(obs.flow_counts.shape)
        self._r_y, self._r_z = obs.link_counts, obs.flow_counts

    def data(self):
        self.M_y += self._c * self._r_y
        self.M_z += self._c * self._r_z
        return (self._R.T @ (self._obs.link_counts + self.M_y / self._c),
                self._obs.flow_counts + self.M_z / self._c)

    def update(self, OB: np.ndarray):
        obs = self._obs
        self._r_y = obs.link_counts - self._R @ OB
        self._r_z = np.where(obs.mask.mask, obs.flow_counts - OB, 0.0)
        return {"r_y": float(np.linalg.norm(self._r_y)),
                "r_z": float(np.linalg.norm(self._r_z))}, ()


class _Outliers:
    """p6 fit step: the targets are the counts minus sparse outlier blocks
    O_y, O_z, the soft-thresholded residuals on the observed cells."""

    def __init__(self, R: np.ndarray, obs: Observations, cfg: AdmmConfig, link_mask):
        self._R, self._obs, self._cfg, self._link_mask = R, obs, cfg, link_mask
        self.O_y, self.O_z = np.zeros_like(obs.link_counts), np.zeros(obs.flow_counts.shape)

    def data(self):
        # both flow terms are supported on the flow mask
        return (self._R.T @ _on_links(self._obs.link_counts - self.O_y, self._link_mask),
                self._obs.flow_counts - self.O_z)

    def update(self, OB: np.ndarray):
        obs, cfg = self._obs, self._cfg
        O_y = soft_threshold(_on_links(obs.link_counts - self._R @ OB, self._link_mask),
                             cfg.lambda_y)
        O_z = soft_threshold(np.where(obs.mask.mask, obs.flow_counts - OB, 0.0), cfg.lambda_z)
        changes = (np.linalg.norm(O_y - self.O_y), np.linalg.norm(O_z - self.O_z))
        self.O_y, self.O_z = O_y, O_z
        return {}, changes


def _split(obs: Observations, R: np.ndarray, cfg: AdmmConfig, fit, *, weight: float,
           nuclear: float, l1: float, link_mask: np.ndarray | None = None):
    """The splitting loop shared by p1, p2 and p6.

    Minimizes nuclear*||X||_* + l1*||A||_1 + weight * (fit of O + B to the fit
    step's targets) subject to O = X and B = A.  Returns the final X, A and a
    report without objective.
    """
    mask = obs.mask.mask
    c = cfg.c
    tol_primal, tol_dual = cfg.resolved_tols(obs.link_counts)
    s = c / weight
    handles = ColumnSolves(R, mask, diag_scale=s, link_mask=link_mask)
    X, A, B, O, M_a, M_x = (np.zeros(mask.shape) for _ in range(6))
    hist: dict = {}
    converged = False
    k = 0
    for k in range(cfg.max_iters):
        M_a += c * (B - A)
        M_x += c * (O - X)
        X_old, A_old = X, A

        # With G = s*I + Pi + R' Lambda R, the O update G^{-1}(V - (Pi + R' Lambda R) B)
        # equals G^{-1}(V + s*B) - B, so no data-fit product is formed; B likewise.
        data_y, data_z = fit.data()
        A = soft_threshold(B + M_a / c, l1 / c)
        O = handles.apply((c * X - M_x) / weight + data_y + data_z + s * B) - B
        _check_finite(O, k)
        X = svt(O + M_x / c, nuclear / c)
        _check_finite(X, k)
        B = handles.apply((c * A - M_a) / weight + data_y + data_z + s * O) - O

        residuals, changes = fit.update(O + B)
        r_ba = float(np.linalg.norm(B - A))
        r_ox = float(np.linalg.norm(O - X))
        delta = float(max(np.linalg.norm(X - X_old), np.linalg.norm(A - A_old), *changes))
        for name, value in {**residuals, "r_ba": r_ba, "r_ox": r_ox, "delta": delta}.items():
            hist.setdefault(name, []).append(value)
        if max(*residuals.values(), r_ba, r_ox) < tol_primal and delta < tol_dual:
            converged = True
            break
    return X, A, SolverReport(converged=converged, iterations=k + 1, residuals=hist)


def admm_solve_p2(obs: Observations, routing, cfg: AdmmConfig | None = None):
    """Equality-constrained nuclear + l1 recovery from noiseless counts.

    Returns (X_hat, A_hat, report).  Terminates when all four constraint
    residuals drop below tol_primal and the iterate change below tol_dual.
    """
    cfg = cfg or AdmmConfig()
    R = routing_entries(routing)
    lam = cfg.lam if cfg.lam is not None else default_lambda(*obs.flow_counts.shape)
    return _split(obs, R, cfg, _Multipliers(R, obs, cfg.c), weight=cfg.c, nuclear=1.0, l1=lam)


def p1_objective(X, A, obs: Observations, routing, lambda_star: float, lambda_1: float) -> float:
    R = routing_entries(routing)
    fit_y = 0.5 * np.linalg.norm(obs.link_counts - R @ (X + A)) ** 2
    fit_z = 0.5 * np.linalg.norm(project_sampling(obs.mask, obs.flow_counts - X - A)) ** 2
    return float(
        fit_y
        + fit_z
        + lambda_star * np.linalg.svd(X, compute_uv=False).sum()
        + lambda_1 * np.abs(A).sum()
    )


def admm_solve_p1(obs: Observations, routing, cfg: AdmmConfig | None = None):
    """Penalized estimator: quadratic data fit plus nuclear and l1 penalties."""
    cfg = cfg or AdmmConfig()
    R = routing_entries(routing)
    X, A, report = _split(obs, R, cfg, _FixedTargets(R, obs), weight=1.0,
                          nuclear=cfg.lambda_star, l1=cfg.lambda_1)
    objective = p1_objective(X, A, obs, routing, cfg.lambda_star, cfg.lambda_1)
    return X, A, replace(report, objective=objective)


def p6_objective(X, A, O_y, O_z, obs: Observations, routing, link_mask, cfg: AdmmConfig) -> float:
    """The p6 objective; `link_mask=None` counts every link as observed."""
    R = routing_entries(routing)
    res_y = _on_links(obs.link_counts - R @ (X + A) - O_y, link_mask)
    res_z = project_sampling(obs.mask, obs.flow_counts - X - A - O_z)
    return float(
        0.5 * np.linalg.norm(res_y) ** 2
        + 0.5 * np.linalg.norm(res_z) ** 2
        + cfg.lambda_star * np.linalg.svd(X, compute_uv=False).sum()
        + cfg.lambda_1 * np.abs(A).sum()
        + cfg.lambda_y * np.abs(O_y).sum()
        + cfg.lambda_z * np.abs(O_z).sum()
    )


def admm_solve_p6(obs: Observations, routing, cfg: AdmmConfig | None = None,
                  link_mask: np.ndarray | None = None):
    """Outlier-robust variant: masked link counts plus sparse outlier blocks.

    Returns (X_hat, A_hat, O_y_hat, O_z_hat, report).
    """
    cfg = cfg or AdmmConfig()
    R = routing_entries(routing)
    if link_mask is not None:
        link_mask = np.asarray(link_mask, dtype=bool)
        if link_mask.shape != obs.link_counts.shape:
            raise ValueError("link mask must match link counts")
    fit = _Outliers(R, obs, cfg, link_mask)
    X, A, report = _split(obs, R, cfg, fit, weight=1.0, nuclear=cfg.lambda_star,
                          l1=cfg.lambda_1, link_mask=link_mask)
    objective = p6_objective(X, A, fit.O_y, fit.O_z, obs, routing, link_mask, cfg)
    return X, A, fit.O_y, fit.O_z, replace(report, objective=objective)
