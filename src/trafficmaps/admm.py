"""Solvers for the convex traffic/anomaly estimators.

* p2, the equality-constrained noiseless program, by ADMM (`_split`):
  auxiliary copies O of X and B of A, so the routing matrix never couples a
  prox step, and multipliers on the link and flow constraints.  Each
  iteration soft-thresholds A, solves for O column by column, thresholds the
  singular values of X and solves for B; each solve is one batched product
  over the per-column inverses.  The loop runs a stack of problems that
  differ only in their l1 weight, with one stacked call per kernel and
  iteration: `admm_solve_p2_path` solves p2 over a grid of weights this way,
  and `admm_solve_p2` runs a stack of one.
* p1, its penalized least-squares counterpart, and p6, the outlier-robust
  extension with sparse link/flow outlier blocks, by accelerated proximal
  gradient (`_prox_grad`): both are a smooth fit plus proximable penalties,
  so they need no splitting, no multipliers and no column solves.

The singular value thresholding (`svt`) is one batched `eigh` of the Gram
matrices M'M, SVT(M) = M V diag(1 - tau/max(s, tau)) V'.  Squaring M costs
accuracy in proportion to ||M||_F/tau, so a guard, checked before M'M is
formed (it could overflow), sends a matrix to an SVD once that error could
reach 1e-10 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mm import gram_spectral_norm
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
    max_iters: int = 2000
    tol_primal: float | None = None
    tol_dual: float | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("lam", "tol_primal", "tol_dual"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when set")
        for name in ("lambda_star", "lambda_1", "lambda_y", "lambda_z"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

    def resolved_tols(self, Y: np.ndarray) -> tuple[float, float]:
        base = 1e-6 * (1.0 + np.linalg.norm(Y))
        return (
            self.tol_primal if self.tol_primal is not None else base,
            self.tol_dual if self.tol_dual is not None else base,
        )


def soft_threshold(M, tau):
    """Entrywise sgn(m) * max(|m| - tau, 0); the l1 prox.  `tau` may be an
    array that broadcasts against M, such as one threshold per stacked matrix."""
    if np.less(tau, 0).any():
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


# `svt` keeps the Gram form while n*eps*||M||_F/tau, about its relative error,
# stays below this.
_GRAM_GUARD = 1e-10


def svt(M: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding, the nuclear-norm prox, of a matrix or of
    each matrix of a stack.

    With M'M = V diag(s^2) V' on the smaller side, SVT(M) = M V diag(1 -
    tau/max(s, tau)) V': one batched `eigh` of the Gram matrices, no U and no
    division by zero.  Squaring M moves the result by about n*eps*||M||_F^2/tau
    (n the larger side), so a matrix with n*eps*||M||_F >= _GRAM_GUARD*tau,
    among them every one at tau = 0 or with an overflowing norm, takes the SVD
    instead; the guard runs before M'M is formed, which could overflow.  Each
    matrix gets the same bytes in any stack.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    if not np.isfinite(M).all():
        raise ValueError("cannot take the SVD of a non-finite matrix")
    stack = M.reshape((-1,) + M.shape[-2:])
    wide = stack.shape[1] < stack.shape[2]
    if wide:
        stack = stack.swapaxes(1, 2)
    out = np.empty_like(stack)
    scale = stack.shape[1] * np.finfo(np.float64).eps
    with np.errstate(over="ignore"):  # an overflowing norm takes the SVD
        norms = _norms(stack)
    gram = np.array([scale * norm < _GRAM_GUARD * tau for norm in norms], dtype=bool)
    if gram.any():
        S = stack[gram]
        w, V = np.linalg.eigh(S.swapaxes(1, 2) @ S)
        shrink = 1.0 - tau / np.maximum(np.sqrt(np.maximum(w, 0.0)), tau)
        out[gram] = (S @ (V * shrink[:, None, :])) @ V.swapaxes(1, 2)
    if not gram.all():
        out[~gram] = _svt_by_svd(stack[~gram], tau)
    return (out.swapaxes(1, 2) if wide else out).reshape(M.shape)


def _svt_by_svd(stack: np.ndarray, tau: float) -> np.ndarray:
    """SVT of each matrix of a stack from one SVD call and a per-matrix
    reconstruction; `svt`'s fallback."""
    U, s, Vt = np.linalg.svd(stack, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    out = np.empty_like(stack)
    # singular values come in descending order, so the kept ones are a prefix
    for i in range(len(stack)):
        r = np.count_nonzero(s[i])
        out[i] = (U[i, :, :r] * s[i, :r]) @ Vt[i, :r] if r else 0.0
    return out


class ColumnSolves:
    """Cached per-column solve handles for (I + Pi_t + R'R)^{-1}.

    Slot t of one (T, F, F) array holds column t's inverse; the distinct mask
    patterns are inverted in one batched call and each column copies its
    pattern's inverse.  `apply` solves every column in one batched product,
    each column independently, so results do not depend on column ordering.
    """

    def __init__(self, R: np.ndarray, mask: np.ndarray):
        R = np.asarray(R, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != R.shape[1]:
            raise ValueError("mask rows must match routing columns")
        if not np.isfinite(R).all():
            raise ValueError("routing matrix must be finite")
        self._mask = mask
        self._gram = R.T @ R
        _, first, slot = np.unique(mask, axis=1, return_index=True, return_inverse=True)
        # I + Pi_t + R'R has every eigenvalue >= 1, so a finite R inverts
        self._inverses = np.linalg.inv(np.stack([self.system_matrix(t) for t in first]))[slot]
        self._n_patterns = len(first)

    @property
    def n_patterns(self) -> int:
        return self._n_patterns

    def system_matrix(self, t: int) -> np.ndarray:
        """The matrix whose inverse column t is solved against."""
        G = np.eye(len(self._gram)) + self._gram
        obs = np.flatnonzero(self._mask[:, t])
        G[obs, obs] += 1.0
        return G

    def apply_column(self, t: int, v: np.ndarray) -> np.ndarray:
        return self._inverses[t] @ v

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Solve every column of V, or of each matrix of a stack, at once."""
        W = np.matmul(self._inverses, V.swapaxes(-1, -2)[..., None])[..., 0]
        return np.ascontiguousarray(W.swapaxes(-1, -2))


def _norms(D: np.ndarray) -> list:
    """Frobenius norm of each matrix of a stack, one `np.linalg.norm` each, so
    a matrix gets the same bytes in any stack."""
    return [float(np.linalg.norm(d)) for d in D]


def _non_finite(D: np.ndarray) -> np.ndarray:
    """Which matrices of a stack hold a non-finite entry."""
    if np.isfinite(D).all():  # one flat check in the common case
        return np.zeros(len(D), dtype=bool)
    return ~np.isfinite(D).all(axis=(1, 2))


def default_lambda(F: int, T: int) -> float:
    return 1.0 / np.sqrt(max(F, T))


def _on_links(M: np.ndarray, link_mask: np.ndarray | None) -> np.ndarray:
    """Zero the unobserved link cells; every link is observed without a mask."""
    return M if link_mask is None else np.where(link_mask, M, 0.0)


def _split(obs: Observations, R: np.ndarray, cfg: AdmmConfig, lams) -> list:
    """The p2 splitting loop, run on a stack of problems that differ only in
    their l1 weight.

    Problem i minimizes ||X||_* + lams[i]*||A||_1 subject to Y = R(O + B),
    Pi(Z) = Pi(O + B), O = X and B = A, with ADMM penalty 1; the penalty
    moves only the path to the optimum.  The data-constraint multipliers
    start at Y and Z and absorb each residual as soon as it is measured.
    The problems share one ColumnSolves, and every operation acts on each
    problem alone, so a problem gets the same bytes in any stack.  A problem
    leaves the stack, its result copied out, when it converges or its
    iterate turns non-finite.  Returns, per weight in order, (X, A, report)
    or the DivergenceError that ended it.
    """
    Y, Z, mask = obs.link_counts, obs.flow_counts, obs.mask.mask
    tol_primal, tol_dual = cfg.resolved_tols(Y)
    handles = ColumnSolves(R, mask)
    tau = np.reshape(lams, (-1, 1, 1))
    live = list(range(len(tau)))  # the weight index of each problem in the stack
    results: list = [None] * len(tau)
    hists: list = [{} for _ in live]
    X, A, B, O, M_a, M_x = (np.zeros((len(tau),) + mask.shape) for _ in range(6))
    M_y, M_z = np.zeros((len(tau),) + Y.shape) + Y, np.zeros((len(tau),) + Z.shape) + Z
    for k in range(cfg.max_iters):
        M_a += B - A
        M_x += O - X

        # With G = I + Pi + R'R, the O update G^{-1}(V - (Pi + R'R) B) equals
        # G^{-1}(V + B) - B, so no data-fit product is formed; B likewise.
        data_y, data_z = R.T @ (Y + M_y), Z + M_z
        A_next = soft_threshold(B + M_a, tau)
        step_a, A = _norms(A_next - A), A_next
        O = handles.apply(X - M_x + data_y + data_z + B) - B
        diverged = _non_finite(O)
        if diverged.any():
            O[diverged] = 0.0  # keeps the SVD defined; these problems leave after this sweep
        X_next = svt(O + M_x, 1.0)
        step_x, X = _norms(X_next - X), X_next
        diverged |= _non_finite(X)
        B = handles.apply(A - M_a + data_y + data_z + O) - O

        r_y = Y - R @ (O + B)
        r_z = np.where(mask, Z - (O + B), 0.0)
        M_y += r_y
        M_z += r_z
        residuals = {"r_y": _norms(r_y), "r_z": _norms(r_z),
                     "r_ba": _norms(B - A), "r_ox": _norms(O - X)}
        del r_y, r_z  # not held through the next sweep, which sets the peak memory
        keep = []
        for j, i in enumerate(live):
            primal = [values[j] for values in residuals.values()]
            delta = max(step_x[j], step_a[j])
            for name, value in zip((*residuals, "delta"), (*primal, delta)):
                hists[i].setdefault(name, []).append(value)
            if diverged[j]:
                results[i] = DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
            elif max(primal) < tol_primal and delta < tol_dual:
                results[i] = (X[j].copy(), A[j].copy(),
                              SolverReport(converged=True, iterations=k + 1, residuals=hists[i]))
            keep.append(results[i] is None)
        if not any(keep):
            break
        if not all(keep):
            live = [i for i, kept in zip(live, keep) if kept]
            tau = tau[keep]
            X, A, B, O, M_a, M_x, M_y, M_z = (
                M[keep] for M in (X, A, B, O, M_a, M_x, M_y, M_z))
    for j, i in enumerate(live):
        if results[i] is None:  # still in the stack after max_iters
            results[i] = (X[j].copy(), A[j].copy(),
                          SolverReport(converged=False, iterations=cfg.max_iters,
                                       residuals=hists[i]))
    return results


def _single(results: list):
    """The one result of a stack of one; a divergence is raised."""
    (result,) = results
    if isinstance(result, DivergenceError):
        raise result
    return result


def admm_solve_p2_path(obs: Observations, routing, cfg: AdmmConfig, lams) -> list:
    """p2 at every l1 weight of `lams`, solved as one stack (see `_split`).

    The weights share cfg's iteration limit and tolerances; cfg.lam
    is not read.  Returns, per weight in order, (X_hat, A_hat, report) or the
    DivergenceError of a weight whose iterates turned non-finite.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0 or not (lams > 0).all():
        raise ValueError("lams must be a non-empty list of positive weights")
    return _split(obs, routing_entries(routing), cfg, lams)


def admm_solve_p2(obs: Observations, routing, cfg: AdmmConfig | None = None):
    """Equality-constrained nuclear + l1 recovery from noiseless counts.

    Returns (X_hat, A_hat, report).  Terminates when all four constraint
    residuals drop below tol_primal and the iterate change below tol_dual.
    """
    cfg = cfg or AdmmConfig()
    lam = cfg.lam if cfg.lam is not None else default_lambda(*obs.flow_counts.shape)
    return _single(admm_solve_p2_path(obs, routing, cfg, [lam]))


def p1_objective(X, A, obs: Observations, routing, lambda_star: float, lambda_1: float) -> float:
    """The p1 objective: p6's with no outliers and every link observed."""
    weights = AdmmConfig(lambda_star=lambda_star, lambda_1=lambda_1)
    return p6_objective(X, A, 0.0, 0.0, obs, routing, None, weights)


def fit_lipschitz(R: np.ndarray) -> float:
    """L = 2(sigma_max(R'R) + 1) + 1, a Lipschitz constant of the gradient of
    the p1/p6 data fit in (X, A, O_y, O_z).

    In each column the fit's curvature in M = X + A is at most
    ||R' Omega_t R + Pi_t|| <= sigma_max(R'R) + 1, and ||X + A||^2 <=
    2(||X||^2 + ||A||^2); the outlier blocks enter with unit curvature, and
    Young's inequality with weight 1/(2(sigma_max(R'R) + 1)) on the cross
    terms adds the final 1.  p1 takes the same step, so a p6 whose outlier
    blocks stay zero takes p1's iterates.
    """
    return 2.0 * (gram_spectral_norm(R) + 1.0) + 1.0


def _prox_grad(obs: Observations, R: np.ndarray, cfg: AdmmConfig, outliers: bool,
               link_mask: np.ndarray | None = None):
    """Accelerated proximal gradient for p1 and, with `outliers`, p6.

    Each iteration takes one gradient of the smooth fit at the extrapolated
    point y, G = R' Omega_y(R M + O_y - Y) + Pi(M + O_z - Z) with M = X + A,
    and one prox of each penalty at step 1/L (`fit_lipschitz`): `svt` on X,
    `soft_threshold` on A and on the outlier blocks.  The momentum restarts
    when <y - x_next, x_next - x> > 0 (O'Donoghue and Candes).  The solve
    stops when the prox-gradient residual L*||x_next - y||_F over all blocks
    is at most min(tol_primal, tol_dual); dist(0, subdifferential) at x_next
    is at most twice that.  Returns X, A, the flat outlier part (O_y then O_z;
    empty for p1) and the report without objective.
    """
    Y, Z, mask = obs.link_counts, obs.flow_counts, obs.mask.mask
    (F, T), n_y = Z.shape, Y.size
    L = fit_lipschitz(R)
    tol = min(cfg.resolved_tols(Y))
    # One flat iterate: X and A, then p6's O_y and O_z, so the momentum step is
    # one vector operation.  The norms sum one `vdot` per part, so the outlier
    # part, empty for p1 and zero in a p6 that keeps no outliers, adds
    # exactly 0 to p1's figures.
    m = 2 * F * T
    x = y = np.zeros(m + (n_y + Z.size if outliers else 0))
    t, restarts, hist = 1.0, 0, []
    for k in range(cfg.max_iters):
        X_y, A_y = y[:m].reshape(2, F, T)
        M = X_y + A_y
        r_y, r_z = R @ M - Y, M - Z
        if outliers:
            r_y += y[m:m + n_y].reshape(Y.shape)
            r_z += y[m + n_y:].reshape(Z.shape)
        r_y, r_z = _on_links(r_y, link_mask), np.where(mask, r_z, 0.0)
        G = (R.T @ r_y + r_z) / L
        V = X_y - G
        if not np.isfinite(V).all():
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        x_next = np.empty_like(y)
        X_next, A_next = x_next[:m].reshape(2, F, T)
        X_next[...] = svt(V, cfg.lambda_star / L)
        A_next[...] = soft_threshold(A_y - G, cfg.lambda_1 / L)
        if outliers:
            x_next[m:m + n_y] = soft_threshold(y[m:m + n_y] - r_y.ravel() / L, cfg.lambda_y / L)
            x_next[m + n_y:] = soft_threshold(y[m + n_y:] - r_z.ravel() / L, cfg.lambda_z / L)
        d, e = x_next - y, x_next - x
        residual = L * np.sqrt(np.vdot(d[:m], d[:m]) + np.vdot(d[m:], d[m:]))
        if not np.isfinite(residual):
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        hist.append(float(residual))
        x = x_next
        if residual <= tol:
            break
        if np.vdot(d[:m], e[:m]) + np.vdot(d[m:], e[m:]) < 0:
            t, y = 1.0, x
            restarts += 1
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * e
            t = t_next
    X, A = x[:m].reshape(2, F, T)
    return X, A, x[m:], SolverReport(converged=hist[-1] <= tol, iterations=len(hist),
                                     residuals={"grad_map": hist}, restarts=restarts)


def admm_solve_p1(obs: Observations, routing, cfg: AdmmConfig | None = None):
    """Penalized estimator: quadratic data fit plus nuclear and l1 penalties,
    by accelerated proximal gradient (`_prox_grad`)."""
    cfg = cfg or AdmmConfig()
    R = routing_entries(routing)
    X, A, _, report = _prox_grad(obs, R, cfg, outliers=False)
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
    X, A, O, report = _prox_grad(obs, R, cfg, outliers=True, link_mask=link_mask)
    O_y, O_z = O[:O.size - X.size].reshape(obs.link_counts.shape), O[-X.size:].reshape(X.shape)
    objective = p6_objective(X, A, O_y, O_z, obs, routing, link_mask, cfg)
    return X, A, O_y, O_z, replace(report, objective=objective)
