"""ADMM solvers for the convex traffic/anomaly estimators.

One splitting loop, `_split`, serves all three: auxiliary copies O of X and B
of A, so the routing matrix never couples a prox step.  Each iteration
soft-thresholds A, solves for O column by column, thresholds the singular
values of X and solves for B; each solve is one batched product over the
per-column inverses.  The singular value thresholding (`svt`) is one batched
`eigh` of the Gram matrices M'M, SVT(M) = M V diag(1 - tau/max(s, tau)) V'.
Squaring M costs accuracy in proportion to ||M||_F/tau, so a guard, checked
before M'M is formed (it could overflow), sends a matrix to an SVD once that
error could reach 1e-10 relative.  The loop runs a stack of problems that
differ only in their l1 weight, with one stacked call per kernel and iteration:
`admm_solve_p2_path` solves p2 over a grid of weights this way, and
`admm_solve_p2`, p1 and p6 run a stack of one.  The estimators differ only in
their data-fit term, which a per-estimator fit step supplies as targets for
O + B:

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


class _FixedTargets:
    """p1 fit step: the targets are the observed counts."""

    def __init__(self, R: np.ndarray, obs: Observations):
        self._data = (R.T @ obs.link_counts, obs.flow_counts)

    def data(self):
        return self._data

    def update(self, OB: np.ndarray):
        return {}, ()


class _Multipliers:
    """p2 fit step: dual ascent on the constraints Y = R(O+B), Pi(Z) = Pi(O+B),
    with one pair of multipliers per problem of a stack of k.

    The targets are Y + M_y/c and Z + M_z/c.  The multipliers start at c*Y and
    c*Z and absorb each residual as soon as it is measured, so each sweep sees
    the residuals of the sweep before it.
    """

    def __init__(self, R: np.ndarray, obs: Observations, c: float, k: int):
        self._R, self._obs, self._c = R, obs, c
        self.M_y = np.zeros((k,) + obs.link_counts.shape)
        self.M_z = np.zeros((k,) + obs.flow_counts.shape)
        self.M_y += c * obs.link_counts
        self.M_z += c * obs.flow_counts

    def data(self):
        return (self._R.T @ (self._obs.link_counts + self.M_y / self._c),
                self._obs.flow_counts + self.M_z / self._c)

    def update(self, OB: np.ndarray):
        obs = self._obs
        r_y = obs.link_counts - self._R @ OB
        r_z = np.where(obs.mask.mask, obs.flow_counts - OB, 0.0)
        self.M_y += self._c * r_y
        self.M_z += self._c * r_z
        return {"r_y": _norms(r_y), "r_z": _norms(r_z)}, ()

    def narrow(self, keep: list):
        """Keep the multipliers of the problems that stay in the stack."""
        self.M_y, self.M_z = self.M_y[keep], self.M_z[keep]


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
        changes = (_norms(O_y - self.O_y), _norms(O_z - self.O_z))
        self.O_y, self.O_z = O_y, O_z
        return {}, changes


def _split(obs: Observations, R: np.ndarray, cfg: AdmmConfig, fit, *, weight: float,
           nuclear: float, l1, link_mask: np.ndarray | None = None) -> list:
    """The splitting loop shared by p1, p2 and p6, run on a stack of problems
    that differ only in their l1 weight.

    Problem i minimizes nuclear*||X||_* + l1[i]*||A||_1 + weight * (fit of
    O + B to the fit step's targets) subject to O = X and B = A.  The problems
    share one ColumnSolves, and each iteration makes one stacked call to each
    kernel; every operation acts on each problem alone, so a problem gets the
    same bytes in any stack.  A problem leaves the stack when it converges or
    its iterate turns non-finite; the others go on, and the fit step narrows
    its per-problem state to them (p1 and p6 run a stack of one, so only the
    p2 fit step is ever narrowed).  A result is copied out of the stack, so it
    does not keep the stack alive.  Returns, per weight in order, (X, A,
    report without objective) or the DivergenceError that ended it.
    """
    mask = obs.mask.mask
    c = cfg.c
    tol_primal, tol_dual = cfg.resolved_tols(obs.link_counts)
    s = c / weight
    handles = ColumnSolves(R, mask, diag_scale=s, link_mask=link_mask)
    tau = np.reshape(l1, (-1, 1, 1)) / c
    live = list(range(len(tau)))  # the weight index of each problem in the stack
    results: list = [None] * len(tau)
    hists: list = [{} for _ in live]
    X, A, B, O, M_a, M_x = (np.zeros((len(tau),) + mask.shape) for _ in range(6))
    for k in range(cfg.max_iters):
        M_a += c * (B - A)
        M_x += c * (O - X)

        # With G = s*I + Pi + R' Lambda R, the O update G^{-1}(V - (Pi + R' Lambda R) B)
        # equals G^{-1}(V + s*B) - B, so no data-fit product is formed; B likewise.
        data_y, data_z = fit.data()
        A_next = soft_threshold(B + M_a / c, tau)
        step_a, A = _norms(A_next - A), A_next
        O = handles.apply((c * X - M_x) / weight + data_y + data_z + s * B) - B
        diverged = _non_finite(O)
        if diverged.any():
            O[diverged] = 0.0  # keeps the SVD defined; these problems leave after this sweep
        X_next = svt(O + M_x / c, nuclear / c)
        step_x, X = _norms(X_next - X), X_next
        diverged |= _non_finite(X)
        B = handles.apply((c * A - M_a) / weight + data_y + data_z + s * O) - O

        residuals, changes = fit.update(O + B)
        residuals |= {"r_ba": _norms(B - A), "r_ox": _norms(O - X)}
        names = (*residuals, "delta")
        keep = []
        for j, i in enumerate(live):
            primal = [values[j] for values in residuals.values()]
            delta = max(step_x[j], step_a[j], *(change[j] for change in changes))
            for name, value in zip(names, (*primal, delta)):
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
            X, A, B, O, M_a, M_x = (M[keep] for M in (X, A, B, O, M_a, M_x))
            fit.narrow(keep)
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

    The weights share cfg's penalty, iteration limit and tolerances; cfg.lam
    is not read.  Returns, per weight in order, (X_hat, A_hat, report) or the
    DivergenceError of a weight whose iterates turned non-finite.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0 or not (lams > 0).all():
        raise ValueError("lams must be a non-empty list of positive weights")
    R = routing_entries(routing)
    return _split(obs, R, cfg, _Multipliers(R, obs, cfg.c, lams.size), weight=cfg.c,
                  nuclear=1.0, l1=lams)


def admm_solve_p2(obs: Observations, routing, cfg: AdmmConfig | None = None):
    """Equality-constrained nuclear + l1 recovery from noiseless counts.

    Returns (X_hat, A_hat, report).  Terminates when all four constraint
    residuals drop below tol_primal and the iterate change below tol_dual.
    """
    cfg = cfg or AdmmConfig()
    lam = cfg.lam if cfg.lam is not None else default_lambda(*obs.flow_counts.shape)
    return _single(admm_solve_p2_path(obs, routing, cfg, [lam]))


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
    X, A, report = _single(_split(obs, R, cfg, _FixedTargets(R, obs), weight=1.0,
                                  nuclear=cfg.lambda_star, l1=cfg.lambda_1))
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
    X, A, report = _single(_split(obs, R, cfg, fit, weight=1.0, nuclear=cfg.lambda_star,
                                  l1=cfg.lambda_1, link_mask=link_mask))
    O_y, O_z = fit.O_y[0], fit.O_z[0]
    objective = p6_objective(X, A, O_y, O_z, obs, routing, link_mask, cfg)
    return X, A, O_y, O_z, replace(report, objective=objective)
