"""Correlation matrices for the Bayesian estimator.

R_L (flow-by-flow) and R_Q (time-by-time) describe the low-rank factor
priors; the anomaly priors are block-diagonal with one T-by-T Toeplitz block
per flow, stored compactly as first-row vectors.  Matrices can be built from
model moments, from burst-process parameters, or learned from day-periodic
historical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _frozen_array
from .synth import BurstParams


def _check_symmetric(M: np.ndarray, name: str) -> None:
    """Reject M unless it is symmetric to within 1e-9 of its largest entry
    (or of 1, if that is larger)."""
    scale = max(1.0, np.abs(M).max(initial=0.0))
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * scale:
        raise ValueError(f"{name} must be symmetric")


def condition_pd(M: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Repair a symmetric matrix to positive definite by eigenvalue clipping.

    Eigenvalues are raised to at least `floor` times the largest one; an
    all-nonpositive spectrum degenerates to floor-scaled identity.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("input must be square")
    _check_symmetric(M, "input")
    sym = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(sym)
    lam_max = w[-1]
    if lam_max <= 0:
        return floor * np.eye(M.shape[0])
    w = np.maximum(w, floor * lam_max)
    out = (V * w) @ V.T
    return 0.5 * (out + out.T)


def equalize_traces(R_L: np.ndarray, R_Q: np.ndarray):
    """Rescale the pair so tr(R_L) = tr(R_Q), fixing the factor scale ambiguity."""
    tl, tq = np.trace(R_L), np.trace(R_Q)
    if tl <= 0 or tq <= 0:
        raise ValueError("traces must be positive")
    s = np.sqrt(tq / tl)
    return R_L * s, R_Q / s


def _is_diagonal_row(row: np.ndarray) -> bool:
    return row.size > 0 and row[0] > 0 and np.abs(row[1:]).max(initial=0.0) == 0.0


def toeplitz(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first row `row`: entry (i, j) is
    row[|i - j|]."""
    idx = np.arange(len(row))
    return row[np.abs(idx[:, None] - idx)]


def _pd_inverse(M: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of a positive definite matrix, L^{-T} L^{-1} from
    its Cholesky factor L.

    The factorization is the check: it raises LinAlgError unless M is
    positive definite, and a non-finite M, which it would let through, is
    rejected first.
    """
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("matrix is not finite")
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    inv = L_inv.T @ L_inv
    return 0.5 * (inv + inv.T)


def _top_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[-1])


def _prior_groups(rows: np.ndarray) -> tuple:
    """(flows, block, inv_norm) for each distinct row of `rows`.  `block` is the
    value of a diagonal row and the stored inverse of the PD-conditioned
    Toeplitz block otherwise; inv_norm is the spectral norm of the inverse."""
    flows_by_row: dict = {}
    for f, row in enumerate(rows):
        flows_by_row.setdefault(row.tobytes(), []).append(f)
    groups = []
    for flows in flows_by_row.values():
        row = rows[flows[0]]
        if _is_diagonal_row(row):
            block, inv_norm = float(row[0]), 1.0 / float(row[0])
        else:
            block = _pd_inverse(condition_pd(toeplitz(row)))
            inv_norm = _top_eig(block)
        groups.append((np.array(flows), block, inv_norm))
    return tuple(groups)


@dataclass(frozen=True)
class CorrelationSet:
    """R_L, R_Q, and the Toeplitz first rows of the anomaly blocks.

    Row f of `rows_b` (`rows_c`) is the length-T first row of flow f's block
    of R_B (R_C).  The prior solves apply stored inverses: R_L^{-1}, R_Q^{-1},
    and one inverse of the PD-conditioned Toeplitz block per distinct first
    row, shared by the flows that carry it.  Each inverse is symmetrized, and
    `inv_norm_*` is the top eigenvalue of the stored matrix, so the solver's
    curvature bounds hold for the operator it actually applies.
    """

    R_L: np.ndarray
    R_Q: np.ndarray
    rows_b: np.ndarray
    rows_c: np.ndarray
    _inv_RL: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_RQ: np.ndarray = field(init=False, repr=False, compare=False)
    _groups: dict = field(init=False, repr=False, compare=False)
    inv_norm_RL: float = field(init=False, repr=False, compare=False)
    inv_norm_RQ: float = field(init=False, repr=False, compare=False)
    inv_norm_RB: float = field(init=False, repr=False, compare=False)
    inv_norm_RC: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R_L, R_Q = _frozen_array(self.R_L), _frozen_array(self.R_Q)
        rows_b, rows_c = _frozen_array(self.rows_b), _frozen_array(self.rows_c)
        for name, M in (("R_L", R_L), ("R_Q", R_Q)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            _check_symmetric(M, name)
        if rows_b.shape != (R_L.shape[0], R_Q.shape[0]) or rows_c.shape != rows_b.shape:
            raise ValueError("anomaly first rows must be flows-by-periods")
        tl, tq = np.trace(R_L), np.trace(R_Q)
        if abs(tl - tq) > 1e-6 * max(abs(tl), abs(tq)):
            raise ValueError(f"traces must match: tr(R_L)={tl:.6g}, tr(R_Q)={tq:.6g}")
        try:
            inv_RL, inv_RQ = _pd_inverse(R_L), _pd_inverse(R_Q)
        except np.linalg.LinAlgError:
            raise ValueError("R_L and R_Q must be positive definite") from None
        groups = {"b": _prior_groups(rows_b), "c": _prior_groups(rows_c)}
        derived = {
            "R_L": R_L, "R_Q": R_Q, "rows_b": rows_b, "rows_c": rows_c,
            "_inv_RL": inv_RL, "_inv_RQ": inv_RQ, "_groups": groups,
            "inv_norm_RL": _top_eig(inv_RL), "inv_norm_RQ": _top_eig(inv_RQ),
            "inv_norm_RB": max(inv_norm for _, _, inv_norm in groups["b"]),
            "inv_norm_RC": max(inv_norm for _, _, inv_norm in groups["c"]),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, flows: int, periods: int) -> "CorrelationSet":
        """Identity priors; (P5) then coincides with the plain bilinear program.

        For flows != periods the identities are scaled by sqrt(T/F) and
        sqrt(F/T) to keep the trace convention; the optimal objective value is
        unaffected because the factor scale re-balances.
        """
        s = np.sqrt(periods / flows)
        rows = np.zeros((flows, periods))
        rows[:, 0] = 1.0
        return cls(s * np.eye(flows), np.eye(periods) / s, rows, rows)

    def solve_RL(self, M: np.ndarray) -> np.ndarray:
        return self._inv_RL @ M

    def solve_RQ(self, M: np.ndarray) -> np.ndarray:
        return self._inv_RQ @ M

    def _solve_rows(self, M: np.ndarray, which: str) -> np.ndarray:
        M = np.asarray(M, dtype=np.float64)
        if M.shape != self.rows_b.shape:
            raise ValueError("matrix must be flows-by-periods")
        out = np.empty_like(M)
        for flows, block, _ in self._groups[which]:
            if isinstance(block, float):
                out[flows] = M[flows] / block
            else:
                out[flows] = M[flows] @ block
        return out

    def solve_RB(self, M: np.ndarray) -> np.ndarray:
        """unvec(R_B^{-1} vec(M')) with the row-wise block structure."""
        return self._solve_rows(M, "b")

    def solve_RC(self, M: np.ndarray) -> np.ndarray:
        return self._solve_rows(M, "c")


def corr_from_moments(EXXt: np.ndarray, EXtX: np.ndarray, EnormX2: float, rho: int):
    """(R_L, R_Q) from exact second moments of the nominal traffic.

    R_L = rho * E[XX'] / sqrt(E||X||_F^2) and R_Q = rho * E[X'X] / sqrt(.),
    each PD-conditioned.
    """
    EXXt = np.asarray(EXXt, dtype=np.float64)
    EXtX = np.asarray(EXtX, dtype=np.float64)
    if EnormX2 <= 0:
        raise ValueError("E||X||^2 must be positive")
    for name, M in (("E[XX']", EXXt), ("E[X'X]", EXtX)):
        _check_symmetric(M, name)
    denom = np.sqrt(EnormX2)
    R_L = condition_pd(rho * EXXt / denom)
    R_Q = condition_pd(rho * EXtX / denom)
    return R_L, R_Q


def learn_RQ_RL(history: np.ndarray, period: int, rho: int):
    """(R_L, R_Q) learned from day-periodic training traffic.

    `history` is flows-by-(days * period), day after day.  R_Q comes from
    day-averaged inner products of the time-slot vectors; R_L off-diagonals
    assume uncorrelated OD flows (product of per-period sample means),
    diagonals use sample second moments.  Both are PD-conditioned and
    trace-equalized.
    """
    X = np.ascontiguousarray(history, dtype=np.float64)
    if X.ndim != 2 or period < 1 or X.shape[1] % period or X.shape[1] < 2 * period:
        raise ValueError(f"history must be flows-by-(days * {period}) with at least 2 days, "
                         f"got shape {X.shape}")
    F, T, K = X.shape[0], period, X.shape[1] // period
    days = X.reshape(F, K, T)
    # C_hat(t1, t2) = (1/K) sum_k x_{k,t1}' x_{k,t2}
    C_hat = np.einsum("fkt,fks->ts", days, days) / K
    norm2 = float(np.trace(C_hat))
    if norm2 <= 0:
        raise ValueError("training traffic is identically zero")
    denom = np.sqrt(norm2)
    R_Q = condition_pd(rho * C_hat / denom)
    # Flow-by-flow inner products: means off the diagonal, second moments on it.
    means = days.mean(axis=1)
    M = means @ means.T
    second = np.einsum("fkt,fkt->f", days, days) / K
    np.fill_diagonal(M, second)
    R_L = condition_pd(rho * M / denom)
    return equalize_traces(R_L, R_Q)


def ar1_autocov(theta: float, sigma_n: float, lags: int) -> np.ndarray:
    """Stationary AR(1) autocovariance theta^tau * sigma^2 / (1 - theta^2)."""
    if not abs(theta) < 1:
        raise ValueError("|theta| must be < 1")
    tau = np.arange(lags)
    return theta**tau * sigma_n**2 / (1.0 - theta**2)


def burst_chain_autocorr(alpha: float, nu: float, lags: int) -> np.ndarray:
    """Autocorrelation E[b_t b_{t-tau}] of the correlated Bernoulli chain.

    Solving the recursion h(tau) = alpha h(tau-1) + (1-alpha) nu^2 from
    h(0) = nu gives nu(1-nu) alpha^tau + nu^2.
    """
    tau = np.arange(lags)
    return nu * (1.0 - nu) * alpha**tau + nu**2


def burst_correlations(bp: BurstParams, periods: int, n_flows: int) -> np.ndarray:
    """Per-flow anomaly autocorrelation sequences R_a(tau), tau = 0..T-1.

    Rows of non-anomalous flows are zero; anomalous rows carry
    gamma^2 * R_b(tau) * R_c(tau).
    """
    seq = bp.gamma_f**2 * burst_chain_autocorr(bp.alpha, bp.nu, periods) * ar1_autocov(
        bp.theta, bp.sigma_n, periods
    )
    out = np.zeros((n_flows, periods))
    out[bp.rows(n_flows)] = seq
    return out


def split_RB_RC(Ra: np.ndarray) -> tuple:
    """Toeplitz first rows (rows_b, rows_c), each flows-by-T, with
    R_b . R_c = R_a row by row.

    Magnitudes are split evenly, the sign rides on R_c.  Flows with an
    all-zero sequence get identity blocks scaled to the average diagonal of
    the remaining flows (or 1 if there are none).
    """
    Ra = np.asarray(Ra, dtype=np.float64)
    if Ra.ndim != 2:
        raise ValueError("expect one autocorrelation sequence per flow")
    nonzero = np.abs(Ra).max(axis=1, initial=0.0) > 0
    bad = np.flatnonzero(nonzero & (Ra[:, 0] <= 0))
    if bad.size:
        raise ValueError(f"flow {bad[0]}: R_a(0) must be positive")
    fill = np.zeros(Ra.shape[1])
    fill[0] = np.mean(np.sqrt(Ra[nonzero, 0])) if nonzero.any() else 1.0
    mag = np.sqrt(np.abs(Ra))
    keep = nonzero[:, None]
    return np.where(keep, mag, fill), np.where(keep, mag * np.sign(Ra), fill)


def learn_Ra_from_history(history: np.ndarray, period: int) -> np.ndarray:
    """Sample autocovariance of each flow's anomaly series, lags 0..period-1.

    `history` is flows-by-horizon; the 1/(horizon - tau) normalization runs
    over the full horizon.
    """
    A = np.asarray(history, dtype=np.float64)
    total = A.shape[1]
    T = period
    if total <= T - 1:
        raise ValueError("training horizon must exceed the maximum lag")
    out = np.empty((A.shape[0], T))
    for tau in range(T):
        if tau == 0:
            prods = A * A
        else:
            prods = A[:, tau:] * A[:, :-tau]
        out[:, tau] = prods.sum(axis=1) / (total - tau)
    return out
