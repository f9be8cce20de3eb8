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

from .synth import BurstParams


def condition_pd(M: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Repair a symmetric matrix to positive definite by eigenvalue clipping.

    Eigenvalues are raised to at least `floor` times the largest one; an
    all-nonpositive spectrum degenerates to floor-scaled identity.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("input must be square")
    scale = max(1.0, np.abs(M).max(initial=0.0))
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * scale:
        raise ValueError("input must be symmetric")
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


def _prior_groups(rows: list) -> tuple:
    """(flows, block, inv_norm) for each distinct first row.  `block` is the
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
    """R_L, R_Q, and per-flow Toeplitz first rows for the anomaly blocks.

    `anomaly_blocks[f]` is a pair (row_b, row_c) of length-T first rows.  The
    prior solves apply stored inverses: R_L^{-1}, R_Q^{-1}, and one inverse of
    the PD-conditioned Toeplitz block per distinct first row, shared by the
    flows that carry it.  Each inverse is symmetrized, and `inv_norm_*` is the
    top eigenvalue of the stored matrix, so the solver's curvature bounds hold
    for the operator it actually applies.
    """

    R_L: np.ndarray
    R_Q: np.ndarray
    anomaly_blocks: tuple
    _inv_RL: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_RQ: np.ndarray = field(init=False, repr=False, compare=False)
    _groups: dict = field(init=False, repr=False, compare=False)
    inv_norm_RL: float = field(init=False, repr=False, compare=False)
    inv_norm_RQ: float = field(init=False, repr=False, compare=False)
    inv_norm_RB: float = field(init=False, repr=False, compare=False)
    inv_norm_RC: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R_L = np.ascontiguousarray(np.asarray(self.R_L, dtype=np.float64))
        R_Q = np.ascontiguousarray(np.asarray(self.R_Q, dtype=np.float64))
        blocks = tuple(
            (
                np.ascontiguousarray(np.asarray(rb, dtype=np.float64)),
                np.ascontiguousarray(np.asarray(rc, dtype=np.float64)),
            )
            for rb, rc in self.anomaly_blocks
        )
        for name, M in (("R_L", R_L), ("R_Q", R_Q)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            scale = max(1.0, np.abs(M).max(initial=0.0))
            if np.abs(M - M.T).max(initial=0.0) > 1e-9 * scale:
                raise ValueError(f"{name} must be symmetric")
        T = R_Q.shape[0]
        if len(blocks) != R_L.shape[0]:
            raise ValueError("need one anomaly block pair per flow")
        for rb, rc in blocks:
            if rb.shape != (T,) or rc.shape != (T,):
                raise ValueError("anomaly block first rows must have length T")
        tl, tq = np.trace(R_L), np.trace(R_Q)
        if abs(tl - tq) > 1e-6 * max(abs(tl), abs(tq)):
            raise ValueError(f"traces must match: tr(R_L)={tl:.6g}, tr(R_Q)={tq:.6g}")
        if np.linalg.eigvalsh(R_L)[0] <= 0 or np.linalg.eigvalsh(R_Q)[0] <= 0:
            raise ValueError("R_L and R_Q must be positive definite")
        for M in (R_L, R_Q):
            M.setflags(write=False)
        for rb, rc in blocks:
            rb.setflags(write=False)
            rc.setflags(write=False)
        inv_RL, inv_RQ = _pd_inverse(R_L), _pd_inverse(R_Q)
        groups = {"b": _prior_groups([rb for rb, _ in blocks]),
                  "c": _prior_groups([rc for _, rc in blocks])}
        derived = {
            "R_L": R_L, "R_Q": R_Q, "anomaly_blocks": blocks,
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
        row = np.zeros(periods)
        row[0] = 1.0
        blocks = tuple((row.copy(), row.copy()) for _ in range(flows))
        return cls(s * np.eye(flows), np.eye(periods) / s, blocks)

    @property
    def n_flows(self) -> int:
        return self.R_L.shape[0]

    @property
    def n_periods(self) -> int:
        return self.R_Q.shape[0]

    def solve_RL(self, M: np.ndarray) -> np.ndarray:
        return self._inv_RL @ M

    def solve_RQ(self, M: np.ndarray) -> np.ndarray:
        return self._inv_RQ @ M

    def _solve_rows(self, M: np.ndarray, which: str) -> np.ndarray:
        M = np.asarray(M, dtype=np.float64)
        if M.shape != (self.n_flows, self.n_periods):
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


@dataclass(frozen=True)
class TrainingData:
    """Historical traffic/anomaly matrices spanning `days` periods of length `period`."""

    traffic_history: np.ndarray
    anomaly_history: np.ndarray
    period: int
    days: int

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.traffic_history, dtype=np.float64))
        A = np.ascontiguousarray(np.asarray(self.anomaly_history, dtype=np.float64))
        if X.shape != A.shape:
            raise ValueError("traffic and anomaly histories must share dimensions")
        if X.shape[1] != self.period * self.days:
            raise ValueError("history column count must equal days * period")
        X.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "traffic_history", X)
        object.__setattr__(self, "anomaly_history", A)


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
        scale = max(1.0, np.abs(M).max(initial=0.0))
        if np.abs(M - M.T).max(initial=0.0) > 1e-9 * scale:
            raise ValueError(f"{name} must be symmetric")
    denom = np.sqrt(EnormX2)
    R_L = condition_pd(rho * EXXt / denom)
    R_Q = condition_pd(rho * EXtX / denom)
    return R_L, R_Q


def learn_RQ_RL(data: TrainingData, rho: int):
    """(R_L, R_Q) learned from day-periodic training traffic.

    R_Q comes from day-averaged inner products of the time-slot vectors;
    R_L off-diagonals assume uncorrelated OD flows (product of per-period
    sample means), diagonals use sample second moments.  Both are
    PD-conditioned and trace-equalized.
    """
    if data.days < 2:
        raise ValueError("need at least 2 training days")
    F, T, K = data.traffic_history.shape[0], data.period, data.days
    days = data.traffic_history.reshape(F, K, T)
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
    for f in bp.anomalous_flows:
        if 0 <= f < n_flows:
            out[f] = seq
    return out


def split_RB_RC(Ra: np.ndarray) -> tuple:
    """Per-flow Toeplitz first rows (row_b, row_c) with R_b . R_c = R_a.

    Magnitudes are split evenly, the sign rides on R_c.  Flows with an
    all-zero sequence get identity blocks scaled to the average diagonal of
    the remaining flows (or 1 if there are none).
    """
    Ra = np.asarray(Ra, dtype=np.float64)
    if Ra.ndim != 2:
        raise ValueError("expect one autocorrelation sequence per flow")
    nonzero = [f for f in range(Ra.shape[0]) if np.abs(Ra[f]).max(initial=0.0) > 0]
    for f in nonzero:
        if Ra[f, 0] <= 0:
            raise ValueError(f"flow {f}: R_a(0) must be positive")
    if nonzero:
        fill = float(np.mean([np.sqrt(Ra[f, 0]) for f in nonzero]))
    else:
        fill = 1.0
    blocks = []
    T = Ra.shape[1]
    for f in range(Ra.shape[0]):
        if f in nonzero:
            mag = np.sqrt(np.abs(Ra[f]))
            blocks.append((mag, mag * np.sign(Ra[f])))
        else:
            row = np.zeros(T)
            row[0] = fill
            blocks.append((row, row.copy()))
    return tuple(blocks)


def learn_Ra_from_history(data: TrainingData) -> np.ndarray:
    """Sample autocovariance of each flow's anomaly series, lags 0..T-1.

    Uses the 1/(KT - tau) normalization over the full training horizon.
    """
    A = data.anomaly_history
    total = A.shape[1]
    T = data.period
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
