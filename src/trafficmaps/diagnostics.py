"""Recovery-theory diagnostics at desk scale, in the order of the analysis.

1. `measure_incoherences`: dense bases of the relevant matrix subspaces
   (routing nullspace, sampling nullspace, their intersection, anomaly
   support, low-rank tangent space), each orthonormal by construction and
   checked so by the tests, give exact incoherence measures (principal-angle
   cosines) and the closed-form tau (the largest row norm of the per-column
   nullspace bases, read off the intersection basis).  Every incoherence
   pairs a coordinate subspace (the support, the sampling nullspace or their
   intersection) with another basis, so `mu` reads the other basis's rows at
   the coordinate cells and takes sigma_max from the smaller Gram of that
   block; a pair with no coordinate side is rejected.
2. `check_recovery_conditions`: the Theorem's closed-form conditions, the
   feasible-lambda range, and (`IncoherenceReport.conditions`) theta with
   conditions (a) and (b) at one lambda.  This is the only copy of that algebra.
3. `dual_certificate`: the numerical dual certificate at one lambda, which
   certifies unique optimality of the constrained estimator on the instance.

Steps 1 and 3 use the same support, tangent and intersection bases.
`instance_bases` builds them once (one per-column kernel pass, one tangent
basis, one support basis), and both steps require the result.  Every dense
basis comes from a builder that checks the size guard before it allocates.

The anomaly support is the bundle's read-only boolean F-by-T matrix; a support
basis orders its cells row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SamplingMask, SubspaceBundle, _frozen_array, project_phi, routing_entries

SIZE_GUARD_CELLS = 20000


class SizeGuardError(RuntimeError):
    """Instance exceeds the dense-basis size guard."""


class NotLocallyIdentifiableError(RuntimeError):
    """The support/tangent/nullspace subspaces fail to form a direct sum."""


class TrivialNullspaceError(RuntimeError):
    """The routing matrix is injective, so no nullspace ambiguity exists."""


def _check_size(F: int, T: int):
    if F * T > SIZE_GUARD_CELLS:
        raise SizeGuardError(
            f"instance has {F * T} cells, above the dense-basis guard of {SIZE_GUARD_CELLS}"
        )


def _vec(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=np.float64).ravel()


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of A, as columns: the right singular
    vectors of a full SVD whose singular values are at most eps * max(m, n)
    * s_max."""
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    tol = np.finfo(np.float64).eps * max(A.shape) * np.amax(s, initial=0.0)
    return Vt[np.count_nonzero(s > tol):].T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of F-by-T matrices, vectorized columns.
    Each builder below is orthonormal by construction; it is not re-checked.
    A coordinate subspace also records `cells`, the row-major flat indices of
    its cells (column k of `vectors` is the unit vector at cells[k]); every
    other subspace has None."""

    vectors: np.ndarray
    shape: tuple[int, int]
    cells: np.ndarray | None = None

    def __post_init__(self):
        V = _frozen_array(self.vectors)
        F, T = self.shape
        if V.ndim != 2 or V.shape[0] != F * T:
            raise ValueError("basis rows must match the vectorized ambient space")
        object.__setattr__(self, "vectors", V)
        object.__setattr__(self, "shape", (int(F), int(T)))
        if self.cells is not None:
            object.__setattr__(self, "cells", _frozen_array(self.cells, np.intp))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def project(self, M: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.shape)
        coeff = self.vectors.T @ _vec(M)
        return (self.vectors @ coeff).reshape(self.shape)


def _coordinate_basis(cells: np.ndarray) -> SubspaceBasis:
    """Canonical matrices (distinct unit vectors) on the True cells of a boolean
    F-by-T matrix, in row-major order."""
    F, T = cells.shape
    _check_size(F, T)
    idx = np.flatnonzero(cells)
    V = np.zeros((F * T, idx.size))
    V[idx, np.arange(idx.size)] = 1.0
    return SubspaceBasis(V, (F, T), idx)


def nullspace_R_basis(routing, periods: int) -> SubspaceBasis:
    """Basis of {H : R H = 0}: kron(K, I) places each orthonormal kernel vector
    of R (K = _null_space(R)) in each column slot, kernel-major."""
    R = routing_entries(routing)
    _check_size(R.shape[1], periods)
    return SubspaceBasis(np.kron(_null_space(R), np.eye(periods)), (R.shape[1], periods))


def nullspace_Pi_basis(mask: SamplingMask) -> SubspaceBasis:
    """Canonical matrices supported on the unobserved entries."""
    return _coordinate_basis(~mask.mask)


def _column_kernels(routing, mask: SamplingMask):
    """(t, hidden_t, K_t) for each column t with unobserved flows.

    K_t = _null_space(R[:, hidden_t]) is an orthonormal basis of the flows that
    column t of an element of N_R cap N_Pi may carry on its hidden rows.
    """
    R = routing_entries(routing)
    if R.shape[1] != mask.shape[0]:
        raise ValueError("mask rows must match routing columns")
    for t in range(mask.shape[1]):
        hidden = np.flatnonzero(~mask.mask[:, t])
        if hidden.size:
            yield t, hidden, _null_space(R[:, hidden])


def intersect_nullspaces(routing, mask: SamplingMask) -> SubspaceBasis:
    """Basis of N_R intersected with N_Pi: each orthonormal K_t placed on the
    hidden rows of column t; different columns have disjoint supports."""
    F, T = mask.shape
    _check_size(F, T)
    kernels = list(_column_kernels(routing, mask))
    V = np.zeros((F * T, sum(K.shape[1] for _, _, K in kernels)))
    k = 0
    for t, hidden, K in kernels:
        V[hidden * T + t, k:k + K.shape[1]] = K
        k += K.shape[1]
    return SubspaceBasis(V, (F, T))


def omega_basis(support: np.ndarray) -> SubspaceBasis:
    """Canonical matrices supported on the True cells of a boolean F-by-T matrix,
    in row-major order."""
    return _coordinate_basis(support)


def phi_basis(bundle: SubspaceBundle) -> SubspaceBasis:
    """Orthonormal basis of the tangent space {U0 W1' + W2 V0'}.

    kron(U0, I) holds {U0[:, i] e_t'} and kron(G, V0) holds {G[:, j] V0[:, i]'},
    with G the orthonormal complement of U0, so U0'G = 0 keeps the blocks
    orthogonal: r(F + T - r) orthonormal vectors, none for rank 0.
    """
    F, T = bundle.shape
    _check_size(F, T)
    U0, V0 = bundle.U0, bundle.V0
    G = _null_space(U0.T)
    return SubspaceBasis(np.hstack([np.kron(U0, np.eye(T)), np.kron(G, V0)]), (F, T))


def mu(sub_a: SubspaceBasis, sub_b: SubspaceBasis) -> float:
    """Incoherence of two matrix subspaces: sigma_max of P_A composed with P_B.

    For orthonormal bases this is the spectral norm of V_A' V_B, the cosine
    of the smallest principal angle between the subspaces (Bjorck and Golub,
    1973).  One side must be a coordinate subspace S (`SubspaceBasis.cells`
    set), so V_S' V_B is the other basis's rows at S's cells: the block is
    read by row selection, and sigma_max^2 is the top eigenvalue of the
    smaller of its two Grams, computed exactly.  A pair with no coordinate
    side raises ValueError.  Returns a value in [0, 1]; zero subspaces give 0.
    """
    if sub_a.shape != sub_b.shape:
        raise ValueError("subspaces live in different ambient spaces")
    coord, other = (sub_a, sub_b) if sub_a.cells is not None else (sub_b, sub_a)
    if coord.cells is None:
        raise ValueError("mu needs a coordinate subspace on one side")
    if coord.dim == 0 or other.dim == 0:
        return 0.0
    block = other.vectors[coord.cells]
    gram = block @ block.T if block.shape[0] <= block.shape[1] else block.T @ block
    return float(np.sqrt(min(max(0.0, np.linalg.eigvalsh(gram)[-1]), 1.0)))


def gammas(bundle: SubspaceBundle):
    """(gamma(U0), gamma(V0), gamma(U0, V0), eta): singular-vector spikiness."""
    U0, V0 = bundle.U0, bundle.V0
    if bundle.rank == 0:
        return 0.0, 0.0, 0.0, 0.0
    g_u = float(np.sqrt((U0**2).sum(axis=1).max()))
    g_v = float(np.sqrt((V0**2).sum(axis=1).max()))
    g_uv = float(np.abs(U0 @ V0.T).max())
    return g_u, g_v, g_uv, g_u + g_v


def tau(inter: SubspaceBasis) -> float:
    """Largest entry magnitude over unit-spectral-norm nullspace-intersection elements.

    Column t of any H in N_R cap N_Pi lies in the range of K_t
    (`_column_kernels`), and ||H||_2 >= ||h_t||_2, so the ratio
    |H_ft| / ||H||_2 is largest for a single-column H.  Within column t the
    best ratio is the norm of row f of the orthonormal K_t, which gives the
    exact closed form tau = max over t and f of ||K_t[f, :]||_2.  Row
    f*T + t of the intersection basis holds K_t[f, :] and zeros; its squares
    are summed left to right, so the zeros add nothing and the norm does not
    depend on where K_t's columns sit in the basis.
    """
    if inter.dim == 0:
        return 0.0
    V = inter.vectors
    return float(np.sqrt(np.add.accumulate(V * V, axis=1)[:, -1].max()))


@dataclass(frozen=True)
class InstanceBases:
    """The bases that the measures and the certificate share: the support
    Omega, the tangent space Phi and N_R cap N_Pi, each built once per instance
    by `instance_bases` and passed to both."""

    omega: SubspaceBasis
    phi: SubspaceBasis
    inter: SubspaceBasis


def instance_bases(routing, mask: SamplingMask, bundle: SubspaceBundle) -> InstanceBases:
    return InstanceBases(omega_basis(bundle.support), phi_basis(bundle),
                         intersect_nullspaces(routing, mask))


@dataclass(frozen=True)
class IncoherenceReport:
    """Incoherence parameters, the chi bound, the feasible lambda range, and
    the Theorem's terms f, g, h, q and e."""

    alpha: float
    beta: float
    xi: float
    nu: float
    eta: float
    tau: float
    gamma: float
    k_max_col: int
    chi: float
    f: float
    g: float
    h: float
    q: float
    e: float
    lambda_min: float
    lambda_max: float
    feasible: bool
    reason: str = ""

    def conditions(self, lam: float) -> tuple[float, float, float]:
        """(theta, lhs of condition (a), lhs of condition (b)) at weight lam.

        Condition (a) holds when its lhs is below 1, condition (b) when its
        lhs is below lam; theta is infinite when f <= 0.
        """
        lk = lam * self.k_max_col
        a = self.alpha
        theta = (self.g + lk * self.h) / self.f if self.f > 0 else np.inf
        cond_a = lk + a + a**2 * (1.0 - a**2) * (a + lk) + self.e * theta
        cond_b = self.gamma + self.eta * a * lk + self.q * theta
        return theta, cond_a, cond_b


def check_recovery_conditions(
    alpha: float,
    beta: float,
    xi: float,
    nu: float,
    eta: float,
    tau: float,
    gamma: float,
    k_max_col: int,
    mu_npi_omega: float = 0.0,
    null_intersection_dim: int | None = None,
) -> IncoherenceReport:
    """Evaluate the closed-form recovery conditions and the lambda range.

    `mu_npi_omega` is the incoherence between the sampling nullspace and the
    anomaly support, needed for chi; a known-zero nullspace intersection
    (`null_intersection_dim == 0`) bypasses the chi condition.
    """
    for name, val, hi in (
        ("alpha", alpha, 1.0),
        ("beta", beta, 1.0),
        ("xi", xi, 1.0),
        ("nu", nu, 1.0),
        ("mu_npi_omega", mu_npi_omega, 1.0),
        ("eta", eta, 2.0),
        ("tau", tau, 1.0),
        ("gamma", gamma, 1.0),
    ):
        if not 0.0 <= val <= hi + 1e-12:
            raise ValueError(f"{name}={val} outside its valid range [0, {hi}]")
    if k_max_col < 0:
        raise ValueError("k_max_col must be nonnegative")

    if null_intersection_dim == 0:
        chi = 0.0
    elif alpha >= 1.0:
        chi = np.inf
    else:
        chi = float(np.sqrt((xi + beta * mu_npi_omega) / (1.0 - alpha)))

    one_m_a2 = 1.0 - alpha**2
    f = 1.0 - nu * beta - (xi + alpha * nu) * one_m_a2 * (xi + alpha * beta)
    g = xi + alpha**2 * one_m_a2 * (xi + alpha * nu)
    h = nu + alpha * one_m_a2 * (xi + alpha * nu)
    q = tau + eta * alpha + eta * xi
    e = alpha * one_m_a2 * (xi + alpha * beta) + 1.0 + nu

    k = int(k_max_col)
    reason = ""
    if f <= 0:
        lam_min = lam_max = np.nan
        reason = "f <= 0"
    else:
        num_max = 1.0 - alpha - alpha**3 * one_m_a2 - g * e / f
        den_max = 1.0 + alpha**2 * one_m_a2 + h * e / f
        if k > 0:
            lam_max = (num_max / den_max) / k
        else:
            lam_max = np.inf if num_max > 0 else -np.inf
        den_min = 1.0 - eta * alpha * k - k * q * h / f
        if den_min <= 0:
            lam_min = np.inf
            reason = "lambda_min denominator <= 0"
        else:
            lam_min = (gamma + q * g / f) / den_min
    feasible = bool(chi < 1.0 and f > 0 and lam_max > lam_min >= 0)
    if not feasible and not reason:
        if chi >= 1.0:
            reason = "chi >= 1"
        elif not lam_max > lam_min:
            reason = "empty lambda range"
    return IncoherenceReport(
        alpha, beta, xi, nu, eta, tau, gamma, k, chi, f, g, h, q, e,
        lambda_min=float(lam_min), lambda_max=float(lam_max),
        feasible=feasible, reason=reason,
    )


def measure_incoherences(routing, mask: SamplingMask, bundle: SubspaceBundle,
                         bases: InstanceBases) -> dict:
    """The arguments of `check_recovery_conditions`, as a dict.

    Every measure is exact: the incoherences are principal-angle cosines and
    `tau` is the closed-form row-norm maximum, so none depends on a random
    draw, and relabelling flows or periods moves them only by rounding.
    `bases` are the instance's shared bases from `instance_bases`.
    """
    T = bundle.shape[1]
    # The nullspace bases are the largest here, so each is dropped after its use.
    nr = nullspace_R_basis(routing, T)
    beta, nu = mu(bases.omega, nr), mu(nr, omega_basis(bundle.support & ~mask.mask))
    del nr
    npi = nullspace_Pi_basis(mask)
    xi, mu_npi_omega = mu(npi, bases.phi), mu(npi, bases.omega)
    del npi
    _, _, gamma, eta = gammas(bundle)
    return {
        "alpha": mu(bases.omega, bases.phi),
        "beta": beta,
        "xi": xi,
        "nu": nu,
        "eta": eta,
        "tau": tau(bases.inter),
        "gamma": gamma,
        "k_max_col": int(bundle.support.sum(axis=0).max(initial=0)),
        "mu_npi_omega": mu_npi_omega,
        "null_intersection_dim": bases.inter.dim,
    }


def demonstrate_nonidentifiability(routing, X0: np.ndarray, rank_tol: float = 1e-9,
                                   seed: int = 0) -> np.ndarray:
    """An alternative X1 != X0 with R X1 = R X0 and rank(X1) <= rank(X0).

    Constructed as X0 + w s' V0' with w in the routing nullspace; raises
    TrivialNullspaceError when the nullspace is empty.
    """
    R = routing_entries(routing)
    X0 = np.asarray(X0, dtype=np.float64)
    K = _null_space(R)
    if K.shape[1] == 0:
        raise TrivialNullspaceError("routing matrix is injective; instance identifiable")
    U, s, Vt = np.linalg.svd(X0, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("X0 must be nonzero")
    r = int(np.sum(s > rank_tol * s[0]))
    V0 = Vt[:r].T
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(r)
    direction /= np.linalg.norm(direction)
    W = 0.5 * s[0] * np.outer(K[:, 0], direction)
    return X0 + W @ V0.T


@dataclass(frozen=True)
class CertificateReport:
    """Dual-certificate construction results."""

    gamma_matrix: np.ndarray
    lam: float
    c1_residual: float
    c2_residual: float
    c3_residual: float
    c4_value: float
    c5_value: float
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c4_ok: bool
    c5_ok: bool

    @property
    def passes(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok and self.c4_ok and self.c5_ok


def dual_certificate(bundle: SubspaceBundle, lam: float, bases: InstanceBases,
                     sign_A0: np.ndarray | None = None) -> CertificateReport:
    """Construct and verify the dual certificate for one instance.

    Solves for the unique Gamma in Omega + Phi + (N_R cap N_Pi) whose
    projections match lam * sgn(A0) on the support, U0 V0' on the tangent
    space, and zero on the nullspace intersection; then checks the strict
    norm bounds.  `sign_A0` supplies the anomaly signs (defaults to +1 on the
    support, which matches anomalies known to be nonnegative).  `bases` are
    the instance's shared bases from `instance_bases`.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    F, T = bundle.shape
    support = bundle.support
    sign_target = np.where(support, 1.0 if sign_A0 is None else np.sign(sign_A0), 0.0)
    if not sign_target[support].all():
        raise ValueError("sign matrix is zero on part of the support")

    omega, phi, inter = bases.omega, bases.phi, bases.inter
    M = np.column_stack([b.vectors for b in (omega, phi, inter) if b.dim > 0])
    if M.shape[1] == 0:
        raise NotLocallyIdentifiableError("all certificate subspaces are trivial")
    G = M.T @ M
    w = np.linalg.eigvalsh(G)
    if w[0] <= 1e-10 * max(w[-1], 1.0):
        raise NotLocallyIdentifiableError(
            "support, tangent, and nullspace subspaces do not form a direct sum"
        )

    uv = bundle.U0 @ bundle.V0.T
    rhs = np.concatenate([
        lam * sign_target[support],
        phi.vectors.T @ _vec(uv) if phi.dim else np.zeros(0),
        np.zeros(inter.dim),
    ])
    coeff = np.linalg.solve(G, rhs)
    Gamma = (M @ coeff).reshape(F, T)

    c1_res = float(np.linalg.norm(project_phi(bundle, Gamma) - uv))
    c2_res = float(np.linalg.norm(np.where(support, Gamma - lam * sign_target, 0.0)))
    c3_res = float(np.linalg.norm(inter.project(Gamma)))
    perp = Gamma - project_phi(bundle, Gamma)
    c4_val = float(np.linalg.svd(perp, compute_uv=False)[0]) if perp.size else 0.0
    c5_val = float(np.abs(np.where(support, 0.0, Gamma)).max(initial=0.0))

    tol = 1e-8
    return CertificateReport(
        gamma_matrix=Gamma,
        lam=lam,
        c1_residual=c1_res,
        c2_residual=c2_res,
        c3_residual=c3_res,
        c4_value=c4_val,
        c5_value=c5_val,
        c1_ok=c1_res < tol,
        c2_ok=c2_res < tol,
        c3_ok=c3_res < tol,
        c4_ok=c4_val < 1.0,
        c5_ok=c5_val < lam,
    )
