import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, toeplitz

import trafficmaps.correlation as correlation
from trafficmaps.correlation import (
    CorrelationSet,
    ar1_autocov,
    burst_chain_autocorr,
    burst_correlations,
    condition_pd,
    corr_from_moments,
    equalize_traces,
    learn_Ra_from_history,
    learn_RQ_RL,
    split_RB_RC,
)
from trafficmaps.synth import BurstParams, gen_bursty_anomalies


def smooth_profiles(F, T, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(T) / T
    M = np.empty((F, T))
    for f in range(F):
        M[f] = scale * (1.5 + np.sin(2 * np.pi * (rng.integers(1, 4)) * t + rng.random() * 7))
    return M


def independent_flow_history(M, K, sigma, seed):
    """Cyclostationary data with independent flows: X[f, kT+t] = M[f,t] + noise."""
    F, T = M.shape
    rng = np.random.default_rng(seed)
    return np.tile(M, (1, K)) + sigma * rng.standard_normal((F, K * T))


def population_RQ(M, sigma, rho):
    """Population limit of the learned R_Q for the independent-flow generator."""
    F, T = M.shape
    C = M.T @ M + F * sigma**2 * np.eye(T)
    norm2 = np.linalg.norm(M) ** 2 + T * F * sigma**2
    R_Q = condition_pd(rho * C / denom_sqrt(norm2))
    R_L_raw = M @ M.T
    np.fill_diagonal(R_L_raw, (M**2).sum(axis=1) + T * sigma**2)
    R_L = condition_pd(rho * R_L_raw / denom_sqrt(norm2))
    return equalize_traces(R_L, R_Q)


def denom_sqrt(x):
    return np.sqrt(x)


def identity_rows(F, T):
    """F first rows of the T-by-T identity."""
    rows = np.zeros((F, T))
    rows[:, 0] = 1.0
    return rows


def singular_psd(F, seed):
    """A symmetric positive semidefinite F-by-F matrix of rank 2, trace F."""
    v = np.random.default_rng(seed).standard_normal((F, 2))
    M = v @ v.T
    M = 0.5 * (M + M.T)
    return M * (F / np.trace(M))


class TestCorrFromMoments:
    def test_isotropic_case(self):
        # rho=1, F=T, standard Gaussian factors: E[XX'] = T I, E[X'X] = F I,
        # E||X||^2 = F T, so both correlation matrices are the identity.
        F = T = 12
        R_L, R_Q = corr_from_moments(T * np.eye(F), F * np.eye(T), F * T, rho=1)
        assert np.allclose(R_L, np.eye(F), atol=1e-9)
        assert np.allclose(R_Q, np.eye(T), atol=1e-9)

    def test_monte_carlo_moments(self):
        # Verify the closed-form moments of l q' by simulation.
        F = T = 20
        rng = np.random.default_rng(0)
        acc_XXt = np.zeros((F, F))
        acc_norm = 0.0
        trials = 4000
        for _ in range(trials):
            l = rng.standard_normal(F)
            q = rng.standard_normal(T)
            X = np.outer(l, q)
            acc_XXt += X @ X.T
            acc_norm += np.linalg.norm(X) ** 2
        acc_XXt /= trials
        acc_norm /= trials
        assert acc_norm == pytest.approx(F * T, rel=0.05)
        assert np.mean(np.diag(acc_XXt)) == pytest.approx(T, rel=0.05)
        assert np.abs(acc_XXt - np.diag(np.diag(acc_XXt))).max() < 0.15 * T

    def test_homogeneity(self):
        F, T = 5, 7
        rng = np.random.default_rng(1)
        A = rng.standard_normal((F, F))
        EXXt = A @ A.T + np.eye(F)
        B = rng.standard_normal((T, T))
        EXtX = B @ B.T + np.eye(T)
        R_L1, _ = corr_from_moments(EXXt, EXtX, 3.0, rho=2)
        R_L2, _ = corr_from_moments(4 * EXXt, EXtX, 12.0, rho=2)
        assert np.allclose(R_L2, 2 * R_L1, atol=1e-9)

    def test_traces_match_for_consistent_moments(self):
        F, T = 6, 9
        rng = np.random.default_rng(2)
        G = rng.standard_normal((F, T))
        EXXt = G @ G.T + np.eye(F)
        EXtX = G.T @ G + np.eye(T) * (F / T)  # tr equal by construction
        assert np.trace(EXXt) == pytest.approx(np.trace(EXtX))
        R_L, R_Q = corr_from_moments(EXXt, EXtX, np.trace(EXXt), rho=1)
        assert np.trace(R_L) == pytest.approx(np.trace(R_Q), rel=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            corr_from_moments(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), 1.0, 1)


class TestLearnRQRL:
    def test_repeated_history_gives_gram(self):
        F, T, K = 6, 10, 4
        M = smooth_profiles(F, T, seed=3)
        _, R_Q = learn_RQ_RL(np.tile(M, (1, K)), T, rho=1)
        gram = M.T @ M
        # Proportionality up to the common normalization (and a PD floor).
        scale = np.trace(R_Q) / np.trace(gram)
        assert np.allclose(R_Q, scale * gram, atol=1e-6 * np.abs(R_Q).max())

    @pytest.mark.parametrize("width", [4, 10], ids=["one_day", "two_and_a_half_days"])
    def test_needs_two_whole_days(self, width):
        M = smooth_profiles(3, width, seed=0)
        with pytest.raises(ValueError, match="at least 2 days"):
            learn_RQ_RL(M, 4, rho=1)

    def test_consistency_in_days(self):
        F, T = 8, 16
        sigma, rho = 0.3, 2
        M = smooth_profiles(F, T, seed=4)
        _, RQ_pop = population_RQ(M, sigma, rho)
        errs = []
        for K in (5, 40, 200):
            per_seed = []
            for seed in range(20):
                hist = independent_flow_history(M, K, sigma, seed=100 * K + seed)
                _, R_Q = learn_RQ_RL(hist, T, rho=rho)
                per_seed.append(np.linalg.norm(R_Q - RQ_pop) / np.linalg.norm(RQ_pop))
            errs.append(np.mean(per_seed))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.2

    def test_independent_flows_uncorrelated(self):
        F, T, K = 2, 24, 50
        sigma = 0.5
        rng_M = np.zeros((F, T))  # zero-mean independent flows
        hist = independent_flow_history(rng_M, K, sigma, seed=11)
        R_L, _ = learn_RQ_RL(hist, T, rho=1)
        normalized = abs(R_L[0, 1]) / np.sqrt(R_L[0, 0] * R_L[1, 1])
        # 3 standard errors of the normalized mean product.
        assert normalized < 3.0 / (np.sqrt(T) * K)


class TestBurstCorrelations:
    def test_documented_parameter_value(self):
        rc = ar1_autocov(0.999, 0.005, 1)
        assert rc[0] == pytest.approx(2.5e-5 / 0.001999, rel=1e-12)
        assert rc[0] == pytest.approx(1.2506e-2, rel=1e-4)

    def test_nu_zero_silences(self):
        bp = BurstParams(50.0, 0.9, 0.1, 0.5, 0.0, (0,))
        Ra = burst_correlations(bp, 10, 2)
        assert np.abs(Ra).max() == 0.0

    def test_alpha_zero_formula_vs_simulation(self):
        # Independent oracle: simulate the Bernoulli recursion directly.
        nu = 0.3
        n = 400_000
        rng = np.random.default_rng(7)
        e = rng.random(n) < nu
        d = rng.random(n) < 0.0  # alpha = 0: always refresh
        b = np.empty(n, dtype=bool)
        prev = rng.random() < nu
        for t in range(n):
            prev = prev if d[t] else e[t]
            b[t] = prev
        formula = burst_chain_autocorr(0.0, nu, 4)
        assert formula[0] == pytest.approx(nu)
        assert np.all(formula[1:] == pytest.approx(nu**2))
        b = b.astype(float)
        for tau in range(4):
            emp = np.mean(b[tau:] * b[: n - tau]) if tau else np.mean(b * b)
            assert emp == pytest.approx(formula[tau], rel=0.05)

    def test_only_anomalous_rows(self):
        bp = BurstParams(2.0, 0.5, 1.0, 0.5, 0.5, (1,))
        Ra = burst_correlations(bp, 6, 3)
        assert np.abs(Ra[0]).max() == 0.0 and np.abs(Ra[2]).max() == 0.0
        assert Ra[1, 0] > 0

    @pytest.mark.parametrize("flow", [7, -2])
    def test_out_of_range_flow_rejected(self, flow):
        bp = BurstParams(2.0, 0.5, 1.0, 0.5, 0.5, (1, flow))
        with pytest.raises(ValueError, match=f"anomalous flow {flow} is outside"):
            burst_correlations(bp, 6, 4)
        with pytest.raises(ValueError, match=f"anomalous flow {flow} is outside"):
            gen_bursty_anomalies(4, 6, bp, seed=0)


class TestSplitBlocks:
    def test_diagonal_case(self):
        Ra = np.zeros((1, 5))
        Ra[0, 0] = 4.0
        rows_b, rows_c = split_RB_RC(Ra)
        assert rows_b[0, 0] == 2.0 and rows_c[0, 0] == 2.0
        assert np.abs(rows_b[0, 1:]).max() == 0.0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(8)
        seq = 0.8 ** np.arange(12) * np.sign(rng.standard_normal(12))
        seq[0] = abs(seq[0]) + 0.5
        Ra = seq[None, :]
        rows_b, rows_c = split_RB_RC(Ra)
        assert np.allclose(rows_b * rows_c, Ra, atol=1e-12)

    def test_geometric_decay_pd(self):
        Ra = (0.9 ** np.arange(30))[None, :]
        row_b = split_RB_RC(Ra)[0][0]
        assert np.allclose(row_b, 0.9 ** (np.arange(30) / 2), atol=1e-12)
        w = np.linalg.eigvalsh(toeplitz(row_b))
        assert w[0] > 0

    def test_zero_rows_get_scaled_identity(self):
        Ra = np.zeros((2, 4))
        Ra[0, 0] = 9.0
        rows_b, rows_c = split_RB_RC(Ra)
        assert rows_b[1, 0] == 3.0  # average diagonal of the nonzero flows
        assert np.abs(rows_b[1, 1:]).max() == 0.0
        assert np.array_equal(rows_c[1], rows_b[1])

    def test_mixed_rows_match_per_flow_formula(self):
        Ra = np.array([
            0.8 ** np.arange(6),                       # positive
            [4.0, -1.0, 0.5, -0.25, 0.0, -2.0],        # negative lags
            np.zeros(6),                               # zero: scaled identity
        ])
        rows_b, rows_c = split_RB_RC(Ra)
        assert rows_b.shape == rows_c.shape == Ra.shape
        fill = np.mean([1.0, 2.0])  # sqrt(R_a(0)) of the two nonzero flows
        for f in range(2):
            mag = np.sqrt(np.abs(Ra[f]))
            assert np.array_equal(rows_b[f], mag)
            assert np.array_equal(rows_c[f], mag * np.sign(Ra[f]))
        for rows in (rows_b, rows_c):
            assert np.array_equal(rows[2], np.r_[fill, np.zeros(5)])

    def test_rejects_nonpositive_lag0(self):
        Ra = np.array([[-1.0, 0.2]])
        with pytest.raises(ValueError, match="positive"):
            split_RB_RC(Ra)


class TestLearnRa:
    def test_constant_row(self):
        hist = np.ones((1, 40))
        Ra = learn_Ra_from_history(hist, 8)
        assert np.allclose(Ra[0], np.ones(8), atol=1e-12)

    def test_zero_row(self):
        hist = np.zeros((1, 40))
        assert np.abs(learn_Ra_from_history(hist, 8)).max() == 0.0

    def test_long_burst_run_matches_formula(self):
        # The AR part mixes over ~1/(1-theta) = 1000 slots, so average the
        # per-flow estimates of several i.i.d. anomalous flows.
        n_flows = 10
        bp = BurstParams(
            gamma_f=50.0, theta=0.999, sigma_n=0.005, alpha=0.98, nu=0.03,
            anomalous_flows=tuple(range(n_flows)),
        )
        T_lag = 21
        horizon = 200_000
        A = gen_bursty_anomalies(n_flows, horizon, bp, seed=12)
        cols = (horizon // T_lag) * T_lag
        emp = learn_Ra_from_history(A[:, :cols], T_lag).mean(axis=0)
        ana = burst_correlations(bp, T_lag, n_flows)[0]
        rel = np.abs(emp - ana) / np.abs(ana)
        assert rel.max() < 0.10


class TestConditionPd:
    def test_pd_unchanged(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((6, 6))
        M = G @ G.T + 6 * np.eye(6)
        out = condition_pd(M)
        assert np.abs(out - M).max() < 1e-12 * np.abs(M).max()

    def test_rank_deficient_ones(self):
        out = condition_pd(np.ones((2, 2)))
        w = np.sort(np.linalg.eigvalsh(out))
        assert w[1] == pytest.approx(2.0, rel=1e-12)
        assert w[0] == pytest.approx(2e-6, rel=1e-6)

    def test_floor_invariant(self):
        rng = np.random.default_rng(10)
        for k in range(5):
            G = rng.standard_normal((5, 3))
            M = G @ G.T  # rank deficient
            out = condition_pd(M, floor=1e-6)
            w = np.linalg.eigvalsh(out)
            assert w[0] >= 1e-6 * w[-1] * (1 - 1e-8)  # up to reconstruction rounding

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            condition_pd(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestLinearAlgebra:
    """The package's own Toeplitz builder and PD inverse against scipy's."""

    @pytest.mark.parametrize("row", [
        np.array([2.0]), 0.7 ** np.arange(6), np.array([3.0, -1.0, 0.0, 0.5, -2.5]),
        np.random.default_rng(15).standard_normal(48),
    ])
    def test_toeplitz_matches_scipy_bytes(self, row):
        got = correlation.toeplitz(row)
        assert got.dtype == np.float64
        assert got.tobytes() == toeplitz(row).tobytes()

    @pytest.mark.parametrize("row", [0.7 ** np.arange(9), 0.99 ** (np.arange(12) ** 2)])
    def test_pd_inverse_matches_cholesky_solve(self, row):
        # the second row is clipped at the condition_pd floor (condition 1e6)
        M = condition_pd(toeplitz(row))
        ref = cho_solve(cho_factor(M), np.eye(len(row)))
        got = correlation._pd_inverse(M)
        assert np.array_equal(got, got.T)
        cond = np.linalg.cond(M)
        assert np.linalg.norm(got - ref) <= 1e-14 * cond * np.linalg.norm(ref)

    @pytest.mark.parametrize("M", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.zeros((3, 3)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.diag([1.0, np.inf]),
    ])
    def test_pd_inverse_rejects_non_pd_and_non_finite(self, M):
        with pytest.raises(np.linalg.LinAlgError):
            correlation._pd_inverse(M)


class TestCorrelationSet:
    def test_identity_square(self):
        cs = CorrelationSet.identity(5, 5)
        assert np.array_equal(cs.R_L, np.eye(5))
        M = np.arange(25.0).reshape(5, 5)
        assert np.allclose(cs.solve_RB(M), M)
        assert np.sum(M * cs.solve_RC(M)) == pytest.approx(np.sum(M * M))

    def test_identity_rectangular_traces_match(self):
        cs = CorrelationSet.identity(4, 9)
        assert np.trace(cs.R_L) == pytest.approx(np.trace(cs.R_Q))

    @pytest.mark.parametrize("F, T, shape_b, shape_c, message", [
        (4, 3, (4, 3), (4, 3), "traces must match"),  # tr(I_4) = 4, tr(I_3) = 3
        (3, 3, (3, 4), (3, 4), "flows-by-periods"),   # rows of length T + 1
        (3, 3, (3, 3), (2, 3), "flows-by-periods"),   # rows_c shaped unlike rows_b
    ])
    def test_inconsistent_inputs_rejected(self, F, T, shape_b, shape_c, message):
        with pytest.raises(ValueError, match=message):
            CorrelationSet(np.eye(F), np.eye(T), identity_rows(*shape_b), identity_rows(*shape_c))

    def test_block_solver_matches_dense(self):
        rng = np.random.default_rng(13)
        T = 8
        row = 0.7 ** np.arange(T)
        rows = np.tile(row, (3, 1))
        cs = CorrelationSet(np.eye(3) * (T / 3.0), np.eye(T), rows, rows)
        M = rng.standard_normal((3, T))
        dense = condition_pd(toeplitz(row))
        expected = np.linalg.solve(dense, M.T).T
        assert np.allclose(cs.solve_RB(M), expected, atol=1e-10)

    def test_grouped_prior_solves_match_per_row(self):
        # Three distinct Toeplitz rows plus one diagonal row, interleaved.
        rng = np.random.default_rng(14)
        T = 7
        diag = np.zeros(T)
        diag[0] = 2.5
        distinct = [0.7 ** np.arange(T), 0.3 ** np.arange(T), (-0.5) ** np.arange(T), diag]
        order = [0, 1, 2, 3, 0, 2, 1, 0, 3]
        rows_b = np.array([distinct[k] for k in order])
        rows_c = np.array([distinct[(k + 1) % 4] for k in order])
        F = len(order)
        cs = CorrelationSet(np.eye(F) * (T / F), np.eye(T), rows_b, rows_c)
        M = rng.standard_normal((F, T))

        def per_row(row, v):
            return cho_solve(cho_factor(condition_pd(toeplitz(row))), v)

        for solve, rows in ((cs.solve_RB, rows_b), (cs.solve_RC, rows_c)):
            got = solve(M)
            for f in range(F):
                expected = per_row(rows[f], M[f])
                assert np.allclose(got[f], expected, rtol=1e-12, atol=1e-12)
        inv_norms = [1.0 / np.linalg.eigvalsh(condition_pd(toeplitz(r)))[0] for r in distinct]
        assert cs.inv_norm_RB == pytest.approx(max(inv_norms), rel=1e-12)

    def test_inv_norms_bound_the_applied_operator(self):
        # Both Toeplitz rows are clipped at the condition_pd floor (condition
        # number 1e6).  There, one over the block's smallest eigenvalue can
        # fall short of the norm of the operator the solves apply by 2e-11.
        T = 12
        k = np.arange(T)
        diag = np.zeros(T)
        diag[0] = 2.0
        gauss, kms = 0.99 ** (k**2), 0.99999**k
        rows_b, rows_c = np.array([gauss, diag, gauss]), np.array([kms, diag, kms])
        F = len(rows_b)
        cs = CorrelationSet(np.eye(F) * (T / F), np.eye(T), rows_b, rows_c)
        for row in (gauss, kms):
            w = np.linalg.eigvalsh(condition_pd(toeplitz(row)))
            assert w[-1] / w[0] == pytest.approx(1e6, rel=1e-3)
        units = np.eye(F * T).reshape(F * T, F, T)
        for solve, bound in ((cs.solve_RB, cs.inv_norm_RB), (cs.solve_RC, cs.inv_norm_RC)):
            op = np.stack([solve(E).ravel() for E in units], axis=1)
            # The slack covers only the rounding of the reference norm itself.
            assert bound >= np.linalg.norm(op, 2) * (1 - 1e-14)

    @pytest.mark.parametrize("R_L", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3, -1
        singular_psd(3, seed=0),             # rank 2; eigvalsh reads its 0 as +1.7e-17
    ], ids=["indefinite", "singular_psd"])
    def test_non_pd_rejected(self, R_L):
        F = R_L.shape[0]
        rows = identity_rows(F, F)
        with pytest.raises(ValueError, match="R_L and R_Q must be positive definite"):
            CorrelationSet(R_L, np.eye(F), rows, rows)
