import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize_scalar

import trafficmaps.admm as admm
from trafficmaps.admm import (
    AdmmConfig,
    ColumnSolves,
    admm_solve_p1,
    admm_solve_p2,
    admm_solve_p2_path,
    admm_solve_p6,
    default_lambda,
    fit_lipschitz,
    p1_objective,
    p6_objective,
    soft_threshold,
    svt,
)
from trafficmaps.model import (
    DivergenceError, Observations, SamplingMask, TrafficMatrices, relative_errors,
    routing_entries,
)
from trafficmaps.pipelines import ExperimentConfig, build_scenario


def make_scenario(seed, F=30, T=30, rho=1, p=0.02, K=3, pi=0.4, N=10, d_c=0.6):
    cfg = ExperimentConfig({
        "synth.nodes": N, "synth.radius": d_c, "synth.flows": F, "synth.periods": T,
        "synth.rank": rho, "synth.anomaly_prob": p, "synth.paths": K, "synth.sample_prob": pi,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = build_scenario(cfg, seed)
    return s.routing, s.truth.nominal, s.truth.anomalies, s.obs


EPS = np.finfo(np.float64).eps
SVD_FORM = admm._svt_by_svd


def by_svd(M, tau):
    """The SVD form of SVT, `svt`'s fallback and the oracle of its Gram form."""
    M = np.asarray(M, dtype=np.float64)
    return SVD_FORM(M.reshape((-1,) + M.shape[-2:]), tau).reshape(M.shape)


def count_fallbacks(monkeypatch):
    """Route `svt`'s SVD fallback through a recorder; returns the list of the
    stack sizes it is called with."""
    calls = []

    def recorded(stack, tau):
        calls.append(len(stack))
        return SVD_FORM(stack, tau)

    monkeypatch.setattr(admm, "_svt_by_svd", recorded)
    return calls


def guard_scale(m, n):
    """||M||_F / tau at which an m x n matrix reaches the Gram guard."""
    return admm._GRAM_GUARD / (max(m, n) * EPS)


def with_spectrum(rng, m, n, s):
    """An m x n matrix with singular values s and random singular vectors."""
    U = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (U * s) @ V.T


class TestSoftThreshold:
    def test_scalar_examples(self):
        assert soft_threshold(2.0, 1.5) == pytest.approx(0.5)
        assert soft_threshold(-3.0, 1.0) == pytest.approx(-2.0)

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 5))
        assert np.array_equal(soft_threshold(M, 0.0), M)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 3)), np.array([[0.1], [-0.1]]))

    def test_one_threshold_per_stacked_matrix(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((3, 4, 5))
        taus = np.array([0.0, 0.5, 2.0])
        out = soft_threshold(stack, taus[:, None, None])
        for M, tau, A in zip(stack, taus, out):
            assert np.array_equal(A, soft_threshold(M, tau))

    def test_prox_property_scalar_grid(self):
        # Brute-force oracle: minimize 0.5 (x - m)^2 + tau |x| per scalar.
        rng = np.random.default_rng(1)
        for m in rng.uniform(-4, 4, size=12):
            for tau in (0.0, 0.3, 1.7):
                res = minimize_scalar(
                    lambda x: 0.5 * (x - m) ** 2 + tau * abs(x),
                    bounds=(-6, 6), method="bounded",
                    options={"xatol": 1e-12},
                )
                assert soft_threshold(m, tau) == pytest.approx(res.x, abs=1e-6)


class TestSvt:
    def test_zero_threshold(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 4))
        assert np.allclose(svt(M, 0.0), M, atol=1e-10)

    def test_large_threshold_zeroes(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        top = np.linalg.svd(M, compute_uv=False)[0]
        assert np.array_equal(svt(M, top + 1.0), np.zeros((4, 4)))

    def test_diagonal_example(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_stack_matches_each_matrix(self, monkeypatch):
        # Gram-form and fallback matrices mixed in one stack: each gets the
        # bytes it gets alone, tall or wide.
        fallbacks = count_fallbacks(monkeypatch)
        for shape in [(6, 5), (5, 6)]:
            rng = np.random.default_rng(8)
            stack = rng.standard_normal((5,) + shape)
            stack[1] *= 0.01  # every singular value of this one falls below tau
            stack[2] *= 1e200  # its norm overflows
            stack[3] *= 1.01 * guard_scale(*shape) * 0.5 / np.linalg.norm(stack[3])  # past the guard
            fallbacks.clear()
            out = svt(stack, 0.5)
            assert fallbacks == [2]
            assert not out[1].any()
            for M, X in zip(stack, out):
                assert np.array_equal(X, svt(M, 0.5))
            assert fallbacks == [2, 1, 1]

    SPECTRA = ("gaussian", "rank_deficient", "clustered", "wide_to_guard")
    SHAPES = [(30, 12), (12, 30), (25, 25), (3, 2), (1, 5), (3, 20, 20), (2, 8, 16)]

    @staticmethod
    def spectrum(rng, kind, m, n, tau):
        k = min(m, n)
        if kind == "gaussian":
            return np.linalg.svd(rng.standard_normal((m, n)), compute_uv=False) * tau
        if kind == "rank_deficient":
            s = tau * rng.uniform(0.0, 3.0, k)
            s[rng.integers(k):] = 0.0
            return s
        if kind == "clustered":
            return tau * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, k))
        # eleven decades, the largest singular value just under the guard
        s = tau * 10.0 ** rng.uniform(-3.0, 8.0, k)
        return s * rng.uniform(0.5, 0.99) * guard_scale(m, n) * tau / np.linalg.norm(s)

    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gram_form_matches_svd(self, monkeypatch, kind, shape):
        # Within 1e-12 * ||M||_F, or within the documented squaring error
        # n*eps*||M||_F^2/tau where that is larger (near the guard).
        rng = np.random.default_rng([self.SPECTRA.index(kind), self.SHAPES.index(shape)])
        *batch, m, n = shape
        fallbacks = count_fallbacks(monkeypatch)
        for _ in range(20):
            tau = 10.0 ** rng.uniform(-3.0, 3.0)
            stack = np.array([with_spectrum(rng, m, n, self.spectrum(rng, kind, m, n, tau))
                              for _ in range(batch[0] if batch else 1)]).reshape(shape)
            out = svt(stack, tau)
            for M, X in zip(stack.reshape(-1, m, n), out.reshape(-1, m, n)):
                norm = np.linalg.norm(M)
                bound = max(1e-12, max(m, n) * EPS * norm / tau) * norm
                assert np.linalg.norm(X - by_svd(M, tau)) <= bound
        assert fallbacks == []

    @pytest.mark.parametrize("shape", [(7, 5), (6, 6)])
    def test_fallback_gives_svd_bytes(self, monkeypatch, shape):
        rng = np.random.default_rng(11)
        M = rng.standard_normal(shape)
        past_guard = M * (1.01 * guard_scale(*shape) * 0.7 / np.linalg.norm(M))
        cases = [(M, 0.0), (M * 1e200, 1e199), (past_guard, 0.7)]
        fallbacks = count_fallbacks(monkeypatch)
        for A, tau in cases:
            X = svt(A, tau)
            assert np.isfinite(X).all() and np.array_equal(X, by_svd(A, tau))
        assert fallbacks == [1, 1, 1]

    def test_zero_matrix_divides_by_nothing(self):
        with np.errstate(divide="raise", invalid="raise"):
            for tau in (0.0, 0.3):
                assert np.array_equal(svt(np.zeros((4, 3)), tau), np.zeros((4, 3)))
                assert np.array_equal(svt(np.zeros((2, 3, 4)), tau), np.zeros((2, 3, 4)))

    def test_non_finite_rejected(self):
        M = np.ones((2, 2))
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            svt(M, 0.1)

    def test_minimizer_subgradient_conditions_4x4(self):
        # svt(M, tau) minimizes the convex f(X) = 0.5||X - M||_F^2 + tau||X||_*.
        # For convex f the one-sided difference quotient along any direction is
        # at least the directional derivative, which is >= 0 exactly at the
        # minimizer; a perturbed point must expose a descent direction.
        rng = np.random.default_rng(4)
        for trial in range(5):
            M = rng.standard_normal((4, 4))
            tau = 0.3 + 0.4 * trial

            def objective(X):
                return 0.5 * np.sum((X - M) ** 2) + tau * np.linalg.svd(
                    X, compute_uv=False
                ).sum()

            X_star = svt(M, tau)
            f_star = objective(X_star)
            h = 1e-7
            for _ in range(40):
                D = rng.standard_normal((4, 4))
                D /= np.linalg.norm(D)
                assert (objective(X_star + h * D) - f_star) / h >= -1e-8
            # moving toward the minimizer from a perturbed point descends
            X_off = X_star + 0.05 * rng.standard_normal((4, 4))
            to_star = X_star - X_off
            to_star /= np.linalg.norm(to_star)
            assert (objective(X_off + h * to_star) - objective(X_off)) / h < 0


class TestColumnSolves:
    def test_identity_case(self):
        handles = ColumnSolves(np.zeros((2, 3)), np.zeros((3, 2), dtype=bool))
        v = np.array([1.0, -2.0, 3.0])
        assert np.allclose(handles.apply_column(0, v), v)

    def test_full_mask_halves(self):
        handles = ColumnSolves(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))
        v = np.array([2.0, 4.0, -6.0])
        assert np.allclose(handles.apply_column(1, v), v / 2)

    def test_residual_check(self):
        rng = np.random.default_rng(5)
        R = rng.random((5, 8))
        mask = rng.random((8, 6)) < 0.5
        handles = ColumnSolves(R, mask)
        for t in range(6):
            v = rng.standard_normal(8)
            sol = handles.apply_column(t, v)
            assert np.abs(handles.system_matrix(t) @ sol - v).max() < 1e-10

    def test_pattern_sharing(self):
        R = np.ones((2, 4))
        mask = np.zeros((4, 5), dtype=bool)
        mask[0, [0, 2, 4]] = True  # two distinct patterns across five columns
        handles = ColumnSolves(R, mask)
        assert handles.n_patterns == 2

    def test_column_order_independence(self):
        rng = np.random.default_rng(6)
        R = rng.random((4, 7))
        mask = rng.random((7, 9)) < 0.3
        handles = ColumnSolves(R, mask)
        V = rng.standard_normal((7, 9))
        out = handles.apply(V)
        for t in rng.permutation(9):
            assert np.array_equal(out[:, t], handles.apply_column(t, V[:, t]))

    def test_update_identity(self):
        # The O and B updates solve G_t x = v_t - (Pi_t + R'R) b_t with
        # G_t = I + Pi_t + R'R; _split forms G^{-1}(V + B) - B.
        rng = np.random.default_rng(7)
        R = rng.random((6, 9))
        mask = rng.random((9, 8)) < 0.4
        mask[:, [5, 6]] = mask[:, [1, 2]]  # repeated patterns
        handles = ColumnSolves(R, mask)
        V, B = rng.standard_normal((9, 8)), rng.standard_normal((9, 8))
        out = handles.apply(V + B) - B
        for t in range(8):
            b = B[:, t]
            fit = mask[:, t] * b + R.T @ (R @ b)
            ref = np.linalg.solve(handles.system_matrix(t), V[:, t] - fit)
            assert np.abs(out[:, t] - ref).max() < 1e-12

    def test_inverses_match_cholesky_solves(self):
        rng = np.random.default_rng(8)
        R = rng.random((7, 12))
        mask = rng.random((12, 10)) < 0.4
        mask[:, [6, 9]] = mask[:, [0, 3]]  # repeated patterns
        handles = ColumnSolves(R, mask)
        eye = np.eye(12)
        for t in range(10):
            ref = cho_solve(cho_factor(handles.system_matrix(t)), eye)
            got = np.stack([handles.apply_column(t, e) for e in eye], axis=1)
            assert np.abs(got - ref).max() <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_routing_raises(self, bad):
        R = np.ones((3, 4))
        R[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ColumnSolves(R, np.ones((4, 5), dtype=bool))

    def test_precompute_wrapper(self):
        r, _, _, obs = make_scenario(0, F=12, T=10, N=8, d_c=0.7)
        handles = ColumnSolves(routing_entries(r), obs.mask.mask)
        assert handles.n_patterns >= 1


class TestAdmmP2:
    def test_zero_data_gives_zero(self):
        r, _, _, obs = make_scenario(1, F=12, T=10, N=8, d_c=0.7)
        zero_obs = Observations(
            np.zeros_like(obs.link_counts), np.zeros_like(obs.flow_counts), obs.mask
        )
        X, A, rep = admm_solve_p2(zero_obs, r, AdmmConfig(max_iters=50))
        assert np.abs(X).max() == 0.0
        assert np.abs(A).max() == 0.0
        assert rep.converged

    def test_exact_recovery(self):
        r, X0, A0, obs = make_scenario(2, F=60, T=60, rho=2, p=0.01, pi=0.25, N=15, d_c=0.5)
        X, A, rep = admm_solve_p2(obs, r, AdmmConfig(max_iters=2000))
        _, _, e_sum = relative_errors(TrafficMatrices(X, A), TrafficMatrices(X0, A0))
        assert e_sum < 1e-3
        assert rep.converged

    def test_failure_regime_error_near_one(self):
        r, X0, A0, obs = make_scenario(0, F=60, T=60, rho=25, p=0.30, pi=0.25, N=15, d_c=0.5)
        X, A, rep = admm_solve_p2(obs, r, AdmmConfig(max_iters=600))
        _, _, e_sum = relative_errors(TrafficMatrices(X, A), TrafficMatrices(X0, A0))
        assert e_sum > 0.5

    def test_residuals_non_divergent(self):
        r, _, _, obs = make_scenario(3, F=20, T=20, N=9, d_c=0.65)
        _, _, rep = admm_solve_p2(obs, r, AdmmConfig(max_iters=400))
        r_y = rep.residuals["r_y"]
        assert r_y[-1] < r_y[0]
        assert max(r_y[-10:]) <= 10 * min(r_y[:10]) + 1e-9

    def test_non_finite_iterate_raises_divergence(self):
        r, _, _, obs = make_scenario(1, F=12, T=10, N=8, d_c=0.7)
        huge = Observations(obs.link_counts * 1e308, obs.flow_counts, obs.mask)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            admm_solve_p2(huge, r, AdmmConfig(max_iters=50))

    def test_penalty_coefficient_invariance(self):
        # Any positive penalty must reach the same optimum; this pins down the
        # multiplier scaling of the per-column updates.
        r, X0, A0, obs = make_scenario(6, F=16, T=14, N=8, d_c=0.7)
        sols = []
        for c in (1.0, 2.5):
            X, A, rep = admm_solve_p2(
                obs, r,
                AdmmConfig(c=c, max_iters=6000, tol_primal=1e-11, tol_dual=1e-11),
            )
            assert rep.converged
            sols.append((X, A))
        assert np.abs(sols[0][0] - sols[1][0]).max() < 1e-6
        assert np.abs(sols[0][1] - sols[1][1]).max() < 1e-6


class TestAdmmP2Path:
    # (seed, scenario, lambda multiples, max_iters, iterations per lambda): every
    # lambda converging at its own iteration, and stacks in which some lambdas
    # converge while the others stay in the stack until max_iters.
    CASES = [
        (1, dict(F=12, T=10, N=8, d_c=0.7), (0.3, 1.0, 3.0), 2000, (1530, 95, 188)),
        (6, dict(F=16, T=14, N=8, d_c=0.7), (0.5, 1.0, 2.0, 4.0), 200, (200, 153, 154, 200)),
        (3, dict(F=20, T=20, N=9, d_c=0.65), (0.3, 1.0, 3.0), 400, (400, 100, 163)),
        (2, dict(F=24, T=24, rho=2, p=0.05, N=10, d_c=0.6), (0.3, 1.0, 3.0), 600, (600, 130, 516)),
    ]

    @staticmethod
    def lambdas(kw, scales):
        return default_lambda(kw["F"], kw["T"]) * np.array(scales)

    @pytest.mark.parametrize("seed, kw, scales, max_iters, iterations", CASES)
    def test_each_lambda_matches_its_own_solve(self, seed, kw, scales, max_iters, iterations):
        r, _, _, obs = make_scenario(seed, **kw)
        cfg = AdmmConfig(max_iters=max_iters)
        lams = self.lambdas(kw, scales)
        path = admm_solve_p2_path(obs, r, cfg, lams)
        assert [rep.iterations for _, _, rep in path] == list(iterations)
        for lam, (X, A, rep) in zip(lams, path):
            X1, A1, rep1 = admm_solve_p2(obs, r, replace(cfg, lam=lam))
            assert np.array_equal(X, X1) and np.array_equal(A, A1)
            assert rep.iterations == rep1.iterations
            assert rep.converged == rep1.converged == (rep.iterations < max_iters)
            assert rep.residuals == rep1.residuals

    def test_results_own_their_memory(self):
        # The lambdas leave the stack at 100 and 163 iterations and at the cap;
        # a result that is a view would keep the whole stack alive.
        seed, kw, scales, max_iters, iterations = self.CASES[2]
        r, _, _, obs = make_scenario(seed, **kw)
        path = admm_solve_p2_path(obs, r, AdmmConfig(max_iters=max_iters),
                                  self.lambdas(kw, scales))
        assert [rep.iterations for _, _, rep in path] == list(iterations)
        for X, A, _ in path:
            assert X.base is None and A.base is None

    def test_non_finite_lambda_leaves_alone(self, monkeypatch):
        seed, kw, scales, max_iters, _ = self.CASES[2]
        r, _, _, obs = make_scenario(seed, **kw)
        cfg = AdmmConfig(max_iters=max_iters)
        lams = self.lambdas(kw, scales)
        alone = [admm_solve_p2(obs, r, replace(cfg, lam=lam)) for lam in lams]
        real = admm.soft_threshold

        def poisoned(M, tau):  # the middle lambda's anomaly iterate turns nan
            out = real(M, tau)
            out[np.ravel(tau) == lams[1] / cfg.c] = np.nan
            return out

        monkeypatch.setattr(admm, "soft_threshold", poisoned)
        path = admm_solve_p2_path(obs, r, cfg, lams)
        assert isinstance(path[1], DivergenceError)
        assert path[1].iteration == 1  # the nan reaches O through B one sweep later
        for i in (0, 2):
            X, A, rep = path[i]
            X1, A1, rep1 = alone[i]
            assert np.array_equal(X, X1) and np.array_equal(A, A1)
            assert (rep.iterations, rep.converged, rep.residuals) == (
                rep1.iterations, rep1.converged, rep1.residuals)

    @pytest.mark.parametrize("lams", [[], [0.1, 0.0], [0.1, np.nan], [[0.1]]])
    def test_rejects_bad_lambdas(self, lams):
        r, _, _, obs = make_scenario(1, F=12, T=10, N=8, d_c=0.7)
        with pytest.raises(ValueError):
            admm_solve_p2_path(obs, r, AdmmConfig(), lams)


class TestSolversTakeGramForm:
    # A guard that sent every matrix to the SVD would pass every other test.
    @pytest.mark.parametrize("solver", ["p1", "p2_path"])
    def test_every_svt_call_takes_the_gram_form(self, monkeypatch, solver):
        r, _, _, obs = make_scenario(3, F=20, T=20, N=9, d_c=0.65)
        real = admm.svt
        fallbacks = count_fallbacks(monkeypatch)
        kept = []

        def checked(M, tau):
            X = real(M, tau)
            # p2 passes a stack, p1 one matrix
            for Mi, Xi in zip(M.reshape((-1,) + M.shape[-2:]), X.reshape((-1,) + X.shape[-2:])):
                assert np.linalg.norm(Xi - by_svd(Mi, tau)) <= 1e-12 * np.linalg.norm(Mi)
                kept.append(np.linalg.matrix_rank(Xi))
            return X

        monkeypatch.setattr(admm, "svt", checked)
        if solver == "p1":
            admm_solve_p1(obs, r, AdmmConfig(lambda_star=0.03, lambda_1=0.01, max_iters=100))
        else:
            admm_solve_p2_path(obs, r, AdmmConfig(max_iters=100),
                               default_lambda(20, 20) * np.array([0.3, 1.0, 3.0]))
        assert fallbacks == []
        assert len(kept) >= 100 and 0 < np.median(kept) < 20  # thresholds bite


class TestAdmmP1:
    def test_thresholds_give_zero_solution(self):
        r, _, _, obs = make_scenario(1)
        g = r.entries.T @ obs.link_counts + obs.flow_counts
        lam1 = 1.05 * np.abs(g).max()
        lams = 1.05 * np.linalg.svd(g, compute_uv=False)[0]
        cfg = AdmmConfig(lambda_star=lams, lambda_1=lam1, max_iters=3000)
        X, A, rep = admm_solve_p1(obs, r, cfg)
        assert np.abs(X).max() == 0.0
        assert np.abs(A).max() == 0.0

    def test_large_lambda1_alone_zeroes_anomalies(self):
        # With lambda_1 above the gradient-infinity threshold at the origin,
        # the anomaly block stays zero even for moderate nuclear weights.
        r, _, _, obs = make_scenario(1)
        g = r.entries.T @ obs.link_counts + obs.flow_counts
        lam1 = 1.05 * np.abs(g).max()
        lams = 0.3 * np.linalg.svd(g, compute_uv=False)[0]
        cfg = AdmmConfig(lambda_star=lams, lambda_1=lam1, max_iters=4000,
                         tol_primal=1e-10, tol_dual=1e-10)
        X, A, _ = admm_solve_p1(obs, r, cfg)
        assert np.abs(A).max() == 0.0
        assert np.abs(X).max() > 0.0  # nominal part is actually estimated

    def test_objective_bounded_by_zero_solution(self):
        r, _, _, obs = make_scenario(2)
        cfg = AdmmConfig(lambda_star=0.1, lambda_1=0.05, max_iters=1500)
        X, A, rep = admm_solve_p1(obs, r, cfg)
        zero_obj = 0.5 * np.linalg.norm(obs.link_counts) ** 2 + 0.5 * np.linalg.norm(
            obs.flow_counts
        ) ** 2
        assert rep.objective <= zero_obj + 1e-9
        assert rep.objective == pytest.approx(
            p1_objective(X, A, obs, r, 0.1, 0.05), rel=1e-12
        )

    def test_small_lambda_approaches_p2(self):
        r, X0, A0, obs = make_scenario(3)
        lam = default_lambda(30, 30)
        X2, A2, _ = admm_solve_p2(
            obs, r, AdmmConfig(lam=lam, max_iters=4000, tol_primal=1e-10, tol_dual=1e-10)
        )
        devs = []
        for scale, iters in ((1e-2, 8000), (1e-3, 20000)):
            cfg = AdmmConfig(
                lambda_star=scale, lambda_1=scale * lam, max_iters=iters,
                tol_primal=1e-11, tol_dual=1e-11,
            )
            X1, A1, _ = admm_solve_p1(obs, r, cfg)
            devs.append(np.linalg.norm(X1 - X2) / np.linalg.norm(X2))
        assert devs[1] < devs[0]
        assert devs[1] < 5e-3


class TestProxGrad:
    """The accelerated proximal-gradient loop behind p1 and p6."""

    @staticmethod
    def fit_hessian(R, mask, link_mask, outliers):
        """The dense Hessian of the smooth p1/p6 fit in (X, A[, O_y, O_z]), by
        polarization of the module's own objective at zero data and weights."""
        (L, F), T = R.shape, mask.shape[1]
        obs = Observations(np.zeros((L, T)), np.zeros((F, T)), SamplingMask(mask))
        zero = AdmmConfig(lambda_star=0.0, lambda_1=0.0, lambda_y=0.0, lambda_z=0.0)
        shapes = [(F, T), (F, T)] + ([(L, T), (F, T)] if outliers else [])
        n = sum(a * b for a, b in shapes)

        def fit(w):
            blocks, start = [], 0
            for a, b in shapes:
                blocks.append(w[start:start + a * b].reshape(a, b))
                start += a * b
            if outliers:
                return p6_objective(*blocks, obs, R, link_mask, zero)
            return p1_objective(*blocks, obs, R, 0.0, 0.0)

        eye = np.eye(n)
        diag = np.array([fit(e) for e in eye])
        H = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                H[i, j] = H[j, i] = fit(eye[i] + eye[j]) - diag[i] - diag[j]
        return H

    @pytest.mark.parametrize("kind", ["p1", "p6", "p6_link_mask"])
    def test_step_bound_covers_fit_hessian(self, kind):
        # The step 1/L is safe only if L bounds the fit's curvature; the MM
        # curvature bounds are held to the same standard (criterion 05).
        worst = 0.0
        for inst in range(4):
            rng = np.random.default_rng(40 + inst)
            R = rng.random((3, 4))
            mask = rng.random((4, 3)) < 0.5
            link_mask = rng.random((3, 3)) < 0.6 if kind == "p6_link_mask" else None
            H = self.fit_hessian(R, mask, link_mask, outliers=kind != "p1")
            top = np.linalg.eigvalsh(H)[-1]
            assert fit_lipschitz(R) >= top
            worst = max(worst, top / fit_lipschitz(R))
        assert worst > 0.5  # the Hessian is not trivially small

    @pytest.mark.parametrize("solver", [admm_solve_p1, admm_solve_p6])
    def test_non_finite_iterate_raises_divergence(self, solver):
        r, _, _, obs = make_scenario(1, F=12, T=10, N=8, d_c=0.7)
        huge = Observations(obs.link_counts * 1e308, obs.flow_counts, obs.mask)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            solver(huge, r, AdmmConfig(max_iters=50))

    def test_capped_solve_reports_not_converged(self):
        r, _, _, obs = make_scenario(2)
        X, A, rep = admm_solve_p1(obs, r, AdmmConfig(lambda_star=0.1, lambda_1=0.05,
                                                     max_iters=3))
        assert not rep.converged and rep.iterations == 3
        assert len(rep.residuals["grad_map"]) == 3
        assert rep.residuals["grad_map"][-1] > 1e-6 * (1 + np.linalg.norm(obs.link_counts))

    def test_converged_solve_meets_its_tolerance(self):
        r, _, _, obs = make_scenario(2)
        cfg = AdmmConfig(lambda_star=0.1, lambda_1=0.05, tol_primal=1e-7, tol_dual=1e-5)
        _, _, rep = admm_solve_p1(obs, r, cfg)
        # the smaller of the two tolerances stops the loop
        assert rep.converged and rep.residuals["grad_map"][-1] <= 1e-7
        assert min(rep.residuals["grad_map"][:-1]) > 1e-7


class TestAdmmP6:
    def test_huge_outlier_weights_reduce_to_p1(self):
        r, _, _, obs = make_scenario(4)
        kw = dict(lambda_star=0.05, lambda_1=0.02, max_iters=3000,
                  tol_primal=1e-9, tol_dual=1e-9)
        X1, A1, rep1 = admm_solve_p1(obs, r, AdmmConfig(**kw))
        X6, A6, Oy, Oz, rep6 = admm_solve_p6(
            obs, r, AdmmConfig(lambda_y=1e8, lambda_z=1e8, **kw)
        )
        assert np.array_equal(X6, X1)
        assert np.array_equal(A6, A1)
        assert rep6.iterations == rep1.iterations
        assert np.abs(Oy).max() == 0.0
        assert np.abs(Oz).max() == 0.0

    def test_single_link_outlier_support(self):
        r, _, _, obs = make_scenario(4)
        Yc = obs.link_counts.copy()
        Yc[3, 7] += 25.0
        obs_c = Observations(Yc, obs.flow_counts, obs.mask)
        cfg = AdmmConfig(lambda_star=0.05, lambda_1=0.02, lambda_y=1.0, lambda_z=1.0,
                         max_iters=3000, tol_primal=1e-9, tol_dual=1e-9)
        _, _, Oy, _, _ = admm_solve_p6(obs_c, r, cfg)
        big = np.abs(Oy) > 0.5 * np.abs(Oy).max()
        assert np.argwhere(big).tolist() == [[3, 7]]

    def test_clean_data_zero_outliers(self):
        r, _, _, obs = make_scenario(4)
        cfg = AdmmConfig(lambda_star=0.05, lambda_1=0.02, lambda_y=0.5, lambda_z=0.5,
                         max_iters=3000, tol_primal=1e-9, tol_dual=1e-9)
        _, _, Oy, Oz, rep = admm_solve_p6(obs, r, cfg)
        assert (np.abs(Oy) > 1e-8).sum() == 0
        assert (np.abs(Oz) > 1e-8).sum() == 0
        zero_obj = 0.5 * np.linalg.norm(obs.link_counts) ** 2 + 0.5 * np.linalg.norm(
            obs.flow_counts
        ) ** 2
        assert 0.0 <= rep.objective <= zero_obj + 1e-9

    def test_partial_link_mask_runs(self):
        r, _, _, obs = make_scenario(5, F=16, T=12, N=8, d_c=0.7)
        rng = np.random.default_rng(0)
        link_mask = rng.random(obs.link_counts.shape) < 0.8
        cfg = AdmmConfig(lambda_star=0.05, lambda_1=0.02, lambda_y=0.5, lambda_z=0.5,
                         max_iters=500)
        X, A, Oy, Oz, rep = admm_solve_p6(obs, r, cfg, link_mask=link_mask)
        assert np.isfinite(X).all()
        # outliers can only live on observed cells
        assert np.abs(Oy[~link_mask]).max(initial=0.0) == 0.0


class TestConfig:
    def test_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            AdmmConfig(c=0.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            AdmmConfig(lam=-1.0)
