import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from trafficmaps.admm import (
    AdmmConfig,
    ColumnSolves,
    admm_solve_p1,
    admm_solve_p2,
    admm_solve_p6,
    default_lambda,
    p1_objective,
    precompute_column_inverses,
    soft_threshold,
    svt,
)
from trafficmaps.model import DivergenceError, Observations, TrafficMatrices, relative_errors
from trafficmaps.synth import (
    GeoGraphParams,
    build_routing,
    choose_od_pairs,
    gen_geometric_graph,
    gen_lowrank_traffic,
    gen_mask,
    gen_sparse_anomalies,
    observe,
)


def make_scenario(seed, F=30, T=30, rho=1, p=0.02, K=3, pi=0.4, N=10, d_c=0.6):
    topo = gen_geometric_graph(GeoGraphParams(N, d_c, seed))
    od = choose_od_pairs(topo, F, seed + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = build_routing(topo, od, K, seed + 2)
    X0 = gen_lowrank_traffic(F, T, rho, seed + 3)
    A0 = gen_sparse_anomalies(F, T, p, seed + 4)
    mask = gen_mask(F, T, pi, seed + 5)
    obs = observe(r, X0, A0, mask)
    return r, X0, A0, obs


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

    def test_precompute_wrapper(self):
        r, _, _, obs = make_scenario(0, F=12, T=10, N=8, d_c=0.7)
        handles = precompute_column_inverses(r, obs.mask)
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

    def test_report_carries_final_state(self):
        r, _, _, obs = make_scenario(1, F=12, T=10, N=8, d_c=0.7)
        X, A, rep = admm_solve_p2(obs, r, AdmmConfig(max_iters=200))
        st = rep.state
        assert st is not None
        assert np.array_equal(st.X, X) and np.array_equal(st.A, A)
        for block in (st.B, st.O, st.M_y, st.M_z, st.M_a, st.M_x):
            assert np.isfinite(block).all()
        assert st.M_y.shape == obs.link_counts.shape
        assert st.iteration == rep.iterations

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
