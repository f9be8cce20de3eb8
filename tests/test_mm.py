import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import toeplitz

from trafficmaps.admm import AdmmConfig, admm_solve_p1
from trafficmaps.correlation import CorrelationSet, condition_pd, equalize_traces
from trafficmaps.mm import (
    _STEP_MARGIN,
    FactorState,
    MmConfig,
    block_gradient,
    gram_spectral_norm,
    init_state,
    mm_solve,
    mm_step,
    p4_objective,
    p5_objective,
    power_norm_sym,
    prior_solves,
    residuals,
    step_bound,
)
from trafficmaps.model import DivergenceError, Observations, SamplingMask
from trafficmaps.pipelines import ExperimentConfig, build_scenario
from trafficmaps.synth import observe


BLOCKS = ("L", "Q", "B", "C")


def random_corr(F, T, seed):
    rng = np.random.default_rng(seed)
    G1 = rng.standard_normal((F, F))
    G2 = rng.standard_normal((T, T))
    RL, RQ = equalize_traces(G1 @ G1.T + F * np.eye(F), G2 @ G2.T + T * np.eye(T))
    row_b = 0.6 ** np.arange(T)
    row_c = row_b * np.where(np.arange(T) % 3 == 2, -1.0, 1.0)
    row_c[0] = row_b[0]
    blocks = tuple((row_b.copy(), row_c.copy()) for _ in range(F))
    return CorrelationSet(RL, RQ, blocks)


def small_problem(seed=0, F=4, T=4, L=3, pi=0.5, identity_corr=False):
    rng = np.random.default_rng(seed)
    R = rng.random((L, F))
    mask = SamplingMask(rng.random((F, T)) < pi)
    X0 = rng.standard_normal((F, T))
    A0 = np.zeros((F, T))
    obs = observe(R, X0, A0, mask, seed=seed + 1)
    corr = CorrelationSet.identity(F, T) if identity_corr else random_corr(F, T, seed + 2)
    cfg = MmConfig(rho=2, lambda_star=0.7, lambda_1=0.3)
    return R, obs, corr, cfg


def slow_p5(state, obs, R, corr, cfg):
    """Loop-based re-implementation of the objective, used as an oracle."""
    F, T = obs.flow_counts.shape
    M = np.zeros((F, T))
    for f in range(F):
        for t in range(T):
            for i in range(state.rank):
                M[f, t] += state.L[f, i] * state.Q[t, i]
            M[f, t] += state.B[f, t] * state.C[f, t]
    fit = 0.0
    Y = obs.link_counts
    for l in range(R.shape[0]):
        for t in range(T):
            pred = sum(R[l, f] * M[f, t] for f in range(F))
            fit += 0.5 * (pred - Y[l, t]) ** 2
    for f in range(F):
        for t in range(T):
            if obs.mask.mask[f, t]:
                fit += 0.5 * (M[f, t] - obs.flow_counts[f, t]) ** 2
    RL_inv = np.linalg.inv(corr.R_L)
    RQ_inv = np.linalg.inv(corr.R_Q)
    reg = 0.5 * cfg.lambda_star * (
        np.trace(state.L.T @ RL_inv @ state.L) + np.trace(state.Q.T @ RQ_inv @ state.Q)
    )
    for f in range(F):
        row_b, row_c = corr.anomaly_blocks[f]
        Rb = condition_pd(toeplitz(row_b))
        Rc = condition_pd(toeplitz(row_c))
        reg += 0.5 * cfg.lambda_1 * (
            state.B[f] @ np.linalg.solve(Rb, state.B[f])
            + state.C[f] @ np.linalg.solve(Rc, state.C[f])
        )
    return fit + reg


class TestFactorState:
    @pytest.mark.parametrize("shapes, message", [
        (((4, 2), (4, 3), (4, 4), (4, 4)), "share a factor rank"),
        (((4, 0), (4, 0), (4, 4), (4, 4)), "share a factor rank"),
        (((4, 2), (4, 2), (4, 3), (4, 3)), "flows-by-periods"),
        (((4, 2), (4, 2), (4, 4), (4, 3)), "flows-by-periods"),
        (((4, 2), (3, 2), (4, 4), (4, 4)), "flows-by-periods"),
    ])
    def test_rejects_inconsistent_blocks(self, shapes, message):
        with pytest.raises(ValueError, match=message):
            FactorState(*(np.zeros(shape) for shape in shapes))


class TestObjective:
    def test_zero_state_is_data_energy(self):
        R, obs, corr, cfg = small_problem(0)
        zero = FactorState(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((4, 4)))
        expected = 0.5 * (np.linalg.norm(obs.link_counts) ** 2 + np.linalg.norm(obs.flow_counts) ** 2)
        assert p5_objective(zero, obs, R, corr, cfg) == pytest.approx(expected, rel=1e-12)

    def test_identity_correlations_match_p4(self):
        R, obs, _, cfg = small_problem(1, identity_corr=True)
        corr = CorrelationSet.identity(4, 4)
        state = init_state(4, 4, cfg, seed=5)
        assert p5_objective(state, obs, R, corr, cfg) == pytest.approx(
            p4_objective(state, obs, R, cfg), rel=1e-12
        )

    def test_hand_instance_against_slow_oracle(self):
        R, obs, corr, cfg = small_problem(2, F=2, T=2, L=2)
        state = init_state(2, 2, cfg, seed=7)
        fast = p5_objective(state, obs, R, corr, cfg)
        slow = slow_p5(state, obs, R, corr, cfg)
        assert fast == pytest.approx(slow, rel=1e-9)


class TestResiduals:
    def test_exact_state_zero_residuals(self):
        rng = np.random.default_rng(3)
        R = rng.random((3, 4))
        L = rng.standard_normal((4, 2))
        Q = rng.standard_normal((5, 2))
        B = rng.standard_normal((4, 5))
        C = rng.standard_normal((4, 5))
        M = L @ Q.T + B * C
        mask = SamplingMask(rng.random((4, 5)) < 0.6)
        obs = Observations(R @ M, np.where(mask.mask, M, 0.0), mask)
        phi_y, phi_z = residuals(FactorState(L, Q, B, C), obs, R)
        assert np.abs(phi_y).max() < 1e-12
        assert np.abs(phi_z).max() < 1e-12

    def test_zero_state_negates_data(self):
        R, obs, corr, cfg = small_problem(4)
        zero = FactorState(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((4, 4)))
        phi_y, phi_z = residuals(zero, obs, R)
        assert np.allclose(phi_y, -obs.link_counts)
        assert np.allclose(phi_z, -obs.flow_counts)

    def test_linearity_in_B(self):
        R, obs, corr, cfg = small_problem(5)
        state = init_state(4, 4, cfg, seed=9)
        d = np.random.default_rng(10).standard_normal((4, 4))
        base_y, base_z = residuals(state, obs, R)
        pert_y, pert_z = residuals(replace(state, B=state.B + d), obs, R)
        assert np.allclose(pert_y - base_y, R @ (d * state.C), atol=1e-12)
        assert np.allclose(pert_z - base_z, np.where(obs.mask.mask, d * state.C, 0.0), atol=1e-12)


class TestGradients:
    def test_matches_central_differences(self):
        for seed in range(3):
            R, obs, corr, cfg = small_problem(seed, F=4, T=4)
            state = init_state(4, 4, cfg, seed=seed + 20)
            eps = 1e-6
            for block in ("L", "Q", "B", "C"):
                g = block_gradient(block, state, obs, R, prior_solves(state, corr), cfg)
                arr = getattr(state, block)
                num = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    plus = arr.copy()
                    plus[idx] += eps
                    minus = arr.copy()
                    minus[idx] -= eps
                    num[idx] = (
                        p5_objective(replace(state, **{block: plus}), obs, R, corr, cfg)
                        - p5_objective(replace(state, **{block: minus}), obs, R, corr, cfg)
                    ) / (2 * eps)
                rel = np.abs(num - g).max() / (1.0 + np.abs(g).max())
                assert rel < 1e-5


class TestStepBound:
    def test_power_norm_exact_at_small_eigengap(self):
        # Top two eigenvalues 1 and 0.999: a power iteration that stops when
        # the Rayleigh quotient stalls lands short of the top one.
        V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
        M = (V * np.array([1.0, 0.999, 0.5, 0.2, 0.1])) @ V.T
        top = np.linalg.eigvalsh(M)[-1]
        assert power_norm_sym(M) == pytest.approx(top, rel=1e-12)

    def test_trivial_case(self):
        cfg = MmConfig(rho=2, lambda_star=1.0, lambda_1=1.0)
        corr = CorrelationSet.identity(3, 3)
        state = FactorState(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 3)))
        R = np.zeros((2, 3))
        mu = step_bound("L", state, R, corr, cfg)
        assert mu == pytest.approx(_STEP_MARGIN * 1.0, rel=1e-9)

    def _hessian_by_differences(self, block, state, obs, R, corr, cfg):
        arr = getattr(state, block)
        n = arr.size
        H = np.zeros((n, n))
        h = 1e-4
        base = p5_objective(state, obs, R, corr, cfg)

        def at(delta):
            return p5_objective(
                replace(state, **{block: arr + delta.reshape(arr.shape)}), obs, R, corr, cfg
            )

        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            for j in range(i, n):
                ej = np.zeros(n)
                ej[j] = h
                val = (at(ei + ej) - at(ei) - at(ej) + base) / h**2
                H[i, j] = H[j, i] = val
        return H

    def test_bound_dominates_true_hessian(self):
        # The objective is quadratic per block, so the finite-difference
        # Hessian is exact up to rounding.
        R, obs, corr, cfg = small_problem(6, F=3, T=3, L=2)
        state = init_state(3, 3, cfg, seed=30)
        for block in ("L", "B"):
            H = self._hessian_by_differences(block, state, obs, R, corr, cfg)
            top = np.abs(np.linalg.eigvalsh(H)).max()
            assert step_bound(block, state, R, corr, cfg) >= top * (1 - 1e-6)

    def test_quadratic_scaling_in_Q(self):
        R, obs, corr, cfg = small_problem(7)
        cfg = replace_cfg_zero_reg(cfg)
        state = init_state(4, 4, cfg, seed=31)
        mu1 = step_bound("L", state, R, corr, cfg)
        mu2 = step_bound("L", replace(state, Q=2 * state.Q), R, corr, cfg)
        assert mu2 == pytest.approx(4 * mu1, rel=1e-6)


def replace_cfg_zero_reg(cfg):
    from dataclasses import replace as dc_replace

    return dc_replace(cfg, lambda_star=0.0, lambda_1=0.0)


class TestMmStep:
    def test_zero_data_zero_state_is_fixed_point(self):
        rng = np.random.default_rng(8)
        R = rng.random((3, 4))
        mask = SamplingMask(rng.random((4, 4)) < 0.5)
        obs = Observations(np.zeros((3, 4)), np.zeros((4, 4)), mask)
        corr = CorrelationSet.identity(4, 4)
        cfg = MmConfig(rho=2, lambda_star=0.5, lambda_1=0.5)
        zero = FactorState(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((4, 4)))
        out, _, _ = mm_step(zero, prior_solves(zero, corr), obs, R, corr, cfg)
        for b in ("L", "Q", "B", "C"):
            assert np.array_equal(getattr(out, b), getattr(zero, b))

    def test_single_step_decreases_from_random_init(self):
        R, obs, corr, cfg = small_problem(9)
        state = init_state(4, 4, cfg, seed=40)
        before = p5_objective(state, obs, R, corr, cfg)
        after = p5_objective(mm_step(state, prior_solves(state, corr), obs, R, corr, cfg)[0],
                             obs, R, corr, cfg)
        assert after < before

    def test_per_block_monotone(self):
        R, obs, corr, cfg = small_problem(10)
        state = init_state(4, 4, cfg, seed=41)
        obj = p5_objective(state, obs, R, corr, cfg)
        for k in range(25):
            state, _, _, objs = mm_step(state, prior_solves(state, corr), obs, R, corr, cfg, k,
                                        return_block_objectives=True)
            for o in objs:
                assert o <= obj + 1e-10 * (1 + abs(obj))
                obj = o

    def test_surrogate_tightness(self):
        R, obs, corr, cfg = small_problem(11)
        state = init_state(4, 4, cfg, seed=42)
        rng = np.random.default_rng(43)
        gram = gram_spectral_norm(R)
        for block in ("L", "Q", "B", "C"):
            g0 = p5_objective(state, obs, R, corr, cfg)
            grad = block_gradient(block, state, obs, R, prior_solves(state, corr), cfg)
            mu = step_bound(block, state, R, corr, cfg, gram_norm=gram)
            arr = getattr(state, block)
            for _ in range(20):
                probe = arr + rng.standard_normal(arr.shape)
                surrogate = g0 + np.sum(grad * (probe - arr)) + 0.5 * mu * np.sum(
                    (probe - arr) ** 2
                )
                actual = p5_objective(replace(state, **{block: probe}), obs, R, corr, cfg)
                assert actual <= surrogate + 1e-9 * (1 + abs(surrogate))
            # tight at the expansion point by construction
            assert p5_objective(state, obs, R, corr, cfg) == pytest.approx(g0)


def equivalence_instance(seed, F=12, T=12, rho=1, p=0.05, K=2, pi=0.5, N=7, d_c=0.7):
    cfg = ExperimentConfig({
        "synth.nodes": N, "synth.radius": d_c, "synth.flows": F, "synth.periods": T,
        "synth.rank": rho, "synth.anomaly_prob": p, "synth.paths": K, "synth.sample_prob": pi,
        "synth.noise_link": 0.01, "synth.noise_flow": 0.01,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = build_scenario(cfg, seed)
    return s.routing, s.obs


class TestMmSolve:
    def test_zero_data_objective_decays(self):
        rng = np.random.default_rng(12)
        R = rng.random((3, 5))
        mask = SamplingMask(rng.random((5, 6)) < 0.5)
        obs = Observations(np.zeros((3, 6)), np.zeros((5, 6)), mask)
        corr = CorrelationSet.identity(5, 6)
        cfg = MmConfig(rho=2, lambda_star=0.5, lambda_1=0.5, max_iters=2000, tol=1e-14)
        X, A, rep = mm_solve(obs, R, corr, cfg, seed=1)
        assert rep.objectives[-1] < 1e-2 * rep.objectives[0]
        assert np.abs(X).max() < 0.2

    def test_objective_trajectory_monotone(self):
        r, obs = equivalence_instance(0)
        corr = CorrelationSet.identity(12, 12)
        cfg = MmConfig(rho=2, lambda_star=0.3, lambda_1=0.1, max_iters=300, tol=0.0)
        _, _, rep = mm_solve(obs, r, corr, cfg, seed=2)
        diffs = np.diff(rep.objectives)
        assert (diffs <= 1e-10 * (1 + np.abs(rep.objectives[1:]))).all()

    def test_matches_p1_optimum_identity_corr(self):
        r, obs = equivalence_instance(1)
        lam_s, lam_1 = 0.3, 0.1
        cfg1 = AdmmConfig(lambda_star=lam_s, lambda_1=lam_1, max_iters=30000,
                          tol_primal=1e-10, tol_dual=1e-10)
        X1, _, rep1 = admm_solve_p1(obs, r, cfg1)
        rho = int(np.linalg.matrix_rank(X1, tol=1e-6)) + 2
        corr = CorrelationSet.identity(12, 12)
        cfgm = MmConfig(rho=rho, lambda_star=lam_s, lambda_1=lam_1,
                        max_iters=40000, tol=1e-12)
        _, _, repm = mm_solve(obs, r, corr, cfgm, seed=3)
        assert repm.objectives[-1] == pytest.approx(rep1.objective, rel=1e-4)

    def test_multistart_objectives_agree(self):
        r, obs = equivalence_instance(2)
        corr = CorrelationSet.identity(12, 12)
        cfg = MmConfig(rho=3, lambda_star=0.3, lambda_1=0.1, max_iters=20000, tol=1e-12)
        finals = []
        for seed in (4, 5):
            _, _, rep = mm_solve(obs, r, corr, cfg, seed=seed)
            finals.append(rep.objectives[-1])
        assert abs(finals[0] - finals[1]) <= 0.05 * min(finals)

    @pytest.mark.parametrize("flows, periods, rank", [(4, 4, 4), (4, 4, 1), (5, 4, 2), (4, 3, 2)])
    def test_rejects_init_that_does_not_fit(self, monkeypatch, flows, periods, rank):
        # The problem is 4x4 at rho=2; without the check a rank-4 init runs
        # and returns a rank-4 X.
        R, obs, corr, cfg = small_problem(22)
        init = init_state(flows, periods, replace(cfg, rho=rank), seed=1)

        def no_step(*args, **kwargs):
            raise AssertionError("mm_step ran")
        monkeypatch.setattr("trafficmaps.mm.mm_step", no_step)
        with pytest.raises(ValueError, match="init must hold L 4x2, Q 4x2"):
            mm_solve(obs, R, corr, cfg, init=init)

    @pytest.mark.parametrize("layout", ["fortran", "integer"])
    def test_init_is_read_as_c_contiguous_float64(self, layout):
        # At this size a Fortran-ordered B changes the summation order of the
        # objective's prior terms, so an unconverted init moves its bits.
        R, obs, corr, cfg = small_problem(23, F=12, T=10, L=8)
        cfg = replace(cfg, max_iters=50, tol=0.0)
        state = init_state(12, 10, cfg, seed=2)
        if layout == "fortran":
            init = FactorState(**{b: np.asfortranarray(getattr(state, b)) for b in BLOCKS})
        else:
            init = FactorState(**{b: np.round(3 * getattr(state, b)).astype(np.int64)
                                  for b in BLOCKS})
        copy = FactorState(**{b: np.ascontiguousarray(getattr(init, b), dtype=np.float64)
                              for b in BLOCKS})
        _, _, rep = mm_solve(obs, R, corr, cfg, init=init)
        _, _, ref = mm_solve(obs, R, corr, cfg, init=copy)
        assert rep.objectives == ref.objectives


def reference_mm_solve(obs, R, corr, cfg, seed):
    """The uncached MM loop: fresh prior solves in every gradient, and
    `p5_objective` after every sweep.  Returns (objectives, iterations,
    restarts, converged)."""
    F, T = obs.flow_counts.shape
    gram = gram_spectral_norm(R)

    def sweep(state):
        for block in ("L", "Q", "B", "C"):
            grad = block_gradient(block, state, obs, R, prior_solves(state, corr), cfg)
            mu = step_bound(block, state, R, corr, cfg, gram_norm=gram)
            state = replace(state, **{block: getattr(state, block) - grad / mu})
        return state

    state = init_state(F, T, cfg, seed)
    obj = p5_objective(state, obs, R, corr, cfg)
    objectives, prev, t_acc, restarts, converged = [obj], state, 1.0, 0, False
    for it in range(1, cfg.max_iters + 1):
        if it > 1:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            w = (t_acc - 1.0) / t_next
            trial = FactorState(**{b: getattr(state, b) + w * (getattr(state, b) - getattr(prev, b))
                                   for b in ("L", "Q", "B", "C")})
            cand = sweep(trial)
            cand_obj = p5_objective(cand, obs, R, corr, cfg)
            if cand_obj <= obj:
                t_acc = t_next
            else:
                restarts += 1
                t_acc = 1.0
                cand = sweep(state)
                cand_obj = p5_objective(cand, obs, R, corr, cfg)
        else:
            cand = sweep(state)
            cand_obj = p5_objective(cand, obs, R, corr, cfg)
        prev, state = state, cand
        objectives.append(cand_obj)
        if abs(cand_obj - obj) <= cfg.tol * (1.0 + abs(cand_obj)):
            converged = True
            break
        obj = cand_obj
    return objectives, it, restarts, converged


def well_conditioned_toeplitz_corr(F, T, seed):
    """random_corr's R_L and R_Q with positive definite Toeplitz anomaly rows
    (condition numbers about 16 and 3), which `condition_pd` leaves as they are."""
    base = random_corr(F, T, seed)
    row_b, row_c = 0.6 ** np.arange(T), 0.3 ** np.arange(T)
    return CorrelationSet(base.R_L, base.R_Q, tuple((row_b, row_c) for _ in range(F)))


PRIORS = ("identity", "toeplitz", "toeplitz_at_floor")


class TestCachedPriorSolves:
    @staticmethod
    def _problem(prior):
        R, obs, corr, cfg = small_problem(20, F=6, T=5, L=4, identity_corr=prior == "identity")
        if prior == "toeplitz":
            corr = well_conditioned_toeplitz_corr(6, 5, 22)
        return R, obs, corr, replace(cfg, max_iters=400, tol=1e-10)

    @pytest.mark.parametrize("prior", PRIORS)
    def test_matches_uncached_reference_loop(self, prior):
        R, obs, corr, cfg = self._problem(prior)
        objs, iters, restarts, converged = reference_mm_solve(obs, R, corr, cfg, seed=3)
        _, _, rep = mm_solve(obs, R, corr, cfg, seed=3)
        assert (rep.iterations, rep.restarts, rep.converged) == (iters, restarts, converged)
        # An extrapolated point's solves are combined from cached ones, not
        # solved afresh.  random_corr's sign-flipped c row is clipped at the
        # condition_pd floor (condition number 1e6), which amplifies that
        # rounding to about eps * 1e6 = 2e-10.
        rtol = 1e-10 if prior == "toeplitz_at_floor" else 1e-12
        np.testing.assert_allclose(rep.objectives, objs, rtol=rtol, atol=0.0)

    def test_four_prior_solves_per_sweep(self, monkeypatch):
        R, obs, corr, cfg = self._problem("toeplitz")
        calls = []
        for name in ("solve_RL", "solve_RQ", "solve_RB", "solve_RC"):
            def counted(self, M, _solve=getattr(CorrelationSet, name), _name=name):
                calls.append(_name)
                return _solve(self, M)
            monkeypatch.setattr(CorrelationSet, name, counted)
        _, _, rep = mm_solve(obs, R, corr, cfg, seed=3)
        assert rep.restarts > 0
        assert len(calls) == 4 + 4 * rep.iterations + 4 * rep.restarts

    def test_non_finite_block_raises_divergence(self):
        R, obs, corr, cfg = small_problem(21)
        state = init_state(4, 4, cfg, seed=5)
        L = state.L.copy()
        L[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite L block at iteration 1") as info:
            mm_solve(obs, R, corr, cfg, init=replace(state, L=L))
        assert info.value.iteration == 1


class TestConfig:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            MmConfig(rho=0)
