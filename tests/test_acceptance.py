"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight scenarios stay within a few minutes each.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from trafficmaps.admm import (
    AdmmConfig,
    admm_solve_p1,
    admm_solve_p2,
    default_lambda,
    soft_threshold,
    svt,
)
from trafficmaps.correlation import (
    CorrelationSet,
    TrainingData,
    burst_correlations,
    equalize_traces,
    learn_Ra_from_history,
)
from trafficmaps.diagnostics import (
    NotLocallyIdentifiableError,
    dual_certificate,
    check_recovery_conditions,
)
from trafficmaps.fileio import read_manifest, read_matrix, write_matrix
from trafficmaps.mm import (
    MmConfig, block_gradient, init_state, mm_solve, mm_step, p5_objective, prior_solves,
)
from trafficmaps.model import (
    SamplingMask,
    TrafficMatrices,
    relative_errors,
    subspace_bundle,
)
from trafficmaps.pipelines import (
    ExperimentConfig,
    build_scenario,
    cmd_burst_compare,
    cmd_netflow_sweep,
    cmd_phase_grid,
)
from trafficmaps.synth import (
    BurstParams,
    gen_bursty_anomalies,
    observe,
)

from test_diagnostics import tiny_instance


def report(number, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def standard_scenario(seed, F, T, rho, p, paths, pi, nodes=15, radius=0.5,
                      sigma_v=0.0, sigma_w=0.0):
    cfg = ExperimentConfig({
        "synth.nodes": nodes, "synth.radius": radius, "synth.flows": F, "synth.periods": T,
        "synth.rank": rho, "synth.anomaly_prob": p, "synth.paths": paths,
        "synth.sample_prob": pi, "synth.noise_link": sigma_v, "synth.noise_flow": sigma_w,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = build_scenario(cfg, seed)
    return s.routing, s.truth, s.obs


def test_criterion_01_exact_recovery():
    """Noiseless scenarios at N=15, K=3, F=T=70, rho=2, p=0.01, pi=0.25."""
    successes = 0
    worst_time = 0.0
    for seed in range(10):
        start = time.perf_counter()
        routing, truth, obs = standard_scenario(
            100 + seed, F=70, T=70, rho=2, p=0.01, paths=3, pi=0.25
        )
        best = np.inf
        for mult in (0.5, 1.0, 2.0):
            lam = mult * default_lambda(70, 70)
            X, A, _ = admm_solve_p2(obs, routing, AdmmConfig(lam=lam, max_iters=2000))
            best = min(best, relative_errors(TrafficMatrices(X, A), truth)[2])
            if best < 1e-3:
                break
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        successes += best < 1e-3
        assert elapsed < 60.0, f"run {seed} took {elapsed:.1f}s"
    report(1, successes >= 9,
           f"exact recovery in {successes}/10 runs, slowest {worst_time:.1f}s")


def test_criterion_02_multipath_dominance():
    """K=3 recovers at least as many grid cells as K=1 on shared seeds."""
    start = time.perf_counter()
    base = {
        "seed": 11,
        "synth.nodes": 15, "synth.radius": 0.5, "synth.flows": 48,
        "synth.periods": 48, "synth.sample_prob": 0.25,
        "phase.ranks": "1,3,6,10", "phase.sparsity_counts": "23,92,230,460",
        "phase.lam_grid": 4, "phase.lam_lo": 0.3, "phase.lam_hi": 3.0,
        "phase.seeds": 1, "solver.max_iters": 800,
    }
    whites = {}
    for paths in (1, 3):
        cfg = ExperimentConfig(base).with_values({"synth.paths": paths, "threads": 2})
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            errors = cmd_phase_grid(cfg, td)
        whites[paths] = int((errors <= 0.01).sum())
    elapsed = time.perf_counter() - start
    ok = whites[3] >= whites[1] and elapsed < 900
    report(2, ok,
           f"white cells K=3: {whites[3]} vs K=1: {whites[1]} in {elapsed:.0f}s")


def test_criterion_03_netflow_benefit_direction():
    """Mean e_x strictly decreases from pi=0 to 0.1 to 0.25 over 5 seeds."""
    cfg = ExperimentConfig({
        "seed": 3,
        "synth.nodes": 15, "synth.radius": 0.5, "synth.flows": 60,
        "synth.periods": 60, "synth.rank": 2, "synth.anomaly_prob": 0.01,
        "synth.paths": 1, "solver.kind": "p2", "solver.max_iters": 1200,
        "netflow.pis": "0,0.1,0.25", "netflow.seeds": 5,
    })
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        rows = cmd_netflow_sweep(cfg.with_values({"threads": 2}), td)
    e_x = rows[:, 1]
    ok = e_x[0] > e_x[1] > e_x[2]
    report(3, ok, f"mean e_x over pi grid: {e_x[0]:.4f} > {e_x[1]:.6f} > {e_x[2]:.6f}")


def test_criterion_04_bilinear_convex_equivalence():
    """Bilinear solver with identity priors reaches the convex optimum."""
    worst = 0.0
    for seed in range(5):
        routing, _, obs = standard_scenario(
            200 + seed, F=12, T=12, rho=1, p=0.05, paths=2, pi=0.5,
            nodes=7, radius=0.7, sigma_v=0.01, sigma_w=0.01,
        )
        lam_s, lam_1 = 0.3, 0.1
        cfg1 = AdmmConfig(lambda_star=lam_s, lambda_1=lam_1, max_iters=30000,
                          tol_primal=1e-10, tol_dual=1e-10)
        X1, _, rep1 = admm_solve_p1(obs, routing, cfg1)
        rho = int(np.linalg.matrix_rank(X1, tol=1e-6)) + 2
        corr = CorrelationSet.identity(12, 12)
        cfgm = MmConfig(rho=rho, lambda_star=lam_s, lambda_1=lam_1,
                        max_iters=40000, tol=1e-12)
        _, _, repm = mm_solve(obs, routing, corr, cfgm, seed=seed)
        rel = abs(repm.objectives[-1] - rep1.objective) / abs(rep1.objective)
        worst = max(worst, rel)
        assert rel < 1e-4, f"seed {seed}: relative gap {rel:.2e}"
    report(4, worst < 1e-4, f"objective gap over 5 instances at most {worst:.2e}")


def _random_mm_instance(inst):
    rng = np.random.default_rng(inst)
    F, T, L = 5, 6, 3
    R = rng.random((L, F))
    mask = SamplingMask(rng.random((F, T)) < 0.5)
    X0 = rng.standard_normal((F, T))
    obs = observe(R, X0, np.zeros((F, T)), mask, seed=inst)
    G1 = rng.standard_normal((F, F))
    G2 = rng.standard_normal((T, T))
    RL, RQ = equalize_traces(G1 @ G1.T + F * np.eye(F), G2 @ G2.T + T * np.eye(T))
    row = 0.5 ** np.arange(T)
    corr = CorrelationSet(RL, RQ, tuple((row, row) for _ in range(F)))
    cfg = MmConfig(rho=2, lambda_star=0.4, lambda_1=0.2)
    return R, obs, corr, cfg


def test_criterion_05_mm_monotonicity():
    """No block update increases the objective across 100 instances x 50 iters."""
    worst = -np.inf
    for inst in range(100):
        R, obs, corr, cfg = _random_mm_instance(inst)
        state = init_state(5, 6, cfg, seed=inst + 1)
        obj = p5_objective(state, obs, R, corr, cfg)
        for k in range(50):
            state, _, _, objs = mm_step(state, prior_solves(state, corr), obs, R, corr, cfg, k,
                                        return_block_objectives=True)
            for o in objs:
                worst = max(worst, (o - obj) / (1 + abs(obj)))
                obj = o
    report(5, worst <= 1e-10, f"largest normalized block increase {worst:.2e}")


def test_criterion_06_gradient_checks():
    """Analytic block gradients match central differences to 1e-5 relative."""
    worst = 0.0
    eps = 1e-6
    for inst in range(20):
        rng = np.random.default_rng(500 + inst)
        F = T = 4
        R = rng.random((3, F))
        mask = SamplingMask(rng.random((F, T)) < 0.5)
        obs = observe(R, rng.standard_normal((F, T)), np.zeros((F, T)), mask, seed=inst)
        G1 = rng.standard_normal((F, F))
        G2 = rng.standard_normal((T, T))
        RL, RQ = equalize_traces(G1 @ G1.T + F * np.eye(F), G2 @ G2.T + T * np.eye(T))
        row = 0.6 ** np.arange(T)
        corr = CorrelationSet(RL, RQ, tuple((row, row) for _ in range(F)))
        cfg = MmConfig(rho=2, lambda_star=0.7, lambda_1=0.3)
        state = init_state(F, T, cfg, seed=600 + inst)
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
            worst = max(worst, np.abs(num - g).max() / (1.0 + np.abs(g).max()))
    report(6, worst < 1e-5, f"largest gradient mismatch {worst:.2e} over 20 instances")


def test_criterion_07_burst_cross_validation():
    """Empirical burst autocorrelation matches the analytic formulas to 10%."""
    n_flows, horizon, lags = 20, 600_000, 21
    bp = BurstParams(
        gamma_f=50.0, theta=0.999, sigma_n=0.005, alpha=0.98, nu=0.03,
        anomalous_flows=tuple(range(n_flows)),
    )
    A = gen_bursty_anomalies(n_flows, horizon, bp, seed=1)
    cols = (horizon // lags) * lags
    data = TrainingData(A[:, :cols], A[:, :cols], period=lags, days=horizon // lags)
    emp = learn_Ra_from_history(data).mean(axis=0)
    ana = burst_correlations(bp, lags, n_flows)[0]
    rel = np.abs(emp - ana) / np.abs(ana)
    report(7, rel.max() < 0.10,
           f"lag 0-20 autocorrelation mismatch at most {rel.max():.3f} "
           f"(horizon {horizon}, {n_flows} flows)")


def test_criterion_08_correlation_aware_advantage():
    """P5 beats P1 on both errors under the structured mask in >= 8/10 seeds."""
    base = {
        "synth.nodes": 10, "synth.radius": 0.55, "synth.flows": 80,
        "synth.periods": 48, "synth.paths": 1,
        "burst.days": 30, "burst.rank": 3, "burst.scale": 1.0,
        "burst.jitter": 0.15, "burst.n_anomalous": 8, "burst.gamma": 25.0,
        "burst.theta": 0.99, "burst.sigma_n": 0.05, "burst.alpha": 0.95,
        "burst.nu": 0.05, "burst.row_miss": 0.1, "burst.time_prob": 0.1,
        "solver.lambda_star": 0.1, "solver.lambda_1": 0.05,
        "solver.rho": 5, "solver.mm_max_iters": 3000, "solver.tol": 1e-9,
        "burst.p5_lambda_star": 0.01, "burst.p5_lambda_1": 0.01,
    }
    import tempfile

    wins = 0
    for seed in range(10):
        cfg = ExperimentConfig(base).with_values({"seed": seed})
        with tempfile.TemporaryDirectory() as td:
            m = cmd_burst_compare(cfg, td)
        wins += m["e_x_p5"] < m["e_x_p1"] and m["e_a_p5"] < m["e_a_p1"]
    report(8, wins >= 8, f"correlation-aware estimator wins in {wins}/10 seeds")


def test_criterion_09_recovery_checker_and_certificate_consistency():
    """Closed-form checker sanity plus certificate => recovery on 50 instances."""
    rep = check_recovery_conditions(0, 0, 0, 0, 0, 0, 0, 1)
    assert rep.lambda_min == 0.0 and rep.lambda_max == 1.0 and rep.feasible
    passes = violations = 0
    for seed in range(50):
        R, X0, A0, mask, obs = tiny_instance(seed)
        bundle = subspace_bundle(X0, A0)
        for lam in (0.25, 0.4, 0.6):
            try:
                cert = dual_certificate(R, mask, bundle, lam, sign_A0=A0)
            except NotLocallyIdentifiableError:
                break
            if not cert.passes:
                continue
            passes += 1
            X, A, _ = admm_solve_p2(
                obs, R,
                AdmmConfig(lam=lam, max_iters=20000, tol_primal=1e-11, tol_dual=1e-11),
            )
            e_sum = relative_errors(TrafficMatrices(X, A), TrafficMatrices(X0, A0))[2]
            if e_sum > 1e-4:
                violations += 1
    ok = violations == 0 and passes > 0
    report(9, ok,
           f"lambda range [0,1] exact; {passes} certificate passes, "
           f"{violations} recovery violations")


def _nuc_2x2(x):
    # closed form: sum of singular values of a 2x2 matrix
    a, b, c, d = x
    return np.sqrt(a * a + b * b + c * c + d * d + 2 * abs(a * d - b * c))


def _brute_prox_2x2(M, tau):
    """Brute-force prox of the nuclear norm on 2x2 matrices.

    Enumerates the three optimality strata: the zero matrix, the rank-one
    manifold (angle grid plus polish), and the smooth full-rank region (BFGS
    on objective values only).  Uses the closed-form 2x2 nuclear norm, fully
    independent of the SVD implementation under test.
    """
    m = M.ravel()

    def f(x):
        return 0.5 * np.sum((x - m) ** 2) + tau * _nuc_2x2(x)

    candidates = [np.zeros(4)]
    for start in (m, 0.5 * m, m + 0.1):
        res = minimize(f, start, method="BFGS", options={"gtol": 1e-12, "maxiter": 2000})
        candidates.append(res.x)
    th = np.linspace(0, np.pi, 361)
    TH, PH = np.meshgrid(th, th, indexing="ij")
    s = np.cos(TH) * (M[0, 0] * np.cos(PH) + M[0, 1] * np.sin(PH)) + np.sin(TH) * (
        M[1, 0] * np.cos(PH) + M[1, 1] * np.sin(PH)
    )
    # optimal scale along u v' by scalar calculus (scalar prox, checked above)
    r = np.sign(s) * np.maximum(np.abs(s) - tau, 0)
    vals = 0.5 * (r * r - 2 * r * s + np.sum(M * M)) + tau * np.abs(r)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)

    def f_angles(p):
        u = np.array([np.cos(p[0]), np.sin(p[0])])
        v = np.array([np.cos(p[1]), np.sin(p[1])])
        s = u @ M @ v
        r = np.sign(s) * max(abs(s) - tau, 0.0)
        return 0.5 * (r * r - 2 * r * s + np.sum(M * M)) + tau * abs(r)

    res = minimize(f_angles, [th[i], th[j]], method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 4000})
    u = np.array([np.cos(res.x[0]), np.sin(res.x[0])])
    v = np.array([np.cos(res.x[1]), np.sin(res.x[1])])
    s = u @ M @ v
    r = np.sign(s) * max(abs(s) - tau, 0.0)
    candidates.append((r * np.outer(u, v)).ravel())
    best = min(candidates, key=f)
    return best.reshape(2, 2)


def test_criterion_10_prox_correctness():
    """svt and soft_threshold match brute-force minimization to 1e-6."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for m in rng.uniform(-4, 4, size=10):
        for tau in (0.2, 1.0, 2.5):
            res = minimize_scalar(
                lambda x: 0.5 * (x - m) ** 2 + tau * abs(x),
                bounds=(-6, 6), method="bounded", options={"xatol": 1e-12},
            )
            worst = max(worst, abs(float(soft_threshold(m, tau)) - res.x))
    for trial in range(6):
        M = rng.standard_normal((2, 2))
        tau = 0.3 + 0.4 * trial
        brute = _brute_prox_2x2(M, tau)
        ours = svt(M, tau)
        worst = max(worst, np.abs(ours - brute).max())
    report(10, worst < 1e-6, f"largest prox deviation from brute force {worst:.2e}")


def test_criterion_11_roundtrip_and_reproducibility(tmp_path):
    """Lossless file formats; identical config+seed reproduces metrics to 1e-9."""
    rng = np.random.default_rng(2)
    M = rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-10, 10, size=(9, 7))
    path = tmp_path / "m.csv"
    write_matrix(path, M)
    lossless = np.array_equal(read_matrix(path), M)

    from trafficmaps.cli import main

    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "seed=5\nsynth.nodes=10\nsynth.radius=0.6\nsynth.flows=24\n"
        "synth.periods=20\nsynth.rank=1\nsynth.anomaly_prob=0.02\n"
        "synth.paths=2\nsynth.sample_prob=0.4\n"
    )
    scn = tmp_path / "scn"
    assert main(["synth", "--config", str(cfg_path), "--out", str(scn)]) == 0
    solve_cfg = tmp_path / "solve.txt"
    solve_cfg.write_text(f"io.scenario={scn}\nsolver.kind=p2\nsolver.max_iters=900\n")
    metrics = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["solve", "--config", str(solve_cfg), "--out", str(out)]) == 0
        metrics.append(read_manifest(out / "metrics.txt"))
    drift = max(
        abs(float(metrics[0][k]) - float(metrics[1][k])) for k in metrics[0]
    )
    report(11, lossless and drift < 1e-9,
           f"round-trip exact: {lossless}; metric drift {drift:.1e}")
