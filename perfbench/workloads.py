"""The benchmark's workloads.

A workload synthesizes its inputs from the run's seed, names a warm-up
command, and lists the commands of round r, so each run attempts whole rounds
of the same operations.  Commands are the CLI's subcommands with a key=value
config file, exactly as a user runs them.

solve-70 and diagnose keep a fixed pool of scenarios: for item i, the synth
output for synth seed i with anomaly signs and count noise drawn from i.  The
run's seed relabels each one (a random permutation of its flows and of its
periods).  Solver and diagnostics costs swing by a factor of two between
structures, by a third between anomaly supports and by a tenth between noise
draws, so drawing those from the seed would make runs with different seeds
incomparable at the run lengths the benchmark can afford; a relabelled
scenario is the same problem in other bytes.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

import checks

SETUP_REPS = 3  # set-up repetitions per run; setup_s is their median


class Command:
    """One CLI command and the check of its output directory."""

    def __init__(self, label, sub, config, ops=1, threads=None, check=None):
        self.label = label
        self.sub = sub
        self.config = config
        self.ops = ops
        self.threads = threads
        self.check = check

    def argv(self, out_dir) -> list:
        os.makedirs(out_dir, exist_ok=True)
        cfg = os.path.join(out_dir, "config.txt")
        with open(cfg, "w") as fh:
            for key, value in self.config.items():
                fh.write(f"{key}={value}\n")
        argv = [self.sub, "--config", cfg, "--out", out_dir]
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        return argv


def synth_argv(out_dir, config) -> list:
    return Command("synth", "synth", config).argv(out_dir)


def write_csv(path, M, fmt="%.17g"):
    np.savetxt(path, np.atleast_2d(M), fmt=fmt, delimiter=",")


def derive(src_dir, dst_dir, draw_seed, relabel_seed, signs=False, sigma=0.0):
    """Copy a scenario with fresh observations, then relabel flows and periods.

    From `draw_seed`: with `signs`, each anomaly keeps its place and size and
    gets a random sign; link counts become R (X0 + A0) + V and flow counts the
    masked X0 + A0 + W, with V, W ~ N(0, sigma^2).  From `relabel_seed`: one
    random permutation of the flows (rows of every F-by-T file, columns of the
    routing matrix, the manifest's OD pairs) and one of the periods.  A
    relabelled scenario is the same problem, so ADMM takes the same iterations
    on it; only the bytes differ.
    """
    shutil.copytree(src_dir, dst_dir)
    sc = checks.Scenario(src_dir)
    rng = np.random.default_rng(draw_seed)
    A0 = sc.A0
    if signs:
        A0 = np.where(A0 != 0, np.abs(A0) * rng.choice((-1.0, 1.0), size=A0.shape), 0.0)
    total = sc.X0 + A0
    Y = sc.R @ total
    Z = total.copy()
    if sigma > 0:
        Y = Y + rng.normal(scale=sigma, size=Y.shape)
        Z = Z + rng.normal(scale=sigma, size=Z.shape)
    rng = np.random.default_rng(relabel_seed)
    pf, pt = rng.permutation(sc.X0.shape[0]), rng.permutation(sc.X0.shape[1])
    for name, M in (("nominal", sc.X0), ("anomalies", A0), ("flow_counts", np.where(sc.mask, Z, 0.0))):
        write_csv(os.path.join(dst_dir, f"{name}.csv"), M[pf][:, pt])
    write_csv(os.path.join(dst_dir, "mask.csv"), sc.mask[pf][:, pt].astype(int), fmt="%d")
    write_csv(os.path.join(dst_dir, "link_counts.csv"), Y[:, pt])
    write_csv(os.path.join(dst_dir, "routing.csv"), sc.R[:, pf])
    manifest = checks.read_kv(os.path.join(src_dir, "manifest.txt"))
    od = manifest["od_pairs"].split(";")
    manifest["od_pairs"] = ";".join(od[k] for k in pf)
    with open(os.path.join(dst_dir, "manifest.txt"), "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in manifest.items())


def synth_structure(main, base_dir, scale, i, seed=None) -> str:
    """Structure i of a pool: the program's synth output for synth seed i
    (or `seed`)."""
    out = os.path.join(base_dir, f"structure{i}")
    rc = main(synth_argv(out, dict(scale, seed=i if seed is None else seed)))
    if rc != 0:
        raise RuntimeError(f"synth exited with {rc}")
    return out


class Workload:
    """Round r runs the commands on pool item r % pool.  A timed run covers
    every item at least once, so each run measures the same set of inputs."""

    name = ""
    why = ""
    pool = 4

    def __init__(self, seed: int):
        self.seed = seed

    def input_seed(self, i: int) -> int:
        return 1000 * self.seed + i

    def synthesize(self, main, base_dir):
        """Write the pool's input files under base_dir (set-up work)."""

    def warmup(self, base_dir) -> Command:
        raise NotImplementedError

    def commands(self, base_dir, r: int) -> list:
        raise NotImplementedError

    def post_checks(self, main, work_dir, done) -> list:
        """Checks that run more commands after the timed window; untimed."""
        return []


# README scale: N=15 nodes, K=3 paths, F=T=70, rank 2, p=0.01, pi=0.25.
README_SCALE = {
    "synth.nodes": 15, "synth.radius": 0.5, "synth.flows": 70, "synth.periods": 70,
    "synth.rank": 2, "synth.anomaly_prob": 0.01, "synth.paths": 3, "synth.sample_prob": 0.25,
}
NOISE = 0.001  # link- and flow-count noise std of the penalized estimators' inputs
# The CLI defaults (lambda_star=0.1, lambda_1=0.05) give e_x above 1, worse
# than the all-zero estimate, on this scale; these give e_x near 0.07.
WEIGHTS = {"lambda_star": 0.03, "lambda_1": 0.01, "lambda_y": 1.0, "lambda_z": 1.0}


class Solve70(Workload):
    name = "solve-70"
    why = ("large single solves: p2, p1, p5, p6 on README-scale 70x70 scenarios; "
           "ADMM SVT and column solves, MM with identity priors, file formats")

    def synthesize(self, main, base_dir):
        for i in range(self.pool):
            structure = synth_structure(main, base_dir, README_SCALE, i)
            derive(structure, os.path.join(base_dir, f"scenario{i}"), 2 * i,
                   self.input_seed(2 * i), signs=True)
            derive(structure, os.path.join(base_dir, f"noisy{i}"), 2 * i + 1,
                   self.input_seed(2 * i + 1), sigma=NOISE)

    def solve(self, base_dir, i, kind) -> Command:
        noisy = kind != "p2"
        scenario = os.path.join(base_dir, f"{'noisy' if noisy else 'scenario'}{i}")
        cfg = {"io.scenario": scenario, "solver.kind": kind}
        if noisy:
            cfg.update({f"solver.{k}": v for k, v in WEIGHTS.items()})
        return Command(f"solve-{kind}", "solve", cfg,
                       check=lambda out: checks.check_solve(kind, scenario, out, WEIGHTS))

    def warmup(self, base_dir):
        return self.solve(base_dir, 0, "p2")

    def commands(self, base_dir, r):
        return [self.solve(base_dir, r % self.pool, kind) for kind in ("p2", "p1", "p5", "p6")]


# Criterion-02 shape: 48x48, K=3, 4 lambda values from 0.3x to 3x, 800 iterations.
GRID = {
    "synth.nodes": 15, "synth.radius": 0.5, "synth.flows": 48, "synth.periods": 48,
    "synth.sample_prob": 0.25, "synth.paths": 3,
    "phase.ranks": "1,10", "phase.sparsity_counts": "23,460",
    "phase.lam_grid": 4, "phase.lam_lo": 0.3, "phase.lam_hi": 3.0,
    "phase.seeds": 1, "solver.max_iters": 800,
}


class PhaseGrid(Workload):
    name = "phase-grid"
    pool = 2
    why = ("many small p2 solves: a 2x2 criterion-02 grid with 2 worker threads; "
           "every cell rebuilds its scenario and column solves")

    def grid(self, cfg, label="phase-grid", easiest=(0, 0)) -> Command:
        ranks = str(cfg["phase.ranks"]).split(",")
        counts = str(cfg["phase.sparsity_counts"]).split(",")
        return Command(label, "phase-grid", cfg, ops=len(ranks) * len(counts), threads=2,
                       check=lambda out: checks.check_phase_grid(out, easiest))

    def warmup(self, base_dir):
        return self.grid(dict(GRID, seed=self.input_seed(0), **{
            "synth.flows": 12, "synth.periods": 12, "phase.ranks": "1",
            "phase.sparsity_counts": "3", "phase.lam_grid": 1, "solver.max_iters": 50,
        }), label="phase-grid-warmup", easiest=None)

    def commands(self, base_dir, r):
        return [self.grid(dict(GRID, seed=self.input_seed(r % self.pool)))]


# Criterion-08 configuration; the two iteration caps are cut fivefold (both
# solvers run to their caps there), so one command takes seconds, not 15 s.
BURST = {
    "synth.nodes": 10, "synth.radius": 0.55, "synth.flows": 80,
    "synth.periods": 48, "synth.paths": 1,
    "burst.days": 30, "burst.rank": 3, "burst.scale": 1.0,
    "burst.jitter": 0.15, "burst.n_anomalous": 8, "burst.gamma": 25.0,
    "burst.theta": 0.99, "burst.sigma_n": 0.05, "burst.alpha": 0.95,
    "burst.nu": 0.05, "burst.row_miss": 0.1, "burst.time_prob": 0.1,
    "solver.lambda_star": 0.1, "solver.lambda_1": 0.05,
    "solver.rho": 5, "solver.tol": 1e-9,
    "burst.p5_lambda_star": 0.01, "burst.p5_lambda_1": 0.01,
    "solver.max_iters": 400, "solver.mm_max_iters": 600,
}


class BurstCompare(Workload):
    name = "burst-compare"
    why = ("MM with per-flow Toeplitz burst priors and correlation learning "
           "(criterion-08 configuration); ADMM runs one p1 solve")
    pool = 7

    def warmup(self, base_dir):
        return Command("burst-compare-warmup", "burst-compare", dict(BURST, **{
            "seed": self.input_seed(0), "synth.flows": 16, "synth.periods": 12,
            "burst.days": 3, "burst.n_anomalous": 2, "solver.rho": 2,
            "solver.max_iters": 20, "solver.mm_max_iters": 20,
        }), check=checks.check_burst_compare)

    def commands(self, base_dir, r):
        cfg = dict(BURST, seed=self.input_seed(r % self.pool))
        return [Command("burst-compare", "burst-compare", cfg, check=checks.check_burst_compare)]


DIAG_SCALE = {
    "synth.nodes": 8, "synth.radius": 0.5, "synth.flows": 20, "synth.periods": 20,
    "synth.rank": 2, "synth.anomaly_prob": 0.01, "synth.paths": 1, "synth.sample_prob": 0.25,
}
DIAG_WARMUP = dict(DIAG_SCALE, **{"synth.flows": 8, "synth.periods": 8, "synth.anomaly_prob": 0.1})
# (scale, synth seed) of each pool item.  The dual certificate fails on every
# DIAG_SCALE item; the last item, rank 1 and half its entries sampled, is one
# where it passes, so the certificate => recovery check runs in every run.
DIAG_POOL = [(DIAG_SCALE, i) for i in range(5)] + [
    (dict(DIAG_SCALE, **{"synth.rank": 1, "synth.sample_prob": 0.5}), 2)]


class Diagnose(Workload):
    name = "diagnose"
    why = ("recovery diagnostics on 20x20 scenarios with a routing nullspace: "
           "dense subspace bases, incoherences, tau, dual certificate")
    pool = len(DIAG_POOL)

    def synthesize(self, main, base_dir):
        for i, (scale, seed) in enumerate(DIAG_POOL):
            structure = synth_structure(main, base_dir, scale, i, seed)
            derive(structure, os.path.join(base_dir, f"scenario{i}"), i, self.input_seed(i),
                   signs=True)
        rc = main(synth_argv(os.path.join(base_dir, "warmup-scenario"),
                             dict(DIAG_WARMUP, seed=self.input_seed(0))))
        if rc != 0:
            raise RuntimeError(f"synth exited with {rc}")

    def diagnose(self, scenario, label="diagnose") -> Command:
        return Command(label, "diagnose", {"io.scenario": scenario},
                       check=lambda out: checks.check_diagnose(scenario, out))

    def warmup(self, base_dir):
        return self.diagnose(os.path.join(base_dir, "warmup-scenario"), label="diagnose-warmup")

    def commands(self, base_dir, r):
        return [self.diagnose(os.path.join(base_dir, f"scenario{r % self.pool}"))]

    def post_checks(self, main, work_dir, done):
        """Where the certificate passed, p2 at its lambda must recover exactly."""
        problems = []
        seen = set()
        for cmd, out in done:
            scenario = cmd.config["io.scenario"]
            report = checks.read_kv(os.path.join(out, "diagnose.txt"))
            if scenario in seen or report.get("certificate_passes") != "True":
                continue
            seen.add(scenario)
            solve = Command("certificate-solve", "solve", {
                "io.scenario": scenario, "solver.kind": "p2",
                "solver.lam": report["certificate_lambda"], "solver.max_iters": 20000,
                "solver.tol_primal": 1e-11, "solver.tol_dual": 1e-11,
            })
            solve_out = os.path.join(work_dir, f"certificate-solve-{len(seen)}")
            rc = main(solve.argv(solve_out))
            if rc != 0:
                problems.append(f"diagnose: certificate solve exited with {rc}")
                continue
            problems += checks.check_recovery(scenario, solve_out)
        return problems


WORKLOADS = {w.name: w for w in (Solve70, PhaseGrid, BurstCompare, Diagnose)}
