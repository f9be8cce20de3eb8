"""Experiment pipelines behind the CLI: scenario generation, solving, the
phase-transition grid, the sampling-rate sweep, the correlation-aware burst
comparison, and the recovery diagnostics report.

All outputs are plain files (matrix CSV, key=value manifests, binary PGM), and
every pipeline is deterministic given its configuration and seed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .admm import (
    AdmmConfig, admm_solve_p1, admm_solve_p2, admm_solve_p2_path, admm_solve_p6, default_lambda,
)
from .correlation import (
    CorrelationSet,
    burst_correlations,
    learn_RQ_RL,
    split_RB_RC,
)
from .diagnostics import (
    SizeGuardError,
    NotLocallyIdentifiableError,
    SIZE_GUARD_CELLS,
    dual_certificate,
    instance_bases,
    measure_incoherences,
    check_recovery_conditions,
)
from .fileio import (
    ConfigError,
    ParseError,
    read_manifest,
    read_mask,
    read_matrix,
    write_manifest,
    write_mask,
    write_matrix,
    write_pgm,
)
from .mm import MmConfig, mm_solve
from .model import (
    DegenerateTruthError,
    DivergenceError,
    Observations,
    RoutingMatrix,
    SamplingMask,
    TrafficMatrices,
    relative_error,
    relative_errors,
    subspace_bundle,
)
from .synth import (
    BurstParams,
    GeoGraphParams,
    build_routing,
    choose_od_pairs,
    gen_bursty_anomalies,
    gen_cyclostationary_traffic,
    gen_geometric_graph,
    gen_lowrank_traffic,
    gen_mask,
    gen_sparse_anomalies,
    gen_structured_mask,
    is_connected,
    observe,
)

# ---------------------------------------------------------------------------
# Configuration registry: key -> (type, default, help).  Types: int, float,
# str; None default means "required by the command that uses it" or "derived
# at run time".

CONFIG_KEYS = {
    "seed": (int, 0, "base random seed for the whole run"),
    "threads": (int, 1, "worker threads for grid/sweep cells"),
    "io.scenario": (str, None, "scenario directory consumed by solve/diagnose"),
    "io.link_mask": (str, None, "optional link-mask CSV for the outlier solver"),
    "synth.nodes": (int, 15, "node count of the geometric topology"),
    "synth.radius": (float, 0.5, "connection radius in the unit square"),
    "synth.flows": (int, 60, "number of OD flows F"),
    "synth.periods": (int, 60, "number of time slots T"),
    "synth.rank": (int, 2, "rank of the nominal traffic"),
    "synth.anomaly_prob": (float, 0.01, "per-entry anomaly probability p"),
    "synth.paths": (int, 3, "link-disjoint paths per OD pair"),
    "synth.mask": (str, "bernoulli", "sampling mask kind: bernoulli|structured"),
    "synth.sample_prob": (float, 0.25, "Bernoulli flow-sampling probability pi"),
    "synth.row_miss": (float, 0.1, "fraction of rows fully unobserved (structured)"),
    "synth.time_prob": (float, 0.1, "per-slot sampling rate on observed rows (structured)"),
    "synth.noise_link": (float, 0.0, "link-count noise std"),
    "synth.noise_flow": (float, 0.0, "flow-count noise std"),
    "solver.kind": (str, "p2", "estimator: p1|p2|p5|p6"),
    "solver.lam": (float, None, "l1 weight of the constrained program p2 and of diagnose's "
                   "dual certificate (default 1/sqrt(max(F,T)))"),
    "solver.lambda_star": (float, 0.1, "nuclear / factor weight"),
    "solver.lambda_1": (float, 0.05, "l1 / anomaly-factor weight"),
    "solver.lambda_y": (float, 1.0, "link-outlier weight (p6)"),
    "solver.lambda_z": (float, 1.0, "flow-outlier weight (p6)"),
    "solver.max_iters": (int, 2000, "iteration cap of p1, p2 and p6"),
    "solver.tol_primal": (float, None, "p2 constraint-residual tolerance (default "
                          "1e-6*(1+||Y||_F)); p1/p6 stop once their prox-gradient "
                          "residual is at most min(tol_primal, tol_dual)"),
    "solver.tol_dual": (float, None, "p2 iterate-change tolerance (same default)"),
    "solver.rho": (int, 3, "factor rank of the bilinear solver"),
    "solver.tol": (float, 1e-8, "relative objective-change stopping threshold (p5)"),
    "solver.mm_max_iters": (int, 5000, "bilinear solver iteration cap"),
    "phase.ranks": (str, "1,2,4,7", "comma-separated rank grid"),
    "phase.sparsity_counts": (str, "18,36,72,144", "comma-separated anomaly-count grid"),
    "phase.lam_grid": (int, 8, "number of lambda grid points"),
    "phase.lam_lo": (float, 1e-3, "lambda grid lower multiplier"),
    "phase.lam_hi": (float, 10.0, "lambda grid upper multiplier"),
    "phase.seeds": (int, 1, "seeds averaged per grid cell"),
    "netflow.pis": (str, "0,0.1,0.25,0.5,1.0", "comma-separated sampling rates"),
    "netflow.seeds": (int, 5, "seeds averaged per sampling rate"),
    "burst.days": (int, 30, "training days K"),
    "burst.rank": (int, 3, "rank of the cyclostationary traffic"),
    "burst.scale": (float, 1.0, "traffic scale"),
    "burst.jitter": (float, 0.2, "day-to-day factor jitter"),
    "burst.n_anomalous": (int, 6, "number of bursty flows"),
    "burst.gamma": (float, 8.0, "burst amplitude"),
    "burst.theta": (float, 0.999, "AR coefficient of the burst Gaussian part"),
    "burst.sigma_n": (float, 0.005, "innovation std of the burst Gaussian part"),
    "burst.alpha": (float, 0.98, "burst persistence"),
    "burst.nu": (float, 0.03, "burst activation probability"),
    "burst.row_miss": (float, 0.1, "fraction of rows fully unobserved"),
    "burst.time_prob": (float, 0.1, "per-slot sampling rate on observed rows"),
    "burst.p5_lambda_star": (float, 0.01, "factor weight of the correlation-aware solver"),
    "burst.p5_lambda_1": (float, 0.01, "anomaly-factor weight of the correlation-aware solver"),
}


class ExperimentConfig:
    """Typed view over flat key=value settings, validated against the registry."""

    def __init__(self, values: dict | None = None):
        values = dict(values or {})
        unknown = sorted(set(values) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self._values = values

    def with_values(self, values: dict) -> "ExperimentConfig":
        """A new config with `values` set over this one's; this one is unchanged."""
        return ExperimentConfig({**self._values, **values})

    def get(self, key: str):
        kind, default, _ = CONFIG_KEYS[key]
        if key not in self._values:
            return default
        raw = self._values[key]
        if isinstance(raw, kind):
            return raw
        try:
            return kind(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key}: {exc}") from None

    def get_list(self, key: str, kind=float) -> list:
        raw = str(self.get(key))
        try:
            return [kind(part) for part in raw.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from None

    def snapshot(self) -> dict:
        out = {}
        for key in sorted(CONFIG_KEYS):
            val = self.get(key)
            if val is not None:
                out[key] = val
        return out


def config_help() -> str:
    lines = ["configuration keys (flat key=value file):"]
    for key in sorted(CONFIG_KEYS):
        kind, default, help_text = CONFIG_KEYS[key]
        shown = "required/derived" if default is None else default
        lines.append(f"  {key:<24} {kind.__name__:<6} default={shown!r}  {help_text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario files

SCENARIO_FILES = {
    "topology": "topology.csv",
    "routing": "routing.csv",
    "nominal": "nominal.csv",
    "anomalies": "anomalies.csv",
    "mask": "mask.csv",
    "link_counts": "link_counts.csv",
    "flow_counts": "flow_counts.csv",
}
MANIFEST_FILE = "manifest.txt"


@dataclass
class Scenario:
    routing: RoutingMatrix
    truth: TrafficMatrices
    obs: Observations


def connected_topology(nodes: int, radius: float, seed: int):
    """Regenerate the geometric graph (deterministic seed ladder) until connected."""
    for attempt in range(64):
        topo = gen_geometric_graph(GeoGraphParams(nodes, radius, seed + 7919 * attempt))
        if is_connected(topo):
            return topo
    raise ConfigError(
        f"could not draw a connected geometric graph with n={nodes}, d_c={radius}"
    )


def _rejected_as_config_error(what: str):
    """A config boundary: a value the generators or a solver's config reject
    is a config error, reported as `invalid <what>: ...`."""
    def decorate(build):
        @functools.wraps(build)
        def checked(*args):
            try:
                return build(*args)
            except ValueError as exc:
                raise ConfigError(f"invalid {what}: {exc}") from exc
        return checked
    return decorate


def build_network(cfg: ExperimentConfig, seed: int) -> RoutingMatrix:
    """The recipe's topology, OD pairs and multipath routing."""
    topo = connected_topology(cfg.get("synth.nodes"), cfg.get("synth.radius"), seed)
    od = choose_od_pairs(topo, cfg.get("synth.flows"), seed + 1)
    return build_routing(topo, od, cfg.get("synth.paths"), seed + 2)


def _observe(cfg: ExperimentConfig, routing, truth: TrafficMatrices, mask, seed: int):
    """The recipe's link and sampled flow counts, with the synth noise."""
    return observe(routing, truth.nominal, truth.anomalies, mask,
                   sigma_v=cfg.get("synth.noise_link"), sigma_w=cfg.get("synth.noise_flow"),
                   seed=seed + 6)


@_rejected_as_config_error("scenario parameters")
def build_scenario(cfg: ExperimentConfig, seed: int) -> Scenario:
    """The scenario recipe: every command turns a config and a seed into a
    scenario here, varying only `synth.*` keys on a copy of its config."""
    routing = build_network(cfg, seed)
    F = cfg.get("synth.flows")
    T = cfg.get("synth.periods")
    X0 = gen_lowrank_traffic(F, T, cfg.get("synth.rank"), seed + 3)
    A0 = gen_sparse_anomalies(F, T, cfg.get("synth.anomaly_prob"), seed + 4)
    kind = cfg.get("synth.mask")
    if kind == "bernoulli":
        mask = gen_mask(F, T, cfg.get("synth.sample_prob"), seed + 5)
    elif kind == "structured":
        mask = gen_structured_mask(
            F, T, cfg.get("synth.row_miss"), cfg.get("synth.time_prob"), seed + 5
        )
    else:
        raise ConfigError(f"synth.mask must be bernoulli or structured, got {kind!r}")
    truth = TrafficMatrices(X0, A0)
    return Scenario(routing=routing, truth=truth, obs=_observe(cfg, routing, truth, mask, seed))


def _short_od_pairs(cfg: ExperimentConfig, routing: RoutingMatrix) -> int:
    """The OD pairs that got fewer than synth.paths disjoint paths."""
    return int((routing.disjoint_paths < cfg.get("synth.paths")).sum())


def write_scenario(out_dir: str, scenario: Scenario, cfg: ExperimentConfig, seed: int) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    r = scenario.routing
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["topology"]),
                 np.array(r.links, dtype=float))
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["routing"]), r.entries)
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["nominal"]), scenario.truth.nominal)
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["anomalies"]), scenario.truth.anomalies)
    write_mask(os.path.join(out_dir, SCENARIO_FILES["mask"]), scenario.obs.mask.mask)
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["link_counts"]), scenario.obs.link_counts)
    write_matrix(os.path.join(out_dir, SCENARIO_FILES["flow_counts"]), scenario.obs.flow_counts)
    F, T = scenario.truth.shape
    manifest = {
        "nodes": r.node_count,
        "links": r.shape[0],
        "flows": F,
        "periods": T,
        "seed": seed,
        "rank": cfg.get("synth.rank"),
        "anomaly_prob": cfg.get("synth.anomaly_prob"),
        "paths": cfg.get("synth.paths"),
        "short_od_pairs": _short_od_pairs(cfg, r),
        "nullspace_dim": F - int(np.linalg.matrix_rank(r.entries)),
        "observed_fraction": f"{scenario.obs.mask.observed_fraction:.6f}",
        "od_pairs": ";".join(f"{o}:{d}" for o, d in r.od_pairs),
        "version": __version__,
    }
    write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
    return manifest


def load_scenario(scenario_dir: str) -> tuple[RoutingMatrix, Observations, TrafficMatrices | None, dict]:
    """Read a scenario directory; a missing manifest entry or files whose
    shapes disagree raise ParseError naming the directory."""
    def path(name):
        return os.path.join(scenario_dir, SCENARIO_FILES[name])

    manifest = read_manifest(os.path.join(scenario_dir, MANIFEST_FILE))
    missing = [key for key in ("nodes", "od_pairs") if key not in manifest]
    if missing:
        raise ParseError(f"{scenario_dir}: {MANIFEST_FILE} has no {' or '.join(missing)} entry")
    entries = read_matrix(path("routing"))
    links_arr = read_matrix(path("topology"))
    mask = read_mask(path("mask"))
    link_counts, flow_counts = read_matrix(path("link_counts")), read_matrix(path("flow_counts"))
    truth_files = None
    if os.path.exists(path("nominal")) and os.path.exists(path("anomalies")):
        truth_files = read_matrix(path("nominal")), read_matrix(path("anomalies"))
    try:
        routing = RoutingMatrix(
            entries=entries,
            od_pairs=tuple(tuple(p.split(":")) for p in manifest["od_pairs"].split(";")),
            links=tuple(links_arr), node_count=int(manifest["nodes"]),
        )
        obs = Observations(link_counts=link_counts, flow_counts=flow_counts,
                           mask=SamplingMask(mask))
        if routing.shape != (obs.link_counts.shape[0], obs.shape[0]):
            raise ValueError(f"routing is {routing.shape[0]}x{routing.shape[1]} but the counts "
                             f"have {obs.link_counts.shape[0]} links and {obs.shape[0]} flows")
        truth = None if truth_files is None else TrafficMatrices(*truth_files)
        if truth is not None and truth.shape != obs.shape:
            raise ValueError("the ground-truth and flow-count matrices differ in shape")
    except ValueError as exc:
        raise ParseError(f"{scenario_dir}: {exc}") from None
    return routing, obs, truth, manifest


# ---------------------------------------------------------------------------
# Run records

def _metric_text(value):
    """A metric as written to metrics.txt and runrecord.txt; None is undefined."""
    if value is None:
        return "undefined"
    return f"{value:.12e}" if isinstance(value, float) else value


def write_runrecord(path: str, cfg: ExperimentConfig, seed: int, metrics: dict,
                    wall_time: float = 0.0, **counts):
    """Reproducibility record: config snapshot, seed, metrics, counts (such as
    iterations), cost, version."""
    record = {f"cfg.{k}": v for k, v in cfg.snapshot().items()}
    record.update({f"metric.{k}": _metric_text(v) for k, v in metrics.items()})
    record["seed"] = seed
    record.update(counts)
    record["wall_time_s"] = f"{wall_time:.3f}"
    record["version"] = __version__
    write_manifest(path, record)


# ---------------------------------------------------------------------------
# Commands

def _require_positive(cfg: ExperimentConfig, *keys: str) -> None:
    """Reject each key whose value is not a positive finite number (NaN fails)."""
    for key in keys:
        value = cfg.get(key)
        if not 0 < value < np.inf:
            bound = "at least 1" if isinstance(value, int) else "positive and finite"
            raise ConfigError(f"{key} must be {bound}, got {value}")


def cmd_synth(cfg: ExperimentConfig, out_dir: str) -> dict:
    seed = cfg.get("seed")
    scenario = build_scenario(cfg, seed)
    return write_scenario(out_dir, scenario, cfg, seed)


@_rejected_as_config_error("solver settings")
def _admm_config(cfg: ExperimentConfig) -> AdmmConfig:
    return AdmmConfig(
        lam=cfg.get("solver.lam"),
        lambda_star=cfg.get("solver.lambda_star"),
        lambda_1=cfg.get("solver.lambda_1"),
        lambda_y=cfg.get("solver.lambda_y"),
        lambda_z=cfg.get("solver.lambda_z"),
        max_iters=cfg.get("solver.max_iters"),
        tol_primal=cfg.get("solver.tol_primal"),
        tol_dual=cfg.get("solver.tol_dual"),
    )


@_rejected_as_config_error("solver settings")
def _mm_config(cfg: ExperimentConfig) -> MmConfig:
    return MmConfig(
        rho=cfg.get("solver.rho"),
        lambda_star=cfg.get("solver.lambda_star"),
        lambda_1=cfg.get("solver.lambda_1"),
        max_iters=cfg.get("solver.mm_max_iters"),
        tol=cfg.get("solver.tol"),
    )


def run_solver(kind: str, obs: Observations, routing, cfg: ExperimentConfig, link_mask=None):
    """Dispatch one estimator run; returns (X, A, extras, report)."""
    if kind == "p2":
        X, A, report = admm_solve_p2(obs, routing, _admm_config(cfg))
        return X, A, {}, report
    if kind == "p1":
        X, A, report = admm_solve_p1(obs, routing, _admm_config(cfg))
        return X, A, {}, report
    if kind == "p6":
        X, A, O_y, O_z, report = admm_solve_p6(obs, routing, _admm_config(cfg), link_mask=link_mask)
        return X, A, {"outliers_link": O_y, "outliers_flow": O_z}, report
    if kind == "p5":
        F, T = obs.flow_counts.shape
        X, A, report = mm_solve(obs, routing, CorrelationSet.identity(F, T), _mm_config(cfg))
        return X, A, {}, report
    raise ConfigError(f"solver.kind must be one of p1|p2|p5|p6, got {kind!r}")


def cmd_solve(cfg: ExperimentConfig, out_dir: str) -> dict:
    scenario_dir = cfg.get("io.scenario")
    if not scenario_dir:
        raise ConfigError("io.scenario must point at a scenario directory")
    kind = cfg.get("solver.kind")
    if cfg.get("io.link_mask") and kind != "p6":
        raise ConfigError(f"io.link_mask applies to solver.kind=p6 only, got {kind}")
    routing, obs, truth, _ = load_scenario(scenario_dir)
    link_mask = None
    if cfg.get("io.link_mask"):
        link_mask = read_mask(cfg.get("io.link_mask"))
        if link_mask.shape != obs.link_counts.shape:
            raise ConfigError(f"io.link_mask must be links by periods, "
                              f"{obs.link_counts.shape}, got {link_mask.shape}")
    start = time.perf_counter()
    X, A, extras, report = run_solver(kind, obs, routing, cfg, link_mask=link_mask)
    wall = time.perf_counter() - start
    if not report.converged:
        print(f"warning: solver {kind} did not converge in {report.iterations} iterations",
              file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    write_matrix(os.path.join(out_dir, "X_hat.csv"), X)
    write_matrix(os.path.join(out_dir, "A_hat.csv"), A)
    for name, M in extras.items():
        write_matrix(os.path.join(out_dir, f"{name}.csv"), M)
    report_entries = {
        "solver": kind,
        "converged": report.converged,
        "iterations": report.iterations,
    }
    if report.objective is not None:
        report_entries["objective"] = f"{report.objective:.12e}"
    for key, vals in report.residuals.items():
        report_entries[f"residual.{key}"] = f"{vals[-1]:.6e}"
    write_manifest(os.path.join(out_dir, "report.txt"), report_entries)

    metrics: dict = {}
    if truth is not None:
        # An all-zero true matrix leaves its relative error (and the sum)
        # undefined; the run is still recorded before the error is raised.
        e_x, e_a = relative_error(X, truth.nominal), relative_error(A, truth.anomalies)
        metrics = {"e_x": e_x, "e_a": e_a,
                   "e_x_plus_a": None if e_x is None or e_a is None else e_x + e_a}
        write_manifest(
            os.path.join(out_dir, "metrics.txt"),
            {k: _metric_text(v) for k, v in metrics.items()},
        )
    write_runrecord(os.path.join(out_dir, "runrecord.txt"), cfg, cfg.get("seed"),
                    metrics, iterations=report.iterations, wall_time=wall)
    if None in metrics.values():
        raise DegenerateTruthError("nominal" if metrics["e_x"] is None else "anomaly")
    return metrics


def _phase_cell(cfg: ExperimentConfig, seed: int, lam_grid) -> tuple[float, Counter]:
    """Best e_{x+a} over the lambda grid for one (rank, sparsity) cell, and the
    counts of lambda solves that diverged and converged, of their summed
    iterations and of the OD pairs with fewer than synth.paths disjoint paths.
    `cfg` carries the cell's synth.rank and synth.anomaly_prob."""
    reps = cfg.get("phase.seeds")
    admm_cfg = _admm_config(cfg)
    total = 0.0
    tallies = Counter()
    for rep in range(reps):
        cell_seed = seed + rep
        scenario = build_scenario(cfg, cell_seed)
        routing, truth, obs = scenario.routing, scenario.truth, scenario.obs
        tallies["short_od_pairs"] += _short_od_pairs(cfg, routing)
        if not truth.anomalies.any():  # degenerate draw; force one anomaly for a valid error metric
            A0 = truth.anomalies.copy()
            A0[0, 0] = 1.0
            truth = TrafficMatrices(truth.nominal, A0)
            obs = _observe(cfg, routing, truth, obs.mask, cell_seed)
        best = np.inf
        # a diverged lambda is skipped; other errors propagate out of the path
        for result in admm_solve_p2_path(obs, routing, admm_cfg, lam_grid):
            if isinstance(result, DivergenceError):
                tallies["diverged_lambdas"] += 1
                continue
            X, A, report = result
            tallies["converged_lambdas"] += report.converged
            tallies["lambda_iterations"] += report.iterations
            _, _, e_sum = relative_errors(TrafficMatrices(X, A), truth)
            best = min(best, e_sum)
        total += best if np.isfinite(best) else 1.0
    return total / reps, tallies


def _map_cells(work, items, threads: int) -> list:
    """[work(item) for item in items] on `threads` worker threads (serially for 1)."""
    if threads == 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


def phase_error_to_gray(err: np.ndarray) -> np.ndarray:
    """Map errors to 8-bit grayscale: <=0.01 white, >=1 black, linear between."""
    v = np.clip((err - 0.01) / 0.99, 0.0, 1.0)
    return np.round(255 * (1.0 - v))


def cmd_phase_grid(cfg: ExperimentConfig, out_dir: str) -> np.ndarray:
    _require_positive(cfg, "phase.seeds", "phase.lam_grid", "phase.lam_lo", "phase.lam_hi",
                      "threads")
    ranks = cfg.get_list("phase.ranks", int)
    counts = cfg.get_list("phase.sparsity_counts", int)
    if not ranks or not counts:
        raise ConfigError("phase grids must be non-empty")
    if min(ranks) < 1 or min(counts) < 1:
        raise ConfigError("phase grids need rank >= 1 and sparsity count >= 1")
    F = cfg.get("synth.flows")
    T = cfg.get("synth.periods")
    if max(counts) > F * T:
        raise ConfigError(f"phase.sparsity_counts must be at most synth.flows * synth.periods "
                          f"= {F * T}, got {max(counts)}")
    base_lam = default_lambda(F, T)
    lam_grid = np.geomspace(
        cfg.get("phase.lam_lo") * base_lam,
        cfg.get("phase.lam_hi") * base_lam,
        cfg.get("phase.lam_grid"),
    )
    seed = cfg.get("seed")
    cells = [(i, j, r, s) for i, r in enumerate(ranks) for j, s in enumerate(counts)]
    errors = np.full((len(ranks), len(counts)), np.nan)
    start = time.perf_counter()

    def work(cell):
        i, j, r, s = cell
        cell_cfg = cfg.with_values({"synth.rank": r, "synth.anomaly_prob": s / (F * T)})
        return i, j, _phase_cell(cell_cfg, seed + 1000 * (i * len(counts) + j), lam_grid)

    tallies = Counter(diverged_lambdas=0, converged_lambdas=0, lambda_iterations=0)
    for i, j, (val, cell_tallies) in _map_cells(work, cells, cfg.get("threads")):
        errors[i, j] = val
        tallies.update(cell_tallies)

    os.makedirs(out_dir, exist_ok=True)
    write_matrix(os.path.join(out_dir, "phase_grid.csv"), errors)
    write_pgm(os.path.join(out_dir, "phase_grid.pgm"), phase_error_to_gray(errors))
    write_manifest(
        os.path.join(out_dir, "phase_meta.txt"),
        {
            "ranks": ",".join(str(r) for r in ranks),
            "sparsity_counts": ",".join(str(s) for s in counts),
            "lambda_grid": ",".join(f"{v:.6e}" for v in lam_grid),
            "white_cells": int((errors <= 0.01).sum()),
            **tallies,
        },
    )
    write_runrecord(
        os.path.join(out_dir, "runrecord.txt"), cfg, seed,
        {"mean_error": float(np.nanmean(errors))},
        wall_time=time.perf_counter() - start,
    )
    return errors


def cmd_netflow_sweep(cfg: ExperimentConfig, out_dir: str) -> np.ndarray:
    pis = sorted(cfg.get_list("netflow.pis", float))
    if not pis:
        raise ConfigError("netflow.pis must be non-empty")
    _require_positive(cfg, "netflow.seeds", "threads")
    n_seeds = cfg.get("netflow.seeds")
    seed = cfg.get("seed")
    start = time.perf_counter()

    def work(pi):
        # Each replica's masks come from one stream, so they are nested across pi.
        pi_cfg = cfg.with_values({"synth.mask": "bernoulli", "synth.sample_prob": pi})
        errors, short = np.zeros(2), 0
        for rep in range(n_seeds):
            sc = build_scenario(pi_cfg, seed + 17 * rep)
            short += _short_od_pairs(cfg, sc.routing)
            X, A, _, _ = run_solver(cfg.get("solver.kind"), sc.obs, sc.routing, cfg)
            # an all-zero truth leaves its error undefined: nan here, raised below
            errors += [np.nan if e is None else e
                       for e in (relative_error(X, sc.truth.nominal),
                                 relative_error(A, sc.truth.anomalies))]
        return errors / n_seeds, short

    cells = _map_cells(work, pis, cfg.get("threads"))
    rows = np.column_stack([pis, [errors for errors, _ in cells]])

    metrics = {}
    for pi, ex, ea in rows:
        metrics[f"e_x_at_{pi:g}"] = None if np.isnan(ex) else float(ex)
        metrics[f"e_a_at_{pi:g}"] = None if np.isnan(ea) else float(ea)
    os.makedirs(out_dir, exist_ok=True)
    write_matrix(os.path.join(out_dir, "netflow_sweep.csv"), rows)
    # every pi draws the same replica networks, so each cell's count is their sum
    write_runrecord(os.path.join(out_dir, "runrecord.txt"), cfg, seed, metrics,
                    wall_time=time.perf_counter() - start, short_od_pairs=cells[0][1])
    undefined = np.isnan(rows[:, 1:]).any(axis=0)
    if undefined.any():
        raise DegenerateTruthError("nominal" if undefined[0] else "anomaly")
    return rows


@_rejected_as_config_error("scenario parameters")
def build_burst_scenario(cfg: ExperimentConfig, seed: int):
    """Training history plus a bursty test day under the structured mask, on
    the recipe's network."""
    routing = build_network(cfg, seed)
    F = cfg.get("synth.flows")
    T = cfg.get("synth.periods")
    K = cfg.get("burst.days")
    traffic = gen_cyclostationary_traffic(
        F, T, K + 1, cfg.get("burst.rank"), seed + 3,
        scale=cfg.get("burst.scale"), day_jitter=cfg.get("burst.jitter"),
    )
    X_train = traffic[:, : K * T]
    X0 = traffic[:, K * T :]
    rng = np.random.default_rng(seed + 4)
    anomalous = tuple(
        int(f) for f in rng.choice(F, size=cfg.get("burst.n_anomalous"), replace=False)
    )
    bp = BurstParams(
        gamma_f=cfg.get("burst.gamma"),
        theta=cfg.get("burst.theta"),
        sigma_n=cfg.get("burst.sigma_n"),
        alpha=cfg.get("burst.alpha"),
        nu=cfg.get("burst.nu"),
        anomalous_flows=anomalous,
    )
    A0 = gen_bursty_anomalies(F, T, bp, seed + 5)
    if not A0.any():  # ensure the test day carries at least one burst
        A0 = A0.copy()
        A0[anomalous[0], T // 2] = bp.gamma_f * bp.sigma_n
    mask = gen_structured_mask(
        F, T, cfg.get("burst.row_miss"), cfg.get("burst.time_prob"), seed + 6
    )
    obs = observe(routing, X0, A0, mask)
    return routing, X_train, TrafficMatrices(X0, A0), bp, obs


def learn_burst_correlations(X_train: np.ndarray, bp: BurstParams, period: int,
                             rho: int) -> CorrelationSet:
    R_L, R_Q = learn_RQ_RL(X_train, period, rho)
    return CorrelationSet(R_L, R_Q, *split_RB_RC(burst_correlations(bp, period, X_train.shape[0])))


def cmd_burst_compare(cfg: ExperimentConfig, out_dir: str) -> dict:
    seed = cfg.get("seed")
    if cfg.get("burst.days") < 2:
        raise ConfigError("burst.days must be at least 2")
    _require_positive(cfg, "burst.n_anomalous")
    if cfg.get("burst.n_anomalous") > cfg.get("synth.flows"):
        raise ConfigError(f"burst.n_anomalous must be at most synth.flows = "
                          f"{cfg.get('synth.flows')}, got {cfg.get('burst.n_anomalous')}")
    p5_cfg = cfg.with_values({"solver.lambda_star": cfg.get("burst.p5_lambda_star"),
                              "solver.lambda_1": cfg.get("burst.p5_lambda_1")})
    p1_solver, p5_solver = _admm_config(cfg), _mm_config(p5_cfg)  # rejected before any work
    start = time.perf_counter()
    routing, X_train, truth, bp, obs = build_burst_scenario(cfg, seed)
    F, T = truth.shape
    corr = learn_burst_correlations(X_train, bp, T, p5_solver.rho)

    X1, A1, rep1 = admm_solve_p1(obs, routing, p1_solver)
    X5, A5, rep5 = mm_solve(obs, routing, corr, p5_solver)

    e1 = relative_errors(TrafficMatrices(X1, A1), truth)
    e5 = relative_errors(TrafficMatrices(X5, A5), truth)
    metrics = {
        "e_x_p1": e1[0], "e_a_p1": e1[1],
        "e_x_p5": e5[0], "e_a_p5": e5[1],
    }

    os.makedirs(out_dir, exist_ok=True)
    # Representative traces: one fully hidden row, one bursty row, one plain.
    hidden_rows = np.flatnonzero((~obs.mask.mask).all(axis=1))
    bursty = [f for f in bp.anomalous_flows]
    plain = [f for f in range(F) if f not in bursty and f not in hidden_rows]
    repr_flows = []
    if hidden_rows.size:
        repr_flows.append(int(hidden_rows[0]))
    if bursty:
        repr_flows.append(int(bursty[0]))
    if plain:
        repr_flows.append(int(plain[0]))
    write_matrix(os.path.join(out_dir, "trace_flows.csv"), np.array([repr_flows], dtype=float))
    write_matrix(os.path.join(out_dir, "traces_truth.csv"), truth.nominal[repr_flows])
    write_matrix(os.path.join(out_dir, "traces_p1.csv"), X1[repr_flows])
    write_matrix(os.path.join(out_dir, "traces_p5.csv"), X5[repr_flows])
    write_matrix(os.path.join(out_dir, "anomaly_map_true.csv"), truth.anomalies)
    write_matrix(os.path.join(out_dir, "anomaly_map_p1.csv"), A1)
    write_matrix(os.path.join(out_dir, "anomaly_map_p5.csv"), A5)
    write_manifest(
        os.path.join(out_dir, "compare.txt"),
        {k: f"{v:.12e}" for k, v in metrics.items()}
        | {"iters_p1": rep1.iterations, "iters_p5": rep5.iterations,
           "converged_p1": rep1.converged, "converged_p5": rep5.converged,
           "short_od_pairs": _short_od_pairs(cfg, routing)},
    )
    write_runrecord(os.path.join(out_dir, "runrecord.txt"), cfg, seed, metrics,
                    wall_time=time.perf_counter() - start)
    return metrics


def cmd_diagnose(cfg: ExperimentConfig, out_dir: str) -> dict:
    lam = cfg.get("solver.lam")
    if lam is not None and not 0 < lam < np.inf:  # NaN fails; rejected before any work
        raise ConfigError("invalid solver settings: lam must be positive when set")
    scenario_dir = cfg.get("io.scenario")
    if not scenario_dir:
        raise ConfigError("io.scenario must point at a scenario directory")
    routing, obs, truth, manifest = load_scenario(scenario_dir)
    if truth is None:
        raise ConfigError("diagnose needs ground-truth files in the scenario directory")
    F, T = truth.shape
    os.makedirs(out_dir, exist_ok=True)
    out: dict = {"flows": F, "periods": T}
    bundle = subspace_bundle(truth.nominal, truth.anomalies)
    out["rank"] = bundle.rank
    out["support_size"] = int(bundle.support.sum())
    guard_tripped = F * T > SIZE_GUARD_CELLS
    if guard_tripped:
        out["omitted"] = "incoherences,tau,lambda_range,certificate (size guard)"
    else:
        bases = instance_bases(routing, obs.mask, bundle)  # shared by measures and certificate
        m = measure_incoherences(routing, obs.mask, bundle, bases)
        rep = check_recovery_conditions(**m)
        out.update(m)
        out["chi"] = rep.chi
        out["lambda_min"] = rep.lambda_min
        out["lambda_max"] = rep.lambda_max
        out["feasible"] = rep.feasible
        if rep.reason:
            out["reason"] = rep.reason
        lam = lam if lam is not None else default_lambda(F, T)
        out["certificate_lambda"] = lam
        try:
            cert = dual_certificate(bundle, lam, bases, sign_A0=truth.anomalies)
        except NotLocallyIdentifiableError:
            out["certificate_passes"] = False
            out["certificate_error"] = "not locally identifiable"
        else:
            out["certificate_passes"] = cert.passes
            out["c4_value"] = cert.c4_value
            out["c5_value"] = cert.c5_value
            out["theta"], cond_a, cond_b = rep.conditions(lam)
            out["cond_a_ok"] = cond_a < 1.0
            out["cond_b_ok"] = cond_b < lam
    write_manifest(os.path.join(out_dir, "diagnose.txt"), out)
    if guard_tripped:
        raise SizeGuardError(
            f"instance has {F * T} cells; wrote partial report to {out_dir}"
        )
    return out
