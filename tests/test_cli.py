import argparse
import gc
import os
import re
import subprocess
import sys
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import trafficmaps.admm as admm
import trafficmaps.cli as cli
import trafficmaps.diagnostics as diagnostics
import trafficmaps.pipelines as pipelines
from trafficmaps.admm import default_lambda
from trafficmaps.cli import main
from trafficmaps.correlation import CorrelationSet
from trafficmaps.fileio import (
    read_manifest, read_mask, read_matrix, read_pgm, write_manifest, write_mask, write_matrix,
)
from trafficmaps.mm import MmConfig, mm_solve
from trafficmaps.model import DivergenceError
from trafficmaps.pipelines import (
    ExperimentConfig,
    build_network,
    cmd_burst_compare,
    cmd_netflow_sweep,
    cmd_phase_grid,
    load_scenario,
    phase_error_to_gray,
)


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def record_scenarios(monkeypatch):
    """Route pipelines.build_scenario through a recorder; returns the list of
    (config, seed, scenario) it fills."""
    real = pipelines.build_scenario
    calls = []

    def recorded(cfg, seed):
        scenario = real(cfg, seed)
        calls.append((cfg, seed, scenario))
        return scenario

    monkeypatch.setattr(pipelines, "build_scenario", recorded)
    return calls


SMALL_SYNTH = """
seed=5
synth.nodes=10
synth.radius=0.6
synth.flows=24
synth.periods=20
synth.rank=1
synth.anomaly_prob=0.02
synth.paths=2
synth.sample_prob=0.4
"""


class TestSynthCommand:
    def test_writes_seven_files_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        out = tmp_path / "scn"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "anomalies.csv", "flow_counts.csv", "link_counts.csv", "manifest.txt",
            "mask.csv", "nominal.csv", "routing.csv", "topology.csv",
        ]
        manifest = read_manifest(out / "manifest.txt")
        F, T = int(manifest["flows"]), int(manifest["periods"])
        assert read_matrix(out / "nominal.csv").shape == (F, T)
        L = int(manifest["links"])
        assert read_matrix(out / "routing.csv").shape == (L, F)
        assert int(manifest["nullspace_dim"]) >= 0
        # this network has fewer than synth.paths=2 disjoint paths for some pairs
        routing = load_scenario(str(out))[0]
        assert int(manifest["short_od_pairs"]) == (routing.disjoint_paths < 2).sum() > 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_reference_scale_manifest_records_nullspace(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "cfg.txt",
            "seed=0\nsynth.nodes=30\nsynth.radius=0.35\nsynth.flows=290\n"
            "synth.periods=8\nsynth.rank=2\nsynth.anomaly_prob=0.01\n"
            "synth.paths=3\nsynth.sample_prob=0.25\n",
        )
        out = tmp_path / "scn"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert int(manifest["links"]) > 150
        assert 0 < int(manifest["nullspace_dim"]) < 290

    def test_structured_mask(self, tmp_path):
        # round(row_miss * F) = 6 of the 24 flows are never sampled; the
        # others are sampled at time_prob, not at synth.sample_prob=0.4.
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH + (
            "synth.mask=structured\nsynth.row_miss=0.25\nsynth.time_prob=0.8\n"))
        out = tmp_path / "scn"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        mask = read_mask(out / "mask.csv")
        unsampled = ~mask.any(axis=1)
        assert unsampled.sum() == round(0.25 * 24)
        assert mask[~unsampled].mean() == pytest.approx(0.8, abs=0.08)

    def test_unknown_mask_kind_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH + "synth.mask=grid\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "scn")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid scenario parameters: synth.mask must be bernoulli or structured, "
            "got 'grid'"]

    def test_scenario_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        out = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(out)])
        routing, obs, truth, manifest = load_scenario(str(out))
        assert routing.shape[1] == truth.shape[0] == 24
        # observations reproduce R (X0 + A0) exactly for the noiseless config
        Y = routing.entries @ (truth.nominal + truth.anomalies)
        assert np.allclose(Y, obs.link_counts, atol=1e-12)


class TestSolveCommand:
    @pytest.fixture()
    def scenario_dir(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        out = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(out)])
        return out

    def test_p2_recovers(self, tmp_path, scenario_dir):
        cfg = write_cfg(
            tmp_path / "solve.txt",
            f"io.scenario={scenario_dir}\nsolver.kind=p2\nsolver.max_iters=1500\n",
        )
        out = tmp_path / "sol"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        metrics = read_manifest(out / "metrics.txt")
        assert float(metrics["e_x_plus_a"]) < 1e-3
        assert (out / "X_hat.csv").exists() and (out / "A_hat.csv").exists()
        assert (out / "report.txt").exists() and (out / "runrecord.txt").exists()

    def test_p5_identity_matches_p1_objective(self, tmp_path, scenario_dir):
        common = (
            f"io.scenario={scenario_dir}\nsolver.lambda_star=0.2\nsolver.lambda_1=0.1\n"
        )
        cfg1 = write_cfg(
            tmp_path / "p1.txt",
            common + "solver.kind=p1\nsolver.max_iters=20000\n"
            "solver.tol_primal=1e-10\nsolver.tol_dual=1e-10\n",
        )
        out1 = tmp_path / "sol1"
        assert main(["solve", "--config", cfg1, "--out", str(out1)]) == 0
        obj1 = float(read_manifest(out1 / "report.txt")["objective"])
        cfg5 = write_cfg(
            tmp_path / "p5.txt",
            common + "solver.kind=p5\nsolver.rho=4\nsolver.mm_max_iters=30000\n"
            "solver.tol=1e-12\n",
        )
        out5 = tmp_path / "sol5"
        assert main(["solve", "--config", cfg5, "--out", str(out5)]) == 0
        obj5 = float(read_manifest(out5 / "report.txt")["objective"])
        # The flow/time grid is rectangular here, so the factor scaling in the
        # trace-equalized identity priors is absorbed at the optimum.
        assert obj5 == pytest.approx(obj1, rel=1e-4)

    def test_non_convergence_warns_and_exits_0(self, tmp_path, scenario_dir, capsys):
        cfg = write_cfg(
            tmp_path / "solve.txt",
            f"io.scenario={scenario_dir}\nsolver.kind=p2\nsolver.max_iters=1\n",
        )
        out = tmp_path / "sol"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did not converge" in err
        assert read_manifest(out / "report.txt")["converged"] == "False"

    @pytest.mark.parametrize("kind, keys", [
        ("p1", {"objective", "residual.grad_map"}),
        ("p2", {"residual.r_y", "residual.r_z", "residual.r_ba", "residual.r_ox",
                "residual.delta"}),
        ("p5", {"objective"}),
        ("p6", {"objective", "residual.grad_map"}),
    ])
    def test_report_keys(self, tmp_path, scenario_dir, kind, keys):
        cfg = write_cfg(
            tmp_path / "solve.txt",
            f"io.scenario={scenario_dir}\nsolver.kind={kind}\n"
            "solver.max_iters=50\nsolver.mm_max_iters=50\n",
        )
        out = tmp_path / "sol"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = read_manifest(out / "report.txt")
        assert set(report) == {"solver", "converged", "iterations"} | keys

    def test_all_zero_anomalies_exit_2(self, tmp_path, capsys):
        no_anomalies = SMALL_SYNTH.replace("anomaly_prob=0.02", "anomaly_prob=0")
        synth = write_cfg(tmp_path / "cfg.txt", no_anomalies)
        scn = tmp_path / "scn"
        assert main(["synth", "--config", synth, "--out", str(scn)]) == 0
        solve = write_cfg(tmp_path / "solve.txt", f"io.scenario={scn}\nsolver.max_iters=50\n")
        capsys.readouterr()
        assert main(["solve", "--config", solve, "--out", str(tmp_path / "sol")]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: the true anomaly")
        # The run is still recorded, with the undefined errors marked as such.
        metrics = read_manifest(tmp_path / "sol" / "metrics.txt")
        assert float(metrics["e_x"]) >= 0.0
        assert metrics["e_a"] == metrics["e_x_plus_a"] == "undefined"
        record = read_manifest(tmp_path / "sol" / "runrecord.txt")
        assert record["metric.e_a"] == record["metric.e_x_plus_a"] == "undefined"
        assert record["metric.e_x"] == metrics["e_x"]
        assert record["cfg.solver.max_iters"] == "50"
        sweep = write_cfg(tmp_path / "sweep.txt", no_anomalies +
                          "netflow.pis=0.5\nnetflow.seeds=1\nsolver.max_iters=50\n")
        assert main(["netflow-sweep", "--config", sweep, "--out", str(tmp_path / "nf")]) == 2

    def test_missing_mask_file_clean_error(self, tmp_path, scenario_dir):
        os.remove(scenario_dir / "mask.csv")
        cfg = write_cfg(tmp_path / "solve.txt", f"io.scenario={scenario_dir}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, scenario_dir):
        cfg = write_cfg(tmp_path / "bad.txt", "definitely.not.a.key=1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("setting", [
        "solver.step_safety=1.1", "solver.accelerate=true", "solver.mm_seed=0", "diagnose.lam=0.3",
    ])
    def test_removed_key_exits_2(self, tmp_path, scenario_dir, capsys, setting):
        cfg = write_cfg(tmp_path / "old.txt", f"io.scenario={scenario_dir}\n{setting}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        key = setting.split("=")[0]
        assert capsys.readouterr().err.splitlines() == [f"error: unknown config keys: {key}"]

    def test_library_p5_runs_the_cli_loop(self, tmp_path, scenario_dir):
        # An MmConfig that sets only the CLI's rank, weights and stopping rule
        # gives the CLI's p5 bytes: there is no loop setting left to differ.
        cfg = write_cfg(tmp_path / "p5.txt", (
            f"io.scenario={scenario_dir}\nsolver.kind=p5\nsolver.rho=3\n"
            "solver.lambda_star=0.1\nsolver.lambda_1=0.05\nsolver.mm_max_iters=200\n"
            "solver.tol=1e-8\n"))
        cli = tmp_path / "cli"
        assert main(["solve", "--config", cfg, "--out", str(cli)]) == 0
        routing, obs, _, _ = load_scenario(str(scenario_dir))
        X, A, _ = mm_solve(obs, routing, CorrelationSet.identity(*obs.shape),
                           MmConfig(rho=3, lambda_star=0.1, lambda_1=0.05, max_iters=200, tol=1e-8))
        lib = tmp_path / "lib"
        lib.mkdir()
        write_matrix(lib / "X_hat.csv", X)
        write_matrix(lib / "A_hat.csv", A)
        for name in ("X_hat.csv", "A_hat.csv"):
            assert (lib / name).read_bytes() == (cli / name).read_bytes(), name

    @staticmethod
    def _drop_od_pairs(scn):
        manifest = read_manifest(scn / "manifest.txt")
        del manifest["od_pairs"]
        write_manifest(scn / "manifest.txt", manifest)

    @staticmethod
    def _narrow_mask(scn):
        write_mask(scn / "mask.csv", read_mask(scn / "mask.csv")[:, :-1])

    @staticmethod
    def _short_routing(scn):
        write_matrix(scn / "routing.csv", read_matrix(scn / "routing.csv")[:-1])

    @staticmethod
    def _short_truth(scn):
        for name in ("nominal.csv", "anomalies.csv"):
            write_matrix(scn / name, read_matrix(scn / name)[:-1])

    @staticmethod
    def _nan_routing(scn):
        R = read_matrix(scn / "routing.csv")
        R[0, 0] = np.nan
        write_matrix(scn / "routing.csv", R)

    @staticmethod
    def _nan_link_count(scn):
        Y = read_matrix(scn / "link_counts.csv")
        Y[0, 0] = np.nan
        write_matrix(scn / "link_counts.csv", Y)

    @staticmethod
    def _rewrite_endpoint(scn, node, value):
        """Writes `value` over the first link endpoint that is `node`; returns
        the link as an error message prints it."""
        links = read_matrix(scn / "topology.csv")
        i, j = np.argwhere(links == node)[0]
        links[i, j] = value
        write_matrix(scn / "topology.csv", links)
        return f"({links[i, 0]:g},{links[i, 1]:g})"

    @staticmethod
    def _endpoint_out_of_range(scn):
        return TestSolveCommand._rewrite_endpoint(scn, 0, 99)

    @staticmethod
    def _endpoint_inf(scn):
        return TestSolveCommand._rewrite_endpoint(scn, 0, np.inf)

    @staticmethod
    def _endpoint_fraction(scn):  # would truncate to node 0
        return TestSolveCommand._rewrite_endpoint(scn, 0, 0.5)

    @staticmethod
    def _endpoint_negative(scn):  # would wrap to the last node, 9
        return TestSolveCommand._rewrite_endpoint(scn, 9, -1)

    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    @pytest.mark.parametrize("defect, message", [
        ("_drop_od_pairs", "manifest.txt has no od_pairs entry"),
        ("_narrow_mask", "flow counts and mask dimensions differ"),
        ("_short_routing", "row count must match number of links"),
        ("_short_truth", "the ground-truth and flow-count matrices differ in shape"),
        ("_nan_routing", "routing fractions must lie in [0, 1]"),
        ("_nan_link_count", "link and flow counts must be finite"),
        ("_endpoint_out_of_range", "link {link}: node ids must be integers in [0, 10)"),
        ("_endpoint_inf", "link {link}: node ids must be integers in [0, 10)"),
        ("_endpoint_fraction", "link {link}: node ids must be integers in [0, 10)"),
        ("_endpoint_negative", "link {link}: node ids must be integers in [0, 10)"),
    ])
    def test_inconsistent_scenario_is_parse_error(self, tmp_path, scenario_dir, capsys,
                                                  command, defect, message):
        message = message.format(link=getattr(self, defect)(scenario_dir))
        cfg = write_cfg(tmp_path / "solve.txt", f"io.scenario={scenario_dir}\n")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {scenario_dir}: {message}"]

    @pytest.mark.parametrize("kind, extra_links", [("p6", 1), ("p2", 0)])
    def test_link_mask_checked_before_solving(self, tmp_path, scenario_dir, capsys,
                                              kind, extra_links):
        # p6 reads a links-by-periods mask; the other solvers have no use for one.
        L, T = read_matrix(scenario_dir / "link_counts.csv").shape
        write_mask(tmp_path / "links.csv", np.ones((L + extra_links, T), dtype=bool))
        cfg = write_cfg(tmp_path / "solve.txt", (
            f"io.scenario={scenario_dir}\nsolver.kind={kind}\n"
            f"io.link_mask={tmp_path / 'links.csv'}\n"))
        out = tmp_path / "x"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: io.link_mask")
        assert not out.exists()

    def test_runrecord_reproducible(self, tmp_path, scenario_dir):
        cfg = write_cfg(
            tmp_path / "solve.txt",
            f"io.scenario={scenario_dir}\nsolver.kind=p2\nsolver.max_iters=800\n",
        )
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            outs.append(read_manifest(out / "metrics.txt"))
        for key in outs[0]:
            assert abs(float(outs[0][key]) - float(outs[1][key])) < 1e-9


class TestPhaseGrid:
    def test_tiny_grid_outputs(self, tmp_path):
        cfg = ExperimentConfig({
            "seed": 7,
            "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 20,
            "synth.periods": 20, "synth.sample_prob": 0.4, "synth.paths": 2,
            "phase.ranks": "1,2", "phase.sparsity_counts": "4,40",
            "phase.lam_grid": 3, "phase.lam_lo": 0.3, "phase.lam_hi": 3.0,
            "phase.seeds": 1, "solver.max_iters": 500,
        })
        out = tmp_path / "grid"
        errors = cmd_phase_grid(cfg.with_values({"threads": 2}), str(out))
        assert errors.shape == (2, 2)
        assert np.isfinite(errors).all()
        img = read_pgm(out / "phase_grid.pgm")
        assert img.shape == (2, 2)
        csv = read_matrix(out / "phase_grid.csv")
        assert np.allclose(csv, errors)
        # low-rank/low-sparsity corner recovers; grayscale mapping agrees
        assert errors[0, 0] < 1e-3
        assert img[0, 0] == 255

    TINY_GRID = {
        "seed": 7,
        "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 20,
        "synth.periods": 20, "synth.sample_prob": 0.4, "synth.paths": 2,
        "phase.ranks": "1", "phase.sparsity_counts": "4",
        "phase.lam_grid": 3, "phase.lam_lo": 0.3, "phase.lam_hi": 3.0,
        "phase.seeds": 1, "solver.max_iters": 500,
    }

    def test_solver_bug_propagates(self, tmp_path, monkeypatch):
        def broken(obs, routing, cfg, lams):
            raise ValueError("solver bug")

        monkeypatch.setattr(pipelines, "admm_solve_p2_path", broken)
        with pytest.raises(ValueError, match="solver bug"):
            cmd_phase_grid(ExperimentConfig(self.TINY_GRID), str(tmp_path / "g"))

    def test_diverged_lambda_is_skipped(self, tmp_path, monkeypatch):
        real = pipelines.admm_solve_p2_path
        calls = []

        def first_diverges(obs, routing, cfg, lams):
            calls.append(list(lams))
            results = real(obs, routing, cfg, lams)
            return [DivergenceError("diverged", iteration=0)] + results[1:]

        monkeypatch.setattr(pipelines, "admm_solve_p2_path", first_diverges)
        errors = cmd_phase_grid(ExperimentConfig(self.TINY_GRID), str(tmp_path / "g"))
        assert len(calls) == 1 and len(calls[0]) == 3  # the cell went on to the other lambdas
        assert errors[0, 0] < 1e-3
        meta = read_manifest(tmp_path / "g" / "phase_meta.txt")
        assert meta["diverged_lambdas"] == "1"

    def test_meta_counts_lambda_outcomes(self, tmp_path, monkeypatch):
        # Poison the smallest lambda's anomaly iterate inside the real stacked
        # solve: it must leave as a DivergenceError and be counted, while the
        # other lambdas' reports are summed into the converged and iteration counts.
        cfg = dict(self.TINY_GRID, **{"phase.ranks": "1,2", "phase.sparsity_counts": "4,40"})
        base = default_lambda(20, 20)
        target = np.geomspace(0.3 * base, 3.0 * base, 3)[0]  # c = 1, so tau = lambda
        real_threshold, real_path = admm.soft_threshold, pipelines.admm_solve_p2_path
        results = []

        def poisoned(M, tau):
            out = real_threshold(M, tau)
            out[np.ravel(tau) == target] = np.nan
            return out

        def recording(*args):
            out = real_path(*args)
            results.extend(out)
            return out

        monkeypatch.setattr(admm, "soft_threshold", poisoned)
        monkeypatch.setattr(pipelines, "admm_solve_p2_path", recording)
        cmd_phase_grid(ExperimentConfig(dict(cfg, threads=2)), str(tmp_path / "g"))
        diverged = [r for r in results if isinstance(r, DivergenceError)]
        reports = [r[2] for r in results if not isinstance(r, DivergenceError)]
        assert len(results) == 12 and len(diverged) == 4
        assert 0 < sum(r.converged for r in reports) < 8
        meta = read_manifest(tmp_path / "g" / "phase_meta.txt")
        assert meta["diverged_lambdas"] == "4"
        assert meta["converged_lambdas"] == str(sum(r.converged for r in reports))
        assert meta["lambda_iterations"] == str(sum(r.iterations for r in reports))

    def test_threaded_runs_leave_warning_filters_alone(self, tmp_path):
        cfg = dict(self.TINY_GRID, **{
            "phase.ranks": "1,2", "phase.sparsity_counts": "2,4",
            "phase.lam_grid": 1, "solver.max_iters": 20,
        })
        before = list(warnings.filters)
        for k in range(10):
            cmd_phase_grid(ExperimentConfig(dict(cfg, threads=2)), str(tmp_path / f"g{k}"))
            assert warnings.filters == before

    def test_thread_count_gives_same_bytes(self, tmp_path):
        cfg = dict(self.TINY_GRID, **{
            "phase.ranks": "1,2", "phase.sparsity_counts": "2,4",
            "phase.lam_grid": 2, "solver.max_iters": 200,
        })
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            cmd_phase_grid(ExperimentConfig(dict(cfg, threads=n)), str(out))
        for name in ("phase_grid.csv", "phase_meta.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_thread_count_read_from_config(self, tmp_path, monkeypatch):
        # The config that sets the workers is the one the run record shows.
        real, seen = pipelines._map_cells, []

        def recorded(work, items, threads):
            seen.append(threads)
            return real(work, items, threads)

        monkeypatch.setattr(pipelines, "_map_cells", recorded)
        cfg = ExperimentConfig(dict(self.TINY_GRID, **{"phase.lam_grid": 1,
                                                       "solver.max_iters": 20}))
        cmd_phase_grid(cfg.with_values({"threads": 2}), str(tmp_path / "g"))
        assert seen == [2]
        assert read_manifest(tmp_path / "g" / "runrecord.txt")["cfg.threads"] == "2"

    def test_every_cell_scenario_comes_from_the_recipe(self, tmp_path, monkeypatch):
        calls = record_scenarios(monkeypatch)
        cfg = dict(self.TINY_GRID, **{
            "phase.ranks": "1,2", "phase.sparsity_counts": "2,4", "phase.seeds": 2,
            "phase.lam_grid": 1, "solver.max_iters": 20,
        })
        cmd_phase_grid(ExperimentConfig(dict(cfg, threads=2)), str(tmp_path / "g"))
        assert len(calls) == 8
        assert sorted((c.get("synth.rank"), c.get("synth.anomaly_prob")) for c, _, _ in calls) == [
            (r, s / 400) for r in (1, 2) for s in (2, 4) for _ in range(2)]
        assert len({seed for _, seed, _ in calls}) == 8
        short = sum(int((sc.routing.disjoint_paths < 2).sum()) for _, _, sc in calls)
        assert read_manifest(tmp_path / "g" / "phase_meta.txt")["short_od_pairs"] == str(short)

    def test_gray_mapping(self):
        err = np.array([[0.005, 0.01], [1.0, 2.0]])
        gray = phase_error_to_gray(err)
        assert gray[0, 0] == 255 and gray[0, 1] == 255
        assert gray[1, 0] == 0 and gray[1, 1] == 0
        mid = phase_error_to_gray(np.array([[0.505]]))[0, 0]
        assert 126 <= mid <= 129

    def test_monotone_in_rank_on_average(self, tmp_path):
        # recovery degrades (weakly) as the rank grows, sparsity fixed
        cfg = ExperimentConfig({
            "seed": 19,
            "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 24,
            "synth.periods": 24, "synth.sample_prob": 0.3, "synth.paths": 1,
            "phase.ranks": "1,4,9", "phase.sparsity_counts": "6",
            "phase.lam_grid": 3, "phase.seeds": 5, "solver.max_iters": 500,
        })
        errors = cmd_phase_grid(cfg.with_values({"threads": 2}), str(tmp_path / "g"))
        col = errors[:, 0]
        assert col[0] <= col[1] + 1e-6 <= col[2] + 2e-6


class TestNetflowSweep:
    def test_sweep_csv_sorted_and_monotone(self, tmp_path):
        cfg = ExperimentConfig({
            "seed": 3,
            "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 24,
            "synth.periods": 20, "synth.rank": 1, "synth.anomaly_prob": 0.02,
            "synth.paths": 1, "solver.kind": "p2", "solver.max_iters": 3000,
            "solver.tol_primal": 1e-9, "solver.tol_dual": 1e-9,
            "netflow.pis": "0.25,0,1.0", "netflow.seeds": 3,
        })
        out = tmp_path / "sweep"
        rows = cmd_netflow_sweep(cfg.with_values({"threads": 2}), str(out))
        assert np.array_equal(rows[:, 0], np.array([0.0, 0.25, 1.0]))
        csv = read_matrix(out / "netflow_sweep.csv")
        assert np.allclose(csv, rows)
        e_x = rows[:, 1]
        assert e_x[0] >= e_x[1] >= e_x[2] - 1e-9
        # full observation of flows gives essentially exact recovery
        assert e_x[2] + rows[2, 2] < 1e-6

    TINY_SWEEP = {
        "seed": 3,
        "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 16,
        "synth.periods": 12, "synth.rank": 1, "synth.anomaly_prob": 0.05,
        "synth.paths": 1, "solver.kind": "p2", "solver.max_iters": 200,
        "netflow.pis": "0.25,0.5,1.0", "netflow.seeds": 2,
    }

    def test_thread_count_gives_same_bytes(self, tmp_path):
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            cmd_netflow_sweep(ExperimentConfig(dict(self.TINY_SWEEP, threads=n)), str(out))
        name = "netflow_sweep.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_every_replica_comes_from_the_recipe(self, tmp_path, monkeypatch):
        calls = record_scenarios(monkeypatch)
        cfg = dict(self.TINY_SWEEP, **{"solver.max_iters": 20})
        cmd_netflow_sweep(ExperimentConfig(dict(cfg, threads=2)), str(tmp_path / "nf"))
        assert len(calls) == 6
        assert sorted(c.get("synth.sample_prob") for c, _, _ in calls) == [
            0.25, 0.25, 0.5, 0.5, 1.0, 1.0]

    def test_masks_nested_across_pi(self, tmp_path, monkeypatch):
        calls = record_scenarios(monkeypatch)
        cfg = dict(self.TINY_SWEEP, **{"netflow.pis": "0.1,0.25,0.5,0.9",
                                       "solver.max_iters": 20})
        cmd_netflow_sweep(ExperimentConfig(cfg), str(tmp_path / "nf"))
        rep_seeds = {seed for _, seed, _ in calls}
        assert len(rep_seeds) == 2
        for rep_seed in rep_seeds:
            masks = [sc.obs.mask.mask for c, seed, sc in
                     sorted(calls, key=lambda call: call[0].get("synth.sample_prob"))
                     if seed == rep_seed]
            assert len(masks) == 4
            for low, high in zip(masks, masks[1:]):
                assert (low <= high).all() and low.sum() < high.sum()

    def test_records_path_shortfall(self, tmp_path, monkeypatch):
        # With 3 paths per OD pair the two replica networks (seeds 3 and 20)
        # have 0 and 5 short pairs, and every pi draws the same two networks.
        calls = record_scenarios(monkeypatch)
        cfg = dict(self.TINY_SWEEP, **{"synth.radius": 0.55, "synth.flows": 20,
                                       "synth.paths": 3, "solver.max_iters": 20})
        cmd_netflow_sweep(ExperimentConfig(dict(cfg, threads=2)), str(tmp_path / "nf"))
        assert {(seed, int((sc.routing.disjoint_paths < 3).sum()))
                for _, seed, sc in calls} == {(3, 0), (20, 5)}
        assert read_manifest(tmp_path / "nf" / "runrecord.txt")["short_od_pairs"] == "5"

    def test_all_zero_anomalies_keep_finished_cells(self, tmp_path, capsys):
        cfg = "".join(f"{k}={v}\n" for k, v in self.TINY_SWEEP.items())
        sweep = write_cfg(tmp_path / "sweep.txt", cfg.replace("anomaly_prob=0.05", "anomaly_prob=0"))
        out = tmp_path / "nf"
        assert main(["netflow-sweep", "--config", sweep, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the true anomaly matrix is all zero")
        # Every cell is still written: e_x is defined, e_a is not.
        rows = read_matrix(out / "netflow_sweep.csv")
        assert np.array_equal(rows[:, 0], [0.25, 0.5, 1.0])
        assert np.isfinite(rows[:, 1]).all() and np.isnan(rows[:, 2]).all()
        record = read_manifest(out / "runrecord.txt")
        for pi in ("0.25", "0.5", "1"):
            assert float(record[f"metric.e_x_at_{pi}"]) >= 0.0
            assert record[f"metric.e_a_at_{pi}"] == "undefined"


class TestBurstCompare:
    def test_small_run_outputs(self, tmp_path):
        cfg = ExperimentConfig({
            "seed": 1,
            "synth.nodes": 9, "synth.radius": 0.6, "synth.flows": 30,
            "synth.periods": 24, "synth.paths": 1,
            "burst.days": 12, "burst.rank": 2, "burst.n_anomalous": 4,
            "burst.gamma": 25.0, "burst.theta": 0.99, "burst.sigma_n": 0.05,
            "burst.alpha": 0.95, "burst.nu": 0.05,
            "solver.lambda_star": 0.1, "solver.lambda_1": 0.05,
            "solver.rho": 4, "solver.mm_max_iters": 1500, "solver.tol": 1e-8,
            "burst.p5_lambda_star": 0.01, "burst.p5_lambda_1": 0.01,
        })
        out = tmp_path / "burst"
        metrics = cmd_burst_compare(cfg, str(out))
        for key in ("e_x_p1", "e_a_p1", "e_x_p5", "e_a_p5"):
            assert np.isfinite(metrics[key])
        for name in ("traces_truth.csv", "traces_p1.csv", "traces_p5.csv",
                     "anomaly_map_true.csv", "anomaly_map_p1.csv",
                     "anomaly_map_p5.csv", "compare.txt", "runrecord.txt"):
            assert (out / name).exists()
        flows = read_matrix(out / "trace_flows.csv")
        assert read_matrix(out / "traces_truth.csv").shape == (flows.size, 24)
        compare = read_manifest(out / "compare.txt")
        for kind, cap in (("p1", 2000), ("p5", 1500)):  # the iteration caps
            converged = compare[f"converged_{kind}"]
            assert converged in ("True", "False")
            assert converged == "True" or int(compare[f"iters_{kind}"]) == cap

    def test_records_path_shortfall(self, tmp_path):
        # 4 of the 20 OD pairs of this network get fewer than 3 disjoint paths.
        cfg = ExperimentConfig({
            "seed": 0, "synth.nodes": 10, "synth.radius": 0.55, "synth.flows": 20,
            "synth.periods": 12, "synth.paths": 3, "burst.days": 3, "burst.n_anomalous": 2,
            "solver.rho": 2, "solver.max_iters": 20, "solver.mm_max_iters": 20,
        })
        cmd_burst_compare(cfg, str(tmp_path / "burst"))
        assert (build_network(cfg, 0).disjoint_paths < 3).sum() == 4
        assert read_manifest(tmp_path / "burst" / "compare.txt")["short_od_pairs"] == "4"


P5_WEIGHTS = {"solver.lambda_star": 0.01, "solver.lambda_1": 0.01}


class TestBurstInterpolation:
    BASE = {
        "synth.nodes": 10, "synth.radius": 0.55, "synth.flows": 80,
        "synth.periods": 48, "synth.paths": 1,
        "burst.days": 30, "burst.rank": 3, "burst.scale": 1.0,
        "burst.jitter": 0.15, "burst.n_anomalous": 8, "burst.gamma": 25.0,
        "burst.theta": 0.99, "burst.sigma_n": 0.05, "burst.alpha": 0.95,
        "burst.nu": 0.05,
        "solver.lambda_star": 0.1, "solver.lambda_1": 0.05,
        "solver.rho": 5, "solver.mm_max_iters": 2500, "solver.tol": 1e-9,
    }

    @staticmethod
    def _pearson(a, b):
        a = a - a.mean()
        b = b - b.mean()
        d = np.linalg.norm(a) * np.linalg.norm(b)
        return 0.0 if d == 0 else float(a @ b / d)

    def test_hidden_rows_interpolated_through_correlations(self):
        # The correlation-aware estimator reconstructs fully unobserved rows
        # essentially exactly; the plain estimator tracks the shared diurnal
        # shape but not the per-flow mix (its gap shows up in e_x).
        from trafficmaps.mm import mm_solve
        from trafficmaps.model import TrafficMatrices
        from trafficmaps.pipelines import (
            _mm_config,
            build_burst_scenario,
            learn_burst_correlations,
            run_solver,
        )

        p1_rhos, p5_rhos = [], []
        for seed in range(3):
            cfg = ExperimentConfig(self.BASE).with_values({"seed": seed})
            routing, X_train, truth, bp, obs = build_burst_scenario(cfg, seed)
            corr = learn_burst_correlations(X_train, bp, 48, 5)
            X1, _, _, _ = run_solver("p1", obs, routing, cfg)
            X5, _, _ = mm_solve(obs, routing, corr, _mm_config(cfg.with_values(P5_WEIGHTS)))
            hidden = np.flatnonzero((~obs.mask.mask).all(axis=1))
            for f in hidden:
                p1_rhos.append(self._pearson(X1[f], truth.nominal[f]))
                p5_rhos.append(self._pearson(X5[f], truth.nominal[f]))
        assert np.mean(p5_rhos) > 0.5
        assert np.mean(p5_rhos) > np.mean(p1_rhos)
        assert min(p5_rhos) > 0.99  # interpolation through R_L is essentially exact

    def test_no_structural_misses_weak_bursts_both_recover(self):
        # Removing the hidden rows and weakening the bursts removes the
        # correlation-aware advantage on the nominal component: both methods
        # land in the same small-error regime.
        from trafficmaps.mm import mm_solve
        from trafficmaps.model import TrafficMatrices, relative_errors
        from trafficmaps.pipelines import (
            _mm_config,
            build_burst_scenario,
            learn_burst_correlations,
            run_solver,
        )

        cfg_vals = dict(self.BASE)
        cfg_vals.update({
            "synth.flows": 40, "synth.paths": 2, "burst.days": 20,
            "burst.n_anomalous": 5, "burst.gamma": 4.0,
            "burst.row_miss": 0.0, "burst.time_prob": 0.3,
        })
        for seed in (0, 1):
            cfg = ExperimentConfig(cfg_vals).with_values({"seed": seed})
            routing, X_train, truth, bp, obs = build_burst_scenario(cfg, seed)
            corr = learn_burst_correlations(X_train, bp, 48, 5)
            X1, A1, _, _ = run_solver("p1", obs, routing, cfg)
            X5, A5, _ = mm_solve(obs, routing, corr, _mm_config(cfg.with_values(P5_WEIGHTS)))
            e1 = relative_errors(TrafficMatrices(X1, A1), truth)
            e5 = relative_errors(TrafficMatrices(X5, A5), truth)
            assert e1[0] < 0.1 and e5[0] < 0.1


class TestDiagnoseCommand:
    def test_tiny_scenario_report(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", dcfg, "--out", str(out)]) == 0
        report = read_manifest(out / "diagnose.txt")
        for key in ("alpha", "xi", "tau", "chi", "lambda_min", "lambda_max",
                    "certificate_passes", "feasible"):
            assert key in report

    @pytest.mark.parametrize("synth_cfg, identifiable", [
        (SMALL_SYNTH, True),
        ("seed=4\nsynth.nodes=8\nsynth.radius=0.7\nsynth.flows=12\nsynth.periods=10\n"
         "synth.rank=4\nsynth.anomaly_prob=0.6\nsynth.paths=3\nsynth.sample_prob=0.1\n", False),
    ], ids=["identifiable", "not-identifiable"])
    def test_incoherences_measured_once(self, tmp_path, monkeypatch, synth_cfg, identifiable):
        calls = []
        original = diagnostics.measure_incoherences

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "measure_incoherences", counted)
        monkeypatch.setattr(pipelines, "measure_incoherences", counted)
        cfg = write_cfg(tmp_path / "cfg.txt", synth_cfg)
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\n")
        assert main(["diagnose", "--config", dcfg, "--out", str(tmp_path / "diag")]) == 0
        report = read_manifest(tmp_path / "diag" / "diagnose.txt")
        assert ("certificate_error" not in report) == identifiable
        assert "alpha" in report
        assert len(calls) == 1
        # theta and conditions (a) and (b) are written exactly when the
        # certificate was built
        for key in ("theta", "cond_a_ok", "cond_b_ok", "c4_value", "c5_value"):
            assert (key in report) == identifiable

    def test_certificate_at_solver_lam(self, tmp_path):
        # solve and diagnose share one config, so one key sets the l1 weight
        # of p2 and of its certificate.
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\nsolver.lam=0.3\n")
        assert main(["diagnose", "--config", dcfg, "--out", str(tmp_path / "diag")]) == 0
        assert read_manifest(tmp_path / "diag" / "diagnose.txt")["certificate_lambda"] == "0.3"

    def test_unused_solver_settings_are_not_read(self, tmp_path):
        # diagnose reads solver.lam alone; the settings of solvers it never
        # runs neither stop it nor change its report
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        reports = []
        for name, extra in (("plain", ""), ("unused", "solver.max_iters=0\nsolver.tol_primal=0\n")):
            dcfg = write_cfg(tmp_path / f"{name}.txt", f"io.scenario={scn}\n{extra}")
            assert main(["diagnose", "--config", dcfg, "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "diagnose.txt").read_bytes())
        assert reports[0] == reports[1]

    def test_bases_built_once(self, tmp_path, monkeypatch):
        # One diagnose computes one kernel per column with hidden flows, plus
        # the kernels of R and of U0', builds the tangent basis and the
        # intersection once and the support basis once (omega_basis runs a
        # second time for the support's hidden part), and keeps none of them
        # after it returns.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_null_space", "phi_basis", "omega_basis", "intersect_nullspaces"):
            monkeypatch.setattr(diagnostics, name, counted(name, getattr(diagnostics, name)))
        built = []

        def recorded(*args):
            bases = diagnostics.instance_bases(*args)
            built.append(weakref.ref(bases))
            return bases

        monkeypatch.setattr(pipelines, "instance_bases", recorded)
        cfg = write_cfg(tmp_path / "cfg.txt",
                        "seed=1\nsynth.nodes=8\nsynth.radius=0.5\nsynth.flows=20\n"
                        "synth.periods=20\nsynth.rank=2\nsynth.anomaly_prob=0.01\n"
                        "synth.paths=1\nsynth.sample_prob=0.25\n")
        scn = tmp_path / "scn"
        assert main(["synth", "--config", cfg, "--out", str(scn)]) == 0
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\n")
        assert main(["diagnose", "--config", dcfg, "--out", str(tmp_path / "diag")]) == 0
        assert "certificate_passes" in read_manifest(tmp_path / "diag" / "diagnose.txt")
        hidden_columns = int((~load_scenario(str(scn))[1].mask.mask).any(axis=0).sum())
        assert hidden_columns > 0
        assert calls == {"_null_space": hidden_columns + 2, "phi_basis": 1,
                         "omega_basis": 2, "intersect_nullspaces": 1}
        gc.collect()
        assert len(built) == 1 and built[0]() is None

    def test_size_guard_exit_code_with_partial_report(self, tmp_path):
        big = write_cfg(
            tmp_path / "big.txt",
            "seed=2\nsynth.nodes=20\nsynth.radius=0.5\nsynth.flows=160\n"
            "synth.periods=160\nsynth.paths=1\n",
        )
        scn = tmp_path / "scn"
        assert main(["synth", "--config", big, "--out", str(scn)]) == 0
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", dcfg, "--out", str(out)]) == 4
        report = read_manifest(out / "diagnose.txt")
        assert "omitted" in report

    def test_empty_intersection_reports_zero_tau(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "cfg.txt",
            "seed=5\nsynth.nodes=8\nsynth.radius=0.75\nsynth.flows=10\n"
            "synth.periods=8\nsynth.rank=1\nsynth.anomaly_prob=0.03\n"
            "synth.paths=2\nsynth.sample_prob=1.0\n",
        )
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        dcfg = write_cfg(tmp_path / "d.txt", f"io.scenario={scn}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", dcfg, "--out", str(out)]) == 0
        report = read_manifest(out / "diagnose.txt")
        assert float(report["tau"]) == 0.0
        assert int(report["null_intersection_dim"]) == 0


class TestCliPlumbing:
    def test_no_command_loads_scipy(self, tmp_path):
        # The package needs numpy only: a fresh interpreter that imports the
        # CLI and runs every command on tiny inputs has loaded no scipy module.
        src = os.path.dirname(os.path.dirname(os.path.abspath(pipelines.__file__)))
        scn = str(tmp_path / "scn")
        synth = write_cfg(tmp_path / "synth.txt", SMALL_SYNTH)
        solve = write_cfg(tmp_path / "solve.txt", (
            f"io.scenario={scn}\nsolver.max_iters=20\nsolver.mm_max_iters=20\n"))
        grid = write_cfg(tmp_path / "grid.txt", (
            "synth.flows=10\nsynth.periods=10\nsynth.anomaly_prob=0.05\nphase.ranks=1\n"
            "phase.sparsity_counts=2\nphase.lam_grid=1\nnetflow.pis=0.5\nnetflow.seeds=1\n"
            "burst.days=2\nsolver.max_iters=20\nsolver.mm_max_iters=20\n"))
        runs = [["synth", "--config", synth, "--out", scn]]
        runs += [["solve", "--config", solve, "--out", str(tmp_path / kind), "--solver", kind]
                 for kind in ("p1", "p2", "p5", "p6")]
        runs += [[command, "--config", grid, "--out", str(tmp_path / command)]
                 for command in ("phase-grid", "netflow-sweep", "burst-compare")]
        runs += [["diagnose", "--config", solve, "--out", str(tmp_path / "diagnose")]]
        code = ("import sys; from trafficmaps.cli import main; "
                f"print([main(argv) for argv in {runs!r}]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        codes, loaded = out.stdout.strip().splitlines()[-2:]
        assert codes == str([0] * len(runs))
        assert loaded == "[]"

    def test_one_parser_carries_no_state_between_commands(self, tmp_path, monkeypatch):
        # One parser serves every main call of a process: a flag given to one
        # command is not seen by the next, and a usage error leaves it usable.
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        try:
            assert main(["synth", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
            assert main(["synth", "--config", cfg, "--out", str(out2)]) == 0
            with pytest.raises(SystemExit):
                main(["synth", "--config", cfg, "--out", str(out3), "--no-such-flag"])
            assert main(["synth", "--config", cfg, "--out", str(out3)]) == 0
        finally:
            cli.build_parser.cache_clear()
        m1 = read_manifest(out1 / "manifest.txt")
        m2 = read_manifest(out2 / "manifest.txt")
        assert m1["seed"] == "7" and m2["seed"] == "5"
        # the subcommand parsers are named "trafficmaps <command>"
        assert made.count("trafficmaps") == 1

    def test_solver_override(self, tmp_path):
        cfg = write_cfg(tmp_path / "cfg.txt", SMALL_SYNTH)
        scn = tmp_path / "scn"
        main(["synth", "--config", cfg, "--out", str(scn)])
        solve_cfg = write_cfg(
            tmp_path / "s.txt",
            f"io.scenario={scn}\nsolver.kind=p2\nsolver.max_iters=600\n"
            "solver.lambda_star=0.2\nsolver.lambda_1=0.1\n",
        )
        out = tmp_path / "sol"
        assert main(["solve", "--config", solve_cfg, "--out", str(out), "--solver", "p1"]) == 0
        assert read_manifest(out / "report.txt")["solver"] == "p1"

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--solver=p1"), ("synth", "--threads=2"),
        ("solve", "--seed=9"), ("solve", "--threads=3"),
        ("phase-grid", "--solver=p1"),
        ("burst-compare", "--solver=p1"), ("burst-compare", "--threads=2"),
        ("diagnose", "--seed=9"), ("diagnose", "--solver=p1"), ("diagnose", "--threads=2"),
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as info:
            main([command, "--out", str(tmp_path / "out"), flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_commands_run_through_the_pipelines_module(self, tmp_path, monkeypatch):
        # A wrapper set on the pipelines module (as the benchmark's tracer
        # sets one) is the function main calls.
        calls = []
        monkeypatch.setattr(pipelines, "cmd_diagnose", lambda cfg, out: calls.append((cfg, out)))
        assert main(["diagnose", "--out", str(tmp_path / "d")]) == 0
        assert len(calls) == 1 and calls[0][1] == str(tmp_path / "d")

    @pytest.mark.parametrize("command, setting", [
        ("synth", "synth.rank=20"),
        ("phase-grid", "phase.sparsity_counts=150"),
        ("phase-grid", "phase.seeds=0"),
        ("phase-grid", "phase.lam_grid=0"),
        ("phase-grid", "phase.lam_grid=-1"),
        ("phase-grid", "phase.lam_lo=0"),
        ("phase-grid", "phase.lam_lo=-1"),
        ("phase-grid", "phase.lam_hi=nan"),
        ("netflow-sweep", "netflow.pis=0.5,1.5"),
        ("netflow-sweep", "netflow.seeds=0"),
        ("burst-compare", "burst.n_anomalous=20"),
        ("burst-compare", "burst.n_anomalous=0"),
        ("synth", "synth.noise_link=-1"),
        ("synth", "synth.noise_flow=nan"),
        ("synth", "synth.noise_link=inf"),
        ("phase-grid", "threads=0"),
        ("netflow-sweep", "threads=-4"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, command, setting):
        key, value = setting.split("=")
        settings = {"synth.flows": "10", "synth.periods": "10", "phase.ranks": "1",
                    "phase.sparsity_counts": "2", "phase.lam_grid": "1", "netflow.seeds": "1",
                    "burst.days": "2", "solver.max_iters": "20", "solver.mm_max_iters": "20",
                    key: value}
        cfg = write_cfg(tmp_path / "cfg.txt", "".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        # the commands check these keys themselves; the generators reject the others
        generator_rejected = ("synth.rank", "netflow.pis", "synth.noise_link", "synth.noise_flow")
        message = "invalid scenario parameters" if key in generator_rejected else key
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    def test_readme_config_examples_use_known_keys(self):
        # A key removed from the registry must leave no documented example behind.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), flags=re.S | re.M)
        keys = [key for block in blocks
                for key in re.findall(r"^([\w.]+)=\S*$", block, flags=re.M)]
        assert len(keys) >= 10
        assert sorted(set(keys) - set(pipelines.CONFIG_KEYS)) == []

    def test_readme_lists_each_commands_flags(self):
        # The README's flag table is the command table, row for row.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            rows = re.findall(r"^\| `trafficmaps ([\w-]+)` \|(.*)\|$", fh.read(), flags=re.M)
        documented = {name: re.findall(r"--\w+", flags) for name, flags in rows}
        assert documented == {name: ["--config", "--out", *flags]
                              for name, (_, _, flags) in cli.COMMANDS.items()}

    def test_missing_scenario_config_is_config_error(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command, setting, message", [
        ("solve", "solver.lam=-1", "invalid solver settings"),
        ("solve", "solver.kind=p5\nsolver.rho=0", "invalid solver settings"),
        ("phase-grid", "solver.tol_primal=0", "invalid solver settings"),
        ("burst-compare", "solver.lam=-1", "invalid solver settings"),
        ("burst-compare", "solver.tol=-1", "invalid solver settings"),
        ("diagnose", "solver.lam=-1", "invalid solver settings"),
        ("diagnose", "solver.lam=nan", "invalid solver settings"),
        ("diagnose", "solver.lam=inf", "invalid solver settings"),
        # NaN passes a `v < 0` check; each of these ran to the cap or diverged
        ("solve", "solver.kind=p1\nsolver.lambda_star=nan", "invalid solver settings"),
        ("solve", "solver.kind=p1\nsolver.lambda_1=nan", "invalid solver settings"),
        ("solve", "solver.kind=p1\nsolver.tol_dual=nan", "invalid solver settings"),
        ("solve", "solver.kind=p5\nsolver.lambda_star=nan", "invalid solver settings"),
        ("solve", "solver.kind=p5\nsolver.lambda_1=nan", "invalid solver settings"),
        ("solve", "solver.kind=p5\nsolver.tol=nan", "invalid solver settings"),
        ("phase-grid", "solver.tol_dual=nan", "invalid solver settings"),
        # the removed step-safety setting is refused, not silently ignored
        ("solve", "solver.kind=p5\nsolver.step_safety=nan", "unknown config keys: solver.step_safety"),
    ])
    def test_invalid_solver_setting_exits_2(self, tmp_path, capsys, command, setting, message):
        scn = tmp_path / "scn"
        assert main(["synth", "--config", write_cfg(tmp_path / "s.txt", SMALL_SYNTH),
                     "--out", str(scn)]) == 0
        cfg = write_cfg(tmp_path / "cfg.txt", (
            f"io.scenario={scn}\nsynth.flows=10\nsynth.periods=10\nphase.ranks=1\n"
            "phase.sparsity_counts=2\nphase.lam_grid=1\nburst.days=2\n"
            "solver.max_iters=20\nsolver.mm_max_iters=20\n" + setting + "\n"))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        if command == "diagnose":  # rejected before any work
            assert not out.exists()

    @pytest.mark.parametrize("setting", ["solver.rho=0", "solver.tol=-1"])
    def test_burst_compare_rejects_solver_settings_before_work(self, tmp_path, capsys,
                                                               monkeypatch, setting):
        def no_work(*args):
            raise AssertionError("the scenario was built before the settings were checked")

        monkeypatch.setattr(pipelines, "build_burst_scenario", no_work)
        cfg = write_cfg(tmp_path / "cfg.txt", (
            "synth.flows=10\nsynth.periods=10\nburst.days=2\nsolver.max_iters=20\n"
            "solver.mm_max_iters=20\n" + setting + "\n"))
        out = tmp_path / "out"
        assert main(["burst-compare", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid solver settings")
        assert not out.exists()
