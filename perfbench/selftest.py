"""The benchmark's own test: every correctness check passes on real output
and rejects a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Runs small instances of each workload's commands (about a minute), so it is
kept out of the repository's pytest suite by its name.
"""

import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from trafficmaps.cli import main  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
SMALL = {
    "synth.nodes": 10, "synth.radius": 0.6, "synth.flows": 24, "synth.periods": 20,
    "synth.rank": 1, "synth.anomaly_prob": 0.02, "synth.paths": 2, "synth.sample_prob": 0.4,
}


def run(cmd, name):
    out = os.path.join(WORK, name)
    assert main(cmd.argv(out)) == 0, name
    return out


def corrupt_csv(path, fn):
    M = checks.read_csv(path)
    workloads.write_csv(path, fn(M))


def corrupt_kv(path, key, fn):
    entries = checks.read_kv(path)
    entries[key] = fn(entries[key])
    with open(path, "w") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")


def read_bytes(path):
    with open(path, "rb") as fh:
        return bytearray(fh.read())


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def copy(out, name):
    dst = os.path.join(WORK, name)
    shutil.copytree(out, dst)
    return dst


class SolveChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        structure = os.path.join(WORK, "structure")
        assert main(workloads.synth_argv(structure, dict(SMALL, seed=5))) == 0
        cls.clean = os.path.join(WORK, "clean")
        cls.noisy = os.path.join(WORK, "noisy")
        workloads.derive(structure, cls.clean, 1, 11, signs=True)
        workloads.derive(structure, cls.noisy, 2, 12, sigma=workloads.NOISE)
        cls.out = {}
        for kind in ("p1", "p2", "p5", "p6"):
            scenario = cls.clean if kind == "p2" else cls.noisy
            cfg = {"io.scenario": scenario, "solver.kind": kind, "solver.max_iters": 5000}
            if kind != "p2":
                cfg.update({f"solver.{k}": v for k, v in workloads.WEIGHTS.items()})
            cls.out[kind] = run(workloads.Command(kind, "solve", cfg), f"solve-{kind}")

    def check(self, kind, out):
        scenario = self.clean if kind == "p2" else self.noisy
        return checks.check_solve(kind, scenario, out, workloads.WEIGHTS)

    def test_outputs_pass(self):
        for kind, out in self.out.items():
            self.assertEqual(self.check(kind, out), [], kind)

    def test_p2_rejects_a_wrong_estimate(self):
        out = copy(self.out["p2"], "bad-p2")
        corrupt_csv(os.path.join(out, "A_hat.csv"), lambda M: M + (np.arange(M.size) == 7).reshape(M.shape))
        self.assertTrue(self.check("p2", out))

    def test_p1_p6_reject_a_worse_estimate(self):
        for kind in ("p1", "p6"):
            out = copy(self.out[kind], f"bad-{kind}")
            corrupt_csv(os.path.join(out, "X_hat.csv"), lambda M: M + 0.5)
            self.assertTrue(self.check(kind, out), kind)

    def test_p5_rejects_an_understated_objective(self):
        out = copy(self.out["p5"], "bad-p5")
        corrupt_kv(os.path.join(out, "report.txt"), "objective", lambda v: f"{0.5 * float(v):.12e}")
        self.assertTrue(self.check("p5", out))


class GridChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cfg = dict(workloads.GRID, seed=3, **{
            "synth.flows": 32, "synth.periods": 32, "phase.ranks": "1,4",
            "phase.sparsity_counts": "5,150", "phase.lam_grid": 3, "solver.max_iters": 600,
        })
        cls.out = run(workloads.PhaseGrid(0).grid(cfg), "grid")

    def test_output_passes(self):
        self.assertEqual(checks.check_phase_grid(self.out), [])

    def test_rejects_a_flipped_pixel(self):
        out = copy(self.out, "bad-grid-pixel")
        path = os.path.join(out, "phase_grid.pgm")
        data = read_bytes(path)
        data[-1] ^= 0x40
        write_bytes(path, data)
        self.assertTrue(checks.check_phase_grid(out))

    def test_rejects_a_dark_easiest_cell(self):
        out = copy(self.out, "bad-grid-cell")
        corrupt_csv(os.path.join(out, "phase_grid.csv"), lambda M: np.where(
            np.arange(M.size).reshape(M.shape) == 0, 0.5, M))
        path = os.path.join(out, "phase_grid.pgm")
        data = read_bytes(path)
        data[len(data) - checks.read_csv(os.path.join(out, "phase_grid.csv")).size] = int(
            checks.gray(np.array(0.5)))
        write_bytes(path, data)
        problems = checks.check_phase_grid(out)
        self.assertTrue(any("easiest" in p for p in problems), problems)
        self.assertFalse(any("gray mapping" in p for p in problems), problems)


class BurstChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run(workloads.BurstCompare(0).warmup(None), "burst")

    def test_output_passes(self):
        self.assertEqual(checks.check_burst_compare(self.out), [])

    def test_rejects_a_misreported_error(self):
        out = copy(self.out, "bad-burst-report")
        corrupt_kv(os.path.join(out, "compare.txt"), "e_a_p5", lambda v: f"{float(v) * 1.01:.12e}")
        self.assertTrue(checks.check_burst_compare(out))

    def test_rejects_an_altered_map(self):
        out = copy(self.out, "bad-burst-map")
        corrupt_csv(os.path.join(out, "anomaly_map_p1.csv"), lambda M: M * 1.001)
        self.assertTrue(checks.check_burst_compare(out))

    def test_mm_trace_must_not_rise(self):
        self.assertEqual(checks.check_mm_objectives([3.0, 2.0, 2.0, 1.5]), [])
        self.assertTrue(checks.check_mm_objectives([3.0, 2.0, 2.0000001, 1.5]))


class DiagnoseChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        structure = os.path.join(WORK, "diag-structure")
        cfg = dict(workloads.DIAG_SCALE, seed=1, **{"synth.flows": 12, "synth.periods": 12,
                                                    "synth.anomaly_prob": 0.05})
        assert main(workloads.synth_argv(structure, cfg)) == 0
        cls.scenario = os.path.join(WORK, "diag-scenario")
        workloads.derive(structure, cls.scenario, 4, 14, signs=True)
        cls.out = run(workloads.Diagnose(0).diagnose(cls.scenario), "diagnose")

    def test_output_passes(self):
        self.assertEqual(checks.check_diagnose(self.scenario, self.out), [])

    def test_rejects_wrong_incoherences(self):
        for key, delta in (("alpha", 1e-6), ("beta", 1e-6), ("nu", -1e-6), ("xi", 1e-4)):
            out = copy(self.out, f"bad-diag-{key}")
            corrupt_kv(os.path.join(out, "diagnose.txt"), key, lambda v: repr(float(v) + delta))
            problems = checks.check_diagnose(self.scenario, out)
            self.assertTrue(any(p.startswith(f"diagnose: {key} ") for p in problems), key)

    def test_recovery_check_rejects_a_wrong_solve(self):
        solve = workloads.Command("cert", "solve", {
            "io.scenario": self.scenario, "solver.kind": "p2", "solver.max_iters": 20000,
            "solver.tol_primal": 1e-11, "solver.tol_dual": 1e-11})
        out = run(solve, "cert-solve")
        corrupt_csv(os.path.join(out, "X_hat.csv"), lambda M: M * 1.01)
        self.assertTrue(checks.check_recovery(self.scenario, out))


class MetricTable(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        import json

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        self.assertEqual(listed, list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        names = set(spans.layer_metrics(spans.Tracer(), 1))
        self.assertTrue(names <= set(spans.UNITS), names - set(spans.UNITS))


if __name__ == "__main__":
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
