"""The benchmark's traced run patches the names in perfbench/spans.py TARGETS;
each one must still exist, or `perfbench/run.py --trace 1` breaks, and each
one a workload's command should reach must still be called, or its span
metric reads 0 on working code."""

import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_spans().TARGETS


@pytest.mark.parametrize("home, path", [(home, path) for _, _, home, path, _ in load_targets()])
def test_traced_name_exists(home, path):
    owner = importlib.import_module(home)
    if "." in path:
        cls_name, meth = path.split(".")
        assert meth in getattr(owner, cls_name).__dict__
    else:
        assert hasattr(owner, path)


def diagnostics_paths(spans, span_name=None):
    return [path for _, name, home, path, _ in spans.TARGETS
            if home == "trafficmaps.diagnostics" and span_name in (None, name)]


def count_calls(spans, paths, monkeypatch, record):
    """Route each diagnostics target through `record(path, result)`, patched
    where the traced run patches it: on the class, or in every module that
    imported the name."""
    from trafficmaps import diagnostics

    modules = [importlib.import_module(m) for m in spans.MODULES]

    def counted(path, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(path, result)
            return result
        return wrapper

    for path in paths:
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(diagnostics, cls_name)
            monkeypatch.setattr(cls, meth, counted(path, cls.__dict__[meth]))
            continue
        original = getattr(diagnostics, path)
        for module in modules:
            if module.__dict__.get(path) is original:
                monkeypatch.setattr(module, path, counted(path, original))


def diagnose_identifiable(tmp_path):
    """Run `diagnose` on a 20x20 scenario whose certificate is built over a
    nonempty nullspace intersection."""
    from trafficmaps.cli import main
    from trafficmaps.fileio import read_manifest

    def run(sub, config, out):
        cfg = tmp_path / f"{sub}.txt"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0

    scenario = tmp_path / "scenario"
    run("synth", {"seed": 2, "synth.nodes": 8, "synth.radius": 0.5, "synth.flows": 20,
                  "synth.periods": 20, "synth.rank": 1, "synth.anomaly_prob": 0.01,
                  "synth.paths": 1, "synth.sample_prob": 0.5}, scenario)
    run("diagnose", {"io.scenario": scenario}, tmp_path / "diag")
    report = read_manifest(tmp_path / "diag" / "diagnose.txt")
    assert "certificate_error" not in report and int(report["null_intersection_dim"]) > 0


def test_diagnose_calls_every_diagnostics_target(tmp_path, monkeypatch):
    spans = load_spans()
    paths = diagnostics_paths(spans)
    calls = Counter()
    count_calls(spans, paths, monkeypatch, lambda path, result: calls.update([path]))
    diagnose_identifiable(tmp_path)
    assert [path for path in paths if calls[path] == 0] == []


def test_traced_diagnose_opens_one_unnested_span_per_basis(tmp_path, monkeypatch):
    # A builder calling another public builder would nest one basis span in
    # another and count that basis twice in diagnostics.basis_bytes.
    spans = load_spans()
    paths = diagnostics_paths(spans, "basis")
    built = []  # (builder, bytes) in the order the calls return
    count_calls(spans, paths, monkeypatch,
                lambda path, result: built.append((path, result.vectors.nbytes)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "diagnose")
        diagnose_identifiable(tmp_path)
        tracer.end_op()
    finally:
        tracer.uninstall()
    basis = [s for s in tracer.spans if s.name == "basis"]  # in the order they close
    assert {path for path, _ in built} == set(paths)
    assert not [s for s in basis if any(a.name == "basis" for a in tracer.ancestors(s))]
    assert [s.extras["bytes"] for s in basis] == [nbytes for _, nbytes in built]


def test_selftest_passes():
    # The benchmark's correctness checks, run on small real outputs and on
    # corrupted copies of them; about 7 s on a 2-CPU machine.
    result = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-4000:]
