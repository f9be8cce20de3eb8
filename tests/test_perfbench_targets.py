"""The benchmark's traced run patches the names in perfbench/spans.py TARGETS;
each one must still exist, or `perfbench/run.py --trace 1` breaks, and each
one a workload's command should reach must still be called, or its span
metric reads 0 on working code."""

import importlib
import importlib.util
import os
from collections import Counter

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


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


def test_diagnose_calls_every_diagnostics_target(tmp_path, monkeypatch):
    from trafficmaps import diagnostics
    from trafficmaps.cli import main
    from trafficmaps.fileio import read_manifest

    spans = load_spans()
    modules = [importlib.import_module(m) for m in spans.MODULES]
    paths = [path for _, _, home, path, _ in spans.TARGETS if home == "trafficmaps.diagnostics"]
    calls = Counter()

    def counted(path, fn):
        def wrapper(*args, **kwargs):
            calls[path] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patched where the traced run patches it: on the class, or in every
    # module that imported the name
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
    assert [path for path in paths if calls[path] == 0] == []
