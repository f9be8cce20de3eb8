"""The benchmark's traced run patches the names in perfbench/spans.py TARGETS;
each one must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("home, path", [(home, path) for _, _, home, path, _ in load_targets()])
def test_traced_name_exists(home, path):
    owner = importlib.import_module(home)
    if "." in path:
        cls_name, meth = path.split(".")
        assert meth in getattr(owner, cls_name).__dict__
    else:
        assert hasattr(owner, path)
