"""The benchmark's span tracer wraps package functions by name from outside
(perfbench/spans.py); every name it wraps must still exist."""

import importlib.util
from pathlib import Path

from definetti import _kernels, cli, harness, io, model, numerics, recovery

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pkg = {"cli": cli, "io": io, "harness": harness, "model": model,
           "numerics": numerics, "recovery": recovery, "_kernels": _kernels}
    targets = spans.targets(pkg)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in targets if not hasattr(owner, attr)]
    assert not missing
