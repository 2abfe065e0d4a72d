"""The traced benchmark still installs on this library and runs clean.

``bench/run.py --trace 1`` wraps module bindings by name
(``bench/layers.py``); a binding the library drops or renames makes
``Tracer.install`` raise, and the traced run exits 1.  The benchmark's
own tests live under ``bench/tests``, outside the default test paths, so
this guard runs with the library's tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    return layers, tracing


def test_every_traced_binding_resolves(bench_modules):
    layers, tracing = bench_modules
    table = layers.LayerProbe(tracing.Tracer(), None).trace_table()
    assert table
    for owner, attr, name, kind, _ in table:
        # the lookup Tracer.install makes
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name})"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"
        assert kind in ("span", "leaf")


@pytest.mark.parametrize("workload", ["churn-exact", "muddled", "cascade"])
def test_traced_run_exits_clean(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
