"""The benchmark in ``perfbench/`` still finds every name it uses.

Each workload sets up at seed 3 and runs a two-step pipeline under the
tracer, which rebinds the package functions the per-layer metrics time. A
change that removes or renames something the benchmark imports, constructs
or rebinds fails here, not only in ``python3 perfbench/selftest.py``, which
tier-1 runs too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("clock", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    return tracing, workloads


def test_every_workload_runs_traced(bench, tmp_path):
    tracing, workloads = bench
    for name, workload in workloads.WORKLOADS.items():
        prep = workload.setup(3)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.bindings()):
            rep = workload.repeat(prep, 2, tmp_path, tracer.span)
        assert (name, rep.failed, rep.problems) == (name, 0, [])


def test_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
