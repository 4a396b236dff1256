"""The benchmark's hooks and checks, run against the current tree.

perfbench/spans.py wraps each layer's functions where callers look them
up.  Entering ``Tracer().installed()`` looks every one of those names up,
so a refactor that deletes or renames one fails here, in the fast tests,
instead of only in the benchmark's own self-tests.  A smoke run of each
workload applies the benchmark's output checks (replays bit for bit, the
verdict set, repeated sweeps) to the operator, hs and scalar paths.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracer = load_spans().Tracer()
    hooks = [(owner, attr) for owner, attr, _ in tracer._patches()]
    originals = [owner.__dict__[attr] for owner, attr in hooks]
    with tracer.installed():
        for (owner, attr), orig in zip(hooks, originals):
            assert owner.__dict__[attr] is not orig, f"{attr} was not wrapped"
    assert [owner.__dict__[attr] for owner, attr in hooks] == originals


@pytest.mark.parametrize("workload", ["op-sweep", "hs-sweep", "replay-scalar"])
def test_smoke_run_passes_the_benchmark_checks(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
