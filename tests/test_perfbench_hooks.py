"""The traced benchmark patches meancert attributes by name.

perfbench/spans.py wraps each layer's functions where callers look them
up.  Entering ``Tracer().installed()`` looks every one of those names up,
so a refactor that deletes or renames one fails here, in the fast tests,
instead of only in the benchmark's own self-tests.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
