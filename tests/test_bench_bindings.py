"""Every binding the benchmark's timing wrappers replace must exist.

`perfbench/tracing.py` wraps library calls where callers look them up: a
module attribute, or a method in its class's own `__dict__`.  A refactor that
drops such a binding, or moves a method into a base class, fails here rather
than when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves():
    tracing = load_tracing()
    missing = []
    for name, sites in tracing.SPANS:
        for owner_path, attr in sites:
            owner = tracing._resolve(owner_path)
            if isinstance(owner, type):
                found = attr in owner.__dict__
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{name}: {owner_path}.{attr}")
    assert not missing, missing
