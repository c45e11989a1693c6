"""The traced benchmark finds every function it wraps.

``perfbench/tracing.py`` looks each ``(owner, attribute)`` of its
``TRACED`` table up without a default, so renaming one of them in
``hotpress`` would break ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves(traced):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in traced
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names not found: {missing}"
