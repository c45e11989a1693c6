"""The benchmark's own path into ``hotpress`` still runs.

``perfbench/workloads.py`` builds, integrates, writes and checks press
runs through ``hotpress``'s scenario, solver and output functions, so
changing one of those calls would break ``perfbench/run.py``.  Each
workload is set up here as the benchmark does it, and one shortened
operation of each press kind is run and checked.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["press-humphrey", "press-fine",
                                  "explicit-sealed", "verify-mms"])
def test_workload_sets_up(workloads, name):
    workloads.WORKLOADS[name].setup(0)


@pytest.mark.parametrize("args", [
    (20, 1.0, 1.0, False, "implicit", None),
    (10, 3e-5, 3e-4, True, "explicit", (3e-4,)),
], ids=["implicit-open", "explicit-sealed"])
def test_short_press_runs_and_checks(workloads, tmp_path, args):
    press = workloads.Press(*args)
    _, outputs = press.run(0, tmp_path)
    press.check(tmp_path, outputs)
