"""Smoke tests of the narrative scripts in demos/: each runs to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hotpress

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["property_correlations.py",
                                    "run_hot_press.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(Path(hotpress.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
