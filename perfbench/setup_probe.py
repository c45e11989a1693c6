"""Set-up of one workload in a fresh process, for the ``setup_s`` metric.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the simulator as ``hotpress run`` does, builds the workload's
scenario, mesh, system and initial state, then prints ``ready``.  The
caller times the process from its start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on the path)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print("ready", flush=True)
