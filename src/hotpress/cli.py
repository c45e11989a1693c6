"""Command-line driver.

Two subcommands::

    hotpress run    --preset humphrey --out results/
    hotpress run    --scenario case.yaml --out results/ --dt 0.5 --t-end 10
    hotpress verify {mms,conservation,jacobian,supg,properties}

``run`` integrates one scenario and writes, into an existing output
directory:

* one full-field snapshot per requested output time
  (``snapshot_t<padded seconds>s.txt``) with columns
  r, z, T, H, rho_a, P_v, P, V_r, V_z;
* eight profile files (T and H, along z at the axis and the rim, and
  along r at the mid-plane and the platen), one column per time;
* the diagnostic step log (``run.log``).

Command-line flags override the corresponding solver knobs of the
scenario document.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 solver failure (out of memory included).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .assembly import P_TOTAL, P_VAPOR, state_fields
from .errors import HotPressError, ScenarioError
from .mesh import CENTERLINE, EXTERNAL, MIDPLANE, PLATEN
from .scenario import humphrey_preset, load_scenario, run_scenario
from .verification import SUITE_NAMES, run_suite

PRESETS = {"humphrey": humphrey_preset}

# the four profile lines: (label, the coordinate along the line, its tag)
_PROFILE_LINES = (("vs_z_axis", "z", CENTERLINE), ("vs_z_rim", "z", EXTERNAL),
                  ("vs_r_midplane", "r", MIDPLANE),
                  ("vs_r_platen", "r", PLATEN))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _snapshot_name(t):
    return f"snapshot_t{t:09.3f}s.txt"


def _write_snapshot(path, system, u, t):
    """One plain-text table of every nodal field at time t."""
    t_c, h, rho_a = state_fields(u)
    state = system.nodal_state(u)
    vel = system.recover_velocity(state)
    nodes = system.mesh.nodes
    data = np.column_stack([nodes[:, 0], nodes[:, 1], t_c, h, rho_a,
                            state[:, P_VAPOR], state[:, P_TOTAL],
                            vel[:, 0], vel[:, 1]])
    header = (f"t={t:.6f} s; columns: r[m] z[m] T[degC] H[%] "
              "rho_a[kg/m3] P_v[N/m2] P[N/m2] V_r[m/s] V_z[m/s]")
    np.savetxt(path, data, fmt="%.10e", header=header)


def _write_profiles(out, system, result):
    """Eight files: {T, H} x four extraction lines, one column per time."""
    mesh = system.mesh
    times = [0.0] + sorted(result.outputs)
    states = [result.states[0]] + [result.outputs[t]
                                   for t in sorted(result.outputs)]
    fields = {"T": ("T [degC]", 0), "H": ("H [%]", 1)}
    count = 0
    for label, axis, tag in _PROFILE_LINES:
        nodes = mesh.node_tags[tag]
        coord = mesh.nodes[nodes, 0 if axis == "r" else 1]
        for key, (title, comp) in fields.items():
            columns = [state_fields(u)[comp][nodes] for u in states]
            data = np.column_stack([coord] + columns)
            header = (f"{title} {label.replace('_', ' ')}; columns: "
                      f"{axis}[m] then t[s] = "
                      + " ".join(f"{t:g}" for t in times))
            np.savetxt(out / f"profile_{key}_{label}.txt", data,
                       fmt="%.10e", header=header)
            count += 1
    return count


def _write_log(path, result):
    """The run's step log, one line each."""
    path.write_text("".join(line + "\n" for line in result.log))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args):
    out = Path(args.out)
    if not out.is_dir():
        print(f"error: output directory {out} does not exist",
              file=sys.stderr)
        return 2
    try:
        if args.preset is not None:
            scenario = PRESETS[args.preset]()
        else:
            path = Path(args.scenario)
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: scenario file {path}: {exc}", file=sys.stderr)
                return 2
            scenario = load_scenario(text)
        flags = {name: value for name in ("dt", "t_end", "scheme")
                 if (value := getattr(args, name)) is not None}
        scenario = replace(scenario, solver=replace(scenario.solver, **flags))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        system, result = run_scenario(scenario)
    except HotPressError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"solver failure: out of memory on a {scenario.n_r} x "
              f"{scenario.n_z} mesh; reduce mesh.n_r and mesh.n_z",
              file=sys.stderr)
        return 3

    if scenario.solver.t_end == 0.0:
        _write_snapshot(out / _snapshot_name(0.0), system,
                        result.states[0], 0.0)
        _write_log(out / "run.log", result)
        print(f"wrote initial-state snapshot and run.log to {out}")
        return 0

    for t in sorted(result.outputs):
        _write_snapshot(out / _snapshot_name(t), system, result.outputs[t], t)
    n_profiles = _write_profiles(out, system, result)
    _write_log(out / "run.log", result)
    print(f"wrote {len(result.outputs)} snapshots, {n_profiles} profiles "
          f"and run.log to {out}")
    return 0


def cmd_verify(args):
    try:
        checks = run_suite(args.suite)
    except HotPressError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"solver failure: out of memory in the {args.suite} suite",
              file=sys.stderr)
        return 3
    for check in checks:
        print(check.line())
    return 0 if all(check.passed for check in checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hotpress",
        description="Coupled heat/moisture/air press simulation.")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="integrate a scenario and write "
                                       "snapshots, profiles and a log")
    case = run_p.add_mutually_exclusive_group(required=True)
    case.add_argument("--preset", choices=sorted(PRESETS),
                      help="built-in scenario name")
    case.add_argument("--scenario", help="path to a scenario YAML file")
    run_p.add_argument("--out", required=True,
                       help="existing output directory")
    run_p.add_argument("--dt", type=float, help="override time step [s]")
    run_p.add_argument("--t-end", type=float, dest="t_end",
                       help="override final time [s]")
    run_p.add_argument("--scheme", choices=("implicit", "explicit"),
                       help="override time integration scheme")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="run one verification suite")
    ver_p.add_argument("suite", choices=SUITE_NAMES,
                       help="verification suite to run")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
