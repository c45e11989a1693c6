"""Benchmark of the hotpress simulator, end to end and per layer.

    python3 perfbench/run.py --workload press-humphrey --seed 0 \\
        --seconds 10 --trace 0

Runs whole operations of one workload (or, with ``--workload all``, of
each workload in turn in its own process) until ``--seconds`` have passed,
checks the outputs of every operation, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the first
operation runs untraced, the rest traced, and the metrics are the
per-layer ones, with the spans written to
``perfbench/out/trace-<workload>.json``.  Workloads and metrics are
described in README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("press-humphrey", "press-fine", "explicit-sealed",
                  "verify-mms")
SETUP_REPEATS = 5  # timed set-up processes per run, after one warm-up

# one thread per process: the simulator is single-threaded and the
# benchmark machines have two cores
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

UNITS = {"s": "s", "incl_s": "s", "calls": "count", "points": "count",
         "iters": "count", "steps": "count", "step_attempts": "count",
         "iters_per_step": "iters/step", "accepted_attempt_ratio": "ratio",
         "ms_p50": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the preset")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole operations for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def time_setup(name, seed):
    """Median seconds from process start to the workload's first step."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return statistics.median(samples[1:]), len(samples) - 1


def run_all(args):
    """Every workload in turn, each in its own process; the metrics come
    back prefixed with the workload's name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] and total["failed"] == 0 else 1


def layer_metrics(tracer, since, stamps):
    """Per-layer figures of one traced operation."""
    calls, self_s, incl_s, counts = tracer.summary(since)

    def layer_s(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    steps = counts["solver.steps"]
    attempts = counts["solver.step_attempts"]
    durations = tracer.step_durations(since, stamps)
    return {
        "properties.hr_from_emc.s": self_s["properties.hr_from_emc"],
        "properties.hr_from_emc.calls": calls["properties.hr_from_emc"],
        "properties.hr_from_emc.points":
            counts["properties.hr_from_emc.points"],
        "assembly.element_residual.s": self_s["assembly.element_residual"],
        "assembly.element_residual.calls": calls["assembly.element_residual"],
        "assembly.element_residual.incl_s":
            incl_s["assembly.element_residual"],
        "assembly.derive_thermo.s": self_s["assembly.derive_thermo"],
        "assembly.vapor_density_partials.s":
            self_s["assembly.vapor_density_partials"],
        "assembly.residual.calls": calls["assembly.residual"],
        "assembly.ode_rates.s": self_s["assembly.ode_rates"],
        "assembly.ode_rates.incl_s": incl_s["assembly.ode_rates"],
        "assembly.water_balance.s": self_s["assembly.water_balance"],
        "assembly.water_balance.incl_s": incl_s["assembly.water_balance"],
        "solver.fd_jacobian.s": self_s["solver.fd_jacobian"],
        "solver.fd_jacobian.calls": calls["solver.fd_jacobian"],
        "solver.fd_jacobian.incl_s": incl_s["solver.fd_jacobian"],
        "solver.splu.s": self_s["solver.splu"],
        "solver.splu.calls": calls["solver.splu"],
        "solver.lu_solve.s": self_s["solver.lu_solve"],
        "solver.lu_solve.calls": calls["solver.lu_solve"],
        "solver.linear_solve.s": self_s["solver.linear_solve"],
        "solver.linear_solve.incl_s": incl_s["solver.linear_solve"],
        "solver.newton.iters": counts["solver.newton.iters"],
        "solver.newton.iters_per_step":
            counts["solver.newton.iters"] / steps if steps else 0.0,
        "solver.steps": steps,
        "solver.step_attempts": attempts,
        "solver.accepted_attempt_ratio": steps / attempts if attempts else 0.0,
        "solver.step.ms_p50":
            1e3 * statistics.median(durations) if durations else 0.0,
        "solver.bookkeeping.s": self_s["solver.run_transient"],
        "scenario.build.s": layer_s("scenario."),
        "cli.write.s": layer_s("cli."),
        "verification.manufactured_source.s":
            self_s["verification.manufactured_source"],
        "verification.manufactured_source.incl_s":
            incl_s["verification.manufactured_source"],
        "verification.manufactured_source.calls":
            calls["verification.manufactured_source"],
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hotpress" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from hotpress.errors import HotPressError

    workload = workloads.WORKLOADS[args.workload]
    out = HERE / "out" / args.workload
    setup = None
    if not args.trace:
        setup = time_setup(args.workload, args.seed)

    attempted = failed = 0
    correct = True
    peak_mb = None

    def operation(log=None):
        """Run and check one operation; its wall seconds, or None."""
        nonlocal attempted, failed, correct, peak_mb
        attempted += 1
        try:
            wall, outputs = workload.run(args.seed, out, log)
        except HotPressError as exc:
            failed += 1
            print(f"operation {attempted}: solver failure: {exc}")
            return None
        if peak_mb is None:
            # the high-water mark of one operation, before its checks, as
            # in a process that runs one; later ones only add garbage
            peak_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.check(out, outputs)
        except checks.CheckError as exc:
            failed += 1
            correct = False
            print(f"operation {attempted}: check failed: {exc}")
            return None
        return wall

    started = time.perf_counter()
    walls = []
    layers = []
    if args.trace:
        import tracing
        untraced = operation()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while untraced is not None and (
                    not walls or time.perf_counter() - started < args.seconds):
                since = tracer.mark()
                stamps = []
                wall = operation(
                    lambda line: stamps.append((time.perf_counter(), line)))
                if wall is None:
                    break
                walls.append(wall)
                layers.append(layer_metrics(tracer, since, stamps))
        finally:
            tracer.uninstall()
        tracer.dump(out.parent / f"trace-{args.workload}.json",
                    {"workload": args.workload, "seed": args.seed})
    else:
        while not walls or time.perf_counter() - started < args.seconds:
            wall = operation()
            if wall is None:
                break
            walls.append(wall)

    metrics = {}
    if args.trace and layers:
        for key in layers[0]:
            value = statistics.median(m[key] for m in layers)
            metrics[key] = {"value": value,
                            "unit": UNITS[key.rsplit(".", 1)[-1]]}
        traced = statistics.median(walls)
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        print(f"{args.workload}: 1 untraced and {len(walls)} traced "
              f"operations, medians per operation")
    elif walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"{args.workload}: wall_s median of {len(walls)} operations "
              f"({', '.join(f'{w:.3f}' for w in walls)} s), "
              f"setup_s median of {setup[1]} processes")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
