"""Span tracing of the press simulator from outside its code.

:class:`Tracer` replaces public functions and methods of the ``hotpress``
modules with wrappers that record one span per call: name, start, end
and the index of the enclosing span.  A wrapper is installed under every
name a caller looks the function up by (a module global such as
``solver.splu``, a by-name import such as ``verification.fd_jacobian``, or
a class attribute for methods), and :meth:`Tracer.uninstall` puts the
originals back.  Spans stay in memory until :meth:`Tracer.dump`.
"""

import functools
import json
import sys
import time
from collections import Counter

from hotpress import assembly, cli, scenario, solver, verification
from hotpress.errors import NewtonError
from hotpress.properties import HailwoodHorrobinIsotherm

# (owner, attribute, span name); methods are wrapped on their class
TRACED = (
    (HailwoodHorrobinIsotherm, "hr_from_emc", "properties.hr_from_emc"),
    (assembly, "derive_thermo", "assembly.derive_thermo"),
    (assembly, "vapor_density_partials", "assembly.vapor_density_partials"),
    (assembly.PressSystem, "element_residual", "assembly.element_residual"),
    (assembly.PressSystem, "residual", "assembly.residual"),
    (assembly.PressSystem, "ode_rates", "assembly.ode_rates"),
    (assembly.PressSystem, "water_balance", "assembly.water_balance"),
    (solver, "fd_jacobian", "solver.fd_jacobian"),
    (solver, "linear_solve", "solver.linear_solve"),
    (solver, "splu", "solver.splu"),
    (solver, "newton_solve", "solver.newton_solve"),
    (solver, "implicit_step", "solver.implicit_step"),
    (solver, "forward_euler_step", "solver.forward_euler_step"),
    (solver, "run_transient", "solver.run_transient"),
    (scenario, "humphrey_preset", "scenario.preset"),
    (scenario, "build_system", "scenario.build_system"),
    (scenario, "initial_state", "scenario.initial_state"),
    (cli, "_write_snapshot", "cli.write_snapshot"),
    (cli, "_write_profiles", "cli.write_profiles"),
    (cli, "_write_log", "cli.write_log"),
    (verification, "manufactured_source", "verification.manufactured_source"),
)


class _TracedLU:
    """Factorization whose back-substitutions are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans and counts of the traced calls of one process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result, exc, parent)``
        adds counts once the call has ended."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, clock(), 0.0, parent])
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
                if after is not None:
                    after(result, exc, parent)

        return traced

    def _parent_name(self, parent):
        return self.spans[parent][0] if parent >= 0 else None

    def _count_points(self, result, exc, parent):
        self.counts["properties.hr_from_emc.points"] += \
            int(getattr(result, "size", 1))

    def _count_newton(self, result, exc, parent):
        self.counts["solver.step_attempts"] += 1
        if exc is None:
            self.counts["solver.newton.iters"] += result[1]
            # the verification suites step with newton_solve directly
            if self._parent_name(parent) != "solver.implicit_step":
                self.counts["solver.steps"] += 1
        elif isinstance(exc, NewtonError):
            history = getattr(exc, "residual_history", None) or [0.0]
            self.counts["solver.newton.iters"] += len(history) - 1

    def _count_step(self, result, exc, parent):
        if exc is None:
            self.counts["solver.steps"] += 1

    def _count_euler(self, result, exc, parent):
        self.counts["solver.step_attempts"] += 1
        self._count_step(result, exc, parent)

    # -- installation --------------------------------------------------------

    def install(self):
        """Install every wrapper of :data:`TRACED` where callers find it."""
        hooks = {
            "properties.hr_from_emc": self._count_points,
            "solver.newton_solve": self._count_newton,
            "solver.implicit_step": self._count_step,
            "solver.forward_euler_step": self._count_euler,
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "hotpress" or key.startswith("hotpress.")]
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            if name == "solver.splu":
                wrapped = self.wrap(name, self._traced_splu(original))
            else:
                wrapped = self.wrap(name, original, hooks.get(name))
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def _traced_splu(self, splu):
        def factorize(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _TracedLU(lu, self.wrap("solver.lu_solve", lu.solve))
        return factorize

    def uninstall(self):
        """Restore every original function."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def mark(self):
        """Position to pass to :meth:`summary` for the calls after now."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since):
        """Calls, self seconds, inclusive seconds and counts per span name,
        of the spans recorded since a :meth:`mark`.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        first, counts_before = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        calls = Counter()
        self_s = Counter()
        incl_s = Counter()
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        for k, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child[k]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return calls, self_s, incl_s, counts

    def step_durations(self, since, stamps):
        """Accepted-step durations [s] from the run log's timestamps,
        or, without a log, from the directly stepped Newton solves."""
        first = since[0]
        starts = [start for name, start, _, _ in self.spans[first:]
                  if name == "solver.run_transient"]
        if starts and stamps:
            times = [starts[0]] + [t for t, line in stamps
                                   if line.startswith("step ")]
            return [b - a for a, b in zip(times, times[1:])]
        return [end - start for name, start, end, parent
                in self.spans[first:] if name == "solver.newton_solve"
                and self._parent_name(parent) != "solver.implicit_step"]

    def dump(self, path, meta):
        """Write the spans (times relative to the first) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s",
                                          "parent"],
                       "spans": [[n, round(s - origin, 7),
                                  round(e - origin, 7), p]
                                 for n, s, e, p in self.spans]}, fh)
