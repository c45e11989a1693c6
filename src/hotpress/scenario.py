"""Declarative configuration of one hot-press simulation case.

A :class:`Scenario` bundles everything needed to reproduce a run: board
geometry, mesh controls, material constants, the platen temperature
program, initial and ambient conditions, and the solver knobs.
Scenarios load from and save to a small YAML document (grammar in the
README); :func:`humphrey_preset` returns the built-in ``humphrey``
demonstration case (a 0.2828 m radius, 15 mm thick board heated from
30 to 160 degC and held for 400 s).

Physical fields carry no defaults — every case states its geometry,
material, schedule, and initial/ambient conditions explicitly.  The two
exceptions are documented: ambient pressure defaults to one standard
atmosphere, and the numerical knobs in :class:`SolverConfig` default to
the values used throughout the test suite.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .assembly import PressSystem, pack_state
from .errors import ScenarioError
from .mesh import build_graded_mesh
from .properties import (
    HailwoodHorrobinIsotherm,
    MaterialParams,
    saturated_vapor_pressure,
)
from .solver import NewtonOptions, run_transient

__all__ = [
    "PressSchedule",
    "Scenario",
    "SolverConfig",
    "build_mesh",
    "build_system",
    "humphrey_preset",
    "initial_state",
    "load_scenario",
    "run_scenario",
    "save_scenario",
    "with_overrides",
]


# ---------------------------------------------------------------------------
# platen temperature program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressSchedule:
    """Piecewise-linear platen temperature program.

    Parameters
    ----------
    times : sequence of float
        Breakpoint times [s], strictly increasing.
    temperatures : sequence of float
        Platen temperature [degC] at each breakpoint.

    Between breakpoints the temperature is interpolated linearly; before
    the first and after the last breakpoint it is held constant.
    Instances are callable: ``schedule(t)`` returns the platen
    temperature at time ``t``.
    """

    times: tuple
    temperatures: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        temp = np.asarray(self.temperatures, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ScenarioError("schedule needs at least one breakpoint")
        if temp.shape != t.shape:
            raise ScenarioError(
                "schedule times and temperatures must have the same length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(temp))):
            raise ScenarioError("schedule breakpoints must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ScenarioError("schedule times must be strictly increasing")
        if np.any(temp <= -273.15):
            raise ScenarioError(
                "schedule temperatures must be above absolute zero")
        object.__setattr__(self, "times", tuple(float(x) for x in t))
        object.__setattr__(self, "temperatures", tuple(float(x) for x in temp))

    def __call__(self, t):
        """Platen temperature [degC] at time ``t`` [s]."""
        return np.interp(t, self.times, self.temperatures)

    @property
    def breakpoints(self):
        """Breakpoints as ``((t, T), ...)`` pairs."""
        return tuple(zip(self.times, self.temperatures))


# ---------------------------------------------------------------------------
# solver knobs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Time integration and Newton controls for one run.

    These are numerical knobs, not physics, so defaults are allowed.
    ``t_end = 0`` is accepted and means "evaluate the initial state
    only" (no steps are taken).

    Parameters
    ----------
    dt : float
        Time step [s].
    scheme : {"implicit", "explicit"}
        Backward or forward Euler.
    t_end : float
        Final time [s].
    output_times : tuple of float
        Times [s] at which full-field snapshots are recorded; sorted and
        deduplicated on construction.
    newton_tol_rel, newton_tol_abs : float
        Relative and absolute convergence targets on the scaled residual
        RMS of the implicit solve.
    newton_max_iter : int
        Iteration cap per implicit step before the step size is halved.
    fd_epsilon_rel : float
        Relative perturbation for the finite-difference Jacobian.
    store_all : bool
        Keep every accepted state in memory (needed for trajectory
        diagnostics; off by default to bound memory).
    """

    dt: float = 1.0                # s
    scheme: str = "implicit"
    t_end: float = 400.0           # s
    output_times: tuple = ()
    newton_tol_rel: float = 1e-10
    newton_tol_abs: float = 5e-14
    newton_max_iter: int = 15
    fd_epsilon_rel: float = 1e-7
    store_all: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ScenarioError("dt must be a positive number")
        if self.scheme not in ("implicit", "explicit"):
            raise ScenarioError(
                f"scheme must be 'implicit' or 'explicit', got {self.scheme!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ScenarioError("t_end must be non-negative")
        for name in ("newton_tol_rel", "newton_tol_abs", "fd_epsilon_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ScenarioError(f"{name} must lie in (0, 1)")
        if int(self.newton_max_iter) != self.newton_max_iter \
                or self.newton_max_iter < 1:
            raise ScenarioError("newton_max_iter must be a positive integer")
        times = sorted({float(t) for t in self.output_times})
        if any(not np.isfinite(t) or t <= 0.0 for t in times):
            raise ScenarioError("output_times must be positive and finite")
        object.__setattr__(self, "output_times", tuple(times))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "newton_max_iter", int(self.newton_max_iter))

    def newton_options(self):
        """Bundle the Newton knobs for the implicit stepper."""
        return NewtonOptions(
            tol_rel=self.newton_tol_rel,
            tol_abs=self.newton_tol_abs,
            max_iter=self.newton_max_iter,
            fd_epsilon_rel=self.fd_epsilon_rel,
        )


# ---------------------------------------------------------------------------
# full case description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One complete press-simulation case.

    Parameters
    ----------
    r_ext : float
        Board radius [m].
    half_thickness : float
        Half the board thickness [m]; the mid-plane is a symmetry plane.
    n_r, n_z : int
        Element counts in the radial and thickness directions.
    grading_ratio : float
        Coarsest/finest element-size ratio of the graded mesh (cells
        cluster toward the rim and the platen).
    material : MaterialParams
        Constitutive constants for the board.
    schedule : PressSchedule
        Platen temperature program.
    t0, h0, rho_a0 : float
        Uniform initial temperature [degC], moisture content [%] and
        dry-air density [kg/m3].
    t_atm, hr_atm, p_atm : float
        Ambient temperature [degC], relative humidity [%] and total
        pressure [N/m2].  ``p_atm`` defaults to 101325 N/m2.
    sealed_radius : bool
        If true the rim exchanges nothing with the surroundings
        (conservation-test variant); default is an open rim at ambient
        conditions.
    solver : SolverConfig
        Numerical controls.
    """

    r_ext: float                   # m
    half_thickness: float          # m
    n_r: int
    n_z: int
    grading_ratio: float
    material: MaterialParams
    schedule: PressSchedule
    t0: float                      # degC
    h0: float                      # %
    rho_a0: float                  # kg/m3
    t_atm: float                   # degC
    hr_atm: float                  # %
    p_atm: float = 101325.0        # N/m2
    sealed_radius: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("r_ext", "half_thickness", "grading_ratio"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ScenarioError(f"{name} must be a positive number")
        for name in ("n_r", "n_z"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ScenarioError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.material, MaterialParams):
            raise ScenarioError("material must be a MaterialParams instance")
        if not isinstance(self.schedule, PressSchedule):
            raise ScenarioError("schedule must be a PressSchedule instance")
        if not isinstance(self.solver, SolverConfig):
            raise ScenarioError("solver must be a SolverConfig instance")
        for name in ("t0", "t_atm"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > -273.15):
                raise ScenarioError(f"{name} must be above absolute zero")
        if not (np.isfinite(self.h0) and self.h0 >= 0.0):
            raise ScenarioError("h0 must be non-negative")
        if not (np.isfinite(self.rho_a0) and self.rho_a0 >= 0.0):
            raise ScenarioError("rho_a0 must be non-negative")
        if not 0.0 <= self.hr_atm <= 100.0:
            raise ScenarioError("hr_atm must lie in [0, 100]")
        if not (np.isfinite(self.p_atm) and self.p_atm > 0.0):
            raise ScenarioError("p_atm must be positive")
        # The rim air target is (p_atm - p_v_atm) converted to a density;
        # a super-saturated ambient would make it negative.
        p_v_atm = self.hr_atm / 100.0 * saturated_vapor_pressure(self.t_atm)
        if p_v_atm >= self.p_atm:
            raise ScenarioError(
                "ambient vapor pressure "
                f"({p_v_atm:.3g} N/m2) must stay below p_atm")
        object.__setattr__(self, "sealed_radius", bool(self.sealed_radius))

    @property
    def ambient(self):
        """Ambient conditions as a ``(T [degC], HR [%], P [N/m2])`` triple."""
        return (self.t_atm, self.hr_atm, self.p_atm)


# ---------------------------------------------------------------------------
# built-in preset
# ---------------------------------------------------------------------------

def humphrey_preset():
    """The built-in ``humphrey`` demonstration case.

    A round board of radius 0.2828 m and half thickness 7.5 mm at dry
    density 586 kg/m3, initially at a uniform 30 degC, 11 % moisture and
    near-vacuum pore air, pressed between platens ramping from 30 degC
    to 160 degC over 72 s and holding, with the rim open to 30 degC /
    65 % RH air at one atmosphere.  Runs 400 s of implicit integration
    at dt = 1 s with snapshots at {1, 10, 50, 100, 200, 300, 400} s.

    Returns
    -------
    Scenario
    """
    return Scenario(
        r_ext=0.2828,              # m
        half_thickness=0.0075,     # m
        n_r=20,
        n_z=20,
        grading_ratio=4.0,
        material=MaterialParams(rho_s=586.0),
        schedule=PressSchedule(times=(0.0, 72.0), temperatures=(30.0, 160.0)),
        t0=30.0,                   # degC
        h0=11.0,                   # %
        rho_a0=1e-6,               # kg/m3
        t_atm=30.0,                # degC
        hr_atm=65.0,               # %
        p_atm=101325.0,            # N/m2
        solver=SolverConfig(
            dt=1.0,
            scheme="implicit",
            t_end=400.0,
            output_times=(1.0, 10.0, 50.0, 100.0, 200.0, 300.0, 400.0),
        ),
    )


# ---------------------------------------------------------------------------
# YAML load / save
# ---------------------------------------------------------------------------

_REQUIRED_SECTIONS = ("geometry", "mesh", "material", "schedule",
                      "initial", "ambient")
_OPTIONAL_SECTIONS = ("boundary", "solver")

# material keys map 1:1 onto MaterialParams keyword arguments; the
# sorption surface is configured through its scale factor instead.
_MATERIAL_OPTIONAL = ("bulk_density", "kappa_anisotropy", "perm_anisotropy",
                      "cp_vapor", "mm_air", "r_gas",
                      "porosity_model", "rho_f", "rho_r", "y_r",
                      "perm_table_path")
_SOLVER_KEYS = ("dt", "scheme", "t_end", "output_times", "newton_tol_rel",
                "newton_tol_abs", "newton_max_iter", "fd_epsilon_rel",
                "store_all")


def _mapping(obj, where):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a mapping of fields")
    return dict(obj)


def _take(table, where, key, required=True, default=None):
    if key in table:
        return table.pop(key)
    if required:
        raise ScenarioError(f"missing required field {where}.{key}")
    return default


def _reject_unknown(table, where):
    if table:
        names = ", ".join(sorted(str(k) for k in table))
        raise ScenarioError(f"unknown field(s) in {where}: {names}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def load_scenario(text):
    """Parse and validate a YAML scenario document.

    Parameters
    ----------
    text : str
        The document contents (not a file path).

    Returns
    -------
    Scenario

    Raises
    ------
    ScenarioError
        On malformed YAML (with the offending line when available),
        missing or unknown fields, or any violated invariant; each
        message names the field concerned.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"config parse error{where}: {exc}") from exc
    if doc is None:
        raise ScenarioError(
            "empty config; required sections: " + ", ".join(_REQUIRED_SECTIONS))
    root = _mapping(doc, "config root")
    missing = [s for s in _REQUIRED_SECTIONS if s not in root]
    if missing:
        raise ScenarioError("missing required section(s): " + ", ".join(missing))

    geometry = _mapping(root.pop("geometry"), "geometry")
    r_ext = _number(_take(geometry, "geometry", "r_ext"), "geometry.r_ext")
    half = _number(_take(geometry, "geometry", "half_thickness"),
                   "geometry.half_thickness")
    _reject_unknown(geometry, "geometry")

    meshsec = _mapping(root.pop("mesh"), "mesh")
    n_r = _take(meshsec, "mesh", "n_r")
    n_z = _take(meshsec, "mesh", "n_z")
    grading = _number(_take(meshsec, "mesh", "grading_ratio"),
                      "mesh.grading_ratio")
    _reject_unknown(meshsec, "mesh")

    matsec = _mapping(root.pop("material"), "material")
    mat_kwargs = {"rho_s": _number(_take(matsec, "material", "rho_s"),
                                   "material.rho_s")}
    iso_scale = matsec.pop("isotherm_scale", None)
    matsec.pop("mm_water", None)  # unused key of earlier files, ignored
    for key in _MATERIAL_OPTIONAL:
        if key in matsec:
            mat_kwargs[key] = matsec.pop(key)
    _reject_unknown(matsec, "material")
    if iso_scale is not None:
        mat_kwargs["isotherm"] = HailwoodHorrobinIsotherm(
            scale=_number(iso_scale, "material.isotherm_scale"))
    try:
        material = MaterialParams(**mat_kwargs)
    except Exception as exc:
        raise ScenarioError(f"invalid material: {exc}") from exc

    schedsec = _mapping(root.pop("schedule"), "schedule")
    points = _take(schedsec, "schedule", "breakpoints")
    _reject_unknown(schedsec, "schedule")
    if not isinstance(points, list) or not points:
        raise ScenarioError(
            "schedule.breakpoints must be a non-empty list of [t, T] pairs")
    times, temps = [], []
    for i, pair in enumerate(points):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(
                f"schedule.breakpoints[{i}] must be a [t, T] pair")
        times.append(_number(pair[0], f"schedule.breakpoints[{i}] time"))
        temps.append(_number(pair[1], f"schedule.breakpoints[{i}] temperature"))
    schedule = PressSchedule(times=tuple(times), temperatures=tuple(temps))

    initsec = _mapping(root.pop("initial"), "initial")
    t0 = _number(_take(initsec, "initial", "temperature"),
                 "initial.temperature")
    h0 = _number(_take(initsec, "initial", "moisture"), "initial.moisture")
    rho_a0 = _number(_take(initsec, "initial", "air_density"),
                     "initial.air_density")
    _reject_unknown(initsec, "initial")

    ambsec = _mapping(root.pop("ambient"), "ambient")
    t_atm = _number(_take(ambsec, "ambient", "temperature"),
                    "ambient.temperature")
    hr_atm = _number(_take(ambsec, "ambient", "relative_humidity"),
                     "ambient.relative_humidity")
    p_atm = _take(ambsec, "ambient", "pressure", required=False,
                  default=101325.0)
    p_atm = _number(p_atm, "ambient.pressure")
    _reject_unknown(ambsec, "ambient")

    sealed = False
    if "boundary" in root:
        bndsec = _mapping(root.pop("boundary"), "boundary")
        sealed = _take(bndsec, "boundary", "sealed_radius", required=False,
                       default=False)
        _reject_unknown(bndsec, "boundary")
        if not isinstance(sealed, bool):
            raise ScenarioError("boundary.sealed_radius must be a boolean")

    solver_kwargs = {}
    if "solver" in root:
        solsec = _mapping(root.pop("solver"), "solver")
        for key in _SOLVER_KEYS:
            if key in solsec:
                solver_kwargs[key] = solsec.pop(key)
        _reject_unknown(solsec, "solver")
        if "output_times" in solver_kwargs:
            raw = solver_kwargs["output_times"]
            if not isinstance(raw, list):
                raise ScenarioError(
                    "solver.output_times must be a list of times")
            solver_kwargs["output_times"] = tuple(
                _number(t, "solver.output_times entry") for t in raw)
    _reject_unknown(root, "config root")

    return Scenario(
        r_ext=r_ext, half_thickness=half, n_r=n_r, n_z=n_z,
        grading_ratio=grading, material=material, schedule=schedule,
        t0=t0, h0=h0, rho_a0=rho_a0, t_atm=t_atm, hr_atm=hr_atm,
        p_atm=p_atm, sealed_radius=sealed,
        solver=SolverConfig(**solver_kwargs),
    )


def save_scenario(scenario):
    """Serialize a scenario to YAML text; inverse of :func:`load_scenario`.

    Every field is written explicitly (including solver defaults), so
    the round trip ``load_scenario(save_scenario(s)) == s`` is exact.
    """
    mat = scenario.material
    doc = {
        "geometry": {
            "r_ext": scenario.r_ext,
            "half_thickness": scenario.half_thickness,
        },
        "mesh": {
            "n_r": scenario.n_r,
            "n_z": scenario.n_z,
            "grading_ratio": scenario.grading_ratio,
        },
        "material": {"rho_s": mat.rho_s,
                     **{key: getattr(mat, key) for key in _MATERIAL_OPTIONAL},
                     "isotherm_scale": mat.isotherm.scale},
        "schedule": {
            "breakpoints": [[t, temp] for t, temp in scenario.schedule.breakpoints],
        },
        "initial": {
            "temperature": scenario.t0,
            "moisture": scenario.h0,
            "air_density": scenario.rho_a0,
        },
        "ambient": {
            "temperature": scenario.t_atm,
            "relative_humidity": scenario.hr_atm,
            "pressure": scenario.p_atm,
        },
        "boundary": {
            "sealed_radius": scenario.sealed_radius,
        },
        # the output_times tuple is written as a list, in its place
        "solver": {**{key: getattr(scenario.solver, key) for key in _SOLVER_KEYS},
                   "output_times": list(scenario.solver.output_times)},
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def build_mesh(scenario):
    """Build the graded axisymmetric mesh described by ``scenario``."""
    return build_graded_mesh(scenario.r_ext, scenario.half_thickness,
                             scenario.n_r, scenario.n_z,
                             scenario.grading_ratio)


def build_system(scenario, mesh=None):
    """Assemble the discrete press system for ``scenario``.

    Parameters
    ----------
    scenario : Scenario
    mesh : Mesh, optional
        Reuse an existing mesh (must match the scenario geometry);
        built from the scenario when omitted.

    Returns
    -------
    PressSystem
        The assembled system; its mesh is available as ``system.mesh``.
    """
    if mesh is None:
        mesh = build_mesh(scenario)
    return PressSystem(mesh, scenario.material, scenario.schedule,
                       scenario.ambient, sealed_radius=scenario.sealed_radius)


def initial_state(scenario, mesh):
    """Uniform initial state vector ``(t0, h0, rho_a0)`` at every node.

    Warns (without altering the state) when the initial moisture is more
    than 0.5 percentage points away from the sorption equilibrium with
    the ambient air, since the rim boundary then drives an immediate
    moisture transient.
    """
    emc = scenario.material.isotherm.emc(scenario.t_atm, scenario.hr_atm)
    if abs(emc - scenario.h0) > 0.5:   # percentage points of moisture
        warnings.warn(
            f"initial moisture {scenario.h0:g} % is not in equilibrium with "
            f"the ambient air (sorption balance gives {emc:.2f} % at "
            f"{scenario.t_atm:g} degC / {scenario.hr_atm:g} % RH)",
            stacklevel=2)
    n = mesh.n_nodes
    return pack_state(np.full(n, scenario.t0), np.full(n, scenario.h0),
                      np.full(n, scenario.rho_a0))


def run_scenario(scenario, mesh=None, log=None, store_all=None):
    """Build, initialize and time-integrate ``scenario`` in one call.

    Parameters
    ----------
    scenario : Scenario
    mesh : Mesh, optional
        Reuse an existing mesh.
    log : callable, optional
        Receives one diagnostic line per step.
    store_all : bool, optional
        Override ``scenario.solver.store_all``.

    Returns
    -------
    (PressSystem, TransientResult)
    """
    system = build_system(scenario, mesh)
    u0 = initial_state(scenario, system.mesh)
    cfg = scenario.solver
    result = run_transient(
        system, u0, t_end=cfg.t_end, dt=cfg.dt, scheme=cfg.scheme,
        output_times=cfg.output_times, opts=cfg.newton_options(),
        store_all=cfg.store_all if store_all is None else store_all,
        log=log)
    return system, result


def with_overrides(scenario, dt=None, t_end=None, scheme=None):
    """Copy ``scenario`` with selected solver knobs replaced.

    Used by the command line, where flags take precedence over the
    scenario document.  ``None`` keeps the existing value.
    """
    changes = {}
    if dt is not None:
        changes["dt"] = dt
    if t_end is not None:
        changes["t_end"] = t_end
    if scheme is not None:
        changes["scheme"] = scheme
    if not changes:
        return scenario
    return replace(scenario, solver=replace(scenario.solver, **changes))
