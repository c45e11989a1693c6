"""Declarative configuration of one hot-press simulation case.

A :class:`Scenario` bundles everything needed to reproduce a run: board
geometry, mesh controls, material constants, the platen temperature
program, initial and ambient conditions, and the solver configuration
(:class:`~hotpress.solver.SolverConfig`, defined with the solver that
reads it and re-exported here).  Scenarios load from and save to a small
YAML document (grammar in the README); :func:`humphrey_preset` returns
the built-in ``humphrey`` demonstration case (a 0.2828 m radius, 15 mm
thick board heated from 30 to 160 degC and held for 400 s).

Physical fields carry no defaults — every case states its geometry,
material, schedule, and initial/ambient conditions explicitly.  The two
exceptions are documented: ambient pressure defaults to one standard
atmosphere, and the numerical knobs in :class:`SolverConfig` default to
the values used throughout the test suite.

One table, ``_FORMAT``, maps each YAML key to the field it holds and
drives load, save and error messages.  A bad field is reported by its
dotted key: a malformed one (every numeric key must be a number, every
flag a boolean) as ``solver.dt must be a number``, and an out-of-range
one, which the dataclass names by attribute (``t0``), as
``initial.temperature must be above absolute zero``.
"""

import warnings
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np
import yaml

from .assembly import N_VARS, PressSystem, pack_state
from .errors import HotPressError, ScenarioError
from .mesh import build_graded_mesh
from .properties import (
    CALIBRATED_ISOTHERM,
    KELVIN,
    HailwoodHorrobinIsotherm,
    MaterialParams,
    saturated_vapor_pressure,
)
from .solver import SolverConfig, run_transient

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
            raise ScenarioError(
                "schedule times and temperatures must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ScenarioError("schedule times must be strictly increasing")
        if np.any(temp <= -KELVIN):
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
        Constitutive constants for the board; building them fixes its
        porosity and permeability and refuses a board without pores.
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
            try:
                count = int(value)
            except (TypeError, ValueError, OverflowError):  # nan, inf, text
                count = 0
            if not (count >= 1 and count == value):
                raise ScenarioError(f"{name} must be a positive integer")
            object.__setattr__(self, name, count)
        # numpy cannot make an array of more than intp-max bytes, so a mesh
        # whose state vector is larger is a bad count, not a lack of memory
        n_dofs = N_VARS * (self.n_r + 1) * (self.n_z + 1)
        if n_dofs * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            name = "n_r" if self.n_r >= self.n_z else "n_z"
            raise ScenarioError(f"{name} is too large: the mesh has more "
                                "unknowns than an array can hold")
        if not isinstance(self.material, MaterialParams):
            raise ScenarioError("material must be a MaterialParams instance")
        if not isinstance(self.schedule, PressSchedule):
            raise ScenarioError("schedule must be a PressSchedule instance")
        if not isinstance(self.solver, SolverConfig):
            raise ScenarioError("solver must be a SolverConfig instance")
        for name in ("t0", "t_atm"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > -KELVIN):
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
            raise ScenarioError("p_atm must exceed the ambient vapor "
                                f"pressure ({p_v_atm:.3g} N/m2)")
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

def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def _flag(value, where):
    if not isinstance(value, bool):
        raise ScenarioError(f"{where} must be a boolean")
    return value


def _text(value, where):
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be text, got {value!r}")
    return value


def _times(value, where):
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list of times")
    return tuple(_number(t, f"{where} entry") for t in value)


def _schedule(value, where):
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a non-empty list of [t, T] pairs")
    times, temps = [], []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{where}[{i}] must be a [t, T] pair")
        times.append(_number(pair[0], f"{where}[{i}] time"))
        temps.append(_number(pair[1], f"{where}[{i}] temperature"))
    return PressSchedule(times=tuple(times), temperatures=tuple(temps))


def _isotherm(value, where):
    if value is None:  # null keeps the calibrated surface
        return CALIBRATED_ISOTHERM
    return HailwoodHorrobinIsotherm(scale=_number(value, where))


def _same(value):
    return value


# the reader (YAML value, dotted key) -> field value and the writer
# field value -> YAML value of each annotated field type
_CODECS = {
    float: (_number, _same), int: (_number, _same), bool: (_flag, _same),
    str: (_text, _same), tuple: (_times, list),
    PressSchedule: (_schedule, lambda s: [list(p) for p in s.breakpoints]),
    HailwoodHorrobinIsotherm: (_isotherm, lambda iso: iso.scale),
}


# one YAML key: the field ``name`` of ``owner`` it holds, its reader and
# writer, and whether it is required (the field has no default)
_Row = namedtuple("_Row", "owner name read write required")


def _section(owner, *names, **renamed):
    """YAML key -> _Row for fields of ``owner``.  Each of ``names`` is its
    own key, and ``...`` stands for every field of ``owner`` in declaration
    order; ``renamed`` maps a YAML key to its field."""
    spec, hints = {f.name: f for f in fields(owner)}, get_type_hints(owner)
    key_of = {name: key for key, name in renamed.items()}
    chosen = spec if names == (...,) else [*names, *key_of]
    return {key_of.get(name, name): _Row(
        owner, name, *_CODECS[hints[name]],
        spec[name].default is MISSING and spec[name].default_factory is MISSING)
        for name in chosen}


# The scenario format: section -> YAML key -> row.  A section is required
# when one of its fields has no default.
_FORMAT = {
    "geometry": _section(Scenario, "r_ext", "half_thickness"),
    "mesh": _section(Scenario, "n_r", "n_z", "grading_ratio"),
    "material": _section(MaterialParams, ..., isotherm_scale="isotherm"),
    "schedule": _section(Scenario, breakpoints="schedule"),
    "initial": _section(Scenario, temperature="t0", moisture="h0",
                        air_density="rho_a0"),
    "ambient": _section(Scenario, temperature="t_atm",
                        relative_humidity="hr_atm", pressure="p_atm"),
    "boundary": _section(Scenario, "sealed_radius"),
    "solver": _section(SolverConfig, ...),
}
# field name -> dotted key; no field name occurs in two classes
_KEY_OF = {row.name: f"{section}.{key}"
           for section, rows in _FORMAT.items() for key, row in rows.items()}
# keys of earlier files that never changed a result: accepted, ignored
_IGNORED = {"material.mm_water", "solver.store_all"}


def _keyed(exc, dotted):
    """``exc`` as a ScenarioError that starts with ``dotted``, which takes
    the place of the field name a class's message starts with."""
    message = str(exc)
    if not message.startswith(dotted):
        message = f"{dotted} {message.partition(' ')[2]}"
    return ScenarioError(message)


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
        message names the field concerned by its dotted key.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"config parse error{where}: {exc}") from exc
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a mapping of fields")
    missing = [section for section, rows in _FORMAT.items() if section not in doc
               and any(row.required for row in rows.values())]
    if missing:
        raise ScenarioError("missing required section(s): " + ", ".join(missing))

    kwargs = {Scenario: {}, MaterialParams: {}, SolverConfig: {}}
    unknown = [str(key) for key in doc if key not in _FORMAT]
    for section, rows in _FORMAT.items():
        table = doc.get(section, {})
        if not isinstance(table, dict):
            raise ScenarioError(f"{section} must be a mapping of fields")
        for key, row in rows.items():
            where = f"{section}.{key}"
            if key in table:
                try:
                    kwargs[row.owner][row.name] = row.read(table.pop(key), where)
                except HotPressError as exc:
                    raise _keyed(exc, where) from exc
            elif row.required:
                raise ScenarioError(f"missing required field {where}")
        unknown += [f"{section}.{key}" for key in table
                    if f"{section}.{key}" not in _IGNORED]
    if unknown:
        raise ScenarioError("unknown field(s): " + ", ".join(sorted(unknown)))
    try:
        return Scenario(material=MaterialParams(**kwargs[MaterialParams]),
                        solver=SolverConfig(**kwargs[SolverConfig]),
                        **kwargs[Scenario])
    except HotPressError as exc:
        head = str(exc).partition(" ")[0]
        raise _keyed(exc, _KEY_OF.get(head, head)) from exc


def save_scenario(scenario):
    """Serialize a scenario to YAML text; inverse of :func:`load_scenario`.

    Every field is written explicitly (including solver defaults), so
    the round trip ``load_scenario(save_scenario(s)) == s`` is exact.
    """
    owners = {Scenario: scenario, MaterialParams: scenario.material,
              SolverConfig: scenario.solver}
    doc = {section: {key: row.write(getattr(owners[row.owner], row.name))
                     for key, row in rows.items()}
           for section, rows in _FORMAT.items()}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def build_mesh(scenario):
    """Build the graded axisymmetric mesh described by ``scenario``."""
    return build_graded_mesh(scenario.r_ext, scenario.half_thickness,
                             scenario.n_r, scenario.n_z,
                             scenario.grading_ratio)


def build_system(scenario):
    """Assemble the discrete press system for ``scenario`` on the mesh
    that :func:`build_mesh` builds from it.

    Parameters
    ----------
    scenario : Scenario

    Returns
    -------
    PressSystem
        The assembled system; its mesh is available as ``system.mesh``.
    """
    return PressSystem(build_mesh(scenario), scenario.material, scenario.schedule,
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


def run_scenario(scenario, log=None, store_all=False):
    """Build, initialize and time-integrate ``scenario`` in one call.

    Parameters
    ----------
    scenario : Scenario
    log : callable, optional
        Receives one diagnostic line per step.
    store_all : bool, optional
        Keep every accepted state (see :func:`run_transient`).

    Returns
    -------
    (PressSystem, TransientResult)
    """
    system = build_system(scenario)
    u0 = initial_state(scenario, system.mesh)
    return system, run_transient(system, u0, scenario.solver, log=log,
                                 store_all=store_all)
