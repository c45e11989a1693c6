"""Tests for scenario configuration, presets and serialization."""

import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hotpress.errors import DomainError, ScenarioError
from hotpress.properties import (CALIBRATED_ISOTHERM, HailwoodHorrobinIsotherm,
                                 MaterialParams)
from hotpress.scenario import (
    _FORMAT,
    PressSchedule,
    Scenario,
    SolverConfig,
    build_mesh,
    build_system,
    humphrey_preset,
    initial_state,
    load_scenario,
    run_scenario,
    save_scenario,
)


class TestPressSchedule:
    def test_linear_ramp_midpoint(self):
        sched = PressSchedule(times=(0.0, 72.0), temperatures=(30.0, 160.0))
        got = float(sched(36.0))
        assert got == pytest.approx(95.0), \
            f"midpoint of the ramp should be 95 degC, got {got}"

    def test_holds_after_last_breakpoint(self):
        sched = PressSchedule(times=(0.0, 72.0), temperatures=(30.0, 160.0))
        assert float(sched(400.0)) == 160.0, \
            "temperature should hold constant after the ramp ends"

    def test_holds_before_first_breakpoint(self):
        sched = PressSchedule(times=(10.0, 72.0), temperatures=(30.0, 160.0))
        assert float(sched(0.0)) == 30.0, \
            "temperature should hold constant before the first breakpoint"

    def test_vectorized_evaluation(self):
        sched = PressSchedule(times=(0.0, 72.0), temperatures=(30.0, 160.0))
        got = sched(np.array([0.0, 36.0, 72.0, 100.0]))
        assert np.allclose(got, [30.0, 95.0, 160.0, 160.0]), \
            f"vectorized schedule evaluation wrong: {got}"

    def test_breakpoints_property(self):
        sched = PressSchedule(times=(0.0, 72.0), temperatures=(30.0, 160.0))
        assert sched.breakpoints == ((0.0, 30.0), (72.0, 160.0))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            PressSchedule(times=(0.0, 72.0, 72.0),
                          temperatures=(30.0, 160.0, 160.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ScenarioError, match="same length"):
            PressSchedule(times=(0.0, 72.0), temperatures=(30.0,))

    def test_rejects_empty(self):
        with pytest.raises(ScenarioError, match="breakpoint"):
            PressSchedule(times=(), temperatures=())

    def test_rejects_sub_absolute_zero(self):
        with pytest.raises(ScenarioError, match="absolute zero"):
            PressSchedule(times=(0.0,), temperatures=(-300.0,))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.dt == 1.0 and cfg.scheme == "implicit"
        # the Newton stopping rule is held in class constants, which stay
        # readable on an instance
        assert cfg.newton_tol_rel == 1e-10 and cfg.newton_tol_abs == 5e-14
        assert cfg.newton_max_iter == 15

    def test_output_times_sorted_and_deduplicated(self):
        cfg = SolverConfig(output_times=(400.0, 1.0, 10.0, 1.0))
        assert cfg.output_times == (1.0, 10.0, 400.0), \
            f"output times should come back sorted and unique: {cfg.output_times}"

    def test_zero_t_end_allowed(self):
        assert SolverConfig(t_end=0.0).t_end == 0.0, \
            "t_end = 0 must be accepted (initial-state-only runs)"

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ScenarioError, match="dt"):
            SolverConfig(dt=0.0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ScenarioError, match="scheme"):
            SolverConfig(scheme="leapfrog")

    def test_rejects_zero_output_time(self):
        with pytest.raises(ScenarioError, match="output_times"):
            SolverConfig(output_times=(0.0, 10.0))


class TestScenarioValidation:
    def test_negative_initial_moisture_names_field(self):
        with pytest.raises(ScenarioError, match="h0 must be non-negative"):
            replace(humphrey_preset(), h0=-1.0)

    def test_humidity_out_of_range(self):
        with pytest.raises(ScenarioError, match="hr_atm"):
            replace(humphrey_preset(), hr_atm=130.0)

    def test_non_positive_radius(self):
        with pytest.raises(ScenarioError, match="r_ext"):
            replace(humphrey_preset(), r_ext=0.0)

    def test_non_integer_element_count(self):
        with pytest.raises(ScenarioError, match="n_r"):
            replace(humphrey_preset(), n_r=2.5)

    @pytest.mark.parametrize("value", [2**70, 10**400, float("inf"),
                                       float("nan"), "5", None])
    def test_count_beyond_any_array_or_not_a_number(self, value):
        with pytest.raises(ScenarioError, match="^n_r "):
            replace(humphrey_preset(), n_r=value)

    def test_larger_count_is_the_one_named(self):
        with pytest.raises(ScenarioError, match="^n_z is too large"):
            replace(humphrey_preset(), n_r=2**40, n_z=2**41)

    @pytest.mark.parametrize("name", ["material", "schedule", "solver"])
    def test_section_object_of_wrong_type(self, name):
        with pytest.raises(ScenarioError,
                           match=f"^{name} must be a .* instance"):
            replace(humphrey_preset(), **{name: {}})

    def test_sub_absolute_zero_initial_temperature(self):
        with pytest.raises(ScenarioError, match="t0"):
            replace(humphrey_preset(), t0=-400.0)

    def test_supersaturated_ambient_rejected(self):
        # at 100 degC the saturation pressure is about one atmosphere, so
        # 100 % humidity at a 0.5 atm total pressure cannot hold
        with pytest.raises(ScenarioError, match="vapor pressure"):
            replace(humphrey_preset(), t_atm=100.0, hr_atm=100.0,
                    p_atm=50000.0)

    def test_ambient_triple(self):
        sc = humphrey_preset()
        assert sc.ambient == (30.0, 65.0, 101325.0)


def _number_fields():
    """One param per number field of the five configuration classes: a
    function that makes the class from that field's value, the error it
    raises and a pattern of the start of its message."""
    preset = humphrey_preset()

    def row(owner, name, build, error, start=None):
        return pytest.param(build, error, start or f"{name} ",
                            id=f"{owner}.{name}")

    return [
        *(row("Scenario", name,
              lambda v, name=name: replace(preset, **{name: v}), ScenarioError)
          for name in ("r_ext", "half_thickness", "n_r", "n_z",
                       "grading_ratio", "t0", "h0", "rho_a0", "t_atm",
                       "hr_atm", "p_atm")),
        *(row("SolverConfig", name,
              lambda v, name=name: SolverConfig(**{name: v}), ScenarioError)
          for name in ("dt", "t_end")),
        row("SolverConfig", "output_times",
            lambda v: SolverConfig(output_times=(1.0, v)), ScenarioError),
        row("PressSchedule", "times",
            lambda v: PressSchedule((0.0, v), (30.0, 160.0)), ScenarioError,
            "schedule times "),
        # a non-finite entry is reported for both sequences at once
        row("PressSchedule", "temperatures",
            lambda v: PressSchedule((0.0, 72.0), (30.0, v)), ScenarioError,
            "schedule (times and )?temperatures "),
        *(row("MaterialParams", name,
              lambda v, name=name: MaterialParams(**{"rho_s": 586.0, name: v}),
              DomainError)
          for name in ("rho_s", "kappa_anisotropy", "perm_anisotropy",
                       "rho_f", "rho_r", "y_r")),
        row("HailwoodHorrobinIsotherm", "scale",
            lambda v: HailwoodHorrobinIsotherm(scale=v), DomainError),
    ]


class TestFieldChecks:
    """Each class checks its own fields, type included, so a case built
    in Python meets the errors a YAML file does."""

    @pytest.mark.parametrize("value", ["1", None, True, 10**400, float("nan")],
                             ids=["text", "None", "bool", "10**400", "nan"])
    @pytest.mark.parametrize("build, error, start", _number_fields())
    def test_bad_number_refused_by_name(self, build, error, start, value):
        with pytest.raises(error, match=f"^{start}"):
            build(value)

    @pytest.mark.parametrize("value", ["no", "yes", 1, None])
    def test_sealed_radius_must_be_a_boolean(self, value):
        with pytest.raises(ScenarioError,
                           match="^sealed_radius must be a boolean"):
            replace(humphrey_preset(), sealed_radius=value)

    def test_material_isotherm_must_be_an_isotherm(self):
        with pytest.raises(DomainError, match="^isotherm must be a "):
            MaterialParams(rho_s=586.0, isotherm=None)

    def test_numpy_scalars_stored_as_python_numbers(self):
        f = np.float64
        sc = replace(
            humphrey_preset(), r_ext=f(0.2828), n_r=np.int64(20),
            t0=f(30.0), hr_atm=np.float32(65.0), sealed_radius=np.bool_(True),
            material=MaterialParams(
                rho_s=f(586.0), y_r=f(0.085),
                isotherm=HailwoodHorrobinIsotherm(scale=f(1.0))),
            schedule=PressSchedule(np.array([0.0, 72.0]),
                                   np.array([30.0, 160.0])),
            solver=SolverConfig(dt=f(1.0), t_end=np.int64(10),
                                scheme=np.str_("explicit"),
                                output_times=[f(5.0), f(1.0)]))
        assert load_scenario(save_scenario(sc)) == sc
        assert type(sc.n_r) is int and type(sc.sealed_radius) is bool
        assert type(sc.solver.scheme) is str
        numbers = [sc.r_ext, sc.t0, sc.hr_atm, sc.material.rho_s,
                   sc.material.y_r, sc.material.isotherm.scale, sc.solver.dt,
                   sc.solver.t_end, *sc.solver.output_times,
                   *sc.schedule.times, *sc.schedule.temperatures]
        assert {type(x) for x in numbers} == {float}

    def test_schedule_must_be_one_dimensional(self):
        with pytest.raises(ScenarioError, match="^schedule needs"):
            PressSchedule(((0.0, 1.0),), ((30.0, 40.0),))


class TestHumphreyPreset:
    def test_geometry(self):
        sc = humphrey_preset()
        assert sc.r_ext == 0.2828, f"preset radius wrong: {sc.r_ext}"
        assert sc.half_thickness == 0.0075, \
            f"preset half thickness wrong: {sc.half_thickness}"

    def test_mesh_controls(self):
        sc = humphrey_preset()
        assert (sc.n_r, sc.n_z, sc.grading_ratio) == (20, 20, 4.0)

    def test_schedule_ramp(self):
        sc = humphrey_preset()
        assert sc.schedule.breakpoints == ((0.0, 30.0), (72.0, 160.0)), \
            "preset should ramp 30 -> 160 degC over 72 s"

    def test_initial_conditions(self):
        sc = humphrey_preset()
        assert (sc.t0, sc.h0, sc.rho_a0) == (30.0, 11.0, 1e-6)

    def test_ambient_conditions(self):
        sc = humphrey_preset()
        assert (sc.t_atm, sc.hr_atm, sc.p_atm) == (30.0, 65.0, 101325.0)

    def test_material_density(self):
        sc = humphrey_preset()
        assert sc.material.rho_s == 586.0
        assert sc.material.porosity == pytest.approx(0.3582, abs=1e-4)

    def test_solver_settings(self):
        sc = humphrey_preset()
        assert sc.solver.dt == 1.0
        assert sc.solver.scheme == "implicit"
        assert sc.solver.t_end == 400.0
        assert sc.solver.output_times == \
            (1.0, 10.0, 50.0, 100.0, 200.0, 300.0, 400.0)

    def test_open_rim(self):
        assert humphrey_preset().sealed_radius is False


@st.composite
def _scenarios(draw):
    """Scenarios with every field the YAML format holds drawn at random."""
    board = draw(st.fixed_dictionaries(dict(
        rho_s=st.floats(200.0, 1200.0),
        kappa_anisotropy=st.floats(0.1, 100.0),
        perm_anisotropy=st.floats(0.1, 100.0),
        rho_f=st.floats(500.0, 2000.0), rho_r=st.floats(500.0, 2000.0),
        y_r=st.floats(0.0, 0.5),
        isotherm=st.builds(HailwoodHorrobinIsotherm,
                           scale=st.floats(0.1, 10.0)))))
    assume(_has_pores(board))  # MaterialParams refuses the others
    material = MaterialParams(**board)
    points = sorted(draw(st.lists(
        st.tuples(st.floats(0.0, 1e4), st.floats(-273.0, 1e3)),
        min_size=1, max_size=4, unique_by=lambda p: p[0])))
    solver = draw(st.builds(
        SolverConfig, dt=st.floats(1e-6, 1e4), t_end=st.floats(0.0, 1e5),
        output_times=st.lists(st.floats(1e-6, 1e5), max_size=5).map(tuple),
        scheme=st.sampled_from(("implicit", "explicit"))))
    # below 90 degC saturated air holds under 0.71 atm of vapor, so no
    # drawn ambient is super-saturated
    return draw(st.builds(
        Scenario, r_ext=st.floats(1e-4, 10.0),
        half_thickness=st.floats(1e-4, 1.0), n_r=st.integers(1, 1000),
        n_z=st.integers(1, 1000), grading_ratio=st.floats(0.01, 100.0),
        material=st.just(material),
        schedule=st.just(PressSchedule(*zip(*points))),
        t0=st.floats(-273.0, 1e3), h0=st.floats(0.0, 100.0),
        rho_a0=st.floats(0.0, 10.0), t_atm=st.floats(-50.0, 90.0),
        hr_atm=st.floats(0.0, 100.0), p_atm=st.floats(1e5, 1e6),
        sealed_radius=st.booleans(), solver=st.just(solver)))


# scenario keys of earlier files whose values are now fixed, with the
# values the preset's file held
REMOVED_KEYS = {
    "solver.fd_epsilon_rel": 1e-7, "solver.newton_tol_rel": 1e-10,
    "solver.newton_tol_abs": 5e-14, "solver.newton_max_iter": 15,
    "material.r_gas": 8314.0, "material.mm_air": 28.96,
    "material.cp_vapor": 1880.0, "material.porosity_model": "suzuki",
    "material.bulk_density": None, "material.perm_table_path": None,
}


class TestSerialization:
    def test_round_trip_is_lossless(self):
        sc = humphrey_preset()
        again = load_scenario(save_scenario(sc))
        assert again == sc, "round-tripped scenario differs from the original"

    def test_round_trip_with_non_default_fields(self):
        sc = replace(
            humphrey_preset(), n_r=7, grading_ratio=2.5, sealed_radius=True,
            material=MaterialParams(rho_s=700.0, rho_f=950.0, y_r=0.1),
            solver=SolverConfig(dt=0.5, scheme="explicit", t_end=3.0,
                                output_times=(1.0, 3.0)),
        )
        again = load_scenario(save_scenario(sc))
        assert again == sc, "non-default fields lost in the round trip"

    def test_empty_document_lists_required_sections(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario("")
        msg = str(err.value)
        for section in ("geometry", "mesh", "material", "schedule",
                        "initial", "ambient"):
            assert section in msg, \
                f"empty-config error should list section {section!r}: {msg}"

    def test_missing_section_named(self):
        text = save_scenario(humphrey_preset())
        text = text.replace("ambient:", "ambient_typo:")
        with pytest.raises(ScenarioError, match="ambient"):
            load_scenario(text)

    def test_missing_field_named(self):
        text = save_scenario(humphrey_preset()).replace(
            "  half_thickness: 0.0075\n", "")
        with pytest.raises(ScenarioError,
                           match="geometry.half_thickness"):
            load_scenario(text)

    def test_unknown_field_rejected(self):
        text = save_scenario(humphrey_preset()).replace(
            "geometry:\n", "geometry:\n  radius_typo: 1.0\n")
        with pytest.raises(ScenarioError, match="radius_typo"):
            load_scenario(text)

    @pytest.mark.parametrize("dotted, value", REMOVED_KEYS.items())
    def test_removed_key_rejected(self, dotted, value):
        # each is fixed now; ignoring the key would drop, without a word,
        # a value that could change results
        with pytest.raises(ScenarioError, match=r"unknown field\(s\): "
                           + dotted.replace(".", r"\.") + "$"):
            load_scenario(_with_field(dotted, value))

    def test_saved_file_holds_no_constant(self):
        doc = yaml.safe_load(save_scenario(humphrey_preset()))
        assert list(doc["solver"]) == ["dt", "scheme", "t_end",
                                       "output_times"]
        for dotted in REMOVED_KEYS:
            section, key = dotted.split(".")
            assert key not in doc[section], dotted

    def test_negative_moisture_in_document(self):
        text = save_scenario(humphrey_preset()).replace(
            "  moisture: 11.0", "  moisture: -1.0")
        with pytest.raises(ScenarioError, match=r"^initial\.moisture "):
            load_scenario(text)

    def test_parse_error_reports_line(self):
        with pytest.raises(ScenarioError, match="line"):
            load_scenario("geometry: [unclosed\nmesh: {")

    def test_non_numeric_field_rejected(self):
        text = save_scenario(humphrey_preset()).replace(
            "  r_ext: 0.2828", "  r_ext: wide")
        with pytest.raises(ScenarioError, match="r_ext"):
            load_scenario(text)

    def test_ambient_pressure_optional(self):
        text = save_scenario(humphrey_preset()).replace(
            "  pressure: 101325.0\n", "")
        sc = load_scenario(text)
        assert sc.p_atm == 101325.0, \
            "ambient pressure should default to one atmosphere"

    def test_solver_section_optional(self):
        sc = humphrey_preset()
        text = save_scenario(sc)
        head = text.split("solver:")[0]
        loaded = load_scenario(head)
        assert loaded.solver == SolverConfig(), \
            "missing solver section should fall back to defaults"

    @pytest.mark.parametrize("section", ["solver", "boundary"])
    def test_empty_section_takes_the_defaults(self, section):
        preset = humphrey_preset()
        rows = yaml.safe_load(save_scenario(preset))[section]
        doc = save_scenario(preset).replace(
            yaml.safe_dump({section: rows}, sort_keys=False),
            f"{section}:\n" + "".join(f"  # {key}: ...\n" for key in rows))
        assert yaml.safe_load(doc)[section] is None
        expected = preset if section == "boundary" else \
            replace(preset, solver=SolverConfig())
        assert load_scenario(doc) == expected

    def test_empty_material_names_its_required_field(self):
        doc = yaml.safe_load(save_scenario(humphrey_preset()))
        doc["material"] = None
        with pytest.raises(ScenarioError,
                           match="^missing required field material.rho_s$"):
            load_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize("dotted, value", [
        ("material.mm_water", 18.0), ("solver.store_all", True)])
    def test_files_with_and_without_ignored_key_load(self, dotted, value):
        # earlier versions wrote these keys; each is accepted and ignored
        sc = humphrey_preset()
        text = save_scenario(sc)
        section, key = dotted.split(".")
        assert key not in yaml.safe_load(text)[section]
        old = _with_field(dotted, value)
        assert yaml.safe_load(old)[section][key] == value
        assert load_scenario(text) == sc
        assert load_scenario(old) == sc

    def test_null_isotherm_scale_is_the_calibrated_surface(self):
        sc = load_scenario(_with_field("material.isotherm_scale", None))
        assert sc.material.isotherm is CALIBRATED_ISOTHERM

    def test_isotherm_scale_round_trips(self):
        sc = humphrey_preset()
        again = load_scenario(save_scenario(sc))
        assert again.material.isotherm.scale == sc.material.isotherm.scale

    @settings(deadline=None, max_examples=60)
    @given(sc=_scenarios())
    def test_round_trip_property(self, sc):
        assert load_scenario(save_scenario(sc)) == sc

    def test_every_field_has_one_row(self):
        held = Counter((row.owner.__name__, row.name)
                       for rows in _FORMAT.values() for row in rows.values())
        # Scenario.material and Scenario.solver are sections, not rows
        expected = Counter(
            (cls.__name__, f.name)
            for cls in (Scenario, MaterialParams, SolverConfig)
            for f in fields(cls) if (cls, f.name) not in
            ((Scenario, "material"), (Scenario, "solver")))
        assert held == expected, \
            f"rows and dataclass fields differ: {held ^ expected}"
        names = Counter(name for _, name in held)
        assert max(names.values()) == 1, \
            "an error names its field only, so no two classes may share one"
        assert [f.name for f in fields(HailwoodHorrobinIsotherm)] == \
            ["scale"], "material.isotherm_scale holds only the scale"

    def test_readme_example_is_the_preset(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```yaml\n")[1].split("```")[0]
        preset = humphrey_preset()
        assert load_scenario(example) == replace(
            preset, solver=replace(preset.solver, output_times=())), \
            "the README example should be the humphrey preset"


def _has_pores(board):
    """Whether the board of the MaterialParams arguments ``board`` has
    pore space; MaterialParams refuses one that has none."""
    try:
        MaterialParams(**board)
    except DomainError:
        return False
    return True


def _with_field(dotted, value):
    """The preset's YAML text with one field replaced by ``value``."""
    section, key = dotted.split(".")
    doc = yaml.safe_load(save_scenario(humphrey_preset()))
    doc[section][key] = value
    return yaml.safe_dump(doc)


class TestMalformedFields:
    @pytest.mark.parametrize("dotted, value", [
        ("solver.dt", "abc"),
        ("solver.t_end", "10"),
        ("mesh.n_r", "abc"),
        ("mesh.n_r", True),
        ("mesh.n_z", None),
        ("material.kappa_anisotropy", "x"),
        ("mesh.n_r", 2e19),
        ("mesh.n_r", 1e300),
        ("boundary.sealed_radius", "yes"),
        ("solver.scheme", 5),
        ("solver.output_times", 5.0),
        ("schedule.breakpoints", []),
        ("schedule.breakpoints", [[0.0, 30.0, 1.0]]),
        ("schedule.breakpoints", [30.0]),
        ("schedule.breakpoints", [[float("nan"), 30.0]]),
    ])
    def test_rejected_with_field_named(self, dotted, value):
        with pytest.raises(ScenarioError, match=dotted.replace(".", r"\.")):
            load_scenario(_with_field(dotted, value))

    def test_non_finite_breakpoint_names_its_key_once(self):
        with pytest.raises(ScenarioError) as info:
            load_scenario(_with_field("schedule.breakpoints",
                                      [[0.0, float("inf")]]))
        assert str(info.value) == \
            "schedule.breakpoints times and temperatures must be finite"

    def test_root_must_be_a_mapping(self):
        with pytest.raises(ScenarioError,
                           match="^config root must be a mapping"):
            load_scenario("- 1\n- 2\n")

    @pytest.mark.parametrize("section", list(_FORMAT))
    def test_section_must_be_a_mapping(self, section):
        doc = yaml.safe_load(save_scenario(humphrey_preset()))
        doc[section] = [1, 2]
        with pytest.raises(ScenarioError,
                           match=f"^{section} must be a mapping"):
            load_scenario(yaml.safe_dump(doc))

    @pytest.mark.parametrize("dotted, value", [
        ("schedule.breakpoints", [["a", 30.0]]),
        ("schedule.breakpoints", [[0.0, 10**400]]),
        ("solver.output_times", ["a"]),
        ("solver.output_times", [10**400]),
        ("geometry.r_ext", 10**400),
        ("material.isotherm_scale", 10**400),
    ], ids=["breakpoint-text", "breakpoint-10**400", "output_time-text",
            "output_time-10**400", "r_ext-10**400", "isotherm_scale-10**400"])
    def test_malformed_number_names_its_key(self, dotted, value):
        with pytest.raises(ScenarioError,
                           match="^" + dotted.replace(".", r"\.") + " "):
            load_scenario(_with_field(dotted, value))

    @pytest.mark.parametrize("key", ["rho_s",
                                     "kappa_anisotropy", "perm_anisotropy",
                                     "rho_f", "rho_r", "y_r"])
    def test_out_of_range_material_named(self, key):
        with pytest.raises(ScenarioError, match=rf"^material\.{key} "):
            load_scenario(_with_field(f"material.{key}", -1.0))

    @pytest.mark.parametrize("dotted", ["mesh.n_r"])
    def test_non_finite_count_rejected(self, dotted):
        with pytest.raises(ScenarioError, match=dotted.split(".")[1]):
            load_scenario(_with_field(dotted, float("inf")))


class TestInitialState:
    def test_humphrey_uniform_triple(self):
        sc = humphrey_preset()
        mesh = build_mesh(sc)
        u0 = initial_state(sc, mesh)
        u0 = u0.reshape(-1, 3)
        assert u0.shape[0] == mesh.n_nodes
        assert np.all(u0[:, 0] == 30.0), "initial temperature not uniform"
        assert np.all(u0[:, 1] == 11.0), "initial moisture not uniform"
        assert np.all(u0[:, 2] == 1e-6), "initial air density not uniform"

    def test_single_node_degenerate_mesh(self):
        sc = humphrey_preset()
        u0 = initial_state(sc, SimpleNamespace(n_nodes=1))
        assert u0.shape == (3,), f"one node should give one triple: {u0.shape}"
        assert np.array_equal(u0, [30.0, 11.0, 1e-6])

    def test_no_warning_when_in_equilibrium(self):
        sc = humphrey_preset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            initial_state(sc, SimpleNamespace(n_nodes=4))

    def test_warns_when_far_from_equilibrium(self):
        sc = replace(humphrey_preset(), h0=20.0)
        with pytest.warns(UserWarning, match="not in equilibrium"):
            initial_state(sc, SimpleNamespace(n_nodes=4))


class TestBuildAndRun:
    def test_build_system_wires_scenario(self):
        sc = humphrey_preset()
        system = build_system(sc)
        assert system.mesh.n_nodes == 21 * 21
        assert system.sealed_radius is False
        assert float(system.platen_temperature(36.0)) == pytest.approx(95.0)

    def test_sealed_flag_propagates(self):
        sc = replace(humphrey_preset(), sealed_radius=True)
        assert build_system(sc).sealed_radius is True

    def test_run_scenario_short(self):
        sc = replace(humphrey_preset(), n_r=6, n_z=6,
                     solver=SolverConfig(dt=1.0, t_end=3.0,
                                         output_times=(2.0,)))
        system, result = run_scenario(sc)
        assert result.times[-1] == pytest.approx(3.0)
        assert 2.0 in result.outputs, "requested output time missing"
        assert system.mesh.n_nodes == 7 * 7
