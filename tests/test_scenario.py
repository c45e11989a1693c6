"""Tests for scenario configuration, presets and serialization."""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hotpress.errors import DomainError, ScenarioError
from hotpress.properties import MaterialParams
from hotpress.scenario import (
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
    with_overrides,
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
        assert cfg.newton_tol_rel == 1e-10
        assert cfg.newton_max_iter == 15
        assert cfg.fd_epsilon_rel == 1e-7

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

    def test_rejects_out_of_range_tolerance(self):
        with pytest.raises(ScenarioError, match="newton_tol_rel"):
            SolverConfig(newton_tol_rel=1.5)

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
        assert sc.material.porosity_model == "suzuki"

    def test_solver_settings(self):
        sc = humphrey_preset()
        assert sc.solver.dt == 1.0
        assert sc.solver.scheme == "implicit"
        assert sc.solver.t_end == 400.0
        assert sc.solver.output_times == \
            (1.0, 10.0, 50.0, 100.0, 200.0, 300.0, 400.0)

    def test_open_rim(self):
        assert humphrey_preset().sealed_radius is False


class TestSerialization:
    def test_round_trip_is_lossless(self):
        sc = humphrey_preset()
        again = load_scenario(save_scenario(sc))
        assert again == sc, "round-tripped scenario differs from the original"

    def test_round_trip_with_non_default_fields(self):
        sc = replace(
            humphrey_preset(), n_r=7, grading_ratio=2.5, sealed_radius=True,
            material=MaterialParams(rho_s=700.0, porosity_model="simple",
                                    bulk_density=650.0),
            solver=SolverConfig(dt=0.5, scheme="explicit", t_end=3.0,
                                output_times=(1.0, 3.0), store_all=True),
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

    def test_negative_moisture_in_document(self):
        text = save_scenario(humphrey_preset()).replace(
            "  moisture: 11.0", "  moisture: -1.0")
        with pytest.raises(ScenarioError, match="h0"):
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

    def test_files_with_and_without_mm_water_load(self):
        # earlier versions wrote material.mm_water; it is accepted and ignored
        sc = humphrey_preset()
        text = save_scenario(sc)
        assert "mm_water" not in text
        old = text.replace("material:\n", "material:\n  mm_water: 18.0\n")
        assert "mm_water: 18.0" in old
        assert load_scenario(text) == sc
        assert load_scenario(old) == sc

    def test_isotherm_scale_round_trips(self):
        sc = humphrey_preset()
        again = load_scenario(save_scenario(sc))
        assert again.material.isotherm.scale == sc.material.isotherm.scale

    @settings(deadline=None, max_examples=60)
    @given(
        dt=st.floats(1e-6, 1e4), t_end=st.floats(0.0, 1e5),
        output_times=st.lists(st.floats(1e-6, 1e5), max_size=5),
        tol_rel=st.floats(1e-16, 0.5), tol_abs=st.floats(1e-300, 0.5),
        max_iter=st.integers(1, 100), fd_epsilon_rel=st.floats(1e-12, 0.5),
        store_all=st.booleans(), scheme=st.sampled_from(("implicit",
                                                         "explicit")),
        rho_s=st.floats(200.0, 1200.0),
        bulk_density=st.none() | st.floats(200.0, 1200.0),
        kappa_anisotropy=st.floats(0.1, 100.0),
        porosity_model=st.sampled_from(("suzuki", "simple")))
    def test_round_trip_property(self, dt, t_end, output_times, tol_rel,
                                 tol_abs, max_iter, fd_epsilon_rel, store_all,
                                 scheme, rho_s, bulk_density,
                                 kappa_anisotropy, porosity_model):
        material = MaterialParams(rho_s=rho_s, bulk_density=bulk_density,
                                  kappa_anisotropy=kappa_anisotropy,
                                  porosity_model=porosity_model)
        assume(_has_pores(material))  # a scenario rejects the others
        sc = replace(
            humphrey_preset(), material=material,
            solver=SolverConfig(dt=dt, t_end=t_end,
                                output_times=tuple(output_times),
                                newton_tol_rel=tol_rel,
                                newton_tol_abs=tol_abs,
                                newton_max_iter=max_iter,
                                fd_epsilon_rel=fd_epsilon_rel,
                                store_all=store_all, scheme=scheme))
        assert load_scenario(save_scenario(sc)) == sc


def _has_pores(material):
    """Whether the board's porosity lies in (0, 1)."""
    try:
        return material.porosity_value() > 0.0
    except DomainError:
        return False


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
        ("solver.newton_tol_rel", "x"),
        ("solver.newton_tol_abs", [1e-14]),
        ("solver.fd_epsilon_rel", None),
        ("solver.newton_max_iter", "abc"),
        ("solver.newton_max_iter", True),
        ("solver.store_all", 3),
        ("solver.store_all", "yes"),
        ("mesh.n_r", "abc"),
        ("mesh.n_r", True),
        ("mesh.n_z", None),
        ("material.kappa_anisotropy", "x"),
        ("material.cp_vapor", True),
        ("material.bulk_density", "dense"),
    ])
    def test_rejected_with_field_named(self, dotted, value):
        with pytest.raises(ScenarioError, match=dotted.replace(".", r"\.")):
            load_scenario(_with_field(dotted, value))

    @pytest.mark.parametrize("key", ["rho_s", "bulk_density",
                                     "kappa_anisotropy", "perm_anisotropy",
                                     "cp_vapor", "mm_air", "r_gas", "rho_f",
                                     "rho_r", "y_r"])
    def test_out_of_range_material_named(self, key):
        with pytest.raises(ScenarioError, match=rf"^material\.{key} "):
            load_scenario(_with_field(f"material.{key}", -1.0))

    @pytest.mark.parametrize("dotted", ["solver.newton_max_iter", "mesh.n_r"])
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

    def test_build_system_reuses_mesh(self):
        sc = humphrey_preset()
        mesh = build_mesh(sc)
        system = build_system(sc, mesh)
        assert system.mesh is mesh

    def test_sealed_flag_propagates(self):
        sc = replace(humphrey_preset(), sealed_radius=True)
        assert build_system(sc).sealed_radius is True

    def test_with_overrides(self):
        sc = humphrey_preset()
        out = with_overrides(sc, dt=0.5, t_end=10.0, scheme="explicit")
        assert (out.solver.dt, out.solver.t_end, out.solver.scheme) == \
            (0.5, 10.0, "explicit")
        assert out.r_ext == sc.r_ext, "overrides must not touch the physics"
        assert with_overrides(sc) is sc, \
            "no overrides should return the scenario unchanged"

    def test_run_scenario_short(self):
        sc = replace(humphrey_preset(), n_r=6, n_z=6,
                     solver=SolverConfig(dt=1.0, t_end=3.0,
                                         output_times=(2.0,)))
        system, result = run_scenario(sc)
        assert result.times[-1] == pytest.approx(3.0)
        assert 2.0 in result.outputs, "requested output time missing"
        assert system.mesh.n_nodes == 7 * 7
