"""Tests for the command-line driver: outputs, exit codes, determinism."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hotpress import cli
from hotpress.errors import NewtonError
from hotpress.scenario import SolverConfig, humphrey_preset, save_scenario
from hotpress.verification import SUITE_NAMES, CheckResult

N_PROFILE_FILES = 8  # {T, H} x {axis, rim, mid-plane, platen}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    """A small, fast scenario saved to disk (5x4 mesh, 3 s run)."""
    sc = replace(humphrey_preset(), n_r=5, n_z=4,
                 solver=SolverConfig(dt=1.0, t_end=3.0,
                                     output_times=(1.0, 3.0)))
    path = tmp_path_factory.mktemp("scenario") / "small.yaml"
    path.write_text(save_scenario(sc))
    return path


@pytest.fixture(scope="module")
def ran_dir(tmp_path_factory, scenario_file):
    """One completed run of the small scenario, shared by format tests."""
    out = tmp_path_factory.mktemp("results")
    rc = cli.main(["run", "--scenario", str(scenario_file),
                   "--out", str(out)])
    assert rc == 0, f"small scenario run should succeed, exit code {rc}"
    return out


class TestRunOutputs:
    def test_file_inventory(self, ran_dir):
        snapshots = sorted(p.name for p in ran_dir.glob("snapshot_*.txt"))
        assert snapshots == ["snapshot_t00001.000s.txt",
                             "snapshot_t00003.000s.txt"], \
            f"one snapshot per output time expected, got {snapshots}"
        profiles = sorted(p.name for p in ran_dir.glob("profile_*.txt"))
        expected = sorted(f"profile_{key}_{label}.txt"
                          for key in ("T", "H")
                          for label in ("vs_z_axis", "vs_z_rim",
                                        "vs_r_midplane", "vs_r_platen"))
        assert profiles == expected, f"profile files wrong: {profiles}"
        assert (ran_dir / "run.log").is_file(), "run.log missing"
        n_files = len(list(ran_dir.iterdir()))
        assert n_files == 2 + N_PROFILE_FILES + 1, \
            f"expected exactly 11 output files, found {n_files}"

    def test_snapshot_names_sort_chronologically(self):
        times = [1.0, 3.0, 10.0, 100.0, 400.0]
        names = [cli._snapshot_name(t) for t in times]
        assert names == sorted(names), \
            "zero-padded snapshot names must sort in time order"

    def test_snapshot_format(self, ran_dir):
        path = ran_dir / "snapshot_t00001.000s.txt"
        first = path.read_text().splitlines()[0]
        assert first.startswith("# t=1.000000 s; columns: r[m] z[m] T[degC]"), \
            f"snapshot header wrong: {first}"
        data = np.loadtxt(path)
        assert data.shape == (6 * 5, 9), \
            f"one row per node, nine columns expected, got {data.shape}"

    def test_snapshot_platen_nodes_track_schedule(self, ran_dir):
        sched = humphrey_preset().schedule
        data = np.loadtxt(ran_dir / "snapshot_t00001.000s.txt")
        z_top = data[:, 1].max()
        platen_t = data[np.isclose(data[:, 1], z_top), 2]
        assert np.allclose(platen_t, float(sched(1.0))), \
            "platen rows of the snapshot must equal the schedule value"

    def test_snapshot_physical_columns(self, ran_dir):
        data = np.loadtxt(ran_dir / "snapshot_t00003.000s.txt")
        t_c, h, rho_a, p_v, p_tot = (data[:, i] for i in (2, 3, 4, 5, 6))
        assert np.all(h >= 0.0), "moisture column went negative"
        assert np.all(rho_a >= 0.0), "air density column went negative"
        assert np.all(p_v >= 0.0) and np.all(p_tot > 0.0), \
            "pressure columns must be non-negative"
        assert np.all(t_c > -273.15), "temperature below absolute zero"

    def test_profile_format(self, ran_dir):
        path = ran_dir / "profile_T_vs_r_midplane.txt"
        first = path.read_text().splitlines()[0]
        assert first == ("# T [degC] vs r midplane; columns: r[m] "
                         "then t[s] = 0 1 3"), \
            f"profile header wrong: {first}"
        data = np.loadtxt(path)
        assert data.shape == (5 + 1, 1 + 3), \
            f"one row per r-node, coord + 3 time columns, got {data.shape}"
        assert np.all(np.diff(data[:, 0]) > 0), \
            "profile coordinate column must increase"

    def test_profile_initial_columns_are_uniform(self, ran_dir):
        sc = humphrey_preset()
        t_prof = np.loadtxt(ran_dir / "profile_T_vs_z_axis.txt")
        h_prof = np.loadtxt(ran_dir / "profile_H_vs_z_axis.txt")
        assert np.allclose(t_prof[:, 1], sc.t0), \
            "t=0 temperature column should equal the uniform initial value"
        assert np.allclose(h_prof[:, 1], sc.h0), \
            "t=0 moisture column should equal the uniform initial value"

    def test_log_is_wall_clock_free(self, ran_dir):
        lines = (ran_dir / "run.log").read_text().splitlines()
        assert lines[-1] == "done t=3 steps=3", \
            f"final log line should drop the wall-clock part: {lines[-1]}"
        assert not any("wall=" in line for line in lines), \
            "run.log must not contain wall-clock times"
        steps = [line for line in lines if line.startswith("step ")]
        assert len(steps) == 3, f"expected 3 step lines, got {len(steps)}"

    def test_determinism(self, tmp_path, scenario_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        for out in (out_a, out_b):
            rc = cli.main(["run", "--scenario", str(scenario_file),
                           "--out", str(out)])
            assert rc == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b, "the two runs wrote different file sets"
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{name} differs between two identical runs"

    def test_t_end_zero_writes_initial_snapshot_only(self, tmp_path):
        rc = cli.main(["run", "--preset", "humphrey", "--out", str(tmp_path),
                       "--t-end", "0"])
        assert rc == 0, "t_end = 0 is a valid (trivial) run"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run.log", "snapshot_t00000.000s.txt"], \
            f"expected only the initial snapshot and the log, got {names}"
        data = np.loadtxt(tmp_path / "snapshot_t00000.000s.txt")
        sc = humphrey_preset()
        assert np.allclose(data[:, 2], sc.t0), \
            "the t=0 snapshot should hold the uniform initial temperature"

    def test_dt_and_t_end_overrides(self, tmp_path, scenario_file):
        rc = cli.main(["run", "--scenario", str(scenario_file),
                       "--out", str(tmp_path), "--dt", "0.5",
                       "--t-end", "2"])
        assert rc == 0
        snapshots = sorted(p.name for p in tmp_path.glob("snapshot_*.txt"))
        assert snapshots == ["snapshot_t00001.000s.txt"], \
            "only output times within the shortened run should be written"
        lines = (tmp_path / "run.log").read_text().splitlines()
        assert lines[-1] == "done t=2 steps=4", \
            f"4 steps of 0.5 s expected, log says: {lines[-1]}"


class TestRunErrors:
    def test_missing_out_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "does_not_exist"
        rc = cli.main(["run", "--preset", "humphrey", "--out", str(missing)])
        assert rc == 2, f"missing output directory should exit 2, got {rc}"
        assert not missing.exists(), "no partial output may be created"
        assert "does not exist" in capsys.readouterr().err

    def test_preset_and_scenario_are_exclusive(self, tmp_path, scenario_file,
                                               capsys):
        rc = cli.main(["run", "--preset", "humphrey",
                       "--scenario", str(scenario_file),
                       "--out", str(tmp_path)])
        assert rc == 2, "giving both --preset and --scenario is a usage error"
        assert "exactly one" in capsys.readouterr().err

    def test_neither_preset_nor_scenario(self, tmp_path, capsys):
        rc = cli.main(["run", "--out", str(tmp_path)])
        assert rc == 2, "giving neither --preset nor --scenario is an error"
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset_lists_available(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "nope", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "humphrey" in err, \
            f"the error should list available presets: {err}"

    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = cli.main(["run", "--scenario", str(tmp_path / "ghost.yaml"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_scenario_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("geometry: 7\n")
        rc = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2, "a malformed scenario document is a usage error"
        assert "error:" in capsys.readouterr().err

    def test_malformed_field_exits_2(self, tmp_path, scenario_file, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(scenario_file.read_text().replace(
            "  dt: 1.0\n", "  dt: abc\n"))
        assert "dt: abc" in bad.read_text()
        rc = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2, f"a malformed field is a usage error, got exit {rc}"
        assert "solver.dt" in capsys.readouterr().err

    def test_out_of_range_material_exits_2(self, tmp_path, scenario_file,
                                           capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(scenario_file.read_text().replace(
            "  kappa_anisotropy: 1.5\n", "  kappa_anisotropy: -1.0\n"))
        assert "kappa_anisotropy: -1.0" in bad.read_text()
        rc = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2, f"an out-of-range constant is a usage error, got {rc}"
        assert "material.kappa_anisotropy" in capsys.readouterr().err

    @pytest.mark.parametrize("material, field", [
        ({"porosity_model": "simple"}, "material.bulk_density"),  # porosity 0
        ({"rho_s": 1200.0}, "material.rho_s"),          # Suzuki porosity -0.31
        ({"porosity_model": "simple", "bulk_density": 700.0},
         "material.bulk_density"),
        ({"isotherm_scale": -1.0}, "material.isotherm_scale"),
        ({"isotherm_scale": 0.0}, "material.isotherm_scale"),
    ])
    def test_unphysical_material_exits_2(self, tmp_path, scenario_file,
                                         capsys, material, field):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["material"].update(material)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        rc = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path),
                       "--t-end", "1"])
        assert rc == 2, f"an unphysical material is a usage error, got {rc}"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}"), err
        assert list(tmp_path.iterdir()) == [bad], "no output may be written"

    @pytest.mark.parametrize("section, changes, key", [
        ("initial", {"temperature": -400.0}, "initial.temperature"),
        ("initial", {"air_density": -1.0}, "initial.air_density"),
        ("ambient", {"relative_humidity": 130.0}, "ambient.relative_humidity"),
        ("ambient", {"pressure": -5.0}, "ambient.pressure"),
        ("ambient", {"temperature": float("inf")}, "ambient.temperature"),
        ("geometry", {"r_ext": -1.0}, "geometry.r_ext"),
        ("mesh", {"n_r": 0}, "mesh.n_r"),
        ("mesh", {"grading_ratio": 0}, "mesh.grading_ratio"),
        ("solver", {"dt": 0}, "solver.dt"),
        ("solver", {"newton_tol_rel": 2}, "solver.newton_tol_rel"),
        ("solver", {"output_times": [0.0]}, "solver.output_times"),
        ("solver", {"scheme": "leapfrog"}, "solver.scheme"),
        ("schedule", {"breakpoints": [[0, 30], [0, 40]]},
         "schedule.breakpoints"),
        # saturated air at 100 degC holds about 1 atm of vapor, more than
        # a 0.5 atm ambient can carry
        ("ambient", {"temperature": 100.0, "relative_humidity": 100.0,
                     "pressure": 50000.0}, "ambient.pressure"),
    ])
    def test_out_of_range_field_names_dotted_key(self, tmp_path,
                                                 scenario_file, capsys,
                                                 section, changes, key):
        doc = yaml.safe_load(scenario_file.read_text())
        doc[section].update(changes)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        rc = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2, f"an out-of-range value is a usage error, got {rc}"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} "), err
        assert list(tmp_path.iterdir()) == [bad], "no output may be written"

    def test_mesh_too_large_for_memory_exits_3(self, tmp_path, scenario_file,
                                               capsys):
        # a 1e15-cell line needs 8 PB, beyond any 64-bit user address
        # space, so numpy refuses the array at once
        doc = yaml.safe_load(scenario_file.read_text())
        doc["mesh"]["n_r"] = 1.0e15
        big = tmp_path / "big.yaml"
        big.write_text(yaml.safe_dump(doc))
        rc = cli.main(["run", "--scenario", str(big), "--out", str(tmp_path)])
        assert rc == 3, f"running out of memory is a solver failure, got {rc}"
        err = capsys.readouterr().err
        assert err.startswith("solver failure: out of memory"), err
        assert "mesh.n_r" in err and "mesh.n_z" in err, err
        assert list(tmp_path.iterdir()) == [big], "no output may be written"

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(scenario, **kwargs):
            raise NewtonError("no convergence (synthetic)")

        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = cli.main(["run", "--preset", "humphrey", "--out", str(tmp_path)])
        assert rc == 3, f"solver failure should exit 3, got {rc}"
        assert "solver failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [], \
            "a failed run must not leave output files behind"

    def test_flags_reach_the_solver_config(self, tmp_path, monkeypatch):
        seen = {}

        def capture(scenario, **kwargs):
            seen["solver"] = scenario.solver
            raise NewtonError("stop after capture")

        monkeypatch.setattr(cli, "run_scenario", capture)
        rc = cli.main(["run", "--preset", "humphrey", "--out", str(tmp_path),
                       "--dt", "0.25", "--t-end", "7", "--scheme",
                       "explicit"])
        assert rc == 3
        solver = seen["solver"]
        assert (solver.dt, solver.t_end, solver.scheme) == \
            (0.25, 7.0, "explicit"), \
            f"command-line overrides did not reach the solver: {solver}"


class TestVerifyCommand:
    def test_properties_suite_passes(self, capsys):
        rc = cli.main(["verify", "properties"])
        out = capsys.readouterr().out
        assert rc == 0, f"the property golden checks should pass:\n{out}"
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 4, f"four golden checks expected:\n{out}"
        assert all(line.startswith("PASS ") for line in lines), \
            f"every check line should start with PASS:\n{out}"

    def test_supg_suite_passes(self, capsys):
        rc = cli.main(["verify", "supg"])
        out = capsys.readouterr().out
        assert rc == 0, f"the stabilization benchmark should pass:\n{out}"
        assert "PASS" in out

    def test_unknown_suite_exits_2(self, capsys):
        rc = cli.main(["verify", "everything"])
        assert rc == 2, "an unknown suite name is a usage error"
        err = capsys.readouterr().err
        for name in SUITE_NAMES:
            assert name in err, f"the error should list suite {name!r}: {err}"

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        fake = [CheckResult(name="synthetic", passed=False, detail="bad")]
        monkeypatch.setattr(cli, "run_suite", lambda name: fake)
        rc = cli.main(["verify", "properties"])
        assert rc == 1, f"a failing check should exit 1, got {rc}"
        assert "FAIL synthetic" in capsys.readouterr().out

    def test_suite_crash_exits_3(self, monkeypatch, capsys):
        def boom(name):
            raise NewtonError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_suite", boom)
        rc = cli.main(["verify", "mms"])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    def test_suite_out_of_memory_exits_3(self, monkeypatch, capsys):
        def boom(name):
            raise MemoryError

        monkeypatch.setattr(cli, "run_suite", boom)
        rc = cli.main(["verify", "conservation"])
        assert rc == 3, f"running out of memory is a solver failure, got {rc}"
        err = capsys.readouterr().err
        assert err.startswith("solver failure: out of memory"), err


class TestArgumentParsing:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2, "a bare invocation is a usage error"
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_run_requires_out(self, capsys):
        assert cli.main(["run", "--preset", "humphrey"]) == 2, \
            "--out is mandatory for run"

    def test_bad_scheme_choice_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "humphrey", "--out", str(tmp_path),
                       "--scheme", "magic"])
        assert rc == 2, "--scheme only accepts implicit or explicit"

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "hotpress" in capsys.readouterr().out
