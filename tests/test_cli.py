import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import solwave.cli
from solwave.cli import main, normalize_config
from solwave.radial import WaveInterpolant

from conftest import CQ

CUBIC_POT = {"mass_sq": 1.0, "terms": [{"coupling": 1.0, "exponent": 4}]}
BASE = {"potential": CUBIC_POT, "omega": 0.8, "n": 1, "k": 0, "output_dir": "out"}


def _write_config(tmp_path, **extra):
    cfg = {"potential": CUBIC_POT, "omega": 0.8, "n": 1, "k": 0,
           "output_dir": str(tmp_path / "out")}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_normalize_idempotent(self):
        cfg = normalize_config({"potential": CUBIC_POT, "omega": 0.8,
                                "velocities": [0.3], "n": 2})
        assert normalize_config(cfg) == cfg

    def test_defaults_filled(self):
        cfg = normalize_config({"potential": CUBIC_POT})
        assert cfg["evolve"]["dt"] == 0.01
        assert cfg["grid"]["h"] == 0.05

    def test_superluminal_rejected(self):
        with pytest.raises(Exception):
            normalize_config({"potential": CUBIC_POT, "velocities": [1.2]})

    @pytest.mark.parametrize("exponent", [4, 4.0, "4"])
    def test_whole_number_forms_accepted(self, exponent):
        pot = {"mass_sq": 1.0, "terms": [{"coupling": 1.0, "exponent": exponent}]}
        cfg = normalize_config({"potential": pot, "n": 2.0, "k": "1"})
        assert cfg["potential"]["terms"][0]["exponent"] == 4
        assert (cfg["n"], cfg["k"]) == (2, 1)
        assert all(type(v) is int for v in (cfg["potential"]["terms"][0]["exponent"],
                                            cfg["n"], cfg["k"]))


class TestExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "shoot_param = 0.84852813" in out
        outdir = tmp_path / "out"
        assert (outdir / "wave_n1k0.csv").exists()
        assert (outdir / "wave_n1k0.json").exists()
        assert (outdir / "manifest.json").exists()

    def test_omega_above_mass_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, omega=1.2)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "S1" in capsys.readouterr().err

    def test_k_with_wrong_dimension_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, n=3, k=1)
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_no_bracket_is_numerical_error(self, tmp_path, capsys):
        pot = {"mass_sq": 1.0, "terms": [{"coupling": -1.0, "exponent": 4}],
               "amplitude_cap": 5.0}
        cfg = _write_config(tmp_path, potential=pot)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "NoBracket" in capsys.readouterr().err

    def test_node_count_mismatch_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solwave.radial, "_count_sign_changes", lambda values: 1)
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "NodeCountMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("term", [
        {"coupling": -1.0, "exponent": 4},  # no cap and no expected amplitude
        {"coupling": 1.0, "exponent": 2},   # exponent below 3
    ])
    def test_unbuildable_potential_is_config_error(self, tmp_path, capsys, term):
        cfg = _write_config(tmp_path, potential={"mass_sq": 1.0, "terms": [term]})
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"n": 1.9}, "n"),
        ({"n": 2, "k": 1.5}, "k"),
        ({"potential": {"mass_sq": 1.0, "amplitude_cap": 8.5,
                        "terms": [{"coupling": 1.0, "exponent": 4.5}]}},
         "potential.terms[0].exponent"),
        ({"evolve": {"diag_stride": 2.5}}, "evolve.diag_stride"),
        ({"evolve": {"snapshot_stride": 2.5}}, "evolve.snapshot_stride"),
        ({"grid": {"extent": [40.0], "points": [800.5]}}, "grid.points"),
    ], ids=["n", "k", "exponent", "diag_stride", "snapshot_stride", "points"])
    def test_non_whole_number_is_config_error(self, tmp_path, capsys, extra, key):
        # truncating 1.9 to 1 would solve, and record, another problem
        cfg = _write_config(tmp_path, **extra)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be a whole number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, argv, message", [
        (BASE, ["--set", "omega"], "expects key=value"),
        (BASE, ["--set", "omega.value=0.7"], "crosses a non-object"),
        ([BASE], [], "root must be a JSON object"),
        ({k: v for k, v in BASE.items() if k != "potential"}, [], "'potential' section"),
        (BASE | {"potential": {"terms": CUBIC_POT["terms"]}}, [], "mass_sq is required"),
        (BASE | {"n": 4}, [], "n must be 1, 2 or 3"),
        (BASE | {"k": -1}, [], "k must be >= 0"),
        (BASE | {"grid": {"h": 0}}, [], "grid.h must be positive"),
        (BASE | {"grid": {"extent": [40.0]}}, [], "given together"),
        (BASE | {"grid": {"extent": [40.0, 40.0], "points": [800, 800]}}, [],
         "one entry per axis"),
        (BASE, ["--set", "tolerances.quadrature_tol=NaN"],
         "tolerances.quadrature_tol must be a finite number"),
        (BASE, ["--set", "tolerances.scan_rel_err=NaN"],
         "tolerances.scan_rel_err must be a finite number"),
        (BASE, ["--set", "tolerances.speed_rel_err=-0.01"],
         "tolerances.speed_rel_err must be >= 0"),
        (BASE, ["--set", "velocities=[NaN]"], "velocities must be a finite number"),
        (BASE, ["--set", "grid.h=NaN"], "grid.h must be a finite number"),
        (BASE, ["--set", "potential.amplitude_cap=NaN"],
         "potential.amplitude_cap must be a finite number"),
        (BASE, ["--set", "evolve.t_final=Infinity"], "evolve.t_final must be a finite number"),
        (BASE, ["--set", "velocites=[0.3,0.6]"], "unknown key(s) in config: 'velocites'"),
        (BASE, ["--set", "potential.cap=5"], "unknown key(s) in potential: 'cap'"),
        (BASE | {"potential": CUBIC_POT | {"terms": [{"coupling": 1.0, "exponent": 4,
                                                      "power": 6}]}}, [],
         "unknown key(s) in potential.terms[0]: 'power'"),
        (BASE, ["--set", "grid.step=0.1"], "unknown key(s) in grid: 'step'"),
        (BASE, ["--set", "evolve.t_end=1"], "unknown key(s) in evolve: 't_end'"),
        (BASE, ["--set", "tolerances.speed_tol=0.1"],
         "unknown key(s) in tolerances: 'speed_tol'"),
    ], ids=["set_without_equals", "set_through_value", "non_object_root", "no_potential",
            "no_mass_sq", "n_4", "k_negative", "grid_h_zero", "extent_without_points",
            "extent_wrong_length", "quadrature_tol_nan", "scan_rel_err_nan",
            "speed_rel_err_negative", "velocity_nan", "grid_h_nan", "amplitude_cap_nan",
            "t_final_infinite", "misspelt_top_level", "misspelt_potential", "misspelt_term",
            "misspelt_grid", "misspelt_evolve", "misspelt_tolerance"])
    def test_rejected_config_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             config, argv, message):
        monkeypatch.chdir(tmp_path)  # the default output_dir is relative
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["solve", "--config", "config.json", *argv]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert [p for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_solve_excited_state(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--set", "n=2", "--set", "k=1"]) == 0
        outdir = tmp_path / "out"
        assert (outdir / "wave_n2k1.csv").exists()
        sidecar = json.loads((outdir / "wave_n2k1.json").read_text())
        assert (sidecar["k"], sidecar["node_count"]) == (1, 0)

    def test_check_ok(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["check", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e0"] == pytest.approx(1.824, rel=1e-6)

    def test_check_zero_tolerance_fails(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, tolerances={"quadrature_tol": 0.0})
        assert main(["check", "--config", str(cfg)]) == 2

    def test_boost_scan_ok(self, tmp_path):
        cfg = _write_config(tmp_path, velocities=[0.0, 0.5], grid={"h": 0.05})
        assert main(["boost-scan", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "boost_scan.csv").exists()
        assert (tmp_path / "out" / "boost_scan.json").exists()

    def test_boost_scan_empty_velocities(self, tmp_path):
        cfg = _write_config(tmp_path, velocities=[], grid={"h": 0.1})
        assert main(["boost-scan", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "boost_scan.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only

    def test_boost_scan_zero_tolerance_fails(self, tmp_path):
        cfg = _write_config(tmp_path, velocities=[0.3], grid={"h": 0.1},
                            tolerances={"scan_rel_err": 0.0})
        assert main(["boost-scan", "--config", str(cfg)]) == 2

    def test_boost_scan_grid_too_small(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, velocities=[0.5],
                            grid={"h": 0.1, "extent": [5.0], "points": [100]})
        assert main(["boost-scan", "--config", str(cfg)]) == 2
        assert "GridTooSmall" in capsys.readouterr().err

    @staticmethod
    def _forbid_allocation(monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("an oversized grid reached the sampler")
        monkeypatch.setattr(solwave.cli, "boost_scan", reached)
        monkeypatch.setattr(solwave.cli, "sample_boosted", reached)

    @pytest.mark.parametrize("command,n,h", [("boost-scan", 3, 0.01), ("evolve", 2, 1e-4)])
    def test_oversized_grid_is_config_error(self, tmp_path, capsys, monkeypatch,
                                            command, n, h):
        # terabytes of fields; refused after the solve, before any allocation
        self._forbid_allocation(monkeypatch)
        cfg = _write_config(tmp_path, n=n, velocities=[0.5], grid={"h": h})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "physical memory" in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_grid_budget_counts_the_fields_each_command_holds(self, tmp_path, capsys,
                                                              monkeypatch):
        # a grid whose cells fit 3.5 complex fields in physical memory: a
        # scan holds two, a flight five
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        side = 2 * int((memory / (16 * 3.5)) ** 0.5 / 2)
        self._forbid_allocation(monkeypatch)
        # the scan fits, so it is let through to a stub that samples nothing
        monkeypatch.setattr(solwave.cli, "boost_scan", lambda *args, **kwargs: [])
        cfg = _write_config(tmp_path, n=2, velocities=[0.5],
                            grid={"h": 0.1, "extent": [side * 0.05] * 2,
                                  "points": [side] * 2})
        assert main(["boost-scan", "--config", str(cfg)]) == 0
        assert main(["evolve", "--config", str(cfg)]) == 1
        assert "physical memory" in capsys.readouterr().err

    def test_grid_budget_counts_stored_cells(self, monkeypatch, wave_2d):
        # a memory between the sector's five fields and the full grid's: the
        # mirrored grid_for grid fits, the same grid given in full does not
        from solwave.boost import grid_for
        cfg = normalize_config({"potential": CUBIC_POT, "n": 2, "grid": {"h": 0.2}})
        grid = grid_for(wave_2d, [0.5, 0.0], 2.0, 0.2)
        assert grid.mirrored == (False, True)
        memory = 5 * 16 * (np.prod(grid.shape) + np.prod(grid.points)) // 2
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": int(memory)}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert solwave.cli._grid_from_config(cfg, wave_2d, 0.5, 2.0, fields=5) == grid
        full = {"extent": list(grid.extent), "points": list(grid.points)}
        with pytest.raises(solwave.cli.ConfigError, match="physical memory"):
            solwave.cli._grid_from_config(normalize_config({**cfg, "grid": full}), wave_2d,
                                          0.5, 2.0, fields=5)

    def test_evolve_3d(self, tmp_path, capsys):
        # the stable cubic-quintic wave of the paper's dimension, on a sector grid
        pot = {"mass_sq": CQ.mass_sq,
               "terms": [{"coupling": c, "exponent": p} for c, p in CQ.terms]}
        cfg = _write_config(tmp_path, potential=pot, omega=0.7, n=3, velocities=[0.6],
                            grid={"h": 0.5},
                            evolve={"t_final": 1.0, "dt": 0.2, "diag_stride": 1})
        start = time.perf_counter()
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert time.perf_counter() - start < 2.0
        assert "fitted speed" in capsys.readouterr().out
        lines = (tmp_path / "out" / "evolution.csv").read_text().splitlines()
        assert lines[0].split(",") == ["time", "E", "P1", "P2", "P3", "X1", "X2", "X3"]
        assert len(lines) == 7  # t = 0, 0.2, ..., 1

    def test_evolve_cfl_violation(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve={"t_final": 1.0, "dt": 0.2, "diag_stride": 1})
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "CflViolation" in capsys.readouterr().err

    def test_evolve_cfl_violation_writes_no_snapshot(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve={"t_final": 1.0, "dt": 0.2, "diag_stride": 1,
                                    "snapshot_stride": 1})
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "CflViolation" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("snapshot_*.bin")) == []

    @pytest.mark.parametrize("key", ["diag_stride", "snapshot_stride"])
    def test_evolve_zero_stride_is_config_error(self, tmp_path, capsys, key):
        evolve_cfg = {"t_final": 0.5, "dt": 0.05, "diag_stride": 5} | {key: 0}
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve=evolve_cfg)
        assert main(["evolve", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"dt": 0.0}, {"dt": -0.01}, {"t_final": -1.0},
                                     {"dt": float("nan")}],
                             ids=["dt_zero", "dt_negative", "t_final_negative", "dt_nan"])
    def test_evolve_bad_time_is_config_error(self, tmp_path, capsys, bad):
        evolve_cfg = {"t_final": 0.5, "dt": 0.05, "diag_stride": 5} | bad
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve=evolve_cfg)
        assert main(["evolve", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_evolve_end_time_off_the_step_grid_is_config_error(self, tmp_path, capsys):
        evolve_cfg = {"t_final": 0.13, "dt": 0.05, "diag_stride": 1}
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve=evolve_cfg)
        assert main(["evolve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "t_final=0.13" in err and "dt=0.05" in err
        assert not (tmp_path / "out").exists()

    def test_evolve_speed_miss_is_numerical_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, velocities=[0.5], grid={"h": 0.1},
                            evolve={"t_final": 1.0, "dt": 0.05, "diag_stride": 5},
                            tolerances={"speed_rel_err": 0.0})
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "FAIL: fitted speed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["artifacts"] == ["evolution.csv"]

    def test_evolve_speed_gate_on_one_diagnostic_point_is_config_error(self, tmp_path, capsys):
        # t_final = 0 records only t = 0, from which no speed can be fitted
        cfg = _write_config(tmp_path, velocities=[0.5], grid={"h": 0.1},
                            evolve={"t_final": 0.0, "dt": 0.05, "diag_stride": 5},
                            tolerances={"speed_rel_err": 0.02})
        assert main(["evolve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "evolve.t_final" in captured.err
        assert "fitted speed" not in captured.out
        assert list((tmp_path / "out").iterdir()) == []

    def test_evolve_one_diagnostic_point_fits_no_speed(self, tmp_path, capsys):
        # with no speed gate, t_final = 0 is a valid run, but its one point
        # (t = 0) fits no speed, and none is printed
        cfg = _write_config(tmp_path, velocities=[0.5], grid={"h": 0.1},
                            evolve={"t_final": 0.0, "dt": 0.05, "diag_stride": 5})
        assert main(["evolve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "fitted speed  = n/a (one diagnostic point; seeded 0.500000)" in out
        assert (tmp_path / "out" / "evolution.csv").exists()

    def test_evolve_ok(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, velocities=[0.5], grid={"h": 0.1},
                            evolve={"t_final": 1.0, "dt": 0.05, "diag_stride": 5},
                            tolerances={"speed_rel_err": 0.02})
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert "fitted speed" in capsys.readouterr().out
        assert (tmp_path / "out" / "evolution.csv").exists()


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        outdir = tmp_path / "out"
        first = {f: (outdir / f).read_bytes() for f in os.listdir(outdir)}
        assert main(["solve", "--config", str(cfg)]) == 0
        second = {f: (outdir / f).read_bytes() for f in os.listdir(outdir)}
        assert first == second

    def test_boost_scan_and_evolve_byte_identical(self, tmp_path):
        # a 2D grid whose row blocks hold about 16k cells, where a BLAS dot in
        # the E/P sums would split over threads and change the last bits; at
        # h = 0.2 the scan misses E_v = gamma E_0 by about 1e-2
        cfg = _write_config(tmp_path, n=2, velocities=[0.3, 0.6], grid={"h": 0.2},
                            evolve={"t_final": 0.2, "dt": 0.05, "diag_stride": 2},
                            tolerances={"scan_rel_err": 0.05})
        outdir = tmp_path / "out"
        runs = []
        for _ in range(2):
            for command in ("boost-scan", "evolve"):
                assert main([command, "--config", str(cfg)]) == 0
            runs.append({f: (outdir / f).read_bytes() for f in os.listdir(outdir)})
        assert runs[0] == runs[1]
        assert {"boost_scan.json", "evolution.csv"} <= set(runs[0])

        # the same scan in a fresh interpreter with one OpenBLAS thread
        single = tmp_path / "single"
        script = "import sys, solwave.cli; sys.exit(solwave.cli.main(sys.argv[1:]))"
        src = os.path.dirname(os.path.dirname(solwave.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, "-c", script, "boost-scan", "--config", str(cfg),
                        "--set", f"output_dir={single}"],
                       env=env, capture_output=True, timeout=120, check=True)
        assert (single / "boost_scan.json").read_bytes() == runs[0]["boost_scan.json"]

    def test_set_overrides(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = main(["solve", "--config", str(cfg), "--set", "omega=0.6",
                     "--set", f"output_dir={tmp_path / 'out2'}"])
        assert code == 0
        assert (tmp_path / "out2" / "manifest.json").exists()
        manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
        assert manifest["config"]["omega"] == 0.6

    def test_manifest_lists_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["solve", "--config", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["artifacts"] == ["wave_n1k0.csv", "wave_n1k0.json"]


def test_demo_runs_end_to_end(tmp_path):
    code = main(["demo", "--set", f"output_dir={tmp_path / 'demo'}"])
    assert code == 0
    produced = set(os.listdir(tmp_path / "demo"))
    assert {"wave_n1k0.csv", "wave_n1k0.json", "report_n1k0.json",
            "boost_scan.csv", "boost_scan.json", "evolution.csv",
            "manifest.json"} <= produced


def test_demo_solves_once(tmp_path, monkeypatch):
    calls = []
    solve = solwave.cli.find_ground_state

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solwave.cli, "find_ground_state", counting)
    assert main(["demo", "--set", f"output_dir={tmp_path / 'demo'}"]) == 0
    assert len(calls) == 1


def test_demo_computes_functionals_once(tmp_path, monkeypatch):
    calls = []
    compute = solwave.cli.compute_functionals

    def counting(wave):
        calls.append(wave)
        return compute(wave)

    monkeypatch.setattr(solwave.cli, "compute_functionals", counting)
    assert main(["demo", "--set", f"output_dir={tmp_path / 'demo'}"]) == 0
    assert len(calls) == 1


def test_demo_builds_one_interpolant(tmp_path, monkeypatch):
    # the scan's four samples and the flight's first one read the solved
    # wave's one table
    waves = []
    build = WaveInterpolant.__init__

    def counting(self, wave):
        waves.append(wave)
        build(self, wave)

    monkeypatch.setattr(WaveInterpolant, "__init__", counting)
    assert main(["demo", "--set", f"output_dir={tmp_path / 'demo'}"]) == 0
    assert len(waves) == 1


def test_demo_stops_at_first_failing_stage(tmp_path, monkeypatch):
    check = solwave.cli.cmd_check

    def failing(cfg, wave, report):
        _, written = check(cfg, wave, report)
        return 2, written

    monkeypatch.setattr(solwave.cli, "cmd_check", failing)
    out = tmp_path / "demo"
    assert main(["demo", "--set", f"output_dir={out}"]) == 2
    assert sorted(os.listdir(out)) == [
        "manifest.json", "report_n1k0.json", "wave_n1k0.csv", "wave_n1k0.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["report_n1k0.json", "wave_n1k0.csv", "wave_n1k0.json"]


class TestManifestOwnership:
    """The manifest lists exactly the files the run wrote, never files that
    were already in output_dir."""

    @staticmethod
    def _stale_dir(tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale_notes.txt").write_text("left by someone else\n")
        (out / "snapshot_99999999.bin").write_bytes(b"stale")
        return out

    @staticmethod
    def _artifacts(out):
        return json.loads((out / "manifest.json").read_text())["artifacts"]

    def test_demo_lists_only_its_files(self, tmp_path):
        out = self._stale_dir(tmp_path)
        assert main(["demo", "--set", f"output_dir={out}"]) == 0
        assert self._artifacts(out) == [
            "boost_scan.csv", "boost_scan.json", "evolution.csv",
            "report_n1k0.json", "wave_n1k0.csv", "wave_n1k0.json"]

    def test_evolve_snapshots_list_only_its_files(self, tmp_path):
        out = self._stale_dir(tmp_path)
        cfg = _write_config(tmp_path, velocities=[0.0], grid={"h": 0.1},
                            evolve={"t_final": 0.5, "dt": 0.05, "diag_stride": 5,
                                    "snapshot_stride": 5})
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert self._artifacts(out) == [
            "evolution.csv", "snapshot_00000000.bin", "snapshot_00000005.bin",
            "snapshot_00000010.bin"]

    def test_failing_check_writes_manifest(self, tmp_path):
        out = self._stale_dir(tmp_path)
        cfg = _write_config(tmp_path, tolerances={"quadrature_tol": 0.0})
        assert main(["check", "--config", str(cfg)]) == 2
        assert self._artifacts(out) == ["report_n1k0.json"]


def test_demo_runs_without_scipy(tmp_path):
    # a fresh interpreter imports the CLI and runs the demo with no scipy
    # module loaded: numpy is the one runtime dependency
    script = ("import sys\n"
              "import solwave.cli\n"
              "code = solwave.cli.main(['demo', '--set', 'output_dir=' + sys.argv[1]])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(solwave.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "demo")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split("\n")[-2] == "0 []"
