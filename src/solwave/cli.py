"""Command-line pipeline: solve waves, check identities, scan boosts, evolve.

All commands read a single JSON config (--config) with optional dotted-key
overrides (--set key=value).  A run solves the wave and computes its
functionals once and hands both to the command; demo shares them across its
four stages.  Each command returns its exit status and the names of the files
it wrote under output_dir, and main alone writes output_dir/manifest.json: the
normalized config and exactly those names, whatever the status.  Exit codes:
0 success, 1 config or validation error (a potential that cannot be built
included, and a grid whose fields would not fit in physical memory, refused
before it is allocated), 2 numerical failure (a failure raised before the
command returns writes no manifest).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from .artifacts import write_json
from .boost import (GridSpec, GridTooSmall, boost_scan, grid_for,
                    sample_boosted, scan_to_csv, scan_to_json)
from .evolve import (CflViolation, NonFinite, diagnostics_to_csv, evolve,
                     step_count)
from .functionals import (SuperluminalVelocity, compute_functionals,
                          report_to_dict)
from .potential import PotentialSpec, expected_amplitude
from .radial import (NoBracket, NodeCountMismatch, StepFailure,
                     find_excited_state, find_ground_state, save_wave)

__all__ = ["main", "normalize_config", "build_potential"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

DEFAULT_TOLERANCES = {
    "quadrature_tol": 1e-6,
    "scan_rel_err": 1e-3,
}

DEFAULT_EVOLVE = {"t_final": 10.0, "dt": 0.01, "diag_stride": 50}

CONFIG_KEYS = ("potential", "omega", "n", "k", "grid", "velocities", "evolve",
               "tolerances", "output_dir")


class ConfigError(ValueError):
    pass


def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-object value")
    node[keys[-1]] = value


def _parse_set(arg: str):
    if "=" not in arg:
        raise ConfigError(f"--set expects key=value, got {arg!r}")
    key, raw = arg.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _read_config(path: str | None, overrides) -> dict:
    """The raw config: the file (if any) with the --set overrides applied."""
    cfg: dict = {}
    if path is not None:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        key, value = _parse_set(item)
        _set_path(cfg, key, value)
    return cfg


def build_potential(cfg: dict) -> PotentialSpec:
    """Potential of a normalized config; no amplitude_cap means 10x the expected amplitude."""
    pot = cfg["potential"]
    terms = tuple((t["coupling"], t["exponent"]) for t in pot["terms"])
    cap = pot["amplitude_cap"]
    if cap is None:
        probe = PotentialSpec(mass_sq=pot["mass_sq"], terms=terms, amplitude_cap=1.0)
        a_star = expected_amplitude(probe, cfg["omega"])
        if a_star is None:
            raise ConfigError(
                "amplitude_cap not given and no expected amplitude exists "
                "(no admissible negative-energy amplitude for this potential)"
            )
        cap = 10.0 * a_star
    return PotentialSpec(mass_sq=pot["mass_sq"], terms=terms, amplitude_cap=cap)


def _number(value, key: str) -> float:
    """value as a finite float; NaN and infinities would disable the checks."""
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _whole(value, key: str) -> int:
    """value as an int when it is a whole number (4, 4.0 and "4" alike)."""
    number = float(value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(number)


def _known(section: dict, keys, where: str) -> dict:
    """section itself, once every key in it is one of keys."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    return section


def normalize_config(cfg: dict) -> dict:
    """Fill defaults, coerce types, and re-validate every cross-field
    constraint (|v| < 1, k >= 1 implies n = 2, omega^2 < m^2).  Every number
    must be finite and every key known.  Normalizing a normalized config is
    the identity."""
    cfg = copy.deepcopy(_known(cfg, CONFIG_KEYS, "config"))
    if "potential" not in cfg:
        raise ConfigError("config needs a 'potential' section")
    pot = _known(cfg["potential"], ("mass_sq", "terms", "amplitude_cap"), "potential")
    if "mass_sq" not in pot:
        raise ConfigError("potential.mass_sq is required")
    pot["mass_sq"] = _number(pot["mass_sq"], "potential.mass_sq")
    for i, t in enumerate(pot.get("terms", [])):
        _known(t, ("coupling", "exponent"), f"potential.terms[{i}]")
    pot["terms"] = [
        {"coupling": _number(t["coupling"], f"potential.terms[{i}].coupling"),
         "exponent": _whole(t["exponent"], f"potential.terms[{i}].exponent")}
        for i, t in enumerate(pot.get("terms", []))
    ]
    cap = pot.get("amplitude_cap")
    pot["amplitude_cap"] = None if cap is None else _number(cap, "potential.amplitude_cap")

    cfg["omega"] = _number(cfg.get("omega", 0.8), "omega")
    cfg["n"] = _whole(cfg.get("n", 1), "n")
    cfg["k"] = _whole(cfg.get("k", 0), "k")
    if cfg["n"] not in (1, 2, 3):
        raise ConfigError(f"n must be 1, 2 or 3, got {cfg['n']}")
    if cfg["k"] < 0:
        raise ConfigError(f"k must be >= 0, got {cfg['k']}")
    if cfg["k"] >= 1 and cfg["n"] != 2:
        raise ConfigError("angular index k >= 1 requires n = 2")
    if cfg["omega"] ** 2 >= pot["mass_sq"]:
        raise ConfigError(
            f"omega^2 = {cfg['omega']**2:g} >= mass_sq = {pot['mass_sq']:g}: "
            "condition S1 fails, no exponentially decaying profile exists"
        )

    grid = _known(cfg.get("grid") or {}, ("h", "extent", "points"), "grid")
    grid["h"] = _number(grid.get("h", 0.05), "grid.h")
    if grid["h"] <= 0:
        raise ConfigError("grid.h must be positive")
    if ("extent" in grid) != ("points" in grid):
        raise ConfigError("grid.extent and grid.points must be given together")
    if "extent" in grid:
        grid["extent"] = [_number(x, "grid.extent") for x in grid["extent"]]
        grid["points"] = [_whole(p, "grid.points") for p in grid["points"]]
        if len(grid["extent"]) != cfg["n"] or len(grid["points"]) != cfg["n"]:
            raise ConfigError("grid extent/points must have one entry per axis")
        GridSpec(n=cfg["n"], extent=tuple(grid["extent"]), points=tuple(grid["points"]))
    cfg["grid"] = grid

    cfg["velocities"] = [_number(v, "velocities") for v in cfg.get("velocities", [])]
    for v in cfg["velocities"]:
        if abs(v) >= 1.0:
            raise ConfigError(f"velocity {v} is not subluminal")

    ev = dict(DEFAULT_EVOLVE)
    ev.update(_known(cfg.get("evolve") or {}, (*DEFAULT_EVOLVE, "snapshot_stride"), "evolve"))
    ev["t_final"] = _number(ev["t_final"], "evolve.t_final")
    ev["dt"] = _number(ev["dt"], "evolve.dt")
    ev["diag_stride"] = _whole(ev["diag_stride"], "evolve.diag_stride")
    if ev.get("snapshot_stride") is not None:
        ev["snapshot_stride"] = _whole(ev["snapshot_stride"], "evolve.snapshot_stride")
    for key in ("diag_stride", "snapshot_stride"):
        if ev.get(key) is not None and ev[key] < 1:
            raise ConfigError(f"evolve.{key} must be >= 1, got {ev[key]}")
    if not (ev["dt"] > 0 and ev["t_final"] >= 0):
        raise ConfigError("evolve needs dt > 0 and t_final >= 0, got "
                          f"dt={ev['dt']}, t_final={ev['t_final']}")
    try:
        step_count(ev["t_final"], ev["dt"])
    except ValueError as exc:
        raise ConfigError(f"evolve: {exc}") from exc
    cfg["evolve"] = ev

    tol = dict(DEFAULT_TOLERANCES)
    tol.update(_known(cfg.get("tolerances") or {}, (*DEFAULT_TOLERANCES, "speed_rel_err"),
                      "tolerances"))
    cfg["tolerances"] = {key: _number(val, f"tolerances.{key}") for key, val in tol.items()}
    for key, val in cfg["tolerances"].items():
        if val < 0:
            raise ConfigError(f"tolerances.{key} must be >= 0, got {val}")

    cfg["output_dir"] = str(cfg.get("output_dir", "solwave_out"))
    return {key: cfg[key] for key in CONFIG_KEYS}


def _solve_from_config(cfg: dict, spec: PotentialSpec):
    if cfg["k"] >= 1:
        return find_excited_state(spec, cfg["omega"], cfg["k"])
    return find_ground_state(spec, cfg["omega"], cfg["n"])


def _boost_axis_velocity(speed: float, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = speed
    return v


def _grid_from_config(cfg: dict, wave, v_max: float, t_max: float,
                      fields: int) -> GridSpec:
    """The config's grid, always full, or grid_for's, which may be mirrored;
    ConfigError when fields complex arrays of its stored cells would exceed
    physical memory."""
    grid = cfg["grid"]
    if "extent" in grid:
        spec = GridSpec(n=cfg["n"], extent=tuple(grid["extent"]),
                        points=tuple(grid["points"]))
    else:
        spec = grid_for(wave, _boost_axis_velocity(v_max, cfg["n"]), t_max, grid["h"])
    need = fields * 16 * math.prod(spec.shape)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigError(
            f"a {'x'.join(map(str, spec.shape))} grid needs {need / 2**30:.3g} GiB "
            f"for {fields} complex fields, more than the {memory / 2**30:.3g} GiB "
            "of physical memory; raise grid.h")
    return spec


def cmd_solve(cfg: dict, wave, report) -> tuple[int, list[str]]:
    out = cfg["output_dir"]
    stem = f"wave_n{cfg['n']}k{cfg['k']}"
    csv_path = os.path.join(out, stem + ".csv")
    json_path = os.path.join(out, stem + ".json")
    save_wave(wave, csv_path, json_path)
    print(f"shoot_param = {wave.profile.shoot_param:.17g}")
    print(f"delta       = {wave.delta:.17g}")
    print(f"node_count  = {wave.profile.node_count}")
    return EXIT_OK, [stem + ".csv", stem + ".json"]


def cmd_check(cfg: dict, wave, report) -> tuple[int, list[str]]:
    out = cfg["output_dir"]
    payload = report_to_dict(report)
    print(json.dumps(payload, indent=2))
    stem = f"report_n{cfg['n']}k{cfg['k']}.json"
    write_json(os.path.join(out, stem), payload)
    tol = cfg["tolerances"]["quadrature_tol"]
    if report.pokhozhaev_residual > tol:
        print(f"FAIL: pokhozhaev_residual {report.pokhozhaev_residual:.3e} > {tol:g}",
              file=sys.stderr)
        return EXIT_NUMERICAL, [stem]
    return EXIT_OK, [stem]


def cmd_boost_scan(cfg: dict, wave, report) -> tuple[int, list[str]]:
    out = cfg["output_dir"]
    speeds = cfg["velocities"]
    # sized for the uncontracted case; a sample holds psi and psi_dot
    grid = _grid_from_config(cfg, wave, 0.0, 0.0, fields=2)
    rows = boost_scan(wave, wave.spec,
                      [_boost_axis_velocity(v, cfg["n"]) for v in speeds],
                      grid, report=report)
    scan_to_csv(rows, os.path.join(out, "boost_scan.csv"))
    scan_to_json(rows, os.path.join(out, "boost_scan.json"))
    for row in rows:
        print(f"v={np.linalg.norm(row.v):.3f}  E_meas={row.e_measured:.10g}  "
              f"relE={row.rel_err_e:.3e}  relP={row.rel_err_p:.3e}")
    artifacts = ["boost_scan.csv", "boost_scan.json"]
    limit = cfg["tolerances"]["scan_rel_err"]
    worst = max((max(r.rel_err_e, r.rel_err_p) for r in rows), default=0.0)
    if worst > limit:
        print(f"FAIL: worst scan relative error {worst:.3e} > {limit:g}", file=sys.stderr)
        return EXIT_NUMERICAL, artifacts
    return EXIT_OK, artifacts


def cmd_evolve(cfg: dict, wave, report) -> tuple[int, list[str]]:
    out = cfg["output_dir"]
    speed = cfg["velocities"][0] if cfg["velocities"] else 0.0
    ev = cfg["evolve"]
    # the stepping holds psi, psi_dot and the next level, and the initial
    # sample's two fields stay alive next to them
    grid = _grid_from_config(cfg, wave, abs(speed), ev["t_final"], fields=5)
    initial = sample_boosted(wave, _boost_axis_velocity(speed, cfg["n"]), grid, t=0.0)
    state = evolve(initial, wave.spec, ev["t_final"], ev["dt"], ev["diag_stride"],
                   snapshot_stride=ev.get("snapshot_stride"), snapshot_dir=out)
    diagnostics_to_csv(state.diagnostics, os.path.join(out, "evolution.csv"))
    artifacts = ["evolution.csv", *state.snapshots]

    times = np.array([d.time for d in state.diagnostics])
    centers = np.array([d.center_of_energy[0] for d in state.diagnostics])
    energies = np.array([d.energy for d in state.diagnostics])
    fitted = float(np.polyfit(times, centers, 1)[0]) if len(times) > 1 else 0.0
    drift = float(np.max(np.abs(energies / energies[0] - 1.0)))
    print(f"fitted speed  = {fitted:.6f} (seeded {speed:.6f})")
    print(f"energy drift  = {drift:.3e}")
    speed_tol = cfg["tolerances"].get("speed_rel_err")
    if speed_tol is not None and abs(speed) > 0:
        if abs(fitted - speed) > speed_tol * abs(speed):
            print(f"FAIL: fitted speed off by more than {speed_tol:g} relative",
                  file=sys.stderr)
            return EXIT_NUMERICAL, artifacts
    return EXIT_OK, artifacts


# demo's fixed configuration; only output_dir comes from --config or --set
DEMO_CONFIG = {
    "potential": {"mass_sq": 1.0, "terms": [{"coupling": 1.0, "exponent": 4}]},
    "omega": 0.8,
    "n": 1,
    "k": 0,
    "grid": {"h": 0.02},
    "velocities": [0.0, 0.3, 0.6, 0.9],
    "evolve": {"t_final": 5.0, "dt": 0.01, "diag_stride": 50},
}


def cmd_demo(cfg: dict, wave, report) -> tuple[int, list[str]]:
    """Full pipeline on the canonical cubic potential in one dimension; the
    four stages share the one solved wave and its report, and demo returns
    the files they wrote."""
    # looked up at call time, so rebinding a module-level command reaches demo
    stages = (("solve", cmd_solve), ("check", cmd_check),
              ("boost-scan", cmd_boost_scan), ("evolve", cmd_evolve))
    artifacts = []
    for label, command in stages:
        print(f"== {label} ==")
        status, written = command(cfg, wave, report)
        artifacts += written
        if status:
            return status, artifacts
    print(f"demo artifacts in {cfg['output_dir']}/")
    return EXIT_OK, artifacts


COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "boost-scan": cmd_boost_scan,
    "evolve": cmd_evolve,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="solwave",
        description="Solitary waves of nonlinear Klein-Gordon equations: "
                    "solve profiles, verify variational identities, measure "
                    "boosted energy-momentum, evolve in time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
    args = parser.parse_args(argv)

    try:
        cfg = _read_config(args.config, args.set)
        if args.command == "demo":
            cfg = DEMO_CONFIG | {"output_dir": cfg.get("output_dir", "solwave_out")}
        cfg = normalize_config(cfg)
        spec = build_potential(cfg)
        os.makedirs(cfg["output_dir"], exist_ok=True)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        wave = _solve_from_config(cfg, spec)
        report = compute_functionals(wave)
        status, artifacts = COMMANDS[args.command](cfg, wave, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoBracket, NodeCountMismatch, StepFailure, GridTooSmall,
            CflViolation, NonFinite, SuperluminalVelocity) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_json(os.path.join(cfg["output_dir"], "manifest.json"),
               {"config": cfg, "artifacts": sorted(artifacts)})
    return status


if __name__ == "__main__":
    sys.exit(main())
