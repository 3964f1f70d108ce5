"""The four workloads: what each sets up, what one pass runs, and how each
operation is checked.

All use the cubic potential (m^2 = 1, coupling 1 on |psi|^4, amplitude cap
8.5).  A workload's set-up builds the inputs it takes as given; a pass is the
body whose wall time is ``wall_s``.  A pass returns one list of oracle misses
per operation (empty when the operation is correct); an operation that raises
counts as a miss.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

from solwave import cli
from solwave.boost import boost_scan, grid_for, sample_boosted
from solwave.evolve import evolve
from solwave.functionals import compute_functionals
from solwave.potential import PotentialSpec
from solwave.radial import find_excited_state, find_ground_state

from gates import flight_summary, gate_demo, gate_flight, gate_scan_row, gate_wave

SPEC = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=8.5)

LADDER = (("n1", find_ground_state, 1), ("n2", find_ground_state, 2),
          ("n3", find_ground_state, 3), ("k1", find_excited_state, 1),
          ("k2", find_excited_state, 2))
SCAN_VELOCITIES = ([0.3, 0.0], [0.6, 0.0])
SCAN_H = 0.05
FLIGHT_SPEED = 0.6
FLIGHT = {"t_final": 5.0, "dt": 0.04, "diag_stride": 10, "h": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: the inputs do not depend on the seed
    setup: Callable[[float, Any], Any]
    run: Callable[[Any, float, Any], list[list[str]]]
    teardown: Callable[[Any], None] = lambda inputs: None


def _operation(body) -> list[str]:
    try:
        return body()
    except Exception as exc:  # a raising operation is a failed operation
        return [f"raised {type(exc).__name__}: {exc}"]


def _solve(tracer, fn, omega, index):
    return tracer.call("radial.solve", fn, SPEC, omega, index)


# ---- ladder: the shooting solver alone ---------------------------------------

def _ladder_run(_inputs, omega, tracer):
    def one(label, fn, index):
        wave = _solve(tracer, fn, omega, index)
        rep = tracer.call("functionals.compute", compute_functionals, wave)
        n1 = None
        if label == "n1":
            n1 = {"amplitude": wave.profile.shoot_param, "i0": rep.i0,
                  "i1": float(rep.i_k[0]), "e0": rep.e0}
        return gate_wave(wave.profile.node_count, rep.pokhozhaev_residual, omega, n1)

    return [_operation(lambda: one(*rung)) for rung in LADDER]


# ---- scan-2d: boosted sampling and E/P measurement on large grids ----------

def _scan_setup(omega, tracer):
    return [_solve(tracer, find_ground_state, omega, 2),
            _solve(tracer, find_excited_state, omega, 1)]


def _scan_run(waves, omega, tracer):
    results = []
    for wave in waves:
        def rows():
            rep = tracer.call("functionals.compute", compute_functionals, wave)
            grid = grid_for(wave, [0.0, 0.0], 0.0, SCAN_H)
            out = tracer.call("boost.scan", boost_scan, wave, SPEC,
                              SCAN_VELOCITIES, grid, report=rep)
            return [gate_scan_row(r.rel_err_e, r.rel_err_p, float(r.p_measured[1]), rep.e0)
                    for r in out]
        try:
            results += rows()
        except Exception as exc:  # both rows of this wave's scan fail
            results += [[f"raised {type(exc).__name__}: {exc}"]] * len(SCAN_VELOCITIES)
    return results


# ---- flight-2d: leapfrog evolution and its diagnostics ---------------------

def _flight_setup(omega, tracer):
    return _solve(tracer, find_ground_state, omega, 2)


def _flight_run(wave, omega, tracer):
    def one():
        v = [FLIGHT_SPEED, 0.0]
        grid = grid_for(wave, v, FLIGHT["t_final"], FLIGHT["h"])
        initial = tracer.call("boost.sample", sample_boosted, wave, v, grid)
        state = tracer.call("evolve.run", evolve, initial, SPEC, FLIGHT["t_final"],
                            FLIGHT["dt"], FLIGHT["diag_stride"])
        fitted, drift = flight_summary(state.diagnostics)
        return gate_flight(fitted, FLIGHT_SPEED, drift)

    return [_operation(one)]


# ---- demo: the command-line pipeline end to end ----------------------------

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _demo_setup(omega, tracer):
    return tempfile.mkdtemp(prefix="demo-", dir=OUT_DIR)


def _artifact_attrs(out_dir):
    def attrs(tracer, args, kwargs, code):
        names = os.listdir(out_dir)
        return {"artifacts": len(names),
                "artifact_bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                                      for f in names)}
    return attrs


def _demo_run(out_dir, omega, tracer):
    def one():
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call("cli.main", cli.main,
                               ["demo", "--set", f"output_dir={out_dir}"],
                               attrs=_artifact_attrs(out_dir))
        names = os.listdir(out_dir)
        for name in names:  # the next pass starts from an empty directory
            os.remove(os.path.join(out_dir, name))
        return gate_demo(code, names)

    return [_operation(one)]


WORKLOADS = {
    "ladder": Workload("ladder", True, lambda omega, tracer: None, _ladder_run),
    "scan-2d": Workload("scan-2d", True, _scan_setup, _scan_run),
    "flight-2d": Workload("flight-2d", True, _flight_setup, _flight_run),
    "demo": Workload("demo", False, _demo_setup, _demo_run,
                     teardown=lambda out_dir: shutil.rmtree(out_dir, ignore_errors=True)),
}
