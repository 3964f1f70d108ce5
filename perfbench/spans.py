"""Spans recorded from outside the library, and the per-layer metrics built from them.

A span is (name, start, end, parent, attrs).  The benchmark opens spans around
its own calls into the library and, for calls the library makes internally,
rebinds the public module attributes that the library looks up at call time
(``solwave.evolve.step`` and so on) to wrappers that open a span.  No library
source is edited; the original attributes are restored when tracing ends.

Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time

import numpy as np

from gates import flight_summary


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


class Tracer:
    """Records spans while ``enabled``; otherwise ``call`` is a plain call."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Call fn inside a span.  The span's attributes come from
        attrs(tracer, args, kwargs, result), or else from the ATTRS entry for
        the name; it runs after the span has closed, so its cost is not
        charged to the layer."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start
        hook = attrs or ATTRS.get(name)
        if hook is not None:
            span.attrs = hook(self, args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def active(self):
        """Trace everything run inside the block: rebind the library's call
        points, and restore them afterwards."""
        saved = []
        try:
            for (module, attr), name in REBIND.items():
                # by module path: the package re-exports a function named evolve
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def last(self, name):
        for span in reversed(self.spans):
            if span.name == name:
                return span
        return None

    def dump(self, path, regions):
        """Write every span once, with the index range of each traced region."""
        payload = {
            "regions": regions,
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "self_s": s.self_time, **s.attrs}
                      for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# (module, attribute) -> span name.  The library looks each of these up as a
# module global at call time, so rebinding the attribute reaches its callers.
REBIND = {
    ("solwave.radial", "check_conditions"): "potential.check_conditions",
    ("solwave.boost", "sample_boosted"): "boost.sample",
    ("solwave.boost", "measure_energy"): "boost.energy",
    ("solwave.boost", "measure_momentum"): "boost.momentum",
    ("solwave.boost", "evaluate_potential"): "potential.evaluate_potential",
    ("solwave.evolve", "step"): "evolve.step",
    ("solwave.evolve", "measure_energy"): "evolve.energy",
    ("solwave.evolve", "measure_momentum"): "evolve.momentum",
    ("solwave.evolve", "center_of_energy"): "evolve.center",
    ("solwave.evolve", "evaluate_force"): "potential.evaluate_force",
    ("solwave.cli", "cmd_solve"): "cli.cmd_solve",
    ("solwave.cli", "cmd_check"): "cli.cmd_check",
    ("solwave.cli", "cmd_boost_scan"): "cli.cmd_boost_scan",
    ("solwave.cli", "cmd_evolve"): "cli.cmd_evolve",
    ("solwave.cli", "find_ground_state"): "radial.solve",
    ("solwave.cli", "compute_functionals"): "functionals.compute",
    ("solwave.cli", "boost_scan"): "boost.scan",
    ("solwave.cli", "sample_boosted"): "boost.sample",
    ("solwave.cli", "evolve"): "evolve.run",
    ("solwave.cli", "save_wave"): "cli.io",
    ("solwave.cli", "scan_to_csv"): "cli.io",
    ("solwave.cli", "scan_to_json"): "cli.io",
    ("solwave.cli", "diagnostics_to_csv"): "cli.io",
}


# ---- result inspection, keyed by span name --------------------------------

def _solve_attrs(tracer, args, kwargs, wave):
    attrs = {"label": f"k{wave.k}" if wave.k else f"n{wave.n}",
             "key": [wave.omega, wave.n, wave.k, repr(wave.spec)],
             "points": int(wave.profile.r_grid.size)}
    if wave.n == 1 and wave.k == 0:
        # sech oracle amplitude sqrt(2) delta of the cubic potential
        attrs["shoot_err"] = abs(wave.profile.shoot_param - math.sqrt(2.0) * wave.delta)
    return attrs


def _sample_attrs(tracer, args, kwargs, sample):
    v = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["v"], dtype=float))
    return {"cells": int(sample.psi.size),
            "bytes": int(sample.psi.nbytes + sample.psi_dot.nbytes),
            "speed": float(np.linalg.norm(v))}


def _scan_attrs(tracer, args, kwargs, rows):
    rel, trans = 0.0, 0.0
    for row in rows:
        gamma = 1.0 / math.sqrt(1.0 - float(np.dot(row.v, row.v)))
        rel = max(rel, row.rel_err_e, row.rel_err_p)
        if row.p_measured.size > 1:
            e0 = row.e_predicted / gamma
            trans = max(trans, float(np.max(np.abs(row.p_measured[1:]))) / e0)
    return {"rel_err": rel, "transverse_p": trans}


def _evolve_attrs(tracer, args, kwargs, state):
    sample = tracer.last("boost.sample")
    seeded = sample.attrs.get("speed", 0.0) if sample is not None else 0.0
    fitted, drift = flight_summary(state.diagnostics)
    return {"diag_points": len(state.diagnostics),
            "drift": drift,
            "speed_err": abs(fitted - seeded),
            "cells": int(state.sample.psi.size),
            "bytes": int(state.sample.psi.nbytes + state.sample.psi_dot.nbytes)}


ATTRS = {
    "radial.solve": _solve_attrs,
    "functionals.compute": lambda tr, a, k, rep: {"pokhozhaev": rep.pokhozhaev_residual},
    "boost.sample": _sample_attrs,
    "boost.scan": _scan_attrs,
    "evolve.run": _evolve_attrs,
}


# ---- per-layer metrics -----------------------------------------------------

SOLVE_LABELS = ("n1", "n2", "n3", "k1", "k2")

# time metric -> span names whose self times it sums; each also gets a
# "<metric without _s>_calls" count
SELF_TIMES = {
    "potential.check_conditions_s": ("potential.check_conditions",),
    "functionals.compute_s": ("functionals.compute",),
    "boost.sample_s": ("boost.sample",),
    "boost.energy_s": ("boost.energy",),
    "boost.momentum_s": ("boost.momentum",),
    "potential.evaluate_potential_s": ("potential.evaluate_potential",),
    "potential.evaluate_force_s": ("potential.evaluate_force",),
    "evolve.diag_s": ("evolve.energy", "evolve.momentum"),
    "evolve.center_s": ("evolve.center",),
    "cli.cmd_solve_s": ("cli.cmd_solve",),
    "cli.cmd_check_s": ("cli.cmd_check",),
    "cli.cmd_boost_scan_s": ("cli.cmd_boost_scan",),
    "cli.cmd_evolve_s": ("cli.cmd_evolve",),
    "cli.io_s": ("cli.io",),
}

# metric -> (unit, how regions combine: median for costs, max for accuracy)
LAYER_METRICS = {
    **{f"radial.solve_s.{label}": ("s", "median") for label in SOLVE_LABELS},
    "radial.solves": ("count", "median"),
    "radial.distinct_solves": ("count", "median"),
    "radial.profile_points": ("count", "median"),
    "radial.shoot_param_err": ("1", "max"),
    "functionals.pokhozhaev_max": ("1", "max"),
    "boost.grid_cells": ("count", "median"),
    "boost.field_bytes": ("B", "median"),
    "boost.cells_per_s": ("1/s", "median"),
    "boost.rel_err_max": ("1", "max"),
    "boost.transverse_p_max": ("1", "max"),
    "evolve.step_s": ("s", "median"),
    "evolve.step_s_p90": ("s", "median"),
    "evolve.steps": ("count", "median"),
    "evolve.cell_steps_per_s": ("1/s", "median"),
    "evolve.field_bytes": ("B", "median"),
    "evolve.diag_points": ("count", "median"),
    "evolve.energy_drift": ("1", "max"),
    "evolve.speed_err": ("c", "max"),
    "cli.artifacts": ("count", "median"),
    "cli.artifact_bytes": ("B", "median"),
    **{name: ("s", "median") for name in SELF_TIMES},
    **{name[:-2] + "_calls": ("count", "median") for name in SELF_TIMES},
    "trace.overhead_s": ("s", "median"),
}


def region_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced region (set-up plus one pass).  A layer
    that did not run in the region reads 0 with 0 calls."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def get(name):
        return by_name.get(name, [])

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in get(name))

    def worst(name, attr):
        return max((s.attrs.get(attr, 0.0) for s in get(name)), default=0.0)

    out: dict[str, float] = {}
    solves = get("radial.solve")
    for label in SOLVE_LABELS:
        out[f"radial.solve_s.{label}"] = sum(s.self_time for s in solves
                                             if s.attrs["label"] == label)
    out["radial.solves"] = len(solves)
    out["radial.distinct_solves"] = len({json.dumps(s.attrs["key"]) for s in solves})
    out["radial.profile_points"] = total("radial.solve", "points")
    out["radial.shoot_param_err"] = worst("radial.solve", "shoot_err")
    out["functionals.pokhozhaev_max"] = worst("functionals.compute", "pokhozhaev")

    for metric, names in SELF_TIMES.items():
        out[metric] = sum(s.self_time for name in names for s in get(name))
        out[metric[:-2] + "_calls"] = sum(len(get(name)) for name in names)

    out["boost.grid_cells"] = total("boost.sample", "cells")
    out["boost.field_bytes"] = max((s.attrs["bytes"] for s in get("boost.sample")), default=0)
    sample_s = out["boost.sample_s"]
    out["boost.cells_per_s"] = out["boost.grid_cells"] / sample_s if sample_s > 0 else 0.0
    out["boost.rel_err_max"] = worst("boost.scan", "rel_err")
    out["boost.transverse_p_max"] = worst("boost.scan", "transverse_p")

    steps = [s.self_time for s in get("evolve.step")]
    out["evolve.steps"] = len(steps)
    out["evolve.step_s"] = statistics.median(steps) if steps else 0.0
    out["evolve.step_s_p90"] = float(np.percentile(steps, 90)) if steps else 0.0
    # every step of one evolve.run advances that run's grid
    cell_steps = 0
    for run in get("evolve.run"):
        n = sum(1 for s in get("evolve.step") if s.start >= run.start and s.end <= run.end)
        cell_steps += n * run.attrs["cells"]
    out["evolve.cell_steps_per_s"] = cell_steps / sum(steps) if steps else 0.0
    out["evolve.field_bytes"] = max((s.attrs["bytes"] for s in get("evolve.run")), default=0)
    out["evolve.diag_points"] = total("evolve.run", "diag_points")
    out["evolve.energy_drift"] = worst("evolve.run", "drift")
    out["evolve.speed_err"] = worst("evolve.run", "speed_err")

    out["cli.artifacts"] = total("cli.main", "artifacts")
    out["cli.artifact_bytes"] = total("cli.main", "artifact_bytes")
    return out
