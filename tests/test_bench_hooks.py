"""The benchmark's traced run rebinds library module attributes by name
(perfbench/spans.py, REBIND).  A rename or deletion in the library would
silently break that run, so every rebinding point must resolve, and the
points that carry the step and diagnostic timings must be called.  The
benchmark's oracle gates (perfbench/gates.py) must pass their self-check."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from solwave import compute_functionals, grid_for, sample_boosted
from solwave.stencil import row_blocks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_rebind_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports its sibling gates
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.REBIND
    missing = [(module, attr) for module, attr in spans.REBIND
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_gates_self_check():
    # the benchmark refuses to report when a gate misjudges one of these
    # cases; a broken gate fails here first
    spec = importlib.util.spec_from_file_location("perfbench_gates", PERFBENCH / "gates.py")
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    results = gates.self_check()
    assert results
    wrong = [name for name, expected, passed in results if passed != expected]
    assert wrong == []


def test_traced_call_points_are_called(monkeypatch, cubic, wave_1d, wave_2d, wave_3d):
    # the traced run times the step and the diagnostics by wrapping these
    # module attributes; a refactor that stopped calling them through the
    # module would read 0 for evolve.step_s, evolve.diag_s or, for the
    # per-block force and potential, potential.evaluate_force_s and
    # potential.evaluate_potential_s
    from solwave import compute_functionals, grid_for, sample_boosted

    evolve_mod = importlib.import_module("solwave.evolve")
    boost_mod = importlib.import_module("solwave.boost")
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("step", "measure_energy", "measure_momentum", "center_of_energy",
                 "evaluate_force"):
        count(evolve_mod, name)
    for name in ("measure_energy", "measure_momentum", "evaluate_potential"):
        count(boost_mod, name)

    grid = grid_for(wave_1d, [0.0], 0.5, 0.1)
    state = evolve_mod.evolve(sample_boosted(wave_1d, [0.0], grid), cubic, 0.5, 0.05,
                              diag_stride=3)
    points = len(state.diagnostics)
    assert points == 5  # steps 0, 3, 6, 9 and the last, 10
    # once per block: at least once per step, per density pass
    force_calls = calls.pop(("solwave.evolve", "evaluate_force"), 0)
    assert force_calls >= calls["solwave.evolve", "step"]
    potential_calls = calls.pop(("solwave.boost", "evaluate_potential"), 0)
    assert potential_calls >= 2 * points  # measure_energy and center_of_energy
    assert calls == {("solwave.evolve", "step"): 10,
                     ("solwave.evolve", "measure_energy"): points,
                     ("solwave.evolve", "measure_momentum"): points,
                     ("solwave.evolve", "center_of_energy"): points}

    calls.clear()
    rows = boost_mod.boost_scan(wave_1d, cubic, [[0.0], [0.3], [0.6]],
                                grid_for(wave_1d, [0.0], 0.0, 0.1),
                                compute_functionals(wave_1d))
    assert len(rows) == 3
    assert calls.pop(("solwave.boost", "evaluate_potential"), 0) >= 3
    assert calls == {("solwave.boost", "measure_energy"): 3,
                     ("solwave.boost", "measure_momentum"): 3}

    # a 2D flight on a mirrored grid, as flight-2d runs it, calls the same points
    calls.clear()
    grid = grid_for(wave_2d, [0.6, 0.0], 0.4, 0.2)
    assert grid.mirrored == (False, True)
    state = evolve_mod.evolve(sample_boosted(wave_2d, [0.6, 0.0], grid), cubic, 0.4, 0.04,
                              diag_stride=5)
    points = len(state.diagnostics)
    assert points == 3  # steps 0, 5 and 10
    force_calls = calls.pop(("solwave.evolve", "evaluate_force"), 0)
    assert force_calls >= calls["solwave.evolve", "step"] * len(row_blocks(state.sample.psi))
    assert calls.pop(("solwave.boost", "evaluate_potential"), 0) >= 2 * points
    assert calls == {("solwave.evolve", "step"): 10,
                     ("solwave.evolve", "measure_energy"): points,
                     ("solwave.evolve", "measure_momentum"): points,
                     ("solwave.evolve", "center_of_energy"): points}

    # and so does a 3D flight on a sector grid, mirrored on axes 1 and 2
    calls.clear()
    grid = grid_for(wave_3d, [0.5, 0.0, 0.0], 0.5, 0.5)
    assert grid.mirrored == (False, True, True)
    state = evolve_mod.evolve(sample_boosted(wave_3d, [0.5, 0.0, 0.0], grid), cubic, 0.5,
                              0.1, diag_stride=2)
    points = len(state.diagnostics)
    assert points == 4  # steps 0, 2, 4 and the last, 5
    force_calls = calls.pop(("solwave.evolve", "evaluate_force"), 0)
    assert force_calls >= calls["solwave.evolve", "step"] * len(row_blocks(state.sample.psi))
    assert calls.pop(("solwave.boost", "evaluate_potential"), 0) >= 2 * points
    assert calls == {("solwave.evolve", "step"): 5,
                     ("solwave.evolve", "measure_energy"): points,
                     ("solwave.evolve", "measure_momentum"): points,
                     ("solwave.evolve", "center_of_energy"): points}
