"""Oracle gates for the benchmark's operations, and a self-check that each can fail.

Every gate takes plain numbers read off a library result and returns the list
of misses (empty when the operation is correct).  The tolerances are the
tier-1 acceptance tolerances (AC-1, AC-2, AC-3, AC-5), never looser.

Run ``python3 perfbench/gates.py`` to print the self-check.
"""

from __future__ import annotations

import math
import sys

import numpy as np

POKHOZHAEV_TOL = 1e-6      # AC-2
ORACLE_TOL = 1e-6          # AC-1, relative
SCAN_REL_TOL = 1e-3        # AC-3
TRANSVERSE_TOL = 1e-6      # AC-3, share of E_0
SPEED_REL_TOL = 0.01       # AC-5
DRIFT_TOL = 1e-4           # AC-5

DEMO_ARTIFACTS = frozenset({
    "boost_scan.csv", "boost_scan.json", "evolution.csv", "manifest.json",
    "report_n1k0.json", "wave_n1k0.csv", "wave_n1k0.json",
})


def sech_oracle(omega: float) -> dict[str, float]:
    """Closed-form 1D ground state of the cubic potential (m^2 = 1, coupling 1):
    R = sqrt(2) delta sech(delta x), delta = sqrt(1 - omega^2)."""
    delta = math.sqrt(1.0 - omega**2)
    return {"amplitude": math.sqrt(2.0) * delta,
            "i0": 2.0 * delta,
            "i1": 2.0 * delta**3 / 3.0,
            "e0": 4.0 * delta * (omega**2 + delta**2 / 3.0)}


def gate_wave(node_count: int, pokhozhaev: float, omega: float,
              n1_values: dict[str, float] | None = None) -> list[str]:
    """One solved wave; n1_values (amplitude, i0, i1, e0) for the n=1 wave."""
    misses = []
    if node_count != 0:
        misses.append(f"node count {node_count} != 0")
    if not pokhozhaev < POKHOZHAEV_TOL:
        misses.append(f"Pokhozhaev residual {pokhozhaev:.3e} >= {POKHOZHAEV_TOL:g}")
    if n1_values is not None:
        for key, exact in sech_oracle(omega).items():
            err = abs(n1_values[key] - exact) / exact
            if not err < ORACLE_TOL:
                misses.append(f"{key} off the sech oracle by {err:.3e} relative")
    return misses


def gate_scan_row(rel_err_e: float, rel_err_p: float, p_transverse: float,
                  e0: float) -> list[str]:
    misses = []
    if not max(rel_err_e, rel_err_p) < SCAN_REL_TOL:
        misses.append(f"E/P relative error {max(rel_err_e, rel_err_p):.3e} "
                      f">= {SCAN_REL_TOL:g}")
    if not abs(p_transverse) < TRANSVERSE_TOL * e0:
        misses.append(f"transverse P {p_transverse:.3e} >= {TRANSVERSE_TOL:g} E_0")
    return misses


def flight_summary(diagnostics) -> tuple[float, float]:
    """(fitted centre-of-energy speed along axis 1, max relative energy
    drift) of an evolution's diagnostic points, as AC-5 defines them."""
    times = np.array([d.time for d in diagnostics])
    centers = np.array([d.center_of_energy[0] for d in diagnostics])
    energies = np.array([d.energy for d in diagnostics])
    fitted = float(np.polyfit(times, centers, 1)[0]) if len(times) > 1 else 0.0
    return fitted, float(np.max(np.abs(energies / energies[0] - 1.0)))


def gate_flight(fitted_speed: float, seeded_speed: float, drift: float) -> list[str]:
    misses = []
    if not abs(fitted_speed - seeded_speed) < SPEED_REL_TOL * abs(seeded_speed):
        misses.append(f"centre-of-energy speed {fitted_speed:.6f} not within "
                      f"{SPEED_REL_TOL:g} of {seeded_speed:g}")
    if not drift < DRIFT_TOL:
        misses.append(f"energy drift {drift:.3e} >= {DRIFT_TOL:g}")
    return misses


def gate_demo(exit_code: int, artifacts) -> list[str]:
    misses = []
    if exit_code != 0:
        misses.append(f"exit code {exit_code}")
    if set(artifacts) != DEMO_ARTIFACTS:
        misses.append(f"artifacts {sorted(artifacts)} != {sorted(DEMO_ARTIFACTS)}")
    return misses


def self_check() -> list[tuple[str, bool, bool]]:
    """(case, expected to pass, passed) for exact inputs and perturbed ones.
    The benchmark refuses to report when any case comes out wrong."""
    omega = 0.8
    exact = sech_oracle(omega)
    e0 = exact["e0"]
    cases = [
        ("n=1 wave at the oracle", True, gate_wave(0, 1e-11, omega, exact)),
        ("E_0 perturbed by 1e-5", False,
         gate_wave(0, 1e-11, omega, {**exact, "e0": e0 * (1 + 1e-5)})),
        ("wrong node count", False, gate_wave(1, 1e-11, omega)),
        ("Pokhozhaev residual 1e-5", False, gate_wave(0, 1e-5, omega)),
        ("scan row within tolerance", True, gate_scan_row(7e-4, 6e-4, 1e-9, e0)),
        ("scan E error 2e-3", False, gate_scan_row(2e-3, 6e-4, 1e-9, e0)),
        ("transverse P 1e-5 E_0", False, gate_scan_row(7e-4, 6e-4, 1e-5 * e0, e0)),
        ("flight at the seeded speed", True, gate_flight(0.599, 0.6, 4e-5)),
        ("speed perturbed by 2 %", False, gate_flight(0.6 * 1.02, 0.6, 4e-5)),
        ("energy drift 2e-4", False, gate_flight(0.599, 0.6, 2e-4)),
        ("demo with every artifact", True, gate_demo(0, DEMO_ARTIFACTS)),
        ("demo missing evolution.csv", False,
         gate_demo(0, DEMO_ARTIFACTS - {"evolution.csv"})),
        ("demo exit code 2", False, gate_demo(2, DEMO_ARTIFACTS)),
    ]
    return [(name, expected, not misses) for name, expected, misses in cases]


if __name__ == "__main__":
    results = self_check()
    for name, expected, passed in results:
        verdict = "ok" if passed == expected else "WRONG"
        print(f"{verdict:5s} {'accepted' if passed else 'rejected':8s} {name}")
    sys.exit(0 if all(p == e for _, e, p in results) else 1)
