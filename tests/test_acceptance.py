"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `AC-n: PASS/FAIL` line (run with -s to see them live;
pytest shows captured output for failures either way).

AC-6's energy-sign clause is implemented exactly as stated and fails: the
dilation identity forces E_0 = (2/n) sum I_j > 0 for every decaying zero-
frequency solution, so no solver output can have E_0 <= 0 (full argument in
that test's docstring).  The conditions clause and the flagging clause of
AC-6 pass.
"""

import time
import warnings

import numpy as np
import pytest

from solwave.boost import boost_scan, grid_for, sample_boosted, measure_energy
from solwave.evolve import evolve
from solwave.functionals import (FunctionalReport, compute_functionals,
                                 predict_energy_momentum,
                                 predict_general_energy_momentum)
from solwave.potential import check_conditions
from solwave.radial import find_ground_state, resample_wave

from conftest import AMP


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


def test_ac1_closed_form_oracle(cubic):
    """1D cubic at omega=0.8: amplitude and functionals vs the sech oracle,
    each to 1e-6 relative, in under a second."""
    t0 = time.time()
    wave = find_ground_state(cubic, 0.8, 1)
    rep = compute_functionals(wave)
    elapsed = time.time() - t0
    checks = {
        "amplitude": abs(wave.profile.shoot_param - AMP) / AMP < 1e-6,
        "i0": abs(rep.i0 - 1.200) / 1.200 < 1e-6,
        "i1": abs(rep.i_k[0] - 0.144) / 0.144 < 1e-6,
        "v0": abs(rep.v0 - 0.912) / 0.912 < 1e-6,
        "e0": abs(rep.e0 - 1.824) / 1.824 < 1e-6,
        "runtime": elapsed < 1.0,
    }
    ok = _verdict("AC-1", all(checks.values()),
                  f"(solve+functionals {elapsed:.2f}s, worst rel err "
                  f"{abs(rep.e0 - 1.824) / 1.824:.1e})")
    assert ok, checks


def test_ac2_pokhozhaev_identity(wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
    """Relative dilation-identity residual < 1e-6 for all five waves, and a
    >= 8x drop under grid halving wherever quadrature error is above the
    solver floor (n=1 is superconvergent: its residual sits at the ~1e-11
    floor for every spacing, so it is checked against the floor instead)."""
    t0 = time.time()
    waves = {"n=1": wave_1d, "n=2": wave_2d, "n=3": wave_3d,
             "k=1": wave_k1, "k=2": wave_k2}
    checks = {}
    for name, wave in waves.items():
        checks[f"residual {name}"] = (
            compute_functionals(wave).pokhozhaev_residual < 1e-6)

    halvings = {"n=2": (wave_2d, 0.16), "n=3": (wave_3d, 0.32),
                "k=1": (wave_k1, 0.16), "k=2": (wave_k2, 0.64)}
    ratios = {}
    for name, (wave, h) in halvings.items():
        coarse = compute_functionals(resample_wave(wave, h)).pokhozhaev_residual
        fine = compute_functionals(resample_wave(wave, h / 2)).pokhozhaev_residual
        ratios[name] = coarse / fine
        checks[f"halving {name}"] = ratios[name] >= 8.0
    for h in (0.16, 0.08):
        res = compute_functionals(resample_wave(wave_1d, h)).pokhozhaev_residual
        checks[f"n=1 floor h={h}"] = res < 1e-10
    elapsed = time.time() - t0
    checks["runtime"] = elapsed < 10.0
    ok = _verdict("AC-2", all(checks.values()),
                  f"({elapsed:.1f}s, halving ratios "
                  + " ".join(f"{k}:{v:.0f}x" for k, v in ratios.items()) + ")")
    assert ok, checks


def test_ac3_energy_momentum_relation(cubic, wave_1d, wave_2d, wave_k1):
    """Boost-scan errors |E/(gamma E0) - 1| and |P/(gamma v E0) - 1| < 1e-3:
    nine speeds in 1D at h=0.02, two speeds in 2D (radial and k=1) at h=0.05;
    transverse momentum < 1e-6 E0."""
    t0 = time.time()
    checks = {}

    rep1 = compute_functionals(wave_1d)
    g1 = grid_for(wave_1d, [0.0], 0.0, 0.02)
    rows = boost_scan(wave_1d, cubic, [[v] for v in np.arange(0.1, 0.95, 0.1)],
                      g1, report=rep1)
    worst_1d = max(max(r.rel_err_e, r.rel_err_p) for r in rows)
    checks["1D scan"] = worst_1d < 1e-3

    worst_2d, worst_trans = 0.0, 0.0
    for wave in (wave_2d, wave_k1):
        rep = compute_functionals(wave)
        grid = grid_for(wave, [0.0, 0.0], 0.0, 0.05)
        rows = boost_scan(wave, cubic, [[0.3, 0.0], [0.6, 0.0]], grid, report=rep)
        worst_2d = max(worst_2d,
                       max(max(r.rel_err_e, r.rel_err_p) for r in rows))
        worst_trans = max(worst_trans,
                          max(abs(r.p_measured[1]) / rep.e0 for r in rows))
    checks["2D scans"] = worst_2d < 1e-3
    checks["transverse momentum"] = worst_trans < 1e-6
    elapsed = time.time() - t0
    checks["runtime"] = elapsed < 120.0
    ok = _verdict("AC-3", all(checks.values()),
                  f"({elapsed:.0f}s, worst rel err 1D {worst_1d:.1e}, "
                  f"2D {worst_2d:.1e}, transverse {worst_trans:.1e})")
    assert ok, checks


def test_ac4_isotropy_criterion(wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
    """|isotropy defect| < 1e-6 E0 for all solved waves; a synthetic profile
    stretched 2x along axis 1 shifts the general-formula energy by exactly
    gamma (2 v^2/n) * defect (to 1e-8 relative)."""
    checks = {}
    for name, wave in (("n=1", wave_1d), ("n=2", wave_2d), ("n=3", wave_3d),
                       ("k=1", wave_k1), ("k=2", wave_k2)):
        rep = compute_functionals(wave)
        checks[f"defect {name}"] = abs(rep.isotropy_defect) < 1e-6 * rep.e0

    # stretching x1 -> 2 x1 maps the functionals exactly:
    # I_1 -> I_1/2, I_2 -> 2 I_2, I_0 -> 2 I_0, V_0 -> 2 V_0
    base = compute_functionals(wave_2d)
    stretched = FunctionalReport(2 * base.i0, [base.i_k[0] / 2, 2 * base.i_k[1]],
                                 2 * base.v0, base.omega, 2)
    defect = stretched.isotropy_defect
    checks["synthetic defect nonzero"] = abs(defect) > 1e-3
    worst = 0.0
    for speed in (0.3, 0.6, 0.9):
        gamma = 1 / np.sqrt(1 - speed**2)
        closed = predict_energy_momentum(stretched, [speed, 0.0])
        general = predict_general_energy_momentum(stretched, [speed, 0.0])
        predicted_shift = gamma * (2 * speed**2 / 2) * defect
        worst = max(worst, abs((general.energy - closed.energy) / predicted_shift - 1))
    checks["predicted shift"] = worst < 1e-8
    ok = _verdict("AC-4", all(checks.values()),
                  f"(shift mismatch {worst:.1e}, defect {defect:.3f})")
    assert ok, checks


def test_ac5_dynamical_check(cubic, wave_1d):
    """Evolving the boosted 1D oracle at v=0.6 to T=10 (dt=0.01, h=0.02):
    center-of-energy speed within 1% of 0.6, relative energy drift < 1e-4,
    final relative L2 distance to the analytic boosted solution < 1e-2."""
    t0 = time.time()
    grid = grid_for(wave_1d, [0.6], 10.0, 0.02)
    initial = sample_boosted(wave_1d, [0.6], grid, t=0.0)
    state = evolve(initial, cubic, 10.0, 0.01, diag_stride=50)

    ts = np.array([d.time for d in state.diagnostics])
    xs = np.array([d.center_of_energy[0] for d in state.diagnostics])
    es = np.array([d.energy for d in state.diagnostics])
    speed = float(np.polyfit(ts, xs, 1)[0])
    drift = float(np.max(np.abs(es / es[0] - 1)))
    final_exact = sample_boosted(wave_1d, [0.6], grid, t=10.0)
    l2 = (np.linalg.norm(state.sample.psi - final_exact.psi)
          / np.linalg.norm(final_exact.psi))
    elapsed = time.time() - t0
    checks = {
        "speed": abs(speed - 0.6) / 0.6 < 0.01,
        "drift": drift < 1e-4,
        "l2": l2 < 1e-2,
        "runtime": elapsed < 60.0,
    }
    ok = _verdict("AC-5", all(checks.values()),
                  f"({elapsed:.0f}s, speed {speed:.4f}, drift {drift:.1e}, "
                  f"L2 {l2:.1e})")
    assert ok, checks


def test_ac6_zero_frequency_conditions(cubic):
    """At omega = 0 the checker must report that the negative-energy amplitude
    (S2) and pointwise nonnegativity (S4) cannot both hold on the witness
    range, and the pipeline must flag zero-frequency waves."""
    rep = check_conditions(cubic, 0.0, 1)
    contradiction = rep.s2_holds and not rep.s4_holds_on_cap_range \
        and rep.s4_first_violation <= rep.s2_witness

    wave = find_ground_state(cubic, 0.0, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compute_functionals(wave)
    flagged = any("zero-frequency" in str(w.message) for w in caught)
    checks = {"S2/S4 contradiction": contradiction, "flagged": flagged}
    ok = _verdict("AC-6a", all(checks.values()),
                  "(conditions contradiction reported, wave flagged)")
    assert ok, checks


def test_ac6_zero_frequency_energy_sign(cubic):
    """Stated criterion: any omega = 0 wave the solver produces has E_0 <= 0.

    Implemented faithfully; it FAILS, and must fail: combining the dilation
    identity with the rest-energy definition gives E_0 = (2/n) sum I_j > 0
    for every nonzero decaying solution at omega = 0: the identity gives
    V_0 = -((n-2)/n) sum I_j, and E_0 = sum I_j + V_0 = (2/n) sum I_j, which
    is strictly positive for any nonzero profile.  Here the solver finds the
    amplitude sqrt(2) profile with E_0 = 4/3 (confirmed by independent
    high-precision quadrature); the nonpositive-energy expectation
    contradicts the same identity this suite verifies to 1e-11.
    """
    wave = find_ground_state(cubic, 0.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = compute_functionals(wave)
    assert rep.pokhozhaev_residual < 1e-6  # the wave itself is genuine
    ok = _verdict("AC-6b", rep.e0 <= 0.0,
                  f"(E_0 = {rep.e0:.6f}; the dilation identity forces "
                  f"E_0 = 2*I_1/n = {2 * rep.i_k[0]:.6f} > 0)")
    assert ok, (
        f"E_0 = {rep.e0} > 0: a nonpositive rest energy is impossible for "
        "a decaying zero-frequency wave (see this test's docstring)"
    )
