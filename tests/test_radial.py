import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solwave import radial
from solwave.potential import PotentialSpec, evaluate_potential, expected_amplitude
from solwave.radial import (NoBracket, NodeCountMismatch, RadialProfile,
                            SolitaryWave, StepFailure,
                            WaveInterpolant, equation_residual,
                            find_excited_state, find_ground_state,
                            fit_tail_decay, load_wave, resample_wave, save_wave)

from conftest import AMP, KAPPA, MIXED, ODD

# the cubic-quintic potential of test_cubic_quintic.py
CQ = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6)), amplitude_cap=10.0)


def _undershoots(spec, n, k, s):
    # the sign bit of the shot's miss is its outcome: + Undershot, - Overshot
    return math.copysign(1.0, radial._shoot(spec, 0.8, n, k, s)) > 0


class TestShootClassification:
    def test_exact_datum_separates_outcomes(self, cubic, wave_k1):
        # every shot ends on one side of the separatrix: just below the exact
        # datum undershoots, just above overshoots, with no decay outcome even
        # where the trajectory tracks the profile far down its tail
        for n, k, s in ((1, 0, AMP), (2, 1, wave_k1.profile.shoot_param)):
            for rel in (1e-7, 1e-9):
                for factor, expected in ((1 - rel, True), (1 + rel, False)):
                    out = _undershoots(cubic, n, k, s * factor)
                    assert out is expected, f"n={n}, k={k}, s*{factor}: undershot {out}"

    def test_double_amplitude_overshoots(self, cubic, wave_k1):
        assert not _undershoots(cubic, 1, 0, 2 * AMP)
        assert not _undershoots(cubic, 2, 1, 2 * wave_k1.profile.shoot_param)

    def test_half_amplitude_undershoots(self, cubic, wave_k1):
        assert _undershoots(cubic, 1, 0, 0.5 * AMP)
        assert _undershoots(cubic, 2, 1, 0.5 * wave_k1.profile.shoot_param)

    @pytest.mark.parametrize("n, k, factor", [
        (1, 0, 1 - 1e-7), (1, 0, 1 + 1e-7), (1, 0, 1 - 1e-9), (1, 0, 1 + 1e-9),
        (2, 1, 1 - 1e-7), (2, 1, 1 + 1e-7), (2, 1, 1 - 1e-9), (2, 1, 1 + 1e-9),
        (2, 1, 2.0), (2, 1, 0.5),
    ])
    def test_kept_trajectory_has_no_sign_change(self, cubic, wave_k1, n, k, factor):
        # the dense shot stops before its terminating step, so the trajectory
        # _assemble_profile cuts and samples never crosses zero, an overshoot's
        # included; checked at every step end and on the profile spacing
        s = factor * (AMP if k == 0 else wave_k1.profile.shoot_param)
        sol = radial._shoot(cubic, 0.8, n, k, s, dense=True)
        h = 1.0 / (radial.GRID_DENSITY * KAPPA)
        r = np.union1d(sol.ts, np.arange(sol.t_min, sol.t_max, h))
        assert radial._count_sign_changes(sol(r)[0]) == 0

    def test_phase_plane_oracle_sweep(self, cubic):
        # 1D conservative motion: W(s) = omega^2 s^2/2 - U(s) decides the side.
        # W < 0 confines the trajectory (undershoot), W > 0 lets it cross zero.
        for s in np.linspace(0.1, 2.5, 12):
            if abs(s - AMP) < 0.05:
                continue
            w_val = 0.8**2 * s**2 / 2 - evaluate_potential(cubic, s)
            out = _undershoots(cubic, 1, 0, float(s))
            assert out == (w_val < 0), f"s={s}: undershot {out} but W={w_val}"


class TestShotContract:
    """The shot is odd in its datum: psi -> -psi maps every shot, its outcome
    and its miss onto themselves, and a shot that reaches the end of its range
    unclassified is refused."""

    WAVES = [(None, 0.8, 1, 0), (None, 0.8, 2, 0), (None, 0.8, 3, 0), (None, 0.8, 2, 1),
             (None, 0.8, 2, 2), (CQ, 0.7, 3, 0), (ODD, 0.8, 2, 0), (ODD, 0.8, 3, 0),
             (MIXED, 0.8, 1, 0), (MIXED, 0.8, 2, 1)]

    @pytest.mark.parametrize("spec, omega, n, k", WAVES,
                             ids=["cubic-n1", "cubic-n2", "cubic-n3", "cubic-k1", "cubic-k2",
                                  "cq-n3", "odd-n2", "odd-n3", "mixed-n1", "mixed-k1"])
    def test_negation_symmetry(self, cubic, spec, omega, n, k):
        # at the root (f = 1 +- 1e-6 track the profile deep into its tail)
        # and on either side of it, bit for bit
        spec = spec or cubic
        wave = (find_ground_state(spec, omega, n) if k == 0
                else find_excited_state(spec, omega, k))
        s_star = wave.profile.shoot_param
        for f in (0.5, 1 - 1e-6, 1 + 1e-6, 1.5):
            s = f * s_star
            assert radial._shoot(spec, omega, n, k, -s).hex() == \
                radial._shoot(spec, omega, n, k, s).hex(), f"s = {f} s*"
            pos = radial._shoot(spec, omega, n, k, s, dense=True)
            neg = radial._shoot(spec, omega, n, k, -s, dense=True)
            assert neg.ts.tobytes() == pos.ts.tobytes(), f"s = {f} s*"
            # equal floats (a zero, such as R'(0), is +0.0 on both sides)
            assert np.array_equal(neg._rows, -pos._rows), f"s = {f} s*"
        p = wave.profile
        q = radial._assemble_profile(spec, omega, n, k, -s_star, p.h_r)
        assert q.shoot_param == -s_star and q.node_count == 0
        assert q.prefactor == -p.prefactor
        assert (q.numeric_radius, q.match_radius) == (p.numeric_radius, p.match_radius)
        assert q.r_grid.tobytes() == p.r_grid.tobytes()
        assert np.array_equal(q.values, -p.values)
        assert np.array_equal(q.derivative, -p.derivative)

    @pytest.mark.parametrize("s", [1e-40, 1e-170, -1e-170, 1e-300])
    def test_tiny_datum_reaches_the_range_end(self, cubic, s):
        # a tiny datum grows like e^{delta r} and stays far below the guard out
        # to SHOT_RANGE / delta: neither outcome, so no miss.  Below ~1e-162
        # R_new * R underflows to 0, which read as a sign change would end the
        # shot Overshot on its first step
        with pytest.raises(StepFailure, match="end of its range"):
            radial._shoot(cubic, 0.8, 1, 0, s)

    def test_tiny_datum_assembles_no_profile(self, cubic):
        with pytest.raises(StepFailure, match="end of its range"):
            radial._assemble_profile(cubic, 0.8, 2, 0, 1e-40, 1.0 / (radial.GRID_DENSITY * KAPPA))


class TestStepper:
    # below ~2.5e-310 the error tolerance 1e-14 |s| underflows to 0
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, 5e-324, -1e-320])
    def test_degenerate_datum_raises(self, cubic, s):
        with pytest.raises(ValueError, match="finite and nonzero"):
            radial._shoot(cubic, 0.8, 1, 0, s)

    @pytest.mark.parametrize("dense", [False, True])
    def test_non_finite_equation_fails_typed(self, cubic, monkeypatch, dense):
        # a NaN R'' past r = 1 gives a NaN error estimate, which must end the
        # shot in StepFailure rather than shrink a NaN step forever; the NaN
        # enters the stepper's stages as the step's starting R''
        stepper = radial._stepper

        def broken(*args):
            stages, dense_piece = stepper(*args)
            return (lambda r, h, R, kR0, kD0: stages(r, h, R, kR0, kD0 if r <= 1.0 else math.nan),
                    dense_piece)

        monkeypatch.setattr(radial, "_stepper", broken)
        with pytest.raises(StepFailure, match="error estimate nan"):
            radial._shoot(cubic, 0.8, 1, 0, AMP, dense=dense)

    def test_import_compiles_no_stepper(self):
        # steppers are generated on a solve's first use of an exponent tuple,
        # never at import: a fresh interpreter's `import solwave.cli` (the
        # library import a CLI run or a benchmark set-up pays) compiles none
        script = "import solwave.cli, solwave.radial as r; print(r._STEPPERS)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(radial.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout == "{}\n"

    def test_ladder_stage_count(self, cubic, monkeypatch):
        # the benchmark ladder's five solves at omega = 0.825, costed in
        # stepper calls rather than time: 4422 from the origin series at its
        # r0; a start at 1e-6/delta (k = 0) or 1e-3/delta (k >= 1) took 7329
        stepper, calls = radial._stepper, []

        def counting(*args):
            stages, dense_piece = stepper(*args)

            def counted(*step):
                calls.append(None)
                return stages(*step)

            return counted, dense_piece

        monkeypatch.setattr(radial, "_stepper", counting)
        for n in (1, 2, 3):
            find_ground_state(cubic, 0.825, n)
        for k in (1, 2):
            find_excited_state(cubic, 0.825, k)
        assert len(calls) <= 5000

    @pytest.mark.parametrize("factor", [0.5, 1 - 1e-3, 1 + 1e-3])
    def test_first_integral_along_dense_shot(self, cubic, factor):
        # in 1D R'^2 - 2U(R) + omega^2 R^2 is conserved; checked at every step
        # end and step midpoint of the dense shot, whose interpolant is built
        # from the three extra stages and the D rows
        s = factor * AMP
        sol = radial._shoot(cubic, 0.8, 1, 0, s, dense=True)
        ts = np.asarray(sol.ts)
        R, dR = sol(np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])]))
        first = dR**2 - 2.0 * evaluate_potential(cubic, R) + 0.8**2 * R**2
        origin = -2.0 * evaluate_potential(cubic, s) + 0.8**2 * s**2
        assert np.max(np.abs(first - origin)) < 1e-12 * AMP**2


class TestRootFinding:
    @pytest.mark.parametrize("n, k", [(1, 0), (2, 0), (3, 0), (2, 1), (2, 2)])
    def test_solve_shot_count(self, cubic, monkeypatch, n, k):
        # scan, root-finding and the dense shot together, counted per call
        calls = []
        shoot_once = radial._shoot

        def counted(*args, **kwargs):
            calls.append(args)
            return shoot_once(*args, **kwargs)

        monkeypatch.setattr(radial, "_shoot", counted)
        if k == 0:
            find_ground_state(cubic, 0.8, n)
        else:
            find_excited_state(cubic, 0.8, k)
        assert len(calls) <= 32

    @pytest.mark.parametrize("potential, omega", [("cubic", 0.8), ("cubic", 0.85), ("cq", 0.7)])
    @pytest.mark.parametrize("n, k", [(1, 0), (2, 0), (3, 0), (2, 1), (2, 2)])
    def test_root_phase_shot_count(self, cubic, monkeypatch, potential, omega, n, k):
        # a miss linear in s keeps Brent's secant steps near Newton's: the
        # rtol-1e-12 root-finding shots (the ones passing no rtol and not
        # dense) number 7-10 per solve; a miss that drifts with the radius
        # where the shot ends took 12-18 for n >= 2 or k >= 1
        spec = cubic if potential == "cubic" else CQ
        root_shots = []
        shoot_once = radial._shoot

        def counted(*args, **kwargs):
            if not kwargs:
                root_shots.append(args)
            return shoot_once(*args, **kwargs)

        monkeypatch.setattr(radial, "_shoot", counted)
        if k == 0:
            find_ground_state(spec, omega, n)
        else:
            find_excited_state(spec, omega, k)
        assert len(root_shots) <= 11

    @pytest.mark.parametrize("potential, omega", [("cubic", 0.8), ("cq", 0.7)])
    @pytest.mark.parametrize("n, k", [(2, 0), (3, 0), (2, 1), (2, 2)])
    def test_self_convergence(self, cubic, monkeypatch, potential, omega, n, k):
        # no closed form beyond n = 1: the root must hold against a solve
        # whose root-finding and dense shots run at rtol 1e-13 (the scan's
        # rtol-1e-6 shots pass their rtol and keep it)
        spec = cubic if potential == "cubic" else CQ

        def solve():
            wave = find_ground_state(spec, omega, n) if k == 0 else find_excited_state(spec, omega, k)
            return wave.profile.shoot_param

        s = solve()
        shoot = radial._shoot
        monkeypatch.setattr(radial, "_shoot",
                            lambda *args, rtol=1e-13, **kwargs: shoot(*args, rtol=rtol, **kwargs))
        assert s == pytest.approx(solve(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("omega", [0.80, 0.825, 0.85])
    def test_sech_oracle_shoot_param_tight(self, cubic, omega):
        wave = find_ground_state(cubic, omega, 1)
        exact = np.sqrt(2.0 * (1.0 - omega**2))
        assert wave.profile.shoot_param == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["wave_1d", "wave_2d", "wave_3d",
                                         "wave_k1", "wave_k2"])
    def test_miss_sign_is_outcome(self, request, fixture):
        # the root-finder's bracket is certified only if the miss changes
        # sign exactly where the classification does
        wave = request.getfixturevalue(fixture)
        s = wave.profile.shoot_param
        for eps in (1e-3, 1e-6, 1e-9):
            for factor, sign in ((1 - eps, 1.0), (1 + eps, -1.0)):
                miss = radial._shoot(wave.spec, wave.omega, wave.n, wave.k, s * factor)
                assert sign * miss > 0, f"{fixture}, s*{factor}: miss {miss}"

    @pytest.mark.parametrize("fixture", ["wave_1d", "wave_2d", "wave_3d",
                                         "wave_k1", "wave_k2"])
    def test_miss_is_linear_in_the_datum(self, request, fixture):
        # the miss is the growing mode's coefficient, so miss / (s - s*) is one
        # slope from |s/s* - 1| = 1e-3 down to 1e-9, although the shots end at
        # radii several 1/delta apart (a miss read off the terminating step's
        # R' + (delta + (n-1)/(2r)) R drifts 1.2-2.6x over this range)
        wave = request.getfixturevalue(fixture)
        s = wave.profile.shoot_param
        slopes = [abs(radial._shoot(wave.spec, wave.omega, wave.n, wave.k, s * factor)
                      / (s * factor - s))
                  for eps in (1e-3, 1e-6, 1e-9) for factor in (1 - eps, 1 + eps)]
        assert max(slopes) / min(slopes) < 1.05, f"{fixture}: slopes {slopes}"

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(terms=st.lists(st.tuples(st.integers(-100, 200).map(lambda c: c / 100),
                                    st.integers(3, 8)),
                          min_size=1, max_size=3),
           omega=st.floats(0.3, 0.95))
    def test_random_potential_oracle(self, terms, omega):
        # in 1D the shoot parameter is the first zero of U(a) - omega^2 a^2 / 2.
        # Couplings lie on a 0.01 lattice in [-1, 2]; expected_amplitude beside
        # couplings many decades smaller is tested in test_potential.py
        a_star = expected_amplitude(
            PotentialSpec(mass_sq=1.0, terms=tuple(terms), amplitude_cap=1.0), omega)
        assume(a_star is not None)
        spec = PotentialSpec(mass_sq=1.0, terms=tuple(terms), amplitude_cap=10.0 * a_star)
        wave = find_ground_state(spec, omega, 1)
        assert wave.profile.shoot_param == pytest.approx(a_star, rel=1e-10)


class TestGroundState:
    def test_sech_oracle_shoot_param(self, wave_1d):
        assert wave_1d.profile.shoot_param == pytest.approx(AMP, rel=1e-6)

    def test_sech_oracle_pointwise(self, wave_1d):
        p = wave_1d.profile
        mask = p.r_grid <= p.numeric_radius
        exact = AMP / np.cosh(KAPPA * p.r_grid[mask])
        assert np.max(np.abs(p.values[mask] - exact)) < 1e-6

    def test_delta_equals_linearization(self, wave_1d, wave_2d, wave_3d):
        for wave in (wave_1d, wave_2d, wave_3d):
            assert wave.delta == pytest.approx(np.sqrt(1.0 - 0.8**2), rel=1e-6)

    def test_fitted_decay_rate(self, wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
        for wave in (wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
            assert fit_tail_decay(wave) == pytest.approx(KAPPA, rel=1e-4)

    def test_tail_bound_pointwise(self, wave_2d):
        # |R(r)| <= C e^{-delta r} past match_radius for a fitted C
        p, delta = wave_2d.profile, wave_2d.delta
        tail = p.r_grid >= p.match_radius
        r, v = p.r_grid[tail], np.abs(p.values[tail])
        c_fit = np.max(v * np.exp(delta * r))
        assert np.all(v <= c_fit * np.exp(-delta * r) * (1 + 1e-12))

    def test_no_nodes(self, wave_1d, wave_2d, wave_3d):
        for wave in (wave_1d, wave_2d, wave_3d):
            assert wave.profile.node_count == 0
            assert radial._count_sign_changes(wave.profile.values) == 0

    def test_amplitude_within_cap(self, cubic, wave_3d):
        assert np.max(np.abs(wave_3d.profile.values)) <= cubic.amplitude_cap

    def test_near_critical_frequency(self, cubic):
        wave = find_ground_state(cubic, 0.999, 1)
        delta = np.sqrt(1 - 0.999**2)
        assert wave.delta == pytest.approx(delta, rel=1e-12)
        # wide profile: half-width scales like 1/delta
        p = wave.profile
        half = p.r_grid[np.abs(p.values) > 0.5 * np.max(np.abs(p.values))][-1]
        assert half > 10.0

    def test_scaling_covariance(self, cubic, wave_1d):
        # b -> lam b sends the profile to R / sqrt(lam) pointwise
        for lam in (0.5, 2.0):
            scaled = PotentialSpec(mass_sq=1.0, terms=((lam, 4),), amplitude_cap=8.5)
            wave = find_ground_state(scaled, 0.8, 1)
            p, q = wave.profile, wave_1d.profile
            m = min(p.values.size, q.values.size)
            keep = p.r_grid[:m] <= min(p.numeric_radius, q.numeric_radius)
            diff = p.values[:m][keep] - q.values[:m][keep] / np.sqrt(lam)
            assert np.max(np.abs(diff)) < 1e-6

    def test_n_validation(self, cubic, monkeypatch):
        # the dimension is checked before the first shot
        calls = []
        monkeypatch.setattr(radial, "_shoot", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
            find_ground_state(cubic, 0.8, 4)
        assert calls == []

    def test_no_bracket_for_defocusing(self):
        spec = PotentialSpec(mass_sq=1.0, terms=((-1.0, 4),), amplitude_cap=10.0)
        with pytest.raises(NoBracket):
            find_ground_state(spec, 0.8, 1)

    def test_ground_cap_below_amplitude_gives_no_bracket(self):
        # for ground states the peak equals the shoot parameter, so a cap
        # below the soliton amplitude leaves the scan with no overshoot side
        spec = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=0.7)
        with pytest.raises(NoBracket):
            find_ground_state(spec, 0.8, 1)

    def test_excited_peak_above_cap_warns(self):
        # the excited shoot parameter is a slope coefficient; the attained
        # peak can exceed the scanned range and must be flagged
        spec = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=0.6)
        with pytest.warns(RuntimeWarning, match="amplitude_cap"):
            wave = find_excited_state(spec, 0.8, 1)
        assert np.max(np.abs(wave.profile.values)) > 0.6


class TestExcitedStates:
    def test_origin_behavior(self, wave_k1, wave_k2):
        for wave, k in ((wave_k1, 1), (wave_k2, 2)):
            p = wave.profile
            assert p.values[0] == 0.0
            # R ~ s r^k near the origin
            r_small = p.r_grid[1:6]
            expected = p.shoot_param * r_small**k
            np.testing.assert_allclose(p.values[1:6], expected, rtol=1e-3)

    def test_first_extremum_positive_no_nodes(self, wave_k1, wave_k2):
        for wave in (wave_k1, wave_k2):
            assert np.max(wave.profile.values) > 0
            assert wave.profile.node_count == 0

    def test_dimension_is_two(self, wave_k1):
        assert wave_k1.n == 2
        with pytest.raises(ValueError):
            SolitaryWave(n=3, k=1, omega=0.8, profile=wave_k1.profile,
                         spec=wave_k1.spec)

    def test_k_validation(self, cubic):
        with pytest.raises(ValueError):
            find_excited_state(cubic, 0.8, 0)

    def test_non_integral_indices(self, cubic, wave_k1, monkeypatch):
        # a wave index must be an integer (numpy's included), checked before the first shot
        calls = []
        monkeypatch.setattr(radial, "_shoot", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3, got 2.0"):
            find_ground_state(cubic, 0.8, 2.0)
        with pytest.raises(ValueError, match="integer angular index"):
            find_excited_state(cubic, 0.8, 1.5)
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
            SolitaryWave(n=2.0, k=0, omega=0.8, profile=wave_k1.profile, spec=cubic)
        with pytest.raises(ValueError, match="angular index must be >= 0 and an integer"):
            SolitaryWave(n=2, k=1.0, omega=0.8, profile=wave_k1.profile, spec=cubic)
        assert calls == []
        wave = SolitaryWave(n=np.int64(2), k=np.int64(1), omega=0.8,
                            profile=wave_k1.profile, spec=cubic)
        assert (wave.n, wave.k) == (2, 1)


class TestEquationResidual:
    def test_exact_sech_converges_quadratically(self, cubic):
        residuals = []
        for h in (0.04, 0.02, 0.01):
            r = np.arange(0, 30, h)
            vals = AMP / np.cosh(KAPPA * r)
            ders = -AMP * KAPPA * np.sinh(KAPPA * r) / np.cosh(KAPPA * r) ** 2
            # AMP sech(KAPPA r) ~ 2 AMP e^{-KAPPA r}; the grid is exact data throughout
            prof = RadialProfile(r_grid=r, values=vals, derivative=ders,
                                 node_count=0, shoot_param=AMP, numeric_radius=r[-1],
                                 prefactor=2 * AMP, match_radius=r[-1])
            wave = SolitaryWave(n=1, k=0, omega=0.8, profile=prof, spec=cubic)
            residuals.append(equation_residual(wave))
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.1)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.1)

    def test_too_few_points_refused(self, wave_1d):
        p = wave_1d.profile
        short = dataclasses.replace(p, r_grid=p.r_grid[:4], values=p.values[:4],
                                    derivative=p.derivative[:4])
        with pytest.raises(ValueError, match="at least 5 grid points"):
            equation_residual(dataclasses.replace(wave_1d, profile=short))

    def test_converged_wave_small_residual(self, wave_1d):
        assert equation_residual(wave_1d) < 1e-6

    def test_perturbed_profile_large_residual(self, wave_1d):
        p = wave_1d.profile
        prof = RadialProfile(r_grid=p.r_grid, values=p.values + 0.01,
                             derivative=p.derivative, node_count=p.node_count,
                             shoot_param=p.shoot_param, numeric_radius=p.numeric_radius,
                             prefactor=p.prefactor, match_radius=p.match_radius)
        wave = SolitaryWave(n=1, k=0, omega=0.8, profile=prof, spec=wave_1d.spec)
        assert equation_residual(wave) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_refines_quadratically(self, request, n):
        wave = request.getfixturevalue(f"wave_{n}d")
        r1 = equation_residual(resample_wave(wave, 0.02))
        r2 = equation_residual(resample_wave(wave, 0.01))
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_residual_decreases_for_excited(self, wave_k1):
        # the odd k=1 profile limits the near-axis rate to O(h); still monotone
        r1 = equation_residual(resample_wave(wave_k1, 0.02))
        r2 = equation_residual(resample_wave(wave_k1, 0.01))
        assert r1 / r2 > 1.8


class TestCertification:
    """Solved and resampled profiles are assembled and checked by one path."""

    def test_interior_node_raises(self, cubic, wave_1d, monkeypatch):
        monkeypatch.setattr(radial, "_count_sign_changes", lambda values: 1)
        with pytest.raises(NodeCountMismatch, match="1 interior nodes"):
            find_ground_state(cubic, 0.8, 1)
        with pytest.raises(NodeCountMismatch, match="1 interior nodes"):
            resample_wave(wave_1d, 0.02)

    def test_resampled_peak_above_cap_warns(self, wave_1d):
        # the peak is AMP = 0.8485; a cap below it is flagged on resampling too
        spec = dataclasses.replace(wave_1d.spec, amplitude_cap=0.5)
        wave = dataclasses.replace(wave_1d, spec=spec)
        with pytest.warns(RuntimeWarning, match="exceeds amplitude_cap 0.5"):
            resample_wave(wave, 0.02)

    @pytest.mark.parametrize("fixture", ["wave_k1", "wave_k2"])
    def test_resample_finer_than_the_shot_start(self, request, fixture):
        # a fine grid takes the origin series before the shot's start r0 and
        # the trajectory after it.  Near r = 0 the series is s r^k + c r^{k+2}
        # up to its r^{k+4} terms; on both sides of r0, up to 2 r0, the
        # profile is an rtol-1e-13 integration from 1e-6/delta started there
        wave = request.getfixturevalue(fixture)
        spec, omega, n, s, k = wave.spec, wave.omega, wave.n, wave.profile.shoot_param, wave.k
        p = resample_wave(wave, 0.25e-3 / wave.delta).profile
        r = p.r_grid[1:12]
        c = (spec.mass_sq - omega**2) * s / (4.0 * (k + 1))
        np.testing.assert_allclose(p.values[1:12], s * r**k + c * r ** (k + 2), rtol=1e-9)
        np.testing.assert_allclose(p.derivative[1:12],
                                   k * s * r ** (k - 1) + (k + 2) * c * r ** (k + 1), rtol=1e-9)

        r0, _ = radial._origin_series(spec, omega, n, k, s)
        stop = int(np.searchsorted(p.r_grid, 2.0 * r0))
        r = p.r_grid[1:stop]
        assert r[0] < r0 < r[-1]
        r_in = 1e-6 / wave.delta
        start = [s * r_in**k + c * r_in ** (k + 2),
                 k * s * r_in ** (k - 1) + (k + 2) * c * r_in ** (k + 1)]
        f = radial._rhs(spec, omega, n, k)
        reference = scipy.integrate.solve_ivp(lambda x, y: [y[1], f(x, y[0], y[1])],
                                              (r_in, r[-1]), start, method="DOP853",
                                              t_eval=r, rtol=1e-13, atol=1e-30 * s).y
        np.testing.assert_allclose(p.values[1:stop], reference[0], rtol=1e-10)
        np.testing.assert_allclose(p.derivative[1:stop], reference[1], rtol=1e-10)

    @pytest.mark.parametrize("fixture", ["wave_1d", "wave_2d", "wave_3d", "wave_k1"])
    def test_resample_coarse_widens_the_fit_windows(self, request, fixture):
        # at 2 points per 1/delta the clean decade holds under 8 points, so
        # the prefactor fit (and, for n = 1, fit_tail_decay) widens its
        # window; both stay close to the native grid's fit
        wave = request.getfixturevalue(fixture)
        coarse = resample_wave(wave, 0.5 / wave.delta)
        assert abs(fit_tail_decay(coarse) - wave.delta) < 1e-4
        assert coarse.profile.prefactor == pytest.approx(wave.profile.prefactor, rel=1e-4)

    def test_resample_refuses_a_trajectory_under_16_points(self, wave_1d):
        with pytest.raises(StepFailure, match=r"too short to assemble \(r_end=32.2\)"):
            resample_wave(wave_1d, 5.0)

    @pytest.mark.parametrize("h_r", [0.0, -0.01, math.nan, math.inf])
    def test_resample_refuses_a_bad_spacing(self, wave_1d, h_r):
        with pytest.raises(ValueError, match="h_r must be finite and positive"):
            resample_wave(wave_1d, h_r)


class TestNodeCounting:
    def test_sech_profile(self, wave_1d):
        p = wave_1d.profile
        assert radial._count_sign_changes(p.values[p.r_grid < p.match_radius]) == 0

    def test_sign_flip_still_node_free(self, wave_1d):
        assert radial._count_sign_changes(-wave_1d.profile.values) == 0

    @pytest.mark.parametrize("values", [[], [1.0], [0.0, -2.0, 0.0]])
    def test_fewer_than_two_signs(self, values):
        assert radial._count_sign_changes(values) == 0

    def test_synthetic_single_root(self):
        r = np.linspace(0, 10, 2001)
        assert radial._count_sign_changes((1 - r) * np.exp(-r)) == 1


class TestInterpolantAndSerialization:
    def test_interpolant_matches_oracle(self, wave_1d):
        # between the nodes (0.37 h past each), through the stored grid and
        # 10/delta into the analytic tail; the nodes themselves carry 2.2e-11
        # (R) and the interpolant 2.2e-11 (R) and 2.7e-11 (R')
        p = wave_1d.profile
        r = np.arange(0.37, (p.r_grid[-1] + 10.0 / KAPPA) / p.h_r) * p.h_r
        R, dR = WaveInterpolant(wave_1d)(r)
        assert np.max(np.abs(R - AMP / np.cosh(KAPPA * r))) < 1e-10 * AMP
        d_exact = -AMP * KAPPA * np.sinh(KAPPA * r) / np.cosh(KAPPA * r) ** 2
        assert np.max(np.abs(dR - d_exact)) < 1e-10 * AMP * KAPPA

    @pytest.mark.parametrize("fixture", ["wave_k1", "wave_k2"])
    def test_interpolant_near_axis(self, request, fixture):
        # R ~ s r^k at the first cell midpoints; k = 2 needs R''(0) = 2s from
        # the origin series at the first node
        wave = request.getfixturevalue(fixture)
        p, k = wave.profile, wave.k
        r = (np.arange(5) + 0.5) * p.h_r
        R, dR = WaveInterpolant(wave)(r)
        s = p.shoot_param
        np.testing.assert_allclose(R, s * r**k, rtol=1e-3)
        np.testing.assert_allclose(dR, k * s * r ** (k - 1), rtol=1e-3)

    def test_interpolant_tail_region(self, wave_1d):
        mr = wave_1d.profile.match_radius
        r = np.linspace(mr + 1, mr + 15, 50)
        exact = 2 * AMP * np.exp(-KAPPA * r)
        np.testing.assert_allclose(WaveInterpolant(wave_1d)(r)[0], exact, rtol=1e-4)

    def test_save_load_roundtrip(self, wave_2d, cubic, tmp_path):
        csv_path = tmp_path / "wave.csv"
        sidecar = tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        back = load_wave(csv_path, sidecar, cubic)
        assert back.n == wave_2d.n and back.k == wave_2d.k
        assert back.omega == wave_2d.omega
        np.testing.assert_allclose(back.profile.values, wave_2d.profile.values,
                                   rtol=0, atol=1e-16)
        assert back.profile.prefactor == wave_2d.profile.prefactor
        assert back.profile.match_radius == wave_2d.profile.match_radius
        assert back.delta == wave_2d.delta
        # no 'delta' is saved (the loader takes it from omega and the spec),
        # and a sidecar that still carries one loads as before
        meta = json.loads(sidecar.read_text())
        assert "delta" not in meta
        sidecar.write_text(json.dumps(meta | {"delta": wave_2d.delta}))
        again = load_wave(csv_path, sidecar, cubic)
        assert again.profile.values.tobytes() == back.profile.values.tobytes()
        assert again.delta == wave_2d.delta

    def test_save_load_bit_exact(self, wave_2d, cubic, tmp_path):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        back = load_wave(csv_path, sidecar, cubic).profile
        for name in ("r_grid", "values", "derivative"):
            saved = getattr(wave_2d.profile, name)
            assert getattr(back, name).tobytes() == saved.tobytes()

    @pytest.mark.parametrize("field", ["", "abc", "nan", "-inf"])
    def test_load_refuses_a_bad_field(self, wave_2d, cubic, tmp_path, field):
        # one R value on line 6 replaced: an empty or non-numeric field once
        # loaded silently as NaN
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        lines = csv_path.read_text().split("\n")
        r, _, dR = lines[5].split(",")
        lines[5] = ",".join([r, field, dR])
        csv_path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="wave.csv"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("keep", [2, 4])
    def test_load_refuses_rows_without_three_columns(self, wave_2d, cubic, tmp_path, keep):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        csv_path.write_text("".join(",".join((row * 2)[:keep]) + "\n" for row in rows))
        with pytest.raises(ValueError, match="wave.csv"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("s", [1e-40, 5e-324])
    def test_load_refuses_a_datum_with_no_rebuild(self, wave_2d, cubic, tmp_path, s):
        # 1e-40 reaches the end of the shot's range unclassified, and 5e-324
        # (subnormal) is refused by the shot before it divides by its tolerance
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        sidecar.write_text(json.dumps(json.loads(sidecar.read_text()) | {"shoot_param": s}))
        with pytest.raises(ValueError, match=f"wave.json: no rebuild from 'shoot_param' {s!r}"):
            load_wave(csv_path, sidecar, cubic)

    def test_load_refuses_missing_rows(self, wave_2d, cubic, tmp_path):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-10]))
        size = wave_2d.profile.r_grid.size
        with pytest.raises(ValueError, match=f"wave.csv: {size - 10} rows, the rebuilt "
                                             f"profile has {size}"):
            load_wave(csv_path, sidecar, cubic)

    def test_save_numpy_integer_indices(self, wave_2d, cubic, tmp_path):
        # numpy integers are valid wave indices, so the sidecar must take them
        wave = SolitaryWave(n=np.int64(2), k=np.int64(0), omega=0.8,
                            profile=wave_2d.profile, spec=cubic)
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave, csv_path, sidecar)
        back = load_wave(csv_path, sidecar, cubic)
        assert (back.n, back.k) == (2, 0)

    def test_load_refuses_another_potential(self, wave_2d, tmp_path):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        # the cubic-quintic potential of test_cubic_quintic.py
        cq = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6)), amplitude_cap=10.0)
        with pytest.raises(ValueError) as exc:
            load_wave(csv_path, sidecar, cq)
        assert "terms=[[1.0, 4]]," in str(exc.value)
        assert "terms=[[1.0, 4], [-0.1, 6]]" in str(exc.value)
        # amplitude_cap only bounds the scan
        wider = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=20.0)
        assert load_wave(csv_path, sidecar, wider).profile.shoot_param == wave_2d.profile.shoot_param

    @pytest.mark.parametrize("key, value, message", [
        ("n", 4, "dimension must be 1, 2 or 3"),
        ("k", -1, "angular index must be >= 0"),
    ])
    def test_load_refuses_bad_wave_index(self, wave_2d, cubic, tmp_path, key, value,
                                         message):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("key, value", [("n", 2.9), ("k", 0.5), ("node_count", 0.7),
                                            ("n", "2.5")])
    def test_load_refuses_a_fractional_index(self, wave_2d, cubic, tmp_path, key, value):
        # each once loaded truncated: n = 2, k = 0, 0 nodes
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"wave.json: '{key}' must be a whole number"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("key", ["n", "k", "omega", "node_count", "shoot_param",
                                     "numeric_radius", "prefactor", "match_radius"])
    @pytest.mark.parametrize("value", [None, "abc", [1.0], math.nan, 10**400],
                             ids=["missing", "text", "list", "nan", "huge"])
    def test_load_refuses_a_bad_sidecar(self, wave_2d, cubic, tmp_path, key, value):
        # value None drops the key
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"wave.json: .*'{key}'"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("edit", ["negative match", "match past the grid",
                                      "numeric past match"])
    def test_load_refuses_radii_off_the_grid(self, wave_2d, cubic, tmp_path, edit):
        # RadialProfile promises r_grid[0] <= numeric_radius <= match_radius
        # <= r_grid[-1], and boost.grid_for sizes its box from match_radius
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        p = wave_2d.profile
        if edit == "negative match":
            meta["match_radius"] = -5.0
        elif edit == "match past the grid":
            meta["match_radius"] = float(p.r_grid[-1]) + 1.0
        else:
            meta["numeric_radius"], meta["match_radius"] = p.match_radius, p.numeric_radius
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="wave.json: 'numeric_radius' .* and 'match_radius'"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("edit", ["shifted", "one radius off", "one row",
                                      "two rows at a fine spacing"])
    def test_load_refuses_an_r_column_off_the_uniform_grid(self, wave_2d, cubic, tmp_path,
                                                           edit):
        # WaveInterpolant and compute_functionals read the profile on r_j = j h
        # from r = 0: radii shifted by +0.5 once loaded, with E_0 13.91, not 9.595
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        if edit == "shifted":
            data[:, 0] += 0.5
        elif edit == "one radius off":
            data[100, 0] += 1e-6 * wave_2d.profile.h_r
        elif edit == "one row":
            data = data[:1]
        else:  # a rebuild at this spacing would take 1e11 points
            data = data[:2]
            data[1, 0] = 1e-9
        np.savetxt(csv_path, data, fmt="%.17g", delimiter=",", header="r,R,dR", comments="")
        with pytest.raises(ValueError, match="wave.csv: the r column"):
            load_wave(csv_path, sidecar, cubic)

    def test_load_refuses_omega_without_a_decaying_tail(self, wave_2d, cubic, tmp_path):
        # omega^2 >= mass_sq once loaded and failed on first use, in delta's sqrt
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta["omega"] = 1.5
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="wave.json: 'omega' 1.5"):
            load_wave(csv_path, sidecar, cubic)

    def test_load_refuses_a_sidecar_that_is_not_an_object(self, wave_2d, cubic, tmp_path):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        sidecar.write_text(json.dumps([json.loads(sidecar.read_text())]))
        with pytest.raises(ValueError, match="wave.json: expected a JSON object"):
            load_wave(csv_path, sidecar, cubic)

    def test_load_refuses_rounded_sidecar_numbers(self, wave_2d, cubic, tmp_path):
        # the rebuilt profile is held to the sidecar's values: rounded ones
        # (once coerced to float and loaded) are refused, naming the key
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        saved = json.loads(sidecar.read_text())
        for key in ("shoot_param", "numeric_radius", "prefactor", "match_radius"):
            sidecar.write_text(json.dumps(saved | {key: round(saved[key])}))
            with pytest.raises(ValueError, match=f"wave.json: .*'{key}'"):
                load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("key, edit", [
        ("node_count", lambda value: 3),
        ("shoot_param", lambda value: 1.5 * value),
        ("prefactor", lambda value: -value),
    ], ids=["node_count=3", "shoot_param*1.5", "prefactor negated"])
    def test_load_refuses_a_doctored_sidecar(self, wave_2d, cubic, tmp_path, key, edit):
        # each once loaded: node_count as told, R''(0) from the wrong datum
        # in WaveInterpolant, or the tail past r_end with its sign flipped
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        meta = json.loads(sidecar.read_text())
        meta[key] = edit(meta[key])
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="wave.json"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("column", [1, 2])
    def test_load_refuses_a_perturbed_value(self, wave_2d, cubic, tmp_path, column):
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_2d, csv_path, sidecar)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        data[500, column] *= 1 + 1e-12
        np.savetxt(csv_path, data, fmt="%.17g", delimiter=",", header="r,R,dR", comments="")
        with pytest.raises(ValueError, match=f"wave.csv: the {['R', 'dR'][column - 1]} column"):
            load_wave(csv_path, sidecar, cubic)

    @pytest.mark.parametrize("fixture, h_r", [
        ("wave_1d", None), ("wave_3d", None), ("wave_k1", None), ("wave_k2", None),
        ("wave_1d", 0.02), ("wave_k1", 0.0137), ("cq_3d", None),
    ])
    def test_load_rebuilds_bit_exact(self, request, tmp_path, fixture, h_r):
        if fixture == "cq_3d":
            wave = find_ground_state(CQ, 0.7, 3)
        else:
            wave = request.getfixturevalue(fixture)
        if h_r is not None:
            wave = resample_wave(wave, h_r)
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave, csv_path, sidecar)
        back = load_wave(csv_path, sidecar, wave.spec)
        for name in ("r_grid", "values", "derivative"):
            assert getattr(back.profile, name).tobytes() == getattr(wave.profile, name).tobytes()
        assert (back.n, back.k, back.omega) == (wave.n, wave.k, wave.omega)
        for name in ("node_count", "shoot_param", "numeric_radius", "prefactor", "match_radius"):
            assert getattr(back.profile, name) == getattr(wave.profile, name)

    def test_load_warns_on_a_peak_above_the_cap(self, wave_1d, tmp_path):
        # a loaded wave is certified like a solved one: the peak AMP = 0.8485
        # is above a cap of 0.5
        csv_path, sidecar = tmp_path / "wave.csv", tmp_path / "wave.json"
        save_wave(wave_1d, csv_path, sidecar)
        spec = dataclasses.replace(wave_1d.spec, amplitude_cap=0.5)
        with pytest.warns(RuntimeWarning, match="exceeds amplitude_cap 0.5"):
            load_wave(csv_path, sidecar, spec)

    def test_serialization_deterministic(self, wave_1d, tmp_path):
        a1, a2 = tmp_path / "a.csv", tmp_path / "a.json"
        b1, b2 = tmp_path / "b.csv", tmp_path / "b.json"
        save_wave(wave_1d, a1, a2)
        save_wave(wave_1d, b1, b2)
        assert a1.read_bytes() == b1.read_bytes()
        assert a2.read_bytes() == b2.read_bytes()
