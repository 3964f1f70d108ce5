import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solwave import radial
from solwave.potential import PotentialSpec, evaluate_potential, expected_amplitude
from solwave.radial import (NoBracket, RadialProfile, SolitaryWave, StepFailure,
                            WaveInterpolant, equation_residual,
                            find_excited_state, find_ground_state,
                            fit_tail_decay, load_wave, resample_wave, save_wave)

from conftest import AMP, KAPPA

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


class TestStepper:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0])
    def test_degenerate_datum_raises(self, cubic, s):
        with pytest.raises(ValueError, match="finite and nonzero"):
            radial._shoot(cubic, 0.8, 1, 0, s)

    @pytest.mark.parametrize("dense", [False, True])
    def test_non_finite_equation_fails_typed(self, cubic, monkeypatch, dense):
        # a NaN R'' past r = 1 gives a NaN error estimate, which must end the
        # shot in StepFailure rather than shrink a NaN step forever
        rhs = radial._rhs

        def broken(*args):
            f = rhs(*args)
            return lambda r, R, dR: f(r, R, dR) if r <= 1.0 else math.nan

        monkeypatch.setattr(radial, "_rhs", broken)
        with pytest.raises(StepFailure):
            radial._shoot(cubic, 0.8, 1, 0, AMP, dense=dense)

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


class TestNodeCounting:
    def test_sech_profile(self, wave_1d):
        p = wave_1d.profile
        assert radial._count_sign_changes(p.values[p.r_grid < p.match_radius]) == 0

    def test_sign_flip_still_node_free(self, wave_1d):
        assert radial._count_sign_changes(-wave_1d.profile.values) == 0

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

    def test_serialization_deterministic(self, wave_1d, tmp_path):
        a1, a2 = tmp_path / "a.csv", tmp_path / "a.json"
        b1, b2 = tmp_path / "b.csv", tmp_path / "b.json"
        save_wave(wave_1d, a1, a2)
        save_wave(wave_1d, b1, b2)
        assert a1.read_bytes() == b1.read_bytes()
        assert a2.read_bytes() == b2.read_bytes()
