import tracemalloc

import numpy as np
import pytest

from solwave.boost import FieldSample, GridSpec, ZeroField, grid_for, sample_boosted
from solwave.evolve import (CFL_NUMBER, CflViolation, EvolutionState, NonFinite,
                            center_of_energy, diagnostics_to_csv, evolve, step,
                            step_count)
from solwave.potential import PotentialSpec, force_slope
from solwave.radial import find_ground_state
from solwave.stencil import row_blocks

from conftest import CQ, full_grid, unfold


def _zero_sample(grid):
    return FieldSample(grid=grid, time=0.0,
                       psi=np.zeros(grid.points, dtype=complex),
                       psi_dot=np.zeros(grid.points, dtype=complex))


@pytest.fixture()
def small_grid():
    return GridSpec(n=1, extent=(10.0,), points=(200,))


class TestStep:
    def test_zero_field_fixed_point(self, cubic, small_grid):
        state = EvolutionState(_zero_sample(small_grid))
        for _ in range(3):
            state = step(state, cubic, 0.02)
        assert np.all(state.sample.psi == 0)
        assert np.all(state.sample.psi_dot == 0)

    def test_constant_field_stationary(self, cubic, small_grid):
        # f(1) = -1 + 1 = 0 for the cubic spec: psi = 1 is an equilibrium
        psi = np.ones(small_grid.points, dtype=complex)
        state = EvolutionState(FieldSample(
            grid=small_grid, time=0.0, psi=psi, psi_dot=np.zeros_like(psi)))
        for _ in range(50):
            state = step(state, cubic, 0.02)
        np.testing.assert_allclose(state.sample.psi, 1.0, atol=1e-12)

    def test_cfl_violation(self, cubic, small_grid):
        state = EvolutionState(_zero_sample(small_grid))
        h = min(small_grid.spacing)
        with pytest.raises(CflViolation):
            step(state, cubic, 0.51 * h)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt_rejected(self, cubic, small_grid, dt):
        state = EvolutionState(_zero_sample(small_grid))
        with pytest.raises(ValueError, match="dt > 0"):
            step(state, cubic, dt)
        with pytest.raises(ValueError, match="dt > 0"):
            evolve(state.sample, cubic, 1.0, dt)

    def test_time_advances(self, cubic, small_grid):
        state = EvolutionState(_zero_sample(small_grid))
        state = step(state, cubic, 0.02)
        assert state.sample.time == pytest.approx(0.02)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_largest_admitted_step_is_stable(self, cubic, n):
        # dt = CFL_NUMBER h keeps dt^2 sum_j 1/h_j^2 <= n/4 < 1 up to n = 3:
        # a small Gaussian rings linearly and stays bounded
        g = GridSpec(n=n, extent=(6.0,) * n, points=(24,) * n)
        r2 = sum(x**2 for x in np.meshgrid(*g.axes(), indexing="ij", sparse=True))
        psi = (0.1 * np.exp(-r2)).astype(complex)
        state = EvolutionState(FieldSample(grid=g, time=0.0, psi=psi,
                                           psi_dot=np.zeros_like(psi)))
        for _ in range(200):
            state = step(state, cubic, CFL_NUMBER * g.spacing[0])
        assert np.abs(state.sample.psi).max() < 0.1

    def test_blowup_detected(self, cubic, small_grid):
        x = small_grid.axes()[0]
        psi = (40.0 * np.exp(-x**2)).astype(complex)
        state = EvolutionState(FieldSample(
            grid=small_grid, time=0.0, psi=psi, psi_dot=np.zeros_like(psi)))
        with pytest.raises(NonFinite) as err:
            for _ in range(2000):
                state = step(state, cubic, 0.02)
        assert err.value.time is not None


class TestBlockedStep:
    def test_matches_roll_reference(self, cubic, wave_2d):
        # the unblocked scheme, written with whole-field np.roll shifts and
        # the force from |psi|: 20 steps of the boosted n = 2 wave agree
        def accel(psi, spacing):
            lap = np.zeros_like(psi)
            for axis, h in enumerate(spacing):
                lap += (np.roll(psi, 1, axis=axis) + np.roll(psi, -1, axis=axis)
                        - 2.0 * psi) / (h * h)
            return lap + psi * force_slope(cubic, np.abs(psi))

        dt, n_steps = 0.04, 20
        g = grid_for(wave_2d, [0.6, 0.0], dt * n_steps, 0.2)
        s0 = sample_boosted(wave_2d, [0.6, 0.0], g, t=0.0)
        blocks = row_blocks(s0.psi)
        assert len(blocks) > 2 and (blocks[-1].stop - blocks[-1].start
                                    < blocks[0].stop - blocks[0].start)

        # the reference steps the whole grid; the mirrored sector is unfolded
        prev = unfold(g, s0.psi)
        cur = prev + dt * unfold(g, s0.psi_dot) + 0.5 * dt * dt * accel(prev, g.spacing)
        for _ in range(n_steps):
            ahead = 2.0 * cur - prev + dt * dt * accel(cur, g.spacing)
            psi_dot = (ahead - prev) / (2.0 * dt)
            prev, cur = cur, ahead

        state = EvolutionState(s0)
        for _ in range(n_steps):
            state = step(state, cubic, dt)
        for got, want in ((state.sample.psi, prev), (state.sample.psi_dot, psi_dot)):
            assert np.linalg.norm(unfold(g, got) - want) / np.linalg.norm(want) < 1e-13

    def test_blowup_in_last_block_wrap_row(self, cubic):
        # only row n - 1, the wrap row of the last block, overflows: the
        # cubic force of its second level exceeds the float range there,
        # while its neighbours (row 0 among them) stay finite
        g = GridSpec(n=2, extent=(60.0, 6.4), points=(600, 64))
        psi = np.zeros(g.points, dtype=complex)
        psi[-1] = 1e102
        assert row_blocks(psi)[-1].stop == g.points[0]
        state = EvolutionState(FieldSample(grid=g, time=0.0, psi=psi,
                                           psi_dot=np.zeros_like(psi)))
        with pytest.raises(NonFinite) as err:
            step(state, cubic, 0.02)
        assert err.value.time == pytest.approx(0.04)


class TestSectorFlight:
    """The field of a k = 0 wave boosted along axis 0 stays even in every
    x_j, j >= 1: stepping the stored cells with mirrored ends gives the full
    run's stored cells bit for bit, and the diagnostics agree to rounding."""

    @staticmethod
    def _check(wave, spec, v, h, dt, n_steps, stride):
        g = grid_for(wave, v, dt * n_steps, h)
        assert g.mirrored == (False,) + (True,) * (g.n - 1)
        runs = [evolve(sample_boosted(wave, v, grid), spec, dt * n_steps, dt, stride)
                for grid in (g, full_grid(g))]
        sector, full = (run.sample for run in runs)
        stored = (slice(None),) + tuple(slice(N // 2, None) for N in g.points[1:])
        assert np.array_equal(sector.psi, full.psi[stored])
        assert np.array_equal(sector.psi_dot, full.psi_dot[stored])
        points = list(zip(*(run.diagnostics for run in runs)))
        assert len(points) == n_steps // stride + 1
        for point, ref in points:
            assert point.time == ref.time
            assert abs(point.energy - ref.energy) <= 1e-14 * ref.energy
            assert abs(point.momentum[0] - ref.momentum[0]) <= 1e-14 * ref.momentum[0]
            # the centre starts at the origin, so it is compared in length units
            assert abs(point.center_of_energy[0] - ref.center_of_energy[0]) <= 1e-14
            assert np.all(point.momentum[1:] == 0.0)
            assert np.all(point.center_of_energy[1:] == 0.0)

    def test_matches_the_full_grid(self, cubic, wave_2d):
        self._check(wave_2d, cubic, [0.6, 0.0], h=0.2, dt=0.04, n_steps=20, stride=5)

    def test_3d_matches_the_full_grid(self):
        # the stable cubic-quintic wave of the paper's dimension
        wave = find_ground_state(CQ, 0.7, 3)
        self._check(wave, CQ, [0.6, 0.0, 0.0], h=0.4, dt=0.2, n_steps=5, stride=1)


class TestOwnership:
    """A caller's arrays are never written; a step-made state hands its own
    arrays to the next step, so steady-state stepping allocates only block
    scratch."""

    def test_evolve_leaves_initial_sample_untouched(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.6], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.6], g, t=0.0)
        psi, psi_dot = s0.psi.copy(), s0.psi_dot.copy()
        evolve(s0, cubic, 0.5, 0.05, diag_stride=3)
        np.testing.assert_array_equal(s0.psi, psi)
        np.testing.assert_array_equal(s0.psi_dot, psi_dot)

    def test_step_on_caller_state_writes_nothing(self, cubic, wave_2d):
        g = grid_for(wave_2d, [0.6, 0.0], 0.2, 0.2)
        s0 = sample_boosted(wave_2d, [0.6, 0.0], g, t=0.0)
        psi, psi_dot = s0.psi.copy(), s0.psi_dot.copy()
        new = step(EvolutionState(s0), cubic, 0.04)
        np.testing.assert_array_equal(s0.psi, psi)
        np.testing.assert_array_equal(s0.psi_dot, psi_dot)
        for out in (new.sample.psi, new.sample.psi_dot):
            assert not np.shares_memory(out, s0.psi)
            assert not np.shares_memory(out, s0.psi_dot)

    def test_steady_state_step_allocates_only_block_scratch(self, cubic):
        # 512 x 512 complex cells are 4 MiB, about sixteen 256 KiB blocks
        g = GridSpec(n=2, extent=(12.8, 12.8), points=(512, 512))
        x, y = np.meshgrid(*g.axes(), indexing="ij", sparse=True)
        psi = np.exp(-(x**2 + y**2) + 0.5j * x)
        state = step(EvolutionState(FieldSample(grid=g, time=0.0, psi=psi,
                                                psi_dot=np.zeros_like(psi))), cubic, 0.02)
        tracemalloc.start()
        try:
            for _ in range(9):  # steps 2..10
                state = step(state, cubic, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * psi.nbytes


class TestDiscreteCharge:
    # psi^{m+1} + psi^{m-1} = A psi^m with A real and symmetric (the
    # neighbour sums plus a real slope of |psi|), so the leapfrog conserves
    # Q^{m+1/2} = Im <psi^m, psi^{m+1}> to rounding
    @pytest.mark.parametrize("unequal", [False, True], ids=["equal_h", "unequal_h"])
    def test_conserved_to_rounding(self, cubic, wave_2d, unequal):
        dt, n_steps = 0.04, 100
        g = grid_for(wave_2d, [0.6, 0.0], dt * n_steps, 0.2)
        if unequal:
            n1 = 2 * round(0.4 * g.points[1])  # h_1 about 1.25 h_0
            g = GridSpec(n=2, extent=g.extent, points=(g.points[0], n1))
            assert g.spacing[0] != g.spacing[1]
        state = EvolutionState(sample_boosted(wave_2d, [0.6, 0.0], g, t=0.0))
        prev = state.sample.psi.copy()
        charges = []
        for _ in range(n_steps):
            state = step(state, cubic, dt)
            cur = state.sample.psi.copy()  # the next step reuses the buffers
            charges.append(np.vdot(prev, cur).imag)
            prev = cur
        charges = np.array(charges)
        assert np.max(np.abs(charges / charges[0] - 1.0)) < 1e-12


class TestStandingWave:
    def test_period_return(self, cubic, wave_1d):
        # a(x) e^{-i omega t} is time-periodic with T = 2 pi / omega
        period = 2 * np.pi / 0.8
        dt = period / 800
        g = grid_for(wave_1d, [0.0], 0.0, 0.05)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        state = evolve(s0, cubic, period, dt, diag_stride=200)
        num = np.linalg.norm(state.sample.psi - s0.psi)
        den = np.linalg.norm(s0.psi)
        assert num / den < 1e-2

    def test_u1_orbit(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.0], 0.0, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        rot = np.exp(1j * 1.234)
        s_rot = FieldSample(grid=g, time=0.0, psi=rot * s0.psi,
                            psi_dot=rot * s0.psi_dot)
        st_a = evolve(s0, cubic, 1.0, 0.02, diag_stride=100)
        st_b = evolve(s_rot, cubic, 1.0, 0.02, diag_stride=100)
        scale = np.max(np.abs(st_a.sample.psi))
        assert np.max(np.abs(st_b.sample.psi - rot * st_a.sample.psi)) < 1e-12 * scale

    def test_time_reversal(self, cubic, wave_1d):
        # the equation is second order in time: from (psi(T), -psi_dot(T))
        # another run of length T must land back on psi(0)
        g = grid_for(wave_1d, [0.0], 0.0, 0.05)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        fwd = evolve(s0, cubic, 1.0, 0.02, diag_stride=1000)
        flipped = FieldSample(grid=g, time=0.0, psi=fwd.sample.psi,
                              psi_dot=-fwd.sample.psi_dot)
        back = evolve(flipped, cubic, 1.0, 0.02, diag_stride=1000)
        rel = (np.linalg.norm(back.sample.psi - s0.psi)
               / np.linalg.norm(s0.psi))
        assert rel < 1e-4


class TestTwoDimensions:
    def test_standing_wave_2d(self, cubic, wave_2d):
        # short 2D run: field stays put with conserved energy
        g = grid_for(wave_2d, [0.0, 0.0], 0.0, 0.1)
        s0 = sample_boosted(wave_2d, [0.0, 0.0], g, t=0.0)
        state = evolve(s0, cubic, 1.0, 0.05, diag_stride=5)
        es = np.array([d.energy for d in state.diagnostics])
        assert np.max(np.abs(es / es[0] - 1)) < 1e-5
        center = state.diagnostics[-1].center_of_energy
        assert np.linalg.norm(center) < 1e-6
        # the field still matches the rotating-phase exact solution
        exact = sample_boosted(wave_2d, [0.0, 0.0], g, t=1.0)
        rel = (np.linalg.norm(state.sample.psi - exact.psi)
               / np.linalg.norm(exact.psi))
        assert rel < 1e-2


class TestConservation:
    def test_energy_momentum_drift(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.6], 5.0, 0.05)
        s0 = sample_boosted(wave_1d, [0.6], g, t=0.0)
        state = evolve(s0, cubic, 5.0, 0.02, diag_stride=25)
        es = np.array([d.energy for d in state.diagnostics])
        ps = np.array([d.momentum[0] for d in state.diagnostics])
        assert np.max(np.abs(es / es[0] - 1)) < 1e-6
        assert np.max(np.abs(ps / ps[0] - 1)) < 1e-6

    def test_drift_refines_quadratically(self, cubic):
        # the scheme conserves the forward-difference Hamiltonian to O(dt^2);
        # exercise it on genuinely anharmonic (non-soliton) data
        from solwave.potential import evaluate_potential

        def discrete_energy(sample):
            h = sample.grid.spacing[0]
            fwd = (np.roll(sample.psi, -1) - sample.psi) / h
            dens = (0.5 * np.abs(sample.psi_dot) ** 2 + 0.5 * np.abs(fwd) ** 2
                    + evaluate_potential(cubic, np.abs(sample.psi)))
            return float(np.sum(dens)) * sample.grid.cell_volume

        g = GridSpec(n=1, extent=(20.0,), points=(500,))
        x = g.axes()[0]
        s0 = FieldSample(grid=g, time=0.0,
                         psi=(1.2 * np.exp(-x**2)).astype(complex),
                         psi_dot=(0.3j * np.exp(-x**2 / 2)).astype(complex))
        drifts = []
        for dt in (0.04, 0.02):
            state = EvolutionState(s0)
            e_start, worst = discrete_energy(s0), 0.0
            for m in range(1, int(round(2.0 / dt)) + 1):
                state = step(state, cubic, dt)
                if m % int(round(0.2 / dt)) == 0:
                    worst = max(worst, abs(discrete_energy(state.sample) / e_start - 1))
            drifts.append(worst)
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.2)


class TestCenterOfEnergy:
    def test_centered_wave(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.0], 0.0, 0.05)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        assert abs(center_of_energy(s0, cubic)[0]) < 1e-10

    def test_boosted_sample_at_t(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.5], 3.0, 0.05)
        s = sample_boosted(wave_1d, [0.5], g, t=3.0)
        assert center_of_energy(s, cubic)[0] == pytest.approx(1.5, abs=5e-3)

    def test_zero_field_rejected(self, cubic, small_grid):
        with pytest.raises(ZeroField):
            center_of_energy(_zero_sample(small_grid), cubic)


class TestEvolveDiagnostics:
    def test_translation_speed(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.6], 5.0, 0.04)
        s0 = sample_boosted(wave_1d, [0.6], g, t=0.0)
        state = evolve(s0, cubic, 5.0, 0.02, diag_stride=25)
        ts = np.array([d.time for d in state.diagnostics])
        xs = np.array([d.center_of_energy[0] for d in state.diagnostics])
        slope = np.polyfit(ts, xs, 1)[0]
        assert slope == pytest.approx(0.6, rel=0.01)

    def test_diagnostics_csv(self, cubic, wave_1d, tmp_path):
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        state = evolve(s0, cubic, 0.5, 0.05, diag_stride=5)
        path = tmp_path / "diag.csv"
        diagnostics_to_csv(state.diagnostics, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,E,P1,X1"
        assert len(lines) == 1 + len(state.diagnostics)

    def test_times_strictly_increasing(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        state = evolve(s0, cubic, 0.5, 0.05, diag_stride=2)
        ts = [d.time for d in state.diagnostics]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_binary_snapshots(self, cubic, wave_1d, tmp_path):
        from solwave.boost import load_sample
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        evolve(s0, cubic, 0.5, 0.05, diag_stride=5,
               snapshot_stride=5, snapshot_dir=tmp_path)
        files = sorted(tmp_path.glob("snapshot_*.bin"))
        assert len(files) == 3  # steps 0, 5, 10
        first = load_sample(files[0])
        np.testing.assert_array_equal(first.psi, s0.psi)
        last = load_sample(files[-1])
        assert last.time == pytest.approx(0.5)

    def test_snapshot_names_on_state(self, cubic, wave_1d, tmp_path):
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        (tmp_path / "snapshot_99999999.bin").write_bytes(b"stale")
        state = evolve(s0, cubic, 0.5, 0.05, diag_stride=5,
                       snapshot_stride=5, snapshot_dir=tmp_path)
        assert state.snapshots == ["snapshot_00000000.bin", "snapshot_00000005.bin",
                                   "snapshot_00000010.bin"]

    def test_cfl_violation_before_first_snapshot(self, cubic, wave_1d, tmp_path):
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        with pytest.raises(CflViolation):
            evolve(s0, cubic, 0.5, 0.2, diag_stride=5,
                   snapshot_stride=1, snapshot_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stride", ["diag_stride", "snapshot_stride", "t_final"])
    def test_zero_stride_rejected_before_writing(self, cubic, wave_1d, tmp_path, stride):
        # and, beside them, a negative end time
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        args = {"t_final": 0.5, "diag_stride": 5, "snapshot_stride": 5}
        args[stride] = -1.0 if stride == "t_final" else 0
        with pytest.raises(ValueError, match=stride):
            evolve(s0, cubic, dt=0.05, snapshot_dir=tmp_path, **args)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t_final", [0.13, 0.01])
    def test_end_time_off_the_step_grid_rejected(self, cubic, wave_1d, tmp_path, t_final):
        # 0.13 would end at 0.15 and 0.01 would take no step at all
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        with pytest.raises(ValueError, match=rf"t_final={t_final}\b.*dt=0.05"):
            evolve(s0, cubic, t_final, 0.05, diag_stride=1,
                   snapshot_stride=1, snapshot_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_step_count(self):
        assert step_count(5.0, 0.04) == 125
        assert step_count(0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
        assert step_count(0.0, 0.05) == 0
        for t_final in (0.13, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                step_count(t_final, 0.05)

    def test_snapshot_stride_needs_dir(self, cubic, wave_1d):
        g = grid_for(wave_1d, [0.0], 0.5, 0.1)
        s0 = sample_boosted(wave_1d, [0.0], g, t=0.0)
        with pytest.raises(ValueError, match="snapshot_dir"):
            evolve(s0, cubic, 0.5, 0.05, diag_stride=5, snapshot_stride=5)
