import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

import solwave.boost
from solwave.boost import (BOUNDARY_DECAY, FieldSample, GridSpec, GridTooSmall,
                           boost_scan, center_of_energy, grid_for, load_sample,
                           measure_energy, measure_momentum, sample_boosted,
                           save_sample, scan_to_csv)
from solwave.evolve import EvolutionState, evolve, step
from solwave.functionals import (SuperluminalVelocity, compute_functionals,
                                 lorentz_boost, predict_energy_momentum)
from solwave.potential import evaluate_potential
from solwave.radial import WaveInterpolant, find_ground_state
from solwave.stencil import row_blocks

from conftest import AMP, CQ, KAPPA, ORACLE, full_grid, unfold


@pytest.fixture(scope="module")
def grid_1d(wave_1d):
    return grid_for(wave_1d, [0.0], 0.0, 0.02)


@pytest.fixture(scope="module")
def wave_cq3():
    return find_ground_state(CQ, 0.7, 3)


@pytest.fixture(scope="module")
def standing_1d(wave_1d, grid_1d):
    return sample_boosted(wave_1d, [0.0], grid_1d, t=0.0)


class TestGridSpec:
    def test_spacing_and_axes(self):
        g = GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4))
        assert g.spacing == (1.0, 1.0)
        x, y = g.axes()
        np.testing.assert_allclose(x, [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
        assert x[0] == -g.extent[0] + g.spacing[0] / 2  # cell-centered

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n=1, extent=(4.0,), points=(7,))   # odd
        with pytest.raises(ValueError):
            GridSpec(n=2, extent=(4.0,), points=(8, 8))
        with pytest.raises(ValueError):
            GridSpec(n=1, extent=(-1.0,), points=(8,))
        # a NaN extent fails every comparison: its grid would sample an
        # all-NaN field that passes the boundary check
        for L in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                GridSpec(n=2, extent=(4.0, L), points=(8, 8))
        for N in (100.0, "100", 0, -8):
            with pytest.raises(ValueError, match="positive even integers"):
                GridSpec(n=1, extent=(4.0,), points=(N,))
        assert GridSpec(n=1, extent=(4.0,), points=(np.int64(8),)).spacing == (1.0,)
        for n in (0, 4):
            with pytest.raises(ValueError, match="dimension must be 1, 2 or 3, got"):
                GridSpec(n=n, extent=(4.0,) * n, points=(8,) * n)

    def test_mirrored_axes_store_the_upper_half(self):
        g = GridSpec(n=3, extent=(4.0, 3.0, 2.0), points=(8, 10, 6),
                     mirrored=(False, True, True))
        assert g.shape == (8, 5, 3) and g.reflections == 4
        assert g.spacing == full_grid(g).spacing
        for x, full in zip(g.axes(), full_grid(g).axes()):
            assert np.array_equal(x, full[full.size - x.size:])
        assert GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4)).mirrored == (False, False)

    @pytest.mark.parametrize("mirrored", [(True, False), (False,), (False, True, False),
                                          (False, "yes")])
    def test_mirrored_validation(self, mirrored):
        # axis 0 is never mirrored, and there is one bool per axis
        with pytest.raises(ValueError, match="mirrored"):
            GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4), mirrored=mirrored)

    @pytest.mark.parametrize("L,N", [(31.15, 1246), (38.1, 1524), (9.3, 186)])
    def test_axes_are_point_symmetric(self, L, N):
        # the t = 0 sampler writes cell N - 1 - i from cell i's values, so
        # the coordinates must mirror exactly, not to within an ulp
        (x,) = GridSpec(n=1, extent=(L,), points=(N,)).axes()
        assert np.array_equal(x[::-1], -x)


class TestSampling:
    def test_rest_sample_is_standing_wave(self, wave_1d, standing_1d, grid_1d):
        x = grid_1d.axes()[0]
        exact = AMP / np.cosh(KAPPA * np.abs(x))
        assert np.max(np.abs(standing_1d.psi - exact)) < 1e-7
        np.testing.assert_allclose(standing_1d.psi_dot, -1j * 0.8 * standing_1d.psi,
                                   atol=1e-12)

    def test_boosted_closed_form(self, wave_1d, grid_1d):
        sample = sample_boosted(wave_1d, [0.6], grid_1d, t=0.0)
        x = grid_1d.axes()[0]
        gamma = 1.25
        exact = (AMP / np.cosh(KAPPA * gamma * x)) * np.exp(1j * 0.8 * gamma * 0.6 * x)
        assert np.max(np.abs(sample.psi - exact)) < 1e-7
        d_exact = (-gamma * 0.6 * (-AMP * KAPPA * np.tanh(KAPPA * gamma * x)
                                   / np.cosh(KAPPA * gamma * x))
                   - 1j * gamma * 0.8 * AMP / np.cosh(KAPPA * gamma * x)) \
            * np.exp(1j * 0.8 * gamma * 0.6 * x)
        assert np.max(np.abs(sample.psi_dot - d_exact)) < 1e-7

    def test_modulus_translates_rigidly(self, wave_1d):
        # pick v t = integer multiple of h so translation maps the grid to itself
        h, speed = 0.02, 0.5
        shift_cells = 100
        t = shift_cells * h / speed
        g = grid_for(wave_1d, [speed], t, h)
        s0 = sample_boosted(wave_1d, [speed], g, t=0.0)
        st = sample_boosted(wave_1d, [speed], g, t=t)
        # only the cells np.roll does not wrap: the wrapped ones hold the
        # periodic image, about 4e-9 with grid_for's 1/delta pad
        moved = np.abs(st.psi)[shift_cells:] - np.abs(s0.psi)[:-shift_cells]
        assert np.max(np.abs(moved)) < 1e-10

    def test_grid_too_small(self, wave_1d):
        tiny = GridSpec(n=1, extent=(10.0,), points=(500,))
        with pytest.raises(GridTooSmall):
            sample_boosted(wave_1d, [0.0], tiny, t=0.0)

    def test_oblique_grid_covers_travel(self, wave_2d):
        # every axis carries its share |v_j| t_max of the travel distance
        for v in ([0.4, 0.3], [0.3536, 0.3536]):
            g = grid_for(wave_2d, v, 60.0, 0.2)
            sample_boosted(wave_2d, v, g, t=60.0)
            sample_boosted(wave_2d, v, g, t=-60.0)

    def test_spacing_never_below_h(self, cubic):
        # at omega = 0.84, h = 0.1 the spacing 2L/N with L = N h/2 once
        # rounded to one ulp below h, and the dt = h/2 flight failed the CFL check
        wave = find_ground_state(cubic, 0.84, 1)
        grid = grid_for(wave, [0.5], 1.0, 0.1)
        assert grid.spacing[0] >= 0.1
        state = evolve(sample_boosted(wave, [0.5], grid), cubic, 1.0, 0.05)
        assert state.sample.time == pytest.approx(1.0)
        # and on a sweep of widths, within a few ulp above h
        for h in (0.1, 0.02, 0.0137):
            for i in range(200):
                p = dataclasses.replace(wave.profile, match_radius=10.0 + 0.0731 * i)
                spacing = grid_for(dataclasses.replace(wave, profile=p), [0.0], 0.0, h).spacing
                assert h <= spacing[0] <= h + 4 * math.ulp(h)

    def test_nonpositive_spacing_rejected(self, wave_1d):
        for h in (0.0, -0.1):
            with pytest.raises(ValueError, match="spacing"):
                grid_for(wave_1d, [0.0], 0.0, h)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_nonfinite_spacing_rejected(self, wave_1d, h):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            grid_for(wave_1d, [0.0], 0.0, h)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf])
    def test_nonfinite_t_max_rejected(self, wave_1d, t_max):
        with pytest.raises(ValueError, match="t_max must be finite"):
            grid_for(wave_1d, [0.3], t_max, 0.02)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, wave_1d, grid_1d, t):
        # a NaN time once gave an all-NaN field and skipped the boundary check
        with pytest.raises(ValueError, match="sample time must be finite"):
            sample_boosted(wave_1d, [0.3], grid_1d, t=t)

    def test_dimension_mismatch(self, wave_1d):
        g2 = GridSpec(n=2, extent=(30.0, 30.0), points=(64, 64))
        with pytest.raises(ValueError):
            sample_boosted(wave_1d, [0.0, 0.0], g2, t=0.0)


def reference_sample(wave, v, grid, t):
    """(psi, psi_dot) from the full-array formula on every cell of the full
    grid: each cell's phase is exp(-i omega gamma (t - v.x)) and its vortex
    factor exp(i k atan2(y_1, y_0))."""
    grid = full_grid(grid)
    v, speed, gamma = lorentz_boost(v, wave.n)
    mesh = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    if speed > 0:
        e = v / speed
        x_dot_e = sum(m * ei for m, ei in zip(mesh, e))
        y = [m + (gamma - 1.0) * x_dot_e * ei - gamma * vi * t
             for m, ei, vi in zip(mesh, e, v)]
        v_dot_x = speed * x_dot_e
    else:
        y, v_dot_x = mesh, 0.0
    y = [np.broadcast_to(yj, grid.points) for yj in y]
    r = np.sqrt(sum(yj**2 for yj in y))
    interp = WaveInterpolant(wave)
    R, dR = interp(r)
    safe_r = np.where(r > 0, r, 1.0)
    if wave.k == 0:
        a = R.astype(complex)
        grad_a = [dR * yj / safe_r * (r > 0) for yj in y]
    else:
        phi = np.arctan2(y[1], y[0])
        ang = np.exp(1j * wave.k * phi)
        a = R * ang
        R_over_r = np.where(r > 0, R / safe_r, 0.0)
        grad_a = [(dR * np.cos(phi) - 1j * wave.k * R_over_r * np.sin(phi)) * ang * (r > 0),
                  (dR * np.sin(phi) + 1j * wave.k * R_over_r * np.cos(phi)) * ang * (r > 0)]
    phase = np.exp(-1j * wave.omega * gamma * (t - v_dot_x))
    v_grad_a = sum(vi * g for vi, g in zip(v, grad_a)) if speed > 0 else 0.0
    return a * phase, (-gamma * v_grad_a - 1j * gamma * wave.omega * a) * phase


class TestBlockedSampler:
    # (wave fixture, v, t, h); the 1D and 2D grids end in a ragged row block
    CASES = [
        ("wave_1d", [0.6], 1.3, 0.003),
        ("wave_1d", [-0.3], 0.0, 0.003),
        ("wave_2d", [0.6, 0.0], 0.7, 0.25),
        ("wave_2d", [0.3, -0.4], 0.7, 0.25),
        ("wave_3d", [0.0, 0.5, 0.0], 0.7, 1.2),
        ("wave_3d", [0.3, -0.4, 0.2], 0.7, 1.2),
        ("wave_k1", [0.0, 0.0], 0.7, 0.25),
        ("wave_k1", [0.6, 0.0], 0.7, 0.25),
        ("wave_k1", [0.3, -0.4], 0.7, 0.25),
        ("wave_k2", [0.0, 0.6], 0.7, 0.25),
        ("wave_k2", [-0.3, 0.4], 0.7, 0.25),
        ("wave_3d", [0.5, 0.0, 0.0], 0.7, 1.2),
        ("wave_k1", [-0.6, 0.0], 0.7, 0.25),
        ("wave_k2", [0.0, 0.0], 0.7, 0.25),
    ]

    @pytest.mark.parametrize("name,v,t,h", CASES)
    def test_matches_full_array_formula(self, request, name, v, t, h):
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, v, t, h)
        sample = sample_boosted(wave, v, grid, t=t)
        psi, psi_dot = reference_sample(wave, v, grid, t)
        assert np.max(np.abs(unfold(grid, sample.psi) - psi)) <= 1e-13 * np.max(np.abs(psi))
        assert (np.max(np.abs(unfold(grid, sample.psi_dot) - psi_dot))
                <= 1e-13 * np.max(np.abs(psi_dot)))
        blocks = row_blocks(sample.psi)
        if wave.n < 3:
            assert len(blocks) > 1
            assert blocks[-1].stop - blocks[-1].start < blocks[0].stop
        assert sample.time == t

    # CASES' t = 0 row is its own twin
    @pytest.mark.parametrize("name,v,t,h", [case for case in CASES if case[2]])
    def test_mirrored_half_matches_full_array_formula(self, request, name, v, t, h):
        # at t = 0 each row block of a full axis 0's first half also fills
        # its mirror, with the y-odd psi_dot terms negated and (-1)^k on
        # e^{ik phi}; a reversed grid stores the half x_0 > 0 alone when
        # v_j = 0 for j >= 1, whose time-reversed image, (-1)^k conj of it
        # (psi_dot: -(-1)^k), is axis 0's first half
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, v, t, h)
        psi, psi_dot = reference_sample(wave, v, grid, 0.0)
        for g in (grid, dataclasses.replace(grid, reversal=1)):
            sample = sample_boosted(wave, v, g, t=0.0)
            assert sample.grid.reversal == (g.reversal and (0 if any(v[1:]) else (-1) ** wave.k))
            assert (np.max(np.abs(unfold(sample.grid, sample.psi) - psi))
                    <= 1e-13 * np.max(np.abs(psi)))
            assert (np.max(np.abs(unfold(sample.grid, sample.psi_dot, time_odd=True) - psi_dot))
                    <= 1e-13 * np.max(np.abs(psi_dot)))

    @pytest.mark.parametrize("name,v,t,share", [
        ("wave_2d", [0.6, 0.0], 0.0, 1 / 4),
        ("wave_2d", [0.6, 0.0], 0.7, 1 / 2),
        ("wave_2d", [0.3, -0.4], 0.0, 1 / 2),
        ("wave_3d", [0.5, 0.0, 0.0], 0.0, 1 / 8),
        ("wave_k1", [0.6, 0.0], 0.0, 1 / 4),
    ])
    def test_radial_part_runs_once_per_reflection_image(self, request, monkeypatch,
                                                        name, v, t, share):
        # the interpolant sees one cell of each set of reflection images: the
        # t = 0 inversion halves a full axis 0, a reversed grid stores one
        # half and walks it, and every axis j >= 1 with v_j = 0 is halved at
        # any t
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, v, t, 1.2 if wave.n == 3 else 0.25)
        call = WaveInterpolant.__call__
        for g in (grid, dataclasses.replace(grid, reversal=1)):
            cells = []

            def counting(self, r):
                cells.append(np.size(r))
                return call(self, r)

            monkeypatch.setattr(WaveInterpolant, "__call__", counting)
            sample_boosted(wave, v, g, t=t)
            assert sum(cells) == share * np.prod(grid.points)

    @staticmethod
    def _peak_bytes(wave, v, grid):
        tracemalloc.start()
        try:
            sample_boosted(wave, v, grid, t=0.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_two_fields(self, wave_k1):
        # about 1M cells; the vortex factor and an oblique boost take the
        # most block temporaries
        v = [0.3, -0.4]
        grid = grid_for(wave_k1, v, 0.0, 0.065)
        field_bytes = 16 * int(np.prod(grid.points))
        assert 0.9e6 < np.prod(grid.points) < 1.2e6
        assert self._peak_bytes(wave_k1, v, grid) <= 2.5 * field_bytes

    def test_memory_is_two_fields_when_mirrored(self, wave_k1):
        # an axis-aligned vortex boost writes the most reflection images per block
        v = [0.6, 0.0]
        grid = grid_for(wave_k1, v, 0.0, 0.058)
        field_bytes = 16 * int(np.prod(grid.points))
        assert 0.9e6 < np.prod(grid.points) < 1.2e6
        assert self._peak_bytes(wave_k1, v, grid) <= 2.5 * field_bytes

    def test_grid_too_small_at_threshold(self, wave_2d):
        # A cell-centred grid cropped by c cells on every side keeps its cell
        # centres, so the full-array field of one large grid gives each
        # crop's boundary amplitude.  The largest crop below 1e-8 of the peak
        # must sample; one cell more on each side must raise.
        v, t, h = [0.3, -0.4], 0.7, 0.25
        big = grid_for(wave_2d, v, t, h)
        amp = np.abs(reference_sample(wave_2d, v, big, t)[0])
        peak = amp.max()

        def boundary(c):
            inner = amp[c:amp.shape[0] - c, c:amp.shape[1] - c]
            return max(inner[[0, -1], :].max(), inner[:, [0, -1]].max())

        c = 0
        while boundary(c + 1) < BOUNDARY_DECAY * peak:
            c += 1

        def crop(c):
            return GridSpec(n=2, extent=tuple(L - c * h for L in big.extent),
                            points=tuple(N - 2 * c for N in big.points))

        sample_boosted(wave_2d, v, crop(c), t=t)
        with pytest.raises(GridTooSmall):
            sample_boosted(wave_2d, v, crop(c + 1), t=t)


class TestMeasurement:
    def test_standing_energy(self, standing_1d, cubic):
        # h=0.02 here, so the O(h^2) gradient error is well under 2e-3
        assert measure_energy(standing_1d, cubic) == pytest.approx(
            ORACLE["e0"], abs=2e-3)

    def test_standing_momentum_vanishes(self, standing_1d):
        # psi_dot = -i omega psi is orthogonal to grad psi term by term, so the
        # sum is an exact zero, and it reads +0.0 (not -0.0)
        (p,) = measure_momentum(standing_1d)
        assert p == 0.0 and not np.signbit(p)

    def test_zero_field(self, grid_1d, cubic):
        zero = FieldSample(grid=grid_1d, time=0.0,
                           psi=np.zeros(grid_1d.points, dtype=complex),
                           psi_dot=np.zeros(grid_1d.points, dtype=complex))
        assert measure_energy(zero, cubic) == 0.0
        assert measure_momentum(zero)[0] == 0.0

    def test_boosted_energy_momentum(self, wave_1d, grid_1d, cubic):
        sample = sample_boosted(wave_1d, [0.6], grid_1d, t=0.0)
        assert measure_energy(sample, cubic) == pytest.approx(2.28, rel=1e-3)
        assert measure_momentum(sample)[0] == pytest.approx(1.368, rel=1e-3)

    @pytest.mark.parametrize("name,v,h", [
        ("wave_1d", [0.6], 0.003),
        ("wave_2d", [0.3, -0.4], 0.25),
        ("wave_3d", [0.3, -0.4, 0.2], 1.2),
        ("wave_k1", [0.3, -0.4], 0.25),
    ])
    def test_sums_match_full_array_formula(self, request, cubic, name, v, h):
        # E = sum(|psi_dot|^2/2 + sum_j |D_j psi|^2/(8 h_j^2) + U) dV and
        # P_j = -Re sum(psi_dot conj(D_j psi)) / (2 h_j) dV, D_j psi = psi[i+1] - psi[i-1]
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, v, 0.0, h)
        sample = sample_boosted(wave, v, grid, t=0.0)
        psi, psi_dot = sample.psi, sample.psi_dot
        diffs = [np.roll(psi, -1, axis) - np.roll(psi, 1, axis) for axis in range(grid.n)]
        density = (0.5 * np.abs(psi_dot) ** 2 + evaluate_potential(cubic, psi)
                   + sum(np.abs(d) ** 2 / (8 * hj**2) for d, hj in zip(diffs, grid.spacing)))
        e_ref = np.sum(density) * grid.cell_volume
        p_ref = np.array([-np.sum((psi_dot * np.conj(d)).real) / (2 * hj)
                          for d, hj in zip(diffs, grid.spacing)]) * grid.cell_volume
        assert abs(measure_energy(sample, cubic) - e_ref) <= 1e-13 * abs(e_ref)
        assert np.linalg.norm(measure_momentum(sample) - p_ref) <= 1e-13 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("name,v,t,h", [
        ("wave_1d", [0.5], 1.0, 0.05),
        ("wave_2d", [0.0, 0.6], 1.5, 0.1),
        ("wave_k1", [0.3, 0.4], 1.0, 0.1),
        ("wave_3d", [0.0, 0.0, 0.5], 1.0, 0.8),
    ])
    def test_center_matches_full_array_formula(self, request, cubic, name, v, t, h):
        # the density as one array from np.roll differences on the full
        # grid, and its weighted mean position on every axis; a
        # Fortran-ordered copy of the fields gives the same center
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, v, t, h)
        sample = sample_boosted(wave, v, grid, t=t)
        psi = unfold(grid, sample.psi)
        density = 0.5 * np.abs(unfold(grid, sample.psi_dot)) ** 2 + evaluate_potential(cubic, psi)
        for axis, hj in enumerate(grid.spacing):
            density += np.abs(np.roll(psi, -1, axis) - np.roll(psi, 1, axis)) ** 2 / (8 * hj**2)
        mesh = np.meshgrid(*full_grid(grid).axes(), indexing="ij", sparse=True)
        ref = np.array([np.sum(density * x) for x in mesh]) / np.sum(density)
        fortran = FieldSample(grid=grid, time=t, psi=np.asfortranarray(sample.psi),
                              psi_dot=np.asfortranarray(sample.psi_dot))
        for s in (sample, fortran):
            assert np.max(np.abs(center_of_energy(s, cubic) - ref)) <= 1e-12

    def test_rest_energy_converges_quadratically(self, wave_1d, cubic):
        errors = []
        for h in (0.08, 0.04):
            g = grid_for(wave_1d, [0.0], 0.0, h)
            s = sample_boosted(wave_1d, [0.0], g, t=0.0)
            errors.append(abs(measure_energy(s, cubic) - ORACLE["e0"]))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5


class TestFieldSample:
    """A sample's time is finite and its fields are complex arrays of the
    grid's stored shape; anything else would measure or step garbage."""

    def test_wrong_shape_rejected(self):
        g = GridSpec(n=1, extent=(4.0,), points=(8,))
        with pytest.raises(ValueError, match=r"psi must be a complex array of shape \(8,\)"):
            FieldSample(grid=g, time=0.0, psi=np.ones(10, dtype=complex),
                        psi_dot=np.ones(8, dtype=complex))

    def test_real_field_rejected(self):
        g = GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4))
        with pytest.raises(ValueError, match="psi_dot must be a complex array.*float64"):
            FieldSample(grid=g, time=0.0, psi=np.ones((8, 4), dtype=complex),
                        psi_dot=np.ones((8, 4)))

    def test_full_shape_on_mirrored_grid_rejected(self):
        g = GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4), mirrored=(False, True))
        with pytest.raises(ValueError, match=r"shape \(8, 2\)"):
            FieldSample(grid=g, time=0.0, psi=np.ones((8, 4), dtype=complex),
                        psi_dot=np.ones((8, 4), dtype=complex))

    @pytest.mark.parametrize("dtype", [np.complex64, np.clongdouble])
    def test_other_complex_precision_rejected(self, dtype):
        # the grid sums view each field as float64 pairs: a complex64 copy of
        # a sample once failed in measure_energy with a broadcast error
        g = GridSpec(n=1, extent=(4.0,), points=(8,))
        with pytest.raises(ValueError, match=rf"psi must .*complex128.*{np.dtype(dtype)}"):
            FieldSample(grid=g, time=0.0, psi=np.ones(8, dtype=dtype),
                        psi_dot=np.ones(8, dtype=complex))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        g = GridSpec(n=1, extent=(4.0,), points=(8,))
        with pytest.raises(ValueError, match="sample time must be finite"):
            FieldSample(grid=g, time=t, psi=np.ones(8, dtype=complex),
                        psi_dot=np.ones(8, dtype=complex))

    def test_nan_time_file_rejected(self, tmp_path):
        # such a file once loaded and evolved to diagnostic times nan, nan, ...
        g = GridSpec(n=1, extent=(4.0,), points=(8,))
        path = tmp_path / "nan_time.bin"
        save_sample(FieldSample(grid=g, time=0.0, psi=np.ones(8, dtype=complex),
                                psi_dot=np.ones(8, dtype=complex)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 24, math.nan)  # after n, N_1 and L_1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"nan_time\.bin.*sample time must be finite"):
            load_sample(path)


class TestSector:
    """A k = 0 wave's field is even in every x_j, j >= 1, with v_j = 0, and
    grid_for stores only the half x_j > 0 of such an axis.  The stored
    cells hold the full grid's very bits."""

    @pytest.mark.parametrize("name,v,mirrored", [
        ("wave_1d", [0.6], (False,)),
        ("wave_2d", [0.6, 0.0], (False, True)),
        ("wave_2d", [0.0, 0.6], (False, False)),
        ("wave_2d", [0.3, -0.4], (False, False)),
        ("wave_k1", [0.6, 0.0], (False, False)),
        ("wave_3d", [0.5, 0.0, 0.0], (False, True, True)),
        ("wave_3d", [0.0, 0.5, 0.0], (False, False, True)),
    ])
    def test_grid_for_mirrors_the_even_axes(self, request, name, v, mirrored):
        grid = grid_for(request.getfixturevalue(name), v, 1.0, 0.5)
        assert grid.mirrored == mirrored

    @pytest.mark.parametrize("t", [0.0, 1.3])
    def test_3d_sample_is_the_full_grids_quarter(self, wave_3d, cubic, t):
        v, h = [0.5, 0.0, 0.0], 0.5
        grid = grid_for(wave_3d, v, t, h)
        assert grid.mirrored == (False, True, True)
        sector = sample_boosted(wave_3d, v, grid, t=t)
        full = sample_boosted(wave_3d, v, full_grid(grid), t=t)
        _, n1, n2 = grid.points
        for got, want in ((sector.psi, full.psi), (sector.psi_dot, full.psi_dot)):
            assert got.shape == grid.shape
            assert np.array_equal(got, want[:, n1 // 2:, n2 // 2:])
        e, e_full = measure_energy(sector, cubic), measure_energy(full, cubic)
        assert abs(e - e_full) <= 1e-14 * e_full
        p, p_full = measure_momentum(sector), measure_momentum(full)
        assert abs(p[0] - p_full[0]) <= 1e-14 * abs(p_full[0])
        assert p[1] == 0.0 and p[2] == 0.0 and not np.signbit(p[1:]).any()

    @pytest.mark.parametrize("name,v", [("wave_2d", [0.0, 0.5]), ("wave_k1", [0.6, 0.0])])
    def test_an_axis_that_is_not_even_is_sampled_in_full(self, request, name, v):
        # v_1 != 0 or k != 0: the field is not even in x_1, so the sampler
        # clears the flag and stores axis 1 in full, with the full grid's bits
        wave = request.getfixturevalue(name)
        grid = dataclasses.replace(grid_for(wave, [0.0, 0.0], 0.0, 0.2), mirrored=(False, True))
        sample = sample_boosted(wave, v, grid)
        full = sample_boosted(wave, v, full_grid(grid))
        assert sample.grid.mirrored == (False, False)
        assert np.array_equal(sample.psi, full.psi)
        assert np.array_equal(sample.psi_dot, full.psi_dot)

    def test_an_even_axis_keeps_the_grid_given(self, wave_2d):
        grid = grid_for(wave_2d, [0.0, 0.0], 0.0, 0.2)
        assert sample_boosted(wave_2d, [0.5, 0.0], grid).grid is grid

    def test_grid_too_small_from_the_outer_face_only(self, wave_2d):
        # the mirror plane x_1 = 0 carries the peak and is not a boundary;
        # cropping c cells off the outer face of axis 1 samples up to the
        # full grid's threshold crop and raises one cell beyond it
        v, t, h = [0.6, 0.0], 0.7, 0.25
        big = grid_for(wave_2d, v, t, h)
        amp = np.abs(reference_sample(wave_2d, v, big, t)[0])
        peak = amp.max()
        n1 = big.points[1]

        def boundary(c):
            inner = amp[:, c:n1 - c]
            return max(inner[[0, -1], :].max(), inner[:, [0, -1]].max())

        c = 0
        while boundary(c + 1) < BOUNDARY_DECAY * peak:
            c += 1

        def crop(c):
            return GridSpec(n=2, extent=(big.extent[0], big.extent[1] - c * h),
                            points=(big.points[0], n1 - 2 * c), mirrored=(False, True))

        sample = sample_boosted(wave_2d, v, crop(c), t=t)
        assert np.abs(sample.psi[:, 0]).max() > 0.5 * peak  # the mirror face
        with pytest.raises(GridTooSmall):
            sample_boosted(wave_2d, v, crop(c + 1), t=t)


class TestTimeReversal:
    """At t = 0 a boost along axis 0 (v_j = 0 for j >= 1) is its own
    time-reversed mirror image: psi(-x_0, x_perp) = (-1)^k conj psi(x_0,
    x_perp) and psi_dot(-x_0, x_perp) = -(-1)^k conj psi_dot(x_0, x_perp).
    A reversed grid stores only the half x_0 > 0, and boost_scan samples
    and sums that half."""

    WAVES = [("wave_1d", 0.05), ("wave_2d", 0.2), ("wave_k1", 0.2), ("wave_k2", 0.2),
             ("wave_cq3", 0.8)]

    @staticmethod
    def _image(field, sign):
        """sign conj of field reflected in x_0, with exact negation."""
        image = np.conj(np.flip(field, 0))
        return -image if sign < 0 else image

    @pytest.mark.parametrize("name,h", WAVES)
    @pytest.mark.parametrize("speed", [0.0, 0.3, 0.6, 0.9])
    def test_full_sample_is_its_time_reversed_image(self, request, name, h, speed):
        # bit for bit, on a grid that stores axis 0 in full
        wave = request.getfixturevalue(name)
        v = [speed] + [0.0] * (wave.n - 1)
        grid = grid_for(wave, v, 0.0, h)
        assert grid.reversal == 0
        sample = sample_boosted(wave, v, grid, t=0.0)
        half, sign = grid.points[0] // 2, (-1) ** wave.k
        assert np.array_equal(sample.psi[:half], self._image(sample.psi[half:], sign))
        assert np.array_equal(sample.psi_dot[:half], self._image(sample.psi_dot[half:], -sign))

    @pytest.mark.parametrize("name,h", WAVES)
    def test_reversed_grid_stores_the_upper_half(self, request, name, h):
        wave = request.getfixturevalue(name)
        spec = wave.spec
        v = [0.6] + [0.0] * (wave.n - 1)
        grid = grid_for(wave, v, 0.0, h)
        full = sample_boosted(wave, v, grid, t=0.0)
        half = sample_boosted(wave, v, dataclasses.replace(grid, reversal=1), t=0.0)
        assert half.grid == dataclasses.replace(grid, reversal=(-1) ** wave.k)
        assert half.grid.shape == (grid.points[0] // 2, *grid.shape[1:])
        assert half.grid.reflections == 2 * grid.reflections
        np.testing.assert_array_equal(half.grid.axes()[0], grid.axes()[0][grid.points[0] // 2:])
        upper = grid.points[0] // 2
        assert np.array_equal(half.psi, full.psi[upper:])
        assert np.array_equal(half.psi_dot, full.psi_dot[upper:])
        e, e_full = measure_energy(half, spec), measure_energy(full, spec)
        assert abs(e - e_full) <= 1e-14 * e_full
        p, p_full = measure_momentum(half), measure_momentum(full)
        assert abs(p[0] - p_full[0]) <= 1e-14 * abs(p_full[0])
        # P_j, j >= 1, is odd under the reversal: an exact +0.0
        for pj in p[1:]:
            assert pj == 0.0 and math.copysign(1.0, pj) == 1.0
        # so is the centre's axis-0 component; the others are the full grid's
        center, center_full = center_of_energy(half, spec), center_of_energy(full, spec)
        assert center[0] == 0.0 and math.copysign(1.0, center[0]) == 1.0
        np.testing.assert_allclose(center[1:], center_full[1:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("v,t", [([0.3, 0.4], 0.0), ([0.0, 0.5], 0.0), ([0.6, 0.0], 0.5)])
    def test_reversal_kept_only_at_t0_along_axis_0(self, wave_k1, v, t):
        grid = full_grid(grid_for(wave_k1, v, t, 0.25))
        sample = sample_boosted(wave_k1, v, dataclasses.replace(grid, reversal=-1), t=t)
        assert sample.grid == grid
        full = sample_boosted(wave_k1, v, grid, t=t)
        assert np.array_equal(sample.psi, full.psi)
        assert np.array_equal(sample.psi_dot, full.psi_dot)

    def test_sampler_writes_the_waves_sign(self, wave_2d, wave_k1):
        # the sign is (-1)^k, whatever sign the grid asked with
        for wave, asked, sign in ((wave_2d, -1, 1), (wave_k1, 1, -1)):
            grid = dataclasses.replace(grid_for(wave, [0.3, 0.0], 0.0, 0.25), reversal=asked)
            assert sample_boosted(wave, [0.3, 0.0], grid).grid.reversal == sign

    @pytest.mark.parametrize("name", ["wave_2d", "wave_k1"])
    def test_scan_samples_half_the_grid(self, request, monkeypatch, name):
        # scan-2d's scan, coarse: every sample stores half the cells of the
        # grid the scan was given
        wave = request.getfixturevalue(name)
        grid = grid_for(wave, [0.0, 0.0], 0.0, 0.2)
        sizes = []

        def sample(wave, v, grid, t):
            s = sample_boosted(wave, v, grid, t)
            sizes.append(s.psi.size)
            return s

        monkeypatch.setattr(solwave.boost, "sample_boosted", sample)
        boost_scan(wave, wave.spec, [[0.3, 0.0], [0.6, 0.0]], grid, compute_functionals(wave))
        assert sizes == [math.prod(grid.shape) // 2] * 2

    def test_step_refuses_a_reversed_sample(self, wave_1d, cubic):
        grid = dataclasses.replace(grid_for(wave_1d, [0.3], 0.0, 0.1), reversal=1)
        sample = sample_boosted(wave_1d, [0.3], grid)
        assert sample.grid.reversal == 1
        with pytest.raises(ValueError, match="reversed"):
            step(EvolutionState(sample), cubic, 0.05)
        with pytest.raises(ValueError, match="reversed"):
            evolve(sample, cubic, 0.1, 0.05)

    def test_save_refuses_a_reversed_sample(self, wave_2d, tmp_path):
        grid = dataclasses.replace(grid_for(wave_2d, [0.3, 0.0], 0.0, 0.25), reversal=1)
        sample = sample_boosted(wave_2d, [0.3, 0.0], grid)
        path = tmp_path / "half.bin"
        with pytest.raises(ValueError, match="reversed"):
            save_sample(sample, path)
        assert not path.exists()

    @pytest.mark.parametrize("reversal", [2, -2, 0.5, math.nan, "1", None])
    def test_reversal_validation(self, reversal):
        with pytest.raises(ValueError, match="reversal must be 0, \\+1 or -1"):
            GridSpec(n=2, extent=(4.0, 2.0), points=(8, 4), reversal=reversal)


class TestBoostScan:
    def test_1d_scan(self, wave_1d, cubic, grid_1d):
        rep = compute_functionals(wave_1d)
        rows = boost_scan(wave_1d, cubic, [[v] for v in (0.0, 0.3, 0.6, 0.9)],
                          grid_1d, report=rep)
        speeds = [float(np.linalg.norm(r.v)) for r in rows]
        assert speeds == sorted(speeds)
        for row in rows:
            assert row.rel_err_e < 1e-3
            assert row.rel_err_p < 1e-3

    def test_empty_scan(self, wave_1d, cubic, grid_1d):
        assert boost_scan(wave_1d, cubic, [], grid_1d,
                          compute_functionals(wave_1d)) == []

    def test_measured_lorentz_invariants(self, wave_1d, cubic, grid_1d):
        # purely on measured values: E(v) sqrt(1-v^2) = E(0) and P = v E(v)
        rows = boost_scan(wave_1d, cubic, [[v] for v in (0.0, 0.3, 0.6, 0.9)],
                          grid_1d, compute_functionals(wave_1d))
        e_rest = rows[0].e_measured
        for row in rows[1:]:
            v = float(np.linalg.norm(row.v))
            assert row.e_measured * np.sqrt(1 - v**2) == pytest.approx(
                e_rest, rel=1e-3)
            assert row.p_measured[0] == pytest.approx(v * row.e_measured,
                                                      rel=1e-3)

    def test_transverse_momentum_vanishes(self, wave_2d, cubic):
        # summed on the full grid; the mirrored grid sets it to 0.0
        rep = compute_functionals(wave_2d)
        g = grid_for(wave_2d, [0.0, 0.0], 0.0, 0.1)
        for grid in (g, full_grid(g)):
            rows = boost_scan(wave_2d, cubic, [[0.5, 0.0]], grid, report=rep)
            assert abs(rows[0].p_measured[1]) < 1e-6 * rep.e0

    def test_velocity_off_a_mirrored_axis_is_sampled_in_full(self, monkeypatch, wave_2d,
                                                             cubic):
        # grid_for's flags follow its sizing v = 0; the scan hands the very
        # grid to the sampler for v_1 != 0, which it samples with axis 1 in
        # full, and its reversed copy for a boost along axis 0
        rep = compute_functionals(wave_2d)
        g = grid_for(wave_2d, [0.0, 0.0], 0.0, 0.2)
        assert g.mirrored == (False, True)
        velocities = [[0.0, 0.5], [0.5, 0.0]]
        grids = []

        def sample(wave, v, grid, t):
            grids.append(grid)
            return sample_boosted(wave, v, grid, t)
        monkeypatch.setattr(solwave.boost, "sample_boosted", sample)
        rows = boost_scan(wave_2d, cubic, velocities, g, report=rep)
        assert grids[0] is g and grids[1] == dataclasses.replace(g, reversal=1)
        full = boost_scan(wave_2d, cubic, velocities, full_grid(g), report=rep)
        assert rows[0].e_measured == full[0].e_measured
        assert np.array_equal(rows[0].p_measured, full[0].p_measured)
        assert abs(rows[1].e_measured - full[1].e_measured) <= 1e-14 * full[1].e_measured
        # the grid is square, so the two boosts are one boost turned by 90 degrees
        assert g.points[0] == g.points[1]
        assert rows[0].e_measured == pytest.approx(rows[1].e_measured, rel=1e-13)
        assert rows[0].p_measured[1] == pytest.approx(rows[1].p_measured[0], rel=1e-13)

    def test_rotation_equivariance(self, wave_2d, cubic):
        # the rotated boost has v_1 != 0, so it needs the full grid
        g = full_grid(grid_for(wave_2d, [0.0, 0.0], 0.0, 0.1))
        beta = 0.37
        v0 = np.array([0.5, 0.0])
        rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
        s_axis = sample_boosted(wave_2d, v0, g, t=0.0)
        s_rot = sample_boosted(wave_2d, rot @ v0, g, t=0.0)
        e_axis = measure_energy(s_axis, cubic)
        e_rot = measure_energy(s_rot, cubic)
        assert e_rot == pytest.approx(e_axis, rel=1e-4)
        # measurement anisotropy is O(h^2) of the stencil, ~2e-4 relative here
        p_back = rot.T @ measure_momentum(s_rot)
        np.testing.assert_allclose(p_back, measure_momentum(s_axis),
                                   atol=3e-4 * e_axis)

    def test_time_invariance(self, wave_1d, cubic):
        g = grid_for(wave_1d, [0.6], 1.0, 0.02)
        s0 = sample_boosted(wave_1d, [0.6], g, t=0.0)
        s1 = sample_boosted(wave_1d, [0.6], g, t=1.0)
        assert measure_energy(s1, cubic) == pytest.approx(
            measure_energy(s0, cubic), rel=1e-9)
        assert measure_momentum(s1)[0] == pytest.approx(
            measure_momentum(s0)[0], rel=1e-9)

    def test_csv_output(self, wave_1d, cubic, grid_1d, tmp_path):
        rows = boost_scan(wave_1d, cubic, [[0.0], [0.5]], grid_1d,
                          compute_functionals(wave_1d))
        path = tmp_path / "scan.csv"
        scan_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "v,E_meas,P1_meas,E_pred,P1_pred,relE,relP"
        assert len(lines) == 3


class TestBoxSize:
    """grid_for pads the support by 1/delta: the box is as small as the
    boundary-decay invariant allows, and widening it changes no answer."""

    H = 0.2

    @staticmethod
    def _widened(grid, cells):
        """grid with cells more cells on every side; the cell centres it
        shares with grid stay where they are."""
        return GridSpec(n=grid.n,
                        extent=tuple(L + cells * h for L, h in zip(grid.extent, grid.spacing)),
                        points=tuple(N + 2 * cells for N in grid.points))

    @classmethod
    def _pad_cells(cls, wave, pad):
        return math.ceil(pad / (wave.delta * cls.H))

    @pytest.mark.parametrize("name", ["wave_2d", "wave_k1"])
    def test_wider_box_same_scan(self, request, cubic, name):
        wave = request.getfixturevalue(name)
        report = compute_functionals(wave)
        velocities = [[0.3, 0.0], [0.6, 0.0]]
        grid = grid_for(wave, [0.0, 0.0], 0.0, self.H)
        wide = self._widened(grid, self._pad_cells(wave, 9.0))
        for row, ref in zip(boost_scan(wave, cubic, velocities, grid, report),
                            boost_scan(wave, cubic, velocities, wide, report)):
            assert row.e_measured == pytest.approx(ref.e_measured, rel=1e-12, abs=0)
            np.testing.assert_allclose(row.p_measured, ref.p_measured, rtol=0,
                                       atol=1e-12 * np.linalg.norm(ref.p_measured))

    def test_wider_box_same_flight(self, wave_2d, cubic):
        v, t_final = [0.6, 0.0], 1.0
        grid = grid_for(wave_2d, v, t_final, self.H)
        wide = self._widened(grid, self._pad_cells(wave_2d, 9.0))
        runs = [evolve(sample_boosted(wave_2d, v, g), cubic, t_final, 0.05, 5).diagnostics
                for g in (grid, wide)]
        assert len(runs[0]) == len(runs[1]) == 5
        for point, ref in zip(*runs):
            assert point.energy == pytest.approx(ref.energy, rel=1e-12, abs=0)
            # the centre starts at the origin, so it is compared in length units
            np.testing.assert_allclose(point.center_of_energy, ref.center_of_energy,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("v", [[0.0, 0.0], [0.6, 0.0]])
    def test_box_inside_support_raises(self, wave_2d, v):
        grid = grid_for(wave_2d, v, 0.0, self.H)
        with pytest.raises(GridTooSmall):
            sample_boosted(wave_2d, v, self._widened(grid, -self._pad_cells(wave_2d, 2.0)))

    @pytest.mark.parametrize("name", ["wave_1d", "wave_2d", "wave_k1", "wave_3d"])
    def test_extent_is_support_plus_pad(self, request, name):
        wave = request.getfixturevalue(name)
        n, mr = wave.n, wave.profile.match_radius
        velocities = [[0.0] * n, [0.6] + [0.0] * (n - 1)]
        if n > 1:
            velocities.append([0.3, -0.4] + [0.0] * (n - 2))
        for v in velocities:
            _, speed, gamma = lorentz_boost(v, n)
            for t_max, h in ((0.0, 0.2), (5.0, 0.07)):
                grid = grid_for(wave, v, t_max, h)
                for L, vj in zip(grid.extent, v):
                    support = mr / gamma if speed > 0 and abs(vj) == speed else mr
                    assert L <= support + 1.0 / wave.delta + abs(vj) * t_max + h


class TestVelocityRejection:
    """Each public entry point that takes a velocity rejects a superluminal
    one and one with the wrong number of components."""

    @staticmethod
    def _calls(wave, grid, cubic):
        report = compute_functionals(wave)
        return {
            "grid_for": lambda v: grid_for(wave, v, 0.0, 0.02),
            "sample_boosted": lambda v: sample_boosted(wave, v, grid),
            "boost_scan": lambda v: boost_scan(wave, cubic, [v], grid, report),
            "predict_energy_momentum": lambda v: predict_energy_momentum(report, v),
        }

    @pytest.mark.parametrize("name", ["grid_for", "sample_boosted", "boost_scan",
                                      "predict_energy_momentum"])
    def test_superluminal(self, wave_1d, grid_1d, cubic, name):
        call = self._calls(wave_1d, grid_1d, cubic)[name]
        for v in ([1.0], [-1.0]):
            with pytest.raises(SuperluminalVelocity):
                call(v)

    @pytest.mark.parametrize("name", ["grid_for", "sample_boosted", "boost_scan",
                                      "predict_energy_momentum"])
    def test_wrong_shape(self, wave_1d, grid_1d, cubic, name):
        call = self._calls(wave_1d, grid_1d, cubic)[name]
        with pytest.raises(ValueError, match="1 components"):
            call([0.3, 0.0])


class TestBinaryFormat:
    def test_roundtrip(self, wave_2d, cubic, tmp_path):
        g = grid_for(wave_2d, [0.3, 0.0], 0.0, 0.2)
        sample = sample_boosted(wave_2d, [0.3, 0.0], g, t=0.5)
        path = tmp_path / "sample.bin"
        save_sample(sample, path)
        back = load_sample(path)
        assert back.grid == sample.grid
        assert back.time == sample.time
        np.testing.assert_array_equal(back.psi, sample.psi)
        np.testing.assert_array_equal(back.psi_dot, sample.psi_dot)
        assert back.psi.flags.writeable and back.psi_dot.flags.writeable

    @pytest.mark.parametrize("name,v,h", [("wave_2d", [0.3, 0.0], 0.2),
                                          ("wave_3d", [0.5, 0.0, 0.0], 0.8)])
    def test_mirrored_roundtrip(self, request, name, v, h, tmp_path):
        wave = request.getfixturevalue(name)
        g = grid_for(wave, v, 0.0, h)
        assert any(g.mirrored)
        sample = sample_boosted(wave, v, g, t=0.5)
        path = tmp_path / "sector.bin"
        save_sample(sample, path)
        raw = path.read_bytes()
        # a mirrored axis is marked by -N_j, and only the stored cells follow
        assert struct.unpack_from(f"<{g.n}q", raw, 8) == tuple(
            -N if m else N for N, m in zip(g.points, g.mirrored))
        assert len(raw) == 8 * (2 + 2 * g.n) + 32 * math.prod(g.shape)
        back = load_sample(path)
        assert back.grid == g
        assert back.time == sample.time
        np.testing.assert_array_equal(back.psi, sample.psi)
        np.testing.assert_array_equal(back.psi_dot, sample.psi_dot)

    def test_full_grid_file_is_unchanged(self, tmp_path):
        # the bytes a full grid's sample had before mirrored axes existed
        g = GridSpec(n=2, extent=(4.0, 3.0), points=(8, 6))
        psi = (np.arange(48) + 0.5j * np.arange(48)[::-1]).reshape(8, 6)
        path = tmp_path / "full.bin"
        save_sample(FieldSample(grid=g, time=0.25, psi=psi, psi_dot=-0.25j * psi), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8bc591a0e1b1053e9adcde647b447b8c7f629ffe0bc102be981d2100aad79503")

    def test_mirrored_axis_0_rejected(self, tmp_path):
        path = tmp_path / "axis0.bin"
        header = struct.pack("<qqqddd", 2, -8, 4, 4.0, 2.0, 0.0)
        path.write_bytes(header + bytes(2 * 16 * 4 * 4))
        with pytest.raises(ValueError, match=r"axis0\.bin.*axis 0 may not be mirrored"):
            load_sample(path)

    def test_truncated_file_rejected(self, wave_1d, tmp_path):
        g = GridSpec(n=1, extent=(50.0,), points=(2000,))
        path = tmp_path / "s.bin"
        save_sample(sample_boosted(wave_1d, [0.0], g, t=0.0), path)
        full = path.read_bytes()
        path.write_bytes(full[:-8])
        with pytest.raises(ValueError, match=rf"s\.bin.*{len(full) - 8}.*{len(full)}"):
            load_sample(path)

    def test_non_finite_extent_rejected(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<qqdd", 1, 2, math.nan, 0.0) + bytes(2 * 2 * 16))
        with pytest.raises(ValueError, match="finite and positive"):
            load_sample(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<q", 1) + b"\0\0")  # n = 1, then 2 of 24 header bytes
        with pytest.raises(ValueError, match=r"short\.bin.*10 bytes.*no complete header"):
            load_sample(path)

    def test_layout_is_little_endian_float64(self, wave_1d, tmp_path):
        g = GridSpec(n=1, extent=(50.0,), points=(2000,))
        sample = sample_boosted(wave_1d, [0.0], g, t=0.0)
        path = tmp_path / "s.bin"
        save_sample(sample, path)
        raw = path.read_bytes()
        n = int.from_bytes(raw[0:8], "little")
        assert n == 1
        N = int.from_bytes(raw[8:16], "little")
        assert N == 2000
        header = 8 + 8 + 8 + 8  # n, N_1, L_1, time
        assert len(raw) == header + 2 * (2 * 8 * 2000)
        first_re = np.frombuffer(raw[header:header + 8], dtype="<f8")[0]
        assert first_re == sample.psi.real[0]
