import dataclasses
import json
import warnings

import numpy as np
import pytest

import solwave.functionals
import solwave.potential
from solwave.functionals import (FunctionalReport, SuperluminalVelocity,
                                 compute_functionals, lorentz_boost,
                                 predict_energy_momentum,
                                 predict_general_energy_momentum, report_to_dict)
from solwave.radial import WaveInterpolant

from conftest import ORACLE


@pytest.fixture(scope="module")
def report_1d(wave_1d):
    return compute_functionals(wave_1d)


class TestOracleValues:
    def test_sech_functionals(self, report_1d):
        assert report_1d.i0 == pytest.approx(ORACLE["i0"], rel=1e-6)
        assert report_1d.i_k[0] == pytest.approx(ORACLE["i1"], rel=1e-6)
        assert report_1d.v0 == pytest.approx(ORACLE["v0"], rel=1e-6)
        assert report_1d.e0 == pytest.approx(ORACLE["e0"], rel=1e-6)

    def test_e0_is_sum(self, report_1d):
        total = np.sum(report_1d.i_k) + report_1d.omega**2 * report_1d.i0 + report_1d.v0
        assert report_1d.e0 == total


class TestGridCrossCheck:
    """Independent route: Cartesian grid sums of the sampled amplitude must
    reproduce the radial quadrature."""

    @staticmethod
    def _grid_functionals(wave, spec, L, h):
        from solwave.potential import evaluate_potential
        n = wave.n
        axes = [np.arange(-L + h / 2, L, h) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        r = np.sqrt(sum(m**2 for m in mesh))
        interp = WaveInterpolant(wave)
        if wave.k == 0:
            a = interp(r)[0].astype(complex)
        else:
            phi = np.arctan2(mesh[1], mesh[0])
            a = interp(r)[0] * np.exp(1j * wave.k * phi)
        vol = h**n
        i0 = 0.5 * np.sum(np.abs(a) ** 2) * vol
        i_k = []
        for axis in range(n):
            d = (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2 * h)
            i_k.append(0.5 * np.sum(np.abs(d) ** 2) * vol)
        v0 = np.sum(evaluate_potential(spec, np.abs(a))) * vol
        return i0, np.array(i_k), v0

    def test_1d(self, wave_1d, cubic, report_1d):
        i0, i_k, v0 = self._grid_functionals(wave_1d, cubic, 45.0, 0.01)
        assert i0 == pytest.approx(report_1d.i0, rel=1e-6)
        assert i_k[0] == pytest.approx(report_1d.i_k[0], rel=1e-4)
        assert v0 == pytest.approx(report_1d.v0, rel=1e-6)

    def test_2d_radial(self, wave_2d, cubic):
        rep = compute_functionals(wave_2d)
        i0, i_k, v0 = self._grid_functionals(wave_2d, cubic, 45.0, 0.05)
        assert i0 == pytest.approx(rep.i0, rel=1e-5)
        np.testing.assert_allclose(i_k, rep.i_k, rtol=1.5e-3)  # O(h^2) gradient error
        assert v0 == pytest.approx(rep.v0, rel=1e-5)

    def test_2d_angular(self, wave_k1, cubic):
        rep = compute_functionals(wave_k1)
        i0, i_k, v0 = self._grid_functionals(wave_k1, cubic, 50.0, 0.05)
        assert i0 == pytest.approx(rep.i0, rel=1e-5)
        np.testing.assert_allclose(i_k, rep.i_k, rtol=1.5e-3)  # O(h^2) gradient error
        assert v0 == pytest.approx(rep.v0, rel=1e-5)


class TestIdentities:
    def test_pokhozhaev_all_waves(self, wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
        for wave in (wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
            rep = compute_functionals(wave)
            assert rep.pokhozhaev_residual < 1e-6

    def test_pokhozhaev_1d_arithmetic(self, report_1d):
        # n=1 form: I_1 = V_0 - omega^2 I_0, i.e. 0.144 = 0.912 - 0.768
        assert report_1d.i_k[0] == pytest.approx(
            report_1d.v0 - 0.8**2 * report_1d.i0, abs=1e-9)

    def test_pokhozhaev_n2_forces_v0_equals_w2i0(self, wave_2d):
        rep = compute_functionals(wave_2d)
        assert rep.v0 == pytest.approx(0.8**2 * rep.i0, rel=1e-8)

    def test_perturbed_v0_breaks_identity(self, report_1d):
        broken = FunctionalReport(report_1d.i0, report_1d.i_k, report_1d.v0 * 1.01,
                                  report_1d.omega, report_1d.n)
        assert broken.pokhozhaev_residual > 1e-3

    def test_replaced_functional_rederives(self, report_1d):
        changed = dataclasses.replace(report_1d, v0=1.01 * report_1d.v0)
        assert changed.e0 != report_1d.e0
        assert changed.pokhozhaev_residual != report_1d.pokhozhaev_residual
        assert changed.e0 == pytest.approx(report_1d.e0 + 0.01 * report_1d.v0, rel=1e-14)

    def test_report_stores_only_functionals(self):
        assert [f.name for f in dataclasses.fields(FunctionalReport)] == [
            "i0", "i_k", "v0", "omega", "n", "k"]

    def test_angular_components_equal(self, wave_k1):
        rep = compute_functionals(wave_k1)
        assert abs(rep.i_k[0] - rep.i_k[1]) <= 1e-8 * rep.i_k[0]

    def test_isotropy_defect_zero_for_solved_waves(self, wave_1d, wave_2d,
                                                   wave_3d, wave_k1, wave_k2):
        for wave in (wave_1d, wave_2d, wave_3d, wave_k1, wave_k2):
            rep = compute_functionals(wave)
            assert abs(rep.isotropy_defect) < 1e-6 * rep.e0

    def test_isotropy_defect_n1_always_zero(self):
        rep = FunctionalReport(2.0, [0.7], 1.0, 0.5, 1)
        assert rep.isotropy_defect == 0.0

    def test_scaled_profile_warns_once(self, wave_1d, monkeypatch):
        """The sech profile scaled x3 is no solution: E_0 = -4.32 with a
        Pokhozhaev residual of 1.0.  One warning names both, and no
        admissibility scan runs to word it."""
        calls = []
        for module in (solwave.potential, solwave.functionals):
            monkeypatch.setattr(module, "check_conditions",
                                lambda *args: calls.append(args), raising=False)
        profile = dataclasses.replace(wave_1d.profile, values=3 * wave_1d.profile.values,
                                      derivative=3 * wave_1d.profile.derivative)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = compute_functionals(dataclasses.replace(wave_1d, profile=profile))
        assert rep.e0 == pytest.approx(-4.32, rel=1e-6)
        assert rep.pokhozhaev_residual == pytest.approx(1.0, rel=1e-12)
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert f"E_0={rep.e0:.6g}" in message
        assert f"Pokhozhaev residual {rep.pokhozhaev_residual:.3g}" in message
        assert calls == []

    def test_anisotropic_report_has_defect(self):
        rep = FunctionalReport(1.0, [0.5, 2.0], 1.0, 0.5, 2)
        assert rep.isotropy_defect == pytest.approx(0.5 - 2.0)


class TestPredictions:
    def test_rest_frame(self, report_1d):
        em = predict_energy_momentum(report_1d, [0.0])
        assert em.energy == pytest.approx(report_1d.e0, abs=0)
        assert em.momentum[0] == 0.0

    def test_oracle_at_v06(self, report_1d):
        em = predict_energy_momentum(report_1d, [0.6])
        assert em.energy == pytest.approx(2.28, rel=1e-6)
        assert em.momentum[0] == pytest.approx(1.368, rel=1e-6)

    def test_momentum_equals_energy_times_velocity(self, report_1d):
        for v in (0.1, 0.45, 0.72):
            em = predict_energy_momentum(report_1d, [v])
            assert em.momentum[0] == em.energy * v  # exact float identity

    def test_invariant_mass_constant(self, report_1d):
        values = []
        for v in np.arange(0.0, 0.95, 0.1):
            em = predict_energy_momentum(report_1d, [v])
            values.append(em.energy * np.sqrt(1 - v**2))
        assert np.max(np.abs(np.array(values) / report_1d.e0 - 1)) < 1e-10

    def test_general_equals_closed_for_isotropic(self, wave_2d):
        rep = compute_functionals(wave_2d)
        for v in ([0.3, 0.0], [0.0, 0.5], [0.4, 0.3]):
            closed = predict_energy_momentum(rep, v)
            general = predict_general_energy_momentum(rep, v)
            assert general.energy == pytest.approx(closed.energy, rel=1e-9)
            np.testing.assert_allclose(general.momentum, closed.momentum, rtol=1e-7)

    def test_general_equals_closed_energy_n1_any_report(self):
        junk = FunctionalReport(3.0, [1.7], 0.2, 0.4, 1)
        for v in (0.0, 0.5, 0.9):
            closed = predict_energy_momentum(junk, [v])
            general = predict_general_energy_momentum(junk, [v])
            assert general.energy == closed.energy

    def test_superluminal_rejected(self, report_1d):
        with pytest.raises(SuperluminalVelocity):
            predict_energy_momentum(report_1d, [1.0])

    def test_nan_velocity_rejected(self):
        with pytest.raises(SuperluminalVelocity):
            lorentz_boost([float("nan")], 1)

    def test_stretched_profile_energy_shift(self, wave_2d):
        """Stretching a radial profile 2x along axis 1 scales the functionals
        exactly (I_1 -> I_1/2, I_2 -> 2 I_2, I_0 -> 2 I_0, V_0 -> 2 V_0); the
        two prediction modes must then differ by gamma (2 v^2 / n) * defect."""
        rep = compute_functionals(wave_2d)
        stretched = FunctionalReport(2 * rep.i0, [rep.i_k[0] / 2, 2 * rep.i_k[1]],
                                     2 * rep.v0, rep.omega, 2)
        defect = stretched.isotropy_defect
        assert defect == pytest.approx(-1.5 * rep.i_k[0], rel=1e-12)
        for speed in (0.3, 0.6, 0.9):
            v = [speed, 0.0]
            gamma = 1 / np.sqrt(1 - speed**2)
            closed = predict_energy_momentum(stretched, v)
            general = predict_general_energy_momentum(stretched, v)
            shift = gamma * (2 * speed**2 / 2) * defect
            assert general.energy - closed.energy == pytest.approx(shift, rel=1e-8)


class TestSerialization:
    def test_report_dict_fields(self, report_1d):
        d = json.loads(json.dumps(report_to_dict(report_1d)))
        fields = ["i0", "i_k", "v0", "e0", "pokhozhaev_residual",
                  "isotropy_defect", "omega", "n", "k"]
        expected = {name: getattr(report_1d, name) for name in fields}
        expected["i_k"] = report_1d.i_k.tolist()
        assert list(d) == fields
        assert d == expected
