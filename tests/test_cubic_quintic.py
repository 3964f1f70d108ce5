"""End-to-end checks on a two-term (cubic-quintic) self-interaction.

U(a) = a^2/2 - a^4/4 + 0.1 a^6/6, so f(a) = -a + a^3 - 0.1 a^5: the quintic
term is defocusing and saturates the cubic focusing.  Everything downstream
(conditions, solver, identities, boost measurement) must work unchanged.
"""

import numpy as np
import pytest

from solwave.boost import boost_scan, grid_for
from solwave.functionals import compute_functionals
from solwave.potential import check_conditions, expected_amplitude
from solwave.radial import equation_residual, find_ground_state, fit_tail_decay

from conftest import CQ

OMEGA = 0.8


@pytest.fixture(scope="module")
def wave_cq_1d():
    return find_ground_state(CQ, OMEGA, 1)


def test_conditions():
    rep = check_conditions(CQ, OMEGA, 3)
    assert rep.s1_holds and rep.s2_holds
    # the -0.1 a^5 force tail sits exactly at the n=3 critical power with the
    # admissible sign
    assert rep.s3_holds is True


def test_amplitude_matches_separatrix(wave_cq_1d):
    # in 1D the shoot parameter is the first zero of U(a) - omega^2 a^2 / 2
    a_star = expected_amplitude(CQ, OMEGA)
    assert wave_cq_1d.profile.shoot_param == pytest.approx(a_star, rel=1e-9)
    # the quintic saturation lowers the amplitude below the pure-cubic value
    assert wave_cq_1d.profile.shoot_param > np.sqrt(0.72)


def test_amplitude_where_the_scan_misreads_a_pair():
    # at omega = 0.6 the rtol-1e-6 scan's first pair, (2.99e-5, 3.73e-5), is
    # no (Undershot, Overshot) pair at the solver's tolerance: the solver has
    # to try the scan's other pairs
    wave = find_ground_state(CQ, 0.6, 1)
    assert wave.profile.shoot_param == pytest.approx(expected_amplitude(CQ, 0.6), rel=1e-12)


def test_profile_quality(wave_cq_1d):
    assert equation_residual(wave_cq_1d) < 1e-6
    assert fit_tail_decay(wave_cq_1d) == pytest.approx(0.6, rel=1e-4)
    assert wave_cq_1d.profile.node_count == 0


@pytest.mark.parametrize("n", [1, 2])
def test_pokhozhaev(n, wave_cq_1d):
    wave = wave_cq_1d if n == 1 else find_ground_state(CQ, OMEGA, n)
    rep = compute_functionals(wave)
    assert rep.pokhozhaev_residual < 1e-6
    assert rep.e0 > 0


def test_boosted_energy_momentum(wave_cq_1d):
    rep = compute_functionals(wave_cq_1d)
    grid = grid_for(wave_cq_1d, [0.0], 0.0, 0.02)
    rows = boost_scan(wave_cq_1d, CQ, [[0.3], [0.6]], grid, report=rep)
    for row in rows:
        assert row.rel_err_e < 1e-3
        assert row.rel_err_p < 1e-3
