import numpy as np
import pytest

from solwave import potential
from solwave.potential import (PotentialSpec, check_conditions, evaluate_force,
                               evaluate_potential, expected_amplitude, force_slope)
from solwave.radial import find_ground_state


def test_potential_values(cubic):
    assert evaluate_potential(cubic, 0.0) == 0.0
    assert evaluate_potential(cubic, 1.0) == pytest.approx(0.25, abs=0)
    mass_only = PotentialSpec(mass_sq=1.0)
    assert evaluate_potential(mass_only, 2.0) == pytest.approx(2.0, abs=0)


@pytest.mark.parametrize("exponent", range(3, 9))
def test_potential_powers_match_general_power(exponent):
    # one term, so the relative bound is not spoilt by cancellation
    spec = PotentialSpec(mass_sq=0.0, terms=((1.0, exponent),))
    a = np.concatenate([[0.0], np.random.default_rng(exponent).uniform(0.0, 3.0, 2000)])
    expected = -(a ** exponent) / exponent
    got = evaluate_potential(spec, a)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
    assert evaluate_potential(spec, 0.0) == 0.0


def test_force_values(cubic):
    assert evaluate_force(cubic, 0.0) == 0.0
    assert evaluate_force(cubic, 1.0) == pytest.approx(0.0, abs=1e-15)
    got = evaluate_force(cubic, 0.5j)
    assert got == pytest.approx(-0.375j, abs=1e-15)


def test_force_is_vectorized(cubic):
    a = np.linspace(0, 2, 7)
    np.testing.assert_allclose(evaluate_force(cubic, a), -a + a**3, atol=1e-15)


@pytest.mark.parametrize("spec", [
    PotentialSpec(mass_sq=1.0, terms=((1.0, 4),)),
    PotentialSpec(mass_sq=2.0, terms=((0.5, 4), (-0.1, 6))),
    PotentialSpec(mass_sq=1.0),
    PotentialSpec(mass_sq=0.5, terms=((0.3, 3), (1.0, 5))),
])
def test_force_matches_potential_derivative(spec):
    # f(a) = -U'(a): centered difference of U agrees to O(h^2)
    a = np.linspace(0.05, 3.0, 40)
    h = 1e-6
    dU = (evaluate_potential(spec, a + h) - evaluate_potential(spec, a - h)) / (2 * h)
    np.testing.assert_allclose(evaluate_force(spec, a), -dU, atol=5e-10, rtol=1e-8)


@pytest.mark.parametrize("spec, even", [
    (PotentialSpec(mass_sq=1.0, terms=((1.0, 4),)), True),
    (PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6))), True),
    (PotentialSpec(mass_sq=0.5, terms=((0.3, 3), (1.0, 5))), False),
], ids=["cubic", "cubic_quintic", "odd"])
def test_force_matches_amplitude_formula(spec, even):
    # even exponents take h from re^2 + im^2, odd ones from |psi|: both agree
    # with psi * h(|psi|) to rounding of the terms (their sum cancels near a
    # zero of h, so the bound scales with the terms, not with f)
    rng = np.random.default_rng(11)
    psi = rng.uniform(0.0, 3.0, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
    a = np.abs(psi)
    today = psi * force_slope(spec, a)
    scale = a * (spec.mass_sq + sum(abs(c) * a ** (e - 2) for c, e in spec.terms))
    got = evaluate_force(spec, psi)
    assert np.all(np.abs(got - today) <= 1e-15 * scale)
    # the odd route is the amplitude formula itself; the even one rounds
    # differently somewhere among 2000 points, which shows it was taken
    assert np.array_equal(got, today) == (not even)


@pytest.mark.parametrize("spec, even", [
    (PotentialSpec(mass_sq=1.0, terms=((1.0, 4),)), True),
    (PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6))), True),
    (PotentialSpec(mass_sq=0.5, terms=((0.3, 3), (1.0, 5))), False),
], ids=["cubic", "cubic_quintic", "odd"])
def test_potential_takes_the_field(spec, even):
    # V(psi) = U(|psi|): even exponents take a^2 = re^2 + im^2, odd ones |psi|
    rng = np.random.default_rng(13)
    psi = rng.uniform(0.0, 3.0, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
    a = np.abs(psi)
    amplitude = evaluate_potential(spec, a)
    scale = a * a * (spec.mass_sq / 2 + sum(abs(c / e) * a ** (e - 2) for c, e in spec.terms))
    got = evaluate_potential(spec, psi)
    assert np.all(np.abs(got - amplitude) <= 1e-15 * scale)
    for theta in np.linspace(0.0, 2 * np.pi, 9, endpoint=False)[1:]:
        rotated = evaluate_potential(spec, np.exp(1j * theta) * psi)
        assert np.all(np.abs(rotated - got) <= 1e-14 * scale)
    # the odd route is the amplitude route itself
    assert np.array_equal(got, amplitude) == (not even)


def test_u1_equivariance(cubic):
    rng = np.random.default_rng(7)
    a = rng.uniform(0.01, 3.0, size=50)
    for theta in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
        rot = np.exp(1j * theta)
        lhs = evaluate_force(cubic, rot * a)
        rhs = rot * evaluate_force(cubic, a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_potential_no_linear_term(cubic):
    # U(0) = 0 and U'(0) = 0: U(a)/a vanishes linearly (slope m^2/2 here)
    a = np.logspace(-8, -2, 7)
    assert evaluate_potential(cubic, 0.0) == 0.0
    np.testing.assert_allclose(evaluate_potential(cubic, a) / a, 0.5 * a, rtol=1e-3)


def test_s1_value_exact(cubic):
    rep = check_conditions(cubic, 0.8, 1)
    assert rep.s1_value == 0.8**2 - 1.0
    assert rep.s1_holds
    rep_bad = check_conditions(PotentialSpec(mass_sq=1.0), 1.2, 1)
    assert not rep_bad.s1_holds


def test_s2_witness(cubic):
    rep = check_conditions(cubic, 0.8, 1)
    assert rep.s2_holds
    a0 = rep.s2_witness
    assert evaluate_potential(cubic, a0) - 0.8**2 * a0**2 / 2 < 0
    # the smallest negative-energy amplitude is the 1D separatrix amplitude
    assert a0 == pytest.approx(np.sqrt(0.72), rel=1e-3)


def test_s2_witness_beyond_cap():
    spec = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=0.5)
    rep = check_conditions(spec, 0.8, 1)
    assert rep.s2_holds  # negative leading tail guarantees a witness past the cap
    assert rep.s2_witness > 0.5


def test_s2_fails_for_defocusing():
    spec = PotentialSpec(mass_sq=1.0, terms=((-1.0, 4),), amplitude_cap=10.0)
    rep = check_conditions(spec, 0.8, 1)
    assert not rep.s2_holds
    assert rep.s2_witness is None


def test_s3_subcritical_cases():
    cubic = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),))
    assert check_conditions(cubic, 0.8, 3).s3_holds is True       # power 3 < 5
    assert check_conditions(cubic, 0.8, 1).s3_holds is None       # not applicable
    assert check_conditions(cubic, 0.8, 2).s3_holds is None
    crit_bad = PotentialSpec(mass_sq=1.0, terms=((1.0, 6),))
    assert check_conditions(crit_bad, 0.8, 3).s3_holds is False   # +a^5 at l=5
    crit_ok = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-1.0, 6)))
    assert check_conditions(crit_ok, 0.8, 3).s3_holds is True     # -a^5 at l=5


def test_s4_scan(cubic):
    rep = check_conditions(cubic, 0.8, 1)
    # U(a) + omega^2 a^2/2 = 0.82 a^2 - 0.25 a^4 dips negative past sqrt(3.28)
    assert not rep.s4_holds_on_cap_range
    assert rep.s4_first_violation == pytest.approx(np.sqrt(3.28), rel=1e-3)
    small_cap = PotentialSpec(mass_sq=1.0, terms=((1.0, 4),), amplitude_cap=1.5)
    assert check_conditions(small_cap, 0.8, 1).s4_holds_on_cap_range


def test_omega_zero_contradiction(cubic):
    # with omega = 0 a negative-energy amplitude is a pointwise S4 violation
    rep = check_conditions(cubic, 0.0, 1)
    assert rep.s2_holds
    assert not rep.s4_holds_on_cap_range
    assert rep.s4_first_violation <= rep.s2_witness


def test_abs_sq():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    np.testing.assert_allclose(potential._abs_sq(z), np.abs(z) ** 2, rtol=1e-15)
    assert potential._abs_sq(np.array([-2.0, 3.0])).tolist() == [4.0, 9.0]


def test_expected_amplitude(cubic):
    assert expected_amplitude(cubic, 0.8) == pytest.approx(np.sqrt(0.72), rel=1e-12)
    assert expected_amplitude(cubic, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert expected_amplitude(PotentialSpec(mass_sq=1.0), 0.5) is None


@pytest.mark.parametrize("terms, omega, root", [
    # np.roots lost the zero near 1 and returned a far one, ~1.9e38 ...
    (((1.0, 3), (-2.7e-115, 6)), 0.314, 1.5 * (1 - 0.314**2)),
    # ... ~2.6e111 ...
    (((0.33, 6), (-6.5e-224, 8), (1e-20, 3)), 0.5, (0.375 / 0.055) ** 0.25),
    # ... and ~3.5e44
    (((0.395, 4), (-1.4e-45, 5)), 0.395, np.sqrt(2 * (1 - 0.395**2) / 0.395)),
    # a subnormal coupling made np.roots raise LinAlgError
    (((1.0, 4), (2e-311, 6)), 0.5, np.sqrt(1.5)),
])
def test_expected_amplitude_beside_tiny_couplings(terms, omega, root):
    # the first sign change of U(a) - omega^2 a^2/2 is that of the terms
    # without the tiny coupling, to far below 1e-12
    spec = PotentialSpec(mass_sq=1.0, terms=terms)
    assert expected_amplitude(spec, omega) == pytest.approx(root, rel=1e-12)
    # the scan's stationary points come from the same root finder: the S2
    # witness is the first grid point past the root, at most one step of
    # cap/10^4 on (the root sits on a node here, up to rounding)
    cap = 10.0 * root
    rep = check_conditions(PotentialSpec(mass_sq=1.0, terms=terms, amplitude_cap=cap), omega, 1)
    assert rep.s2_holds
    assert root <= rep.s2_witness <= root + 1.001 * cap / 1e4


def test_ground_state_beside_subnormal_coupling():
    spec = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (2e-311, 6)),
                         amplitude_cap=10.0 * np.sqrt(1.5))
    wave = find_ground_state(spec, 0.5, 1)
    assert abs(wave.profile.shoot_param - np.sqrt(1.5)) <= 1e-12


@pytest.mark.parametrize("terms, omega", [
    (((1.0, 4), (-1.0, 6)), 0.3),  # U - omega^2 a^2/2 > 0 for every a > 0
    (((1.0, 4),), 1.0),            # -a^4/4: touches zero at a = 0 only
    (((1.0, 4),), 1.2),            # negative for every a > 0
])
def test_expected_amplitude_none_without_sign_change(terms, omega):
    assert expected_amplitude(PotentialSpec(mass_sq=1.0, terms=terms), omega) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(mass_sq=-1.0)
    with pytest.raises(ValueError):
        PotentialSpec(mass_sq=1.0, terms=((1.0, 2),))
    with pytest.raises(ValueError):
        PotentialSpec(mass_sq=1.0, amplitude_cap=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mass_sq"):
            PotentialSpec(mass_sq=bad)
        with pytest.raises(ValueError, match="amplitude_cap"):
            PotentialSpec(mass_sq=1.0, amplitude_cap=bad)
        with pytest.raises(ValueError, match="coupling"):
            PotentialSpec(mass_sq=1.0, terms=((bad, 4),))
