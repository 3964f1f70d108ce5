"""scipy, a test-only dependency, as the oracle of the numerics solwave carries
itself: the DOP853 tableau, the dense trajectory of a shot, Brent's method
and Simpson's rule."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate import DOP853, DenseOutput, OdeSolution

from solwave import radial
from solwave.numerics import brentq, simpson
from solwave.potential import PotentialSpec

from conftest import AMP

CQ = PotentialSpec(mass_sq=1.0, terms=((1.0, 4), (-0.1, 6)), amplitude_cap=10.0)


def _full(rows, width):
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, a in row:
            assert a != 0.0
            out[i, j] = a
    return out


def test_tableau_is_scipys():
    # the last step stage is the step's end: c = 1 with weights B
    nodes = [c for c, _ in radial._STAGES]
    assert np.array_equal(nodes, [*DOP853.C[1:], 1.0])
    assert np.array_equal(_full([row for _, row in radial._STAGES[:-1]], 12), DOP853.A[1:])
    assert np.array_equal(_full([radial._STAGES[-1][1]], 12)[0], DOP853.B)
    assert np.array_equal([c for c, _ in radial._EXTRA], DOP853.C_EXTRA)
    assert np.array_equal(_full([row for _, row in radial._EXTRA], 16), DOP853.A_EXTRA)
    assert np.array_equal(_full([radial._E3], 13)[0], DOP853.E3)
    assert np.array_equal(_full([radial._E5], 13)[0], DOP853.E5)
    assert np.array_equal(_full(radial._D, 16), DOP853.D)


class _ScipyStep(DenseOutput):
    """One step's interpolant as scipy evaluates DOP853's dense output."""

    def __init__(self, r_old, r, rows):
        super().__init__(r_old, r)
        self.h, self.y_old, self.F = r - r_old, rows[0][:, None], rows[1:][:, :, None]

    def _call_impl(self, t):
        x = np.atleast_1d((t - self.t_old) / self.h)
        y = np.zeros((2, x.size))
        for i, f in enumerate(self.F[::-1]):
            y = (y + f) * (x if i % 2 == 0 else 1.0 - x)
        return y + self.y_old if t.ndim else (y + self.y_old)[:, 0]


@pytest.mark.parametrize("n, k, factor", [(1, 0, 1.0), (3, 0, 1.1), (2, 1, 0.9), (2, 2, 1.0)])
def test_trajectory_matches_ode_solution(cubic, wave_k1, wave_k2, n, k, factor):
    # at every step end (which takes the step ending there), step midpoints,
    # points on a fine grid and points outside the trajectory, bit for bit
    s = factor * {0: AMP, 1: wave_k1.profile.shoot_param, 2: wave_k2.profile.shoot_param}[k]
    sol = radial._shoot(cubic, 0.8, n, k, s, dense=True)
    ts = sol.ts
    oracle = OdeSolution(ts, [_ScipyStep(ts[i], ts[i + 1], sol._rows[:, :, i])
                              for i in range(ts.size - 1)])
    r = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1]), np.linspace(-1.0, ts[-1] + 1.0, 2001)])
    assert np.array_equal(sol(r), oracle(r))
    assert (sol.t_min, sol.t_max) == (oracle.t_min, oracle.t_max)


def _outcome(solve):
    """The root's bits, or the type of the error raised."""
    try:
        return solve().hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("spec, n, k", [("cubic", 1, 0), ("cubic", 2, 1), ("cq", 3, 0)])
def test_brentq_on_shot_misses(cubic, spec, n, k):
    # the root-finding of _solve_wave, on the first scan pair and on a pair
    # of two undershots (same sign: ValueError from both)
    spec = cubic if spec == "cubic" else CQ
    s_lo, s_hi = next(radial._scan_pairs(spec, 0.8, n, k))

    def miss(s):
        return radial._shoot(spec, 0.8, n, k, s)

    outcomes = []
    for lo, hi in ((s_lo, s_hi), (0.5 * s_lo, s_lo)):
        options = dict(xtol=math.ulp(lo), rtol=radial.SHOOT_TOL)
        outcomes.append(_outcome(lambda: brentq(miss, lo, hi, **options)))
        assert outcomes[-1] == _outcome(lambda: scipy.optimize.brentq(miss, lo, hi, **options))
    assert isinstance(outcomes[0], str) and outcomes[1] is ValueError


def test_brentq_on_polynomials():
    # random polynomials and brackets, at _sign_change_zeros' options and at
    # the defaults, with maxiter low enough that some raise RuntimeError; the
    # scales reach subnormal values, where products of f values underflow
    rng = np.random.default_rng(1901)
    outcomes = set()
    for _ in range(400):
        c = rng.normal(size=rng.integers(2, 8)) * 10.0 ** rng.uniform(-320.0, 0.0)
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))

        def poly(x):
            return float(np.polyval(c, x))

        for kw in (dict(xtol=np.finfo(float).tiny, maxiter=2200), {}, dict(maxiter=4)):
            ours = _outcome(lambda: brentq(poly, a, b, **kw))
            assert ours == _outcome(lambda: scipy.optimize.brentq(poly, a, b, **kw))
            outcomes.add(ours if isinstance(ours, type) else float)
    assert outcomes == {float, ValueError, RuntimeError}


def test_brentq_on_the_match_radius(wave_2d):
    # the r_match search of _assemble_profile: where the tail model crosses
    # the splice threshold
    p = wave_2d.profile
    threshold = radial.MATCH_THRESHOLD * float(np.max(np.abs(p.values)))
    args = (p.prefactor, wave_2d.delta, wave_2d.n, wave_2d.k)

    def log_excess(r):
        return float(np.log(np.abs(radial._tail(r, *args)[0])) - np.log(threshold))

    lo, hi = p.numeric_radius, p.numeric_radius + 40.0 / wave_2d.delta
    ours = _outcome(lambda: brentq(log_excess, lo, hi))
    assert isinstance(ours, str)
    assert ours == _outcome(lambda: scipy.optimize.brentq(log_excess, lo, hi))


def test_brentq_nan_raises():
    with pytest.raises(ValueError):
        brentq(lambda x: math.nan, 0.0, 1.0)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 101, 1000, 1001, 20000])
def test_simpson_matches_scipy(size):
    rng = np.random.default_rng(size)
    h = 0.0037
    x = np.arange(size) * h
    y = np.exp(-x) * (1.0 + 0.1 * rng.random(size))
    theirs = scipy.integrate.simpson(y, x=x)
    assert abs(simpson(y, h) - theirs) <= 1e-14 * abs(theirs)


def test_simpson_needs_three_samples():
    with pytest.raises(ValueError):
        simpson([1.0, 2.0], 0.1)
