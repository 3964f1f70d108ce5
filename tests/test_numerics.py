"""scipy, a test-only dependency, as the oracle of the numerics solwave carries
itself: the DOP853 tableau, the dense trajectory of a shot, Brent's method
and Simpson's rule; and the loop form of the DOP853 step, calling _rhs per
stage, as the oracle of the shot's generated straight-line stages."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate import DOP853, DenseOutput, OdeSolution

from solwave import find_excited_state, find_ground_state, radial
from solwave.numerics import brentq, simpson
from solwave.potential import PotentialSpec

from conftest import AMP, CQ, ODD


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


def _weigh(row, kR, kD):
    """sum_j a_j k_j over one tableau row, for both components, in a loop."""
    sR = sD = 0.0
    for j, a in row:
        sR += a * kR[j]
        sD += a * kD[j]
    return sR, sD


def _loop_dop853(f, r, R, dR, r_end, rtol, atol):
    """The step loop of radial._shoot with dense=True, unclassified, to r_end,
    with the tableau rows weighed in loops and f per stage: the accepted steps
    (r, R, R', piece), and per step tried, accepted or rejected, its start
    (r, h, R, R', R'') and its end (R, R', R'') with the _E5 and _E3 sums."""
    ddR = f(r, R, dR)
    scale_R, scale_D = atol + abs(R) * rtol, atol + abs(dR) * rtol

    def norm(x, y):
        return math.hypot(x / scale_R, y / scale_D) / math.sqrt(2.0)

    d0, d1 = norm(R, dR), norm(dR, ddR)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r_end - r)
    d2 = norm(h0 * ddR, f(r + h0, R + h0 * dR, dR + h0 * ddR) - ddR) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, r_end - r)
    steps, tries = [], []
    while r < r_end:
        h_abs = max(h_abs, 10.0 * (math.nextafter(r, math.inf) - r))
        rejected = False
        while True:
            r_new = r + h_abs
            h = r_new - r
            kR, kD = [dR], [ddR]
            for c, row in radial._STAGES:
                sR, sD = _weigh(row, kR, kD)
                R_new, dR_new = R + h * sR, dR + h * sD
                kR.append(dR_new)
                kD.append(f(r + c * h, R_new, dR_new))
            scale_R = atol + max(abs(R), abs(R_new)) * rtol
            scale_D = atol + max(abs(dR), abs(dR_new)) * rtol
            e5, e3 = _weigh(radial._E5, kR, kD), _weigh(radial._E3, kR, kD)
            tries.append(((r, h, R, dR, ddR), (R_new, dR_new, kD[12], *e5, *e3)))
            err5, err3 = norm(*e5) ** 2, norm(*e3) ** 2
            error = 0.0 if err5 == err3 == 0.0 else h * err5 / math.sqrt(err5 + 0.01 * err3)
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
        for c, row in radial._EXTRA:
            sR, sD = _weigh(row, kR, kD)
            kR.append(dR + h * sD)
            kD.append(f(r + c * h, R + h * sR, kR[-1]))
        jump_R, jump_D = R_new - R, dR_new - dR
        piece = [(R, dR), (jump_R, jump_D), (h * kR[0] - jump_R, h * kD[0] - jump_D),
                 (2.0 * jump_R - h * (kR[12] + kR[0]), 2.0 * jump_D - h * (kD[12] + kD[0]))]
        piece += [(h * sR, h * sD) for sR, sD in (_weigh(row, kR, kD) for row in radial._D)]
        r, R, dR, ddR = r_new, R_new, dR_new, kD[12]
        steps.append((r, R, dR, piece))
    return steps, tries


def _bits(rows):
    return np.array([np.ravel(row) for row in rows]).view(np.int64)


@pytest.mark.parametrize("rtol", [1e-6, 1e-12])
def test_stepper_matches_the_loop_form(wave_1d, wave_2d, wave_3d, wave_k1, wave_k2, rtol):
    # the specialized stepper, the amplitude equation written into its stages,
    # against the tableau rows weighed in loops with _rhs as f, bit for bit,
    # over a shot's whole range: every step tried (its end and error sums),
    # and every accepted step's dense piece up to where _shoot's dense shot
    # stops.  The cubic waves sit at their converged data; CQ's two even
    # terms and ODD's abs path too, ODD just above its root, so that the
    # shot overshoots and R turns negative.  Per case the last entry is the
    # rtol it runs at in place of 1e-6: the n = 1, n = 2 and ODD dense shots
    # keep 16 steps or fewer at 1e-6, so they run tighter there
    cases = [(w.spec, w.omega, w.n, w.k, w.profile.shoot_param, loose)
             for w, loose in ((wave_1d, 1e-8), (wave_2d, 1e-8), (wave_3d, 1e-6),
                              (wave_k1, 1e-6), (wave_k2, 1e-6))]
    cases += [(CQ, 0.7, 3, 0, find_ground_state(CQ, 0.7, 3).profile.shoot_param, 1e-6),
              (ODD, 0.8, 2, 0, 1.001 * find_ground_state(ODD, 0.8, 2).profile.shoot_param, 1e-9)]
    for spec, omega, n, k, s, loose in cases:
        rtol_case = min(rtol, loose)
        delta = math.sqrt(spec.mass_sq - omega**2)
        r0, series = radial._origin_series(spec, omega, n, k, s)
        steps, tries = _loop_dop853(radial._rhs(spec, omega, n, k), r0, *series(r0, 1),
                                    radial.SHOT_RANGE / delta, rtol_case, 1e-14 * abs(s))
        assert len(tries) > len(steps)  # some step was rejected
        assert spec is not ODD or min(end[0] for _, end in tries) < 0.0
        stages, _ = radial._stepper(spec, omega, n, k)
        got = [stages(*start)[:7] for start, _ in tries]
        assert np.array_equal(_bits(got), _bits([end for _, end in tries]))
        sol = radial._shoot(spec, omega, n, k, s, rtol=rtol_case, dense=True)
        kept = steps[: sol.ts.size - 1]
        assert len(kept) > 16
        assert np.array_equal(_bits([sol.ts]), _bits([[r0] + [r for r, *_ in kept]]))
        assert np.array_equal(_bits(np.transpose(sol._rows, (2, 0, 1))),
                              _bits([piece for *_, piece in kept]))


def test_stepper_binds_constants_per_solve(wave_1d, wave_2d, monkeypatch):
    # the cubic with coupling 2 runs the code compiled for coupling 1, bound
    # to its own constants: R -> R / sqrt(2) maps one equation onto the
    # other, and the coupling-1 roots are the ones solved before
    monkeypatch.setattr(radial, "_STEPPERS", {})
    for wave in (wave_1d, wave_2d):
        roots = [find_ground_state(PotentialSpec(mass_sq=1.0, terms=((c, 4),), amplitude_cap=8.5),
                                   0.8, wave.n).profile.shoot_param for c in (1.0, 2.0)]
        assert roots[0] == wave.profile.shoot_param
        assert roots[1] == pytest.approx(roots[0] / math.sqrt(2.0), rel=1e-12, abs=0)
    assert list(radial._STEPPERS) == [((4,), True, True), ((4,), True, False)]


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


@pytest.mark.parametrize("a,b", [(1.0, 3.0), (-3.0, 1.0), (-5.0, 1.0)])
def test_brentq_returns_a_zero_end(a, b):
    # f(a) or f(b) exactly 0 is the root, even without a sign change (1, 3);
    # with both 0 (-5, 1) it is a
    def f(x):
        return (x - 1.0) * (x + 5.0)

    root = brentq(f, a, b)
    assert root == scipy.optimize.brentq(f, a, b)
    assert root == (a if f(a) == 0.0 else b)


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


def _two_term_start(spec, omega, n, k, s, r):
    """(R, R') of s r^k + c r^{k+2}, c from the equation's r^k coefficient."""
    lin = spec.mass_sq - omega**2
    if k == 0:
        c = (lin * s - sum(coupling * abs(s) ** (e - 2) * s for coupling, e in spec.terms)) / (2 * n)
    else:
        c = lin * s / (4.0 * (k + 1))
    return s * r**k + c * r ** (k + 2), k * s * r ** (k - 1) + (k + 2) * c * r ** (k + 1)


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "k1", "k2", "cq", "odd"])
def test_origin_series_is_exact_at_the_start(wave_1d, wave_2d, wave_3d, wave_k1, wave_k2, case):
    # (R, R') of the shot's start, from the origin series at its r0, against
    # a loop-form rtol-1e-13 integration from 1e-6/delta, where two terms of
    # the series are exact: small data start at the reach 0.3/delta, large
    # ones nearer the origin.  ODD's k = 1 series is in powers of r, not r^2
    waves = {"n1": wave_1d, "n2": wave_2d, "n3": wave_3d, "k1": wave_k1, "k2": wave_k2}
    if case in waves:
        w = waves[case]
        spec, omega, n, k, s_star = w.spec, w.omega, w.n, w.k, w.profile.shoot_param
    elif case == "cq":
        spec, omega, n, k = CQ, 0.7, 3, 0
        s_star = find_ground_state(CQ, 0.7, 3).profile.shoot_param
    else:
        spec, omega, n, k = ODD, 0.8, 2, 1
        s_star = find_excited_state(ODD, 0.8, 1).profile.shoot_param
    cap = spec.amplitude_cap
    delta = math.sqrt(spec.mass_sq - omega**2)
    for s in (1e-6 * cap, s_star, cap, 40.0):
        r0, series = radial._origin_series(spec, omega, n, k, s)
        r_in = 1e-6 / delta
        steps, _ = _loop_dop853(radial._rhs(spec, omega, n, k), r_in,
                                *_two_term_start(spec, omega, n, k, s, r_in),
                                r0, 1e-13, 1e-30 * s)
        reference = radial._Trajectory([r_in] + [r for r, *_ in steps],
                                       [piece for *_, piece in steps])(np.array([r0]))[:, 0]
        # the reference's own error reaches 2.1e-13 (R' of CQ at datum 40)
        np.testing.assert_allclose(series(r0)[:2], reference, rtol=1e-12, atol=0.0,
                                   err_msg=f"datum {s}, r0 = {r0 * delta:.3g} / delta")
