"""Radial solitary-wave profiles by shooting and Brent's method.

Solves the stationary amplitude equation

    R'' + (n-1)/r R' - k^2/r^2 R = U'(R) - omega^2 R,

outward from r ~ 0 with series initial data.  Every shot (the rtol-1e-6
bracket scan, the rtol-1e-12 root-finding and converged-profile shots) runs
one scalar DOP853 stepper on the two floats (R, R'), with Hairer's tableau
(written out below) and the step control of scipy's DOP853, and classifies the
trajectory after each step; every shot ends Undershot (turns back up before
reaching zero) or Overshot (sign change, or runaway past the divergence
guard), and there is no decay outcome.  The decaying profile is a separatrix
of the ODE: perturbations grow like e^{+delta r} with
delta = sqrt(mass_sq - omega^2), so a shot with initial datum known to
relative accuracy eps tracks the true profile only down to |R| ~ sqrt(eps)
before it veers to one side.  Brent's method on the shot's
signed miss (the growing-mode amplitude, whose sign is the outcome) therefore
refines the initial datum to near machine precision, the trajectory is cut at
its deepest trusted point, and the profile is continued with the analytic
linear-regime tail

    R(r) ~ prefactor * r^{-(n-1)/2} * e^{-delta r} * (1 + a1/(delta r) + a2/(delta r)^2),

the large-r asymptotic of the linearized equation (a1, a2 derived from n and
k; both vanish for n = 1 and n = 3 ground states, where the leading form is
exact).  WaveInterpolant evaluates R and R' by Hermite interpolation of R, R'
and R'' (from the equation) on the grid, and by the tail model beyond it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .numerics import brentq
from .potential import PotentialSpec, check_conditions

__all__ = [
    "RadialProfile",
    "SolitaryWave",
    "StepFailure",
    "NoBracket",
    "NodeCountMismatch",
    "find_ground_state",
    "find_excited_state",
    "resample_wave",
    "equation_residual",
    "fit_tail_decay",
    "WaveInterpolant",
    "save_wave",
    "load_wave",
]

MATCH_THRESHOLD = 1e-8          # tail splice level, relative to max |R|
DIVERGENCE_FACTOR = 3.0         # overshoot guard: |R| > factor * amplitude_cap
SHOT_RANGE = 60.0               # outer end of every shot, in units of 1/delta
GRID_DENSITY = 500.0            # profile grid points per 1/delta
SHOOT_TOL = 1e-13               # relative bracket width that ends root-finding


class StepFailure(RuntimeError):
    """The adaptive integrator underflowed its step size."""


class NoBracket(RuntimeError):
    """No pair of the initial scan is an (Undershot, Overshot) pair when
    re-shot at the solver's tolerance (or the scan finds no pair at all)."""


class NodeCountMismatch(RuntimeError):
    """A converged profile has interior sign changes where none are expected."""


@dataclass(frozen=True)
class RadialProfile:
    """A solved profile: the converged shot on a uniform grid, spliced to its
    fitted analytic tail R ~ prefactor * r^{-(n-1)/2} e^{-delta r} (with its
    short asymptotic series), whose rate delta is SolitaryWave.delta.

    numeric_radius marks where integrated data ends and the tail model takes
    over, match_radius where the profile falls below 1e-8 max|R|
    (numeric_radius <= match_radius <= r_grid[-1]).
    """

    r_grid: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    node_count: int
    shoot_param: float
    numeric_radius: float
    prefactor: float
    match_radius: float

    @property
    def h_r(self) -> float:
        return float(self.r_grid[1] - self.r_grid[0])


@dataclass(frozen=True)
class SolitaryWave:
    """Standing wave amplitude a(x) = R(|x|) e^{i k arg(x)} at frequency omega."""

    n: int
    k: int
    omega: float
    profile: RadialProfile
    spec: PotentialSpec

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n!r}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 0:
            raise ValueError(f"angular index must be >= 0 and an integer, got {self.k!r}")
        if self.k >= 1 and self.n != 2:
            raise ValueError("angular excited states require n = 2")

    @property
    def delta(self) -> float:
        return math.sqrt(self.spec.mass_sq - self.omega**2)


def _tail(r, prefactor, delta, n, k):
    """(R, R') of the linear-regime tail
    prefactor * r^{-(n-1)/2} e^{-delta r} (1 + a1/(delta r) + a2/(delta r)^2).

    The linearized radial equation has this decaying solution with
    mu^2 = ((n-2)/2)^2 + k^2; a1 and a2 vanish for the n=1 and n=3 ground
    states, where the leading form is exact.
    """
    mu4 = 4.0 * (((n - 2) / 2.0) ** 2 + k * k)
    a1 = (mu4 - 1.0) / 8.0
    a2 = (mu4 - 1.0) * (mu4 - 9.0) / 128.0
    r = np.asarray(r, dtype=float)
    inv_r = 1.0 / r
    z = inv_r / delta
    shape = prefactor * np.exp(-delta * r)
    if n == 2:
        shape /= np.sqrt(r)
    elif n == 3:
        shape *= inv_r
    corr = 1.0 + z * (a1 + a2 * z)
    dcorr = -z * inv_r * (a1 + 2.0 * a2 * z)
    return shape * corr, shape * (dcorr - (delta + 0.5 * (n - 1) * inv_r) * corr)


def _origin_curvature(spec: PotentialSpec, omega: float, n: int, k: int, s: float) -> float:
    """R''(0) from the origin series: (U'(s) - omega^2 s)/n for R ~ s + R''(0) r^2/2
    (k = 0); for R ~ s r^k, 2s at k = 2 and 0 otherwise."""
    if k == 0:
        # this order fixes the shot's initial slope, and the converged datum, to the bit
        nonlinear = sum(coupling * s ** (exponent - 2) * s for coupling, exponent in spec.terms)
        return (spec.mass_sq * s - nonlinear - omega**2 * s) / n
    return 2.0 * s if k == 2 else 0.0


def _series_start(spec: PotentialSpec, omega: float, n: int, k: int, s: float, r0: float):
    """Series initial data R ~ s r^k + c r^{k+2} regularizing the (n-1)/r and
    k^2/r^2 terms at r = 0: c = R''(0)/2 for k = 0, at the linear level otherwise."""
    if k == 0:
        c = _origin_curvature(spec, omega, n, k, s) / 2.0
    else:
        c = (spec.mass_sq - omega**2) * s / (4.0 * (k + 1))
    return s * r0**k + c * r0 ** (k + 2), k * s * r0 ** (k - 1) + (k + 2) * c * r0 ** (k + 1)


def _rhs(spec: PotentialSpec, omega: float, n: int, k: int):
    """The amplitude equation as R''(r, R, R') at r > 0, on floats or
    elementwise on arrays."""
    lin = spec.mass_sq - omega**2
    k2 = float(k * k)
    nm1 = float(n - 1)
    powers = tuple((coupling, exponent - 2) for coupling, exponent in spec.terms)

    def rhs(r, R, dR):
        nl = 0.0
        for coupling, power in powers:
            nl += coupling * abs(R) ** power * R
        return (k2 / (r * r)) * R - (nm1 / r) * dR + lin * R - nl

    return rhs


# Hairer's DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, 1993), the
# coefficients scipy.integrate.DOP853 ships, without zero entries: per stage its
# node c and weights (j, a_j); the last step stage, c = 1 with weights B, is the
# step's end.  _EXTRA holds the three stages of the dense output, _E3 and _E5
# the error weights and _D the interpolant's four upper rows.
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
                          (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386),
                          (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
            (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
                          (4, 0.10726203044637328), (5, -0.015319437748624402),
                          (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
                          (4, -0.868219346841726), (5, 27.59209969944671), (6, 20.154067550477894),
                          (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
           (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
           (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
                          (4, 1.0914373489967295), (5, -8.149787010746927),
                          (6, -18.52006565999696), (7, 22.739487099350505),
                          (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
           (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
           (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636))),
    (1.0, ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
           (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
           (10, 0.20136540080403034), (11, 0.04471061572777259))),
)
_EXTRA = (
    (0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
           (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
           (11, 0.007567897660545699), (12, -0.008298))),
    (0.2, ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
           (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
           (12, -0.00034046500868740456), (13, 0.1413124436746325))),
    (0.7777777777777778, ((0, -0.42889630158379194), (5, -4.697621415361164),
                          (6, 7.683421196062599), (7, 4.06898981839711), (8, 0.3567271874552811),
                          (12, -0.0013990241651590145), (13, 2.9475147891527724),
                          (14, -9.15095847217987))),
)
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)


def _weigh(row, kR, kD):
    """sum_j a_j k_j over one tableau row, for both components."""
    sR = sD = 0.0
    for j, a in row:
        sR += a * kR[j]
        sD += a * kD[j]
    return sR, sD


class _Trajectory:
    """(R, R') along a dense shot, called on a 1-D array of radii -> (2, m).

    ts are the accepted steps' bounds; per step, pieces holds its start (R, R')
    and the seven rows F of DOP853's 7th-order interpolant.  A radius takes
    the step whose interval holds it, a step end the step that ends there,
    and points outside [t_min, t_max] the nearest step, as scipy's
    OdeSolution picks them; the Horner order is scipy's, to the bit.
    """

    def __init__(self, ts, pieces):
        self.ts = np.asarray(ts, dtype=float)
        self.t_min, self.t_max = self.ts[0], self.ts[-1]
        self._h = np.diff(self.ts)
        self._rows = np.transpose(np.asarray(pieces, dtype=float), (1, 2, 0))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(self.ts, t) - 1, 0, self._h.size - 1)
        x = (t - self.ts[j]) / self._h[j]
        y_old, *F = self._rows[:, :, j]
        y = np.zeros((2, t.size))
        for i, f in enumerate(F[::-1]):
            y = (y + f) * (x if i % 2 == 0 else 1.0 - x)
        return y + y_old


def _dop853(f, r, R, dR, r_end, rtol, atol, dense):
    """Accepted steps (r, R, R', piece) of (R, R')' = (R', f(r, R, R')) from r to
    r_end: DOP853 on two floats with scipy's step control (Hairer's initial step,
    safety 0.9, factor in [0.2, 10], exponent -1/8); piece is the step's
    start and interpolant rows with dense=True (see _Trajectory), else None.
    Raises StepFailure on an underflowing or non-finite step or a non-finite
    error."""
    ddR = f(r, R, dR)
    scale_R, scale_D = atol + abs(R) * rtol, atol + abs(dR) * rtol

    def norm(x, y):
        return math.hypot(x / scale_R, y / scale_D) / math.sqrt(2.0)

    d0, d1 = norm(R, dR), norm(dR, ddR)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r_end - r)
    d2 = norm(h0 * ddR, f(r + h0, R + h0 * dR, dR + h0 * ddR) - ddR) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, r_end - r)
    while r < r_end:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepFailure(f"step size {h_abs:.3g} at r={r:.6g} underflowed")
            r_new = min(r + h_abs, r_end)
            h = r_new - r
            kR, kD = [dR], [ddR]
            for c, row in _STAGES:
                sR, sD = _weigh(row, kR, kD)
                R_new, dR_new = R + h * sR, dR + h * sD
                kR.append(dR_new)
                kD.append(f(r + c * h, R_new, dR_new))
            scale_R = atol + max(abs(R), abs(R_new)) * rtol
            scale_D = atol + max(abs(dR), abs(dR_new)) * rtol
            err5, err3 = norm(*_weigh(_E5, kR, kD)) ** 2, norm(*_weigh(_E3, kR, kD)) ** 2
            error = 0.0 if err5 == err3 == 0.0 else h * err5 / math.sqrt(err5 + 0.01 * err3)
            if not math.isfinite(error):
                raise StepFailure(f"error estimate {error} at r={r:.6g}")
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**-0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
        piece = None
        if dense:
            for c, row in _EXTRA:
                sR, sD = _weigh(row, kR, kD)
                kR.append(dR + h * sD)
                kD.append(f(r + c * h, R + h * sR, kR[-1]))
            jump_R, jump_D = R_new - R, dR_new - dR
            piece = [(R, dR), (jump_R, jump_D), (h * kR[0] - jump_R, h * kD[0] - jump_D),
                     (2.0 * jump_R - h * (kR[12] + kR[0]), 2.0 * jump_D - h * (kD[12] + kD[0]))]
            piece += [(h * sR, h * sD) for sR, sD in (_weigh(row, kR, kD) for row in _D)]
        r, R, dR, ddR = r_new, R_new, dR_new, kD[12]
        yield r, R, dR, piece


def _shoot(spec, omega, n, k, s, rtol=1e-12, dense=False):
    """One outward shot with datum s to SHOT_RANGE / delta by the scalar DOP853
    stepper at rtol (the bracket scan passes 1e-6), classified per step.

    Returns the signed miss, or the trajectory alone with dense=True; a datum
    that is zero or not finite raises ValueError.  Conditions are checked per
    step (steps resolve 1/delta many times over), not located as events.  The
    miss is the growing-mode amplitude
    |R' + (delta + (n-1)/(2r)) R| e^{-delta r} at the terminating step, signed
    + for Undershot and - for Overshot (a zero miss keeps its sign bit): it is
    linear in s near the separatrix, and its sign is the shot's outcome.  The
    trajectory is the _Trajectory of the steps before the terminating one, so
    it never reaches past the event that ended the shot (a shot ending on its
    first step keeps that step).
    """
    if not math.isfinite(s) or s == 0:
        raise ValueError(f"shot datum must be finite and nonzero, got {s}")
    delta = math.sqrt(spec.mass_sq - omega**2)
    guard = DIVERGENCE_FACTOR * spec.amplitude_cap
    r0 = 1e-6 / delta
    R, dR = _series_start(spec, omega, n, k, float(s), r0)
    ts, pieces = [r0], []
    sign = math.copysign(1.0, s)
    dR_prev = dR
    for r, R, dR, piece in _dop853(_rhs(spec, omega, n, k), r0, R, dR, SHOT_RANGE / delta,
                                   rtol, 1e-14 * abs(s), dense):
        ts.append(r)
        pieces.append(piece)
        if R == 0.0 or math.copysign(1.0, R) != sign or abs(R) > guard:
            undershot = False
            break
        if dR_prev < 0.0 <= dR and R > 0.0:
            undershot = True
            break
        dR_prev = dR
    else:  # reached the end of the range without a terminating step
        # monotone runaway below the guard
        undershot = not (R > 0 and dR > 0)
    if not dense:
        miss = abs(dR + (delta + (n - 1) / (2.0 * r)) * R) * math.exp(-delta * r)
        return miss if undershot else -miss
    if len(pieces) > 1:
        del ts[-1], pieces[-1]
    return _Trajectory(ts, pieces)


def _sample(sol: _Trajectory, k: int, s: float, m: int, h: float):
    """Grid j*h (j = 0..m) with R, R' of a dense shot; the origin takes the
    exact series data and points past the trajectory clamp to its end."""
    grid = np.arange(m + 1) * h
    vals = np.empty(m + 1)
    ders = np.empty(m + 1)
    vals[0], ders[0] = (s, 0.0) if k == 0 else (0.0, s if k == 1 else 0.0)
    y = sol(np.clip(grid[1:], sol.t_min, sol.t_max))
    vals[1:] = y[0]
    ders[1:] = y[1]
    return grid, vals, ders


def _count_sign_changes(values) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _scan_pairs(spec, omega, n, k):
    """Adjacent (Undershot, Overshot) pairs among 64 log-spaced candidates
    over (0, amplitude_cap], classified by rtol-1e-6 shots, lazily and in the
    order to try them.  When the endpoints classify as expected, the first
    pair is located by binary search over the candidate index; after it (or
    when the endpoints do not) every candidate is classified in turn and each
    further pair is yielded.  An rtol-1e-6 shot can misclassify a datum whose
    orbit passes close to the separatrix, so a pair may not hold at the
    solver's tolerance; the caller then asks for the next."""
    cap = spec.amplitude_cap
    ss = np.logspace(math.log10(cap) - 6.0, math.log10(cap), 64)
    undershot: dict[int, bool] = {}

    def undershoots(i):
        if i not in undershot:
            miss = _shoot(spec, omega, n, k, float(ss[i]), rtol=1e-6)
            undershot[i] = math.copysign(1.0, miss) > 0
        return undershot[i]

    lo, hi = 0, len(ss) - 1
    searched = None
    if undershoots(lo) and not undershoots(hi):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if undershoots(mid):
                lo = mid
            else:
                hi = mid
        searched = lo
        yield float(ss[lo]), float(ss[hi])

    for i in range(1, len(ss)):
        if i - 1 != searched and undershoots(i - 1) and not undershoots(i):
            yield float(ss[i - 1]), float(ss[i])


def _assemble_profile(spec, omega, n, k, s, h_r) -> RadialProfile:
    """Shoot at the converged datum s keeping the step interpolants, cut the
    trajectory at its deepest trusted point, fit the tail prefactor by least
    squares over the last clean decade, and extend the grid with the tail
    model down to the splice threshold."""
    delta = math.sqrt(spec.mass_sq - omega**2)
    sol = _shoot(spec, omega, n, k, s, dense=True)
    r_end = sol.t_max
    m = int(math.floor(r_end / h_r))
    if m < 16:
        raise StepFailure(f"trajectory too short to assemble (r_end={r_end:.3g})")
    grid, vals, ders = _sample(sol, k, s, m, h_r)

    absv = np.abs(vals)
    max_R = float(np.max(absv))
    j_peak = int(np.argmax(absv))
    q = np.maximum(np.abs(vals), np.abs(ders) / delta)
    j_cut = j_peak + int(np.argmin(q[j_peak:]))
    q_min = q[j_cut]
    if q_min > 1e-3 * max_R:
        warnings.warn(
            f"shallow tail tracking: trajectory only reaches {q_min / max_R:.2e} "
            "of the peak before veering; tail fit may be degraded",
            RuntimeWarning,
        )

    node_count = _count_sign_changes(vals[: j_cut + 1])

    # least-squares prefactor over the last clean decade of numeric data
    r_opt = math.sqrt(max(q_min, 1e-12 * max_R) * max_R)
    lo, hi = r_opt / math.sqrt(10.0), r_opt * math.sqrt(10.0)
    mask = (absv >= lo) & (absv <= hi) & (np.arange(m + 1) > j_peak) & (np.arange(m + 1) <= j_cut)
    if np.count_nonzero(mask) < 8:
        mask = (absv >= lo / 10) & (absv <= hi * 10) & (np.arange(m + 1) > j_peak) & (np.arange(m + 1) <= j_cut)
    sign = 1.0 if vals[j_cut] >= 0 else -1.0
    if np.count_nonzero(mask) >= 4:
        rw = grid[mask]
        z = np.log(absv[mask]) - np.log(np.abs(_tail(rw, 1.0, delta, n, k)[0]))
        prefactor = sign * float(np.exp(np.mean(z)))
    else:  # anchor at the cut point
        prefactor = vals[j_cut] / float(_tail(grid[j_cut], 1.0, delta, n, k)[0])

    # Hand off from numeric data to the tail model across one decade with a
    # C^1 smoothstep: a hard seam at the veer-noise level would dominate the
    # finite-difference residual of the stored values.
    threshold = MATCH_THRESHOLD * max_R
    level_a = max(min(1000.0 * q_min, 1e-2 * max_R), 20.0 * threshold)
    level_b = level_a / 10.0
    after_peak = np.arange(m + 1) > j_peak
    below_a = np.nonzero(after_peak & (absv < level_a))[0]
    j_a = int(below_a[0]) if below_a.size else j_cut
    below_b = np.nonzero(after_peak & (absv < level_b))[0]
    j_b = int(below_b[0]) if below_b.size else j_cut
    j_a, j_b = min(j_a, j_cut), min(j_b, j_cut)
    if j_b <= j_a:
        j_a = j_b = j_cut

    def log_excess(r):
        return float(np.log(np.abs(_tail(r, prefactor, delta, n, k)[0])) - np.log(threshold))

    r_b = grid[j_b]
    if abs(_tail(max(r_b, h_r), prefactor, delta, n, k)[0]) > threshold:
        r_match = brentq(log_excess, max(r_b, h_r), r_b + 40.0 / delta)
        m_total = int(math.ceil(r_match / h_r)) + 2
    else:
        m_total = j_b
    m_total = max(m_total, j_b)

    grid_full = np.arange(m_total + 1) * h_r
    new_vals = np.empty(m_total + 1)
    new_ders = np.empty(m_total + 1)
    new_vals[: j_a + 1] = vals[: j_a + 1]
    new_ders[: j_a + 1] = ders[: j_a + 1]
    if j_b > j_a:
        rb = grid_full[j_a + 1 : j_b]
        t = (rb - grid_full[j_a]) / (grid_full[j_b] - grid_full[j_a])
        phi = t * t * (3.0 - 2.0 * t)
        dphi = 6.0 * t * (1.0 - t) / (grid_full[j_b] - grid_full[j_a])
        mv, md = _tail(rb, prefactor, delta, n, k)
        new_vals[j_a + 1 : j_b] = (1.0 - phi) * vals[j_a + 1 : j_b] + phi * mv
        new_ders[j_a + 1 : j_b] = ((1.0 - phi) * ders[j_a + 1 : j_b] + phi * md
                                   + dphi * (mv - vals[j_a + 1 : j_b]))
    new_vals[j_b:], new_ders[j_b:] = _tail(grid_full[j_b:], prefactor, delta, n, k)

    below = np.nonzero(np.abs(new_vals) < threshold)[0]
    below = below[below > j_peak]
    if below.size == 0:
        raise StepFailure("profile never reaches the tail splice threshold")
    match_radius = float(grid_full[below[0]])

    return RadialProfile(
        r_grid=grid_full,
        values=new_vals,
        derivative=new_ders,
        node_count=node_count,
        shoot_param=float(s),
        numeric_radius=float(grid_full[j_a]),
        prefactor=float(prefactor),
        match_radius=match_radius,
    )


def _solve_wave(spec, omega, n, k) -> SolitaryWave:
    report = check_conditions(spec, omega, n)
    if not (report.s1_holds and report.s2_holds):
        raise NoBracket(
            f"admissibility fails at omega={omega}: "
            f"S1={'ok' if report.s1_holds else 'violated'}, "
            f"S2={'ok' if report.s2_holds else 'violated'}"
        )
    delta = math.sqrt(spec.mass_sq - omega**2)
    pairs = []
    for s_lo, s_hi in _scan_pairs(spec, omega, n, k):
        pairs.append(f"({s_lo:.3g}, {s_hi:.3g})")
        # Brent's method on the signed miss, re-shot at the solver's tolerance;
        # a pair that does not hold there has one sign at both ends
        try:
            s_conv = brentq(lambda s: _shoot(spec, omega, n, k, s), s_lo, s_hi,
                            xtol=math.ulp(s_lo), rtol=SHOOT_TOL)
            break
        except ValueError:
            continue
    else:
        raise NoBracket(
            f"no Undershot/Overshot bracket for omega={omega}, n={n}, k={k} on "
            f"(0, {spec.amplitude_cap}]: "
            + (f"scan pairs {', '.join(pairs)} fail at the solver's tolerance"
               if pairs else "conditions may fail or amplitude_cap may be too small")
        )
    profile = _assemble_profile(spec, omega, n, k, s_conv, 1.0 / (GRID_DENSITY * delta))
    if profile.node_count != 0:
        raise NodeCountMismatch(
            f"converged profile has {profile.node_count} interior nodes"
        )
    peak = float(np.max(np.abs(profile.values)))
    if peak > spec.amplitude_cap:
        warnings.warn(
            f"profile peak {peak:.4g} exceeds amplitude_cap "
            f"{spec.amplitude_cap:g}; condition scans did not cover the "
            "attained range",
            RuntimeWarning,
        )
    return SolitaryWave(n=n, k=k, omega=float(omega), profile=profile, spec=spec)


def find_ground_state(spec: PotentialSpec, omega: float, n: int) -> SolitaryWave:
    """Node-free radial profile R(|x|) solving the amplitude equation.

    Runs Brent's method on the initial datum between a certified Undershot
    and Overshot until the bracket is below SHOOT_TOL (relative), then
    splices the analytic tail.  The profile grid has spacing
    1 / (GRID_DENSITY delta); resample_wave rebuilds it on any other spacing.
    Raises NoBracket if no pair of the 64-point scan holds at the solver's
    tolerance, NodeCountMismatch if the converged profile has interior nodes.
    """
    if not isinstance(n, (int, np.integer)) or n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n!r}")
    return _solve_wave(spec, omega, n, 0)


def find_excited_state(spec: PotentialSpec, omega: float, k: int) -> SolitaryWave:
    """Planar (n = 2) excited state R(r) e^{i k phi} with R(0) = 0, R ~ s r^k.

    Same root-finding and grid spacing as the ground state, on the r^k series
    coefficient; resample_wave rebuilds it on any other spacing.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"excited states need an integer angular index k >= 1, got {k!r}")
    return _solve_wave(spec, omega, 2, k)


def resample_wave(wave: SolitaryWave, h_r: float) -> SolitaryWave:
    """Rebuild the profile on a different uniform spacing.

    Re-integrates once at the stored shoot parameter (no root-finding), so grid
    refinement studies cost one ODE solve per spacing.
    """
    spec, omega, n, k = wave.spec, wave.omega, wave.n, wave.k
    profile = _assemble_profile(spec, omega, n, k, wave.profile.shoot_param, h_r)
    return SolitaryWave(n=n, k=k, omega=omega, profile=profile, spec=spec)


def equation_residual(wave: SolitaryWave) -> float:
    """Max interior residual of the amplitude equation by centered differences,
    normalized by max |R| * mass_sq."""
    p = wave.profile
    if p.r_grid.size < 5:
        raise ValueError("profile needs at least 5 grid points")
    r, R = p.r_grid, p.values
    h = p.h_r
    d2 = (R[2:] - 2.0 * R[1:-1] + R[:-2]) / h**2
    d1 = (R[2:] - R[:-2]) / (2.0 * h)
    res = d2 - _rhs(wave.spec, wave.omega, wave.n, wave.k)(r[1:-1], R[1:-1], d1)
    return float(np.max(np.abs(res)) / (np.max(np.abs(R)) * wave.spec.mass_sq))


def fit_tail_decay(wave: SolitaryWave) -> float:
    """Decay rate fitted from the numeric tail data (diagnostic).

    Fits ln|R| - ln|tail model at unit prefactor| against [1, r] over the
    window |R|/max ~ [1e-5, 1e-3]: deep enough for the linear regime,
    shallow enough to stay clear of the growing-mode veer.  Dividing out the
    model's power law and short asymptotic series leaves an exponential whose
    slope is the data's departure from the linearization rate delta.
    """
    p = wave.profile
    absv = np.abs(p.values)
    max_R = float(np.max(absv))
    r_peak = p.r_grid[int(np.argmax(absv))]
    numeric = (p.r_grid <= p.numeric_radius) & (p.r_grid > r_peak)
    lo, hi = 1e-5 * max_R, 1e-3 * max_R
    mask = numeric & (absv > lo) & (absv < hi)
    if np.count_nonzero(mask) < 8:
        mask = numeric & (absv > lo / 100) & (absv < hi * 10)
    rw = p.r_grid[mask]
    z = np.log(absv[mask]) - np.log(np.abs(_tail(rw, 1.0, wave.delta, wave.n, wave.k)[0]))
    basis = np.column_stack([np.ones_like(rw), rw])
    coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
    return float(wave.delta - coef[1])


class WaveInterpolant:
    """R(r) and R'(r) of a wave in one vectorized call, interp(r) -> (R, R').

    In the stored grid's cell j = floor(r/h) (the last cell for r = r_end),
    R is the quintic Hermite interpolant of (R, R', R'') at the cell's two
    nodes and R' the cubic Hermite interpolant of (R', R''); R'' comes from
    the amplitude equation, at r = 0 from the origin series.  R' is not the
    quintic's own derivative, which would turn the nodes' ~1e-11 noise into
    about noise/h.  Past r_end the analytic tail takes over.
    """

    def __init__(self, wave: SolitaryWave):
        p = wave.profile
        n, k = wave.n, wave.k
        self._tail_args = (p.prefactor, wave.delta, n, k)
        self.r_end = float(p.r_grid[-1])
        h = p.h_r
        self._inv_h = 1.0 / h
        R, dR = p.values, p.derivative
        dd = np.empty_like(R)
        dd[0] = _origin_curvature(wave.spec, wave.omega, n, k, p.shoot_param)
        dd[1:] = _rhs(wave.spec, wave.omega, n, k)(p.r_grid[1:], R[1:], dR[1:])
        # per cell j, the power-series coefficients in t = r/h - j of the
        # quintic (rows 0-5) and the cubic (rows 6-9), from the node data in
        # units of t: d = h R', e = h^2 R'' and g = h R''
        dy, d_dR = R[1:] - R[:-1], dR[1:] - dR[:-1]
        d0, d1 = h * dR[:-1], h * dR[1:]
        g0, g1 = h * dd[:-1], h * dd[1:]
        e0, e1 = h * g0, h * g1
        self._coef = np.stack([
            R[:-1], d0, 0.5 * e0,
            10.0 * dy - 6.0 * d0 - 4.0 * d1 - 1.5 * e0 + 0.5 * e1,
            -15.0 * dy + 8.0 * d0 + 7.0 * d1 + 1.5 * e0 - e1,
            6.0 * dy - 3.0 * d0 - 3.0 * d1 - 0.5 * e0 + 0.5 * e1,
            dR[:-1], g0, 3.0 * d_dR - 2.0 * g0 - g1, -2.0 * d_dR + g0 + g1,
        ])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        R = np.empty_like(r)
        dR = np.empty_like(r)
        inside = r <= self.r_end
        x = r[inside] * self._inv_h
        j = np.minimum(x.astype(np.intp), self._coef.shape[1] - 1)
        t = x - j
        c = self._coef.take(j, axis=1)
        R[inside] = c[0] + t * (c[1] + t * (c[2] + t * (c[3] + t * (c[4] + t * c[5]))))
        dR[inside] = c[6] + t * (c[7] + t * (c[8] + t * c[9]))
        outside = ~inside
        R[outside], dR[outside] = _tail(r[outside], *self._tail_args)
        return R, dR


def save_wave(wave: SolitaryWave, csv_path, sidecar_path) -> None:
    """CSV with columns r, R, dR plus a JSON sidecar of scalar metadata."""
    p = wave.profile
    write_csv(csv_path, ["r", "R", "dR"], zip(p.r_grid, p.values, p.derivative))
    sidecar = {
        "n": int(wave.n),
        "k": int(wave.k),
        "omega": wave.omega,
        "delta": wave.delta,
        "prefactor": p.prefactor,
        "match_radius": p.match_radius,
        "shoot_param": p.shoot_param,
        "node_count": p.node_count,
        "numeric_radius": p.numeric_radius,
        "mass_sq": wave.spec.mass_sq,
        "terms": [list(term) for term in wave.spec.terms],
    }
    write_json(sidecar_path, sidecar)


def load_wave(csv_path, sidecar_path, spec: PotentialSpec) -> SolitaryWave:
    """Reconstruct a wave from save_wave output plus its potential spec.

    Raises ValueError when spec's mass_sq or terms differ from the potential
    the sidecar records (amplitude_cap only bounds the scan and may differ).
    """
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    saved = (meta.get("mass_sq"), meta.get("terms"))
    given = (spec.mass_sq, [list(term) for term in spec.terms])
    if saved != given:
        raise ValueError(f"{sidecar_path}: the wave was solved for mass_sq={saved[0]}, "
                         f"terms={saved[1]}, not for mass_sq={given[0]}, terms={given[1]}")
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
    profile = RadialProfile(
        r_grid=data[:, 0],
        values=data[:, 1],
        derivative=data[:, 2],
        node_count=int(meta["node_count"]),
        shoot_param=float(meta["shoot_param"]),
        numeric_radius=meta["numeric_radius"],
        prefactor=meta["prefactor"],
        match_radius=meta["match_radius"],
    )
    return SolitaryWave(
        n=int(meta["n"]), k=int(meta["k"]), omega=float(meta["omega"]),
        profile=profile, spec=spec,
    )
