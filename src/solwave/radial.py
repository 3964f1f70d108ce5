"""Radial solitary-wave profiles by shooting and Brent's method.

Solves the stationary amplitude equation

    R'' + (n-1)/r R' - k^2/r^2 R = U'(R) - omega^2 R,

outward from the origin.  A shot starts from the equation's power series
about r = 0 (SERIES_TERMS terms at most), at the largest radius, up to
SERIES_REACH / delta, where its last terms stay below SERIES_TOL |s| r^k.
Every shot (the rtol-1e-6 bracket scan, the rtol-1e-12 root-finding and
converged-profile shots) runs one scalar DOP853 stepper on the two floats
(R, R'), with Hairer's tableau (written out below) and the step control of
scipy's DOP853, and classifies the trajectory after each step.  The stepper's
stage, error and dense-output sums are straight-line code generated from the
tableau literals, with the amplitude equation written into every stage:
compiled once per exponent tuple of the potential, k = 0 or not and n = 1 or
not (the k^2/r^2 and (n-1)/r terms are left out where they are zero), on its
first solve (nothing is generated at import), and bound to each solve's
constants.  Each sum adds its terms in the row's order, so every shot is
bit-identical to one that weighs the rows in a loop and calls the equation
per stage (but for the sign of a zero).  The shot is odd in its datum, as the
equation is in R (psi -> -psi): it ends Undershot when |R| turns back up,
Overshot when R reaches zero or |R| the divergence guard, and in StepFailure
at the end of its range unclassified.  The decaying profile is a separatrix
of the ODE: perturbations grow like e^{+delta r} with delta =
sqrt(mass_sq - omega^2), so a shot with initial datum known to relative
accuracy eps tracks the true profile only down to |R| ~ sqrt(eps) before it
veers to one side.  Brent's method on the shot's signed miss (the growing-mode
amplitude, read as a Wronskian against the decaying solution so that it is
linear in the datum; its sign is the outcome) therefore refines the initial
datum to near machine precision, the trajectory is cut at its deepest trusted
point, and the profile is continued with the analytic linear-regime tail

    R(r) ~ prefactor * r^{-(n-1)/2} * e^{-delta r} * (1 + a1/(delta r) + a2/(delta r)^2),

the large-r asymptotic of the linearized equation (a1, a2 derived from n and
k; both vanish for n = 1 and n = 3 ground states, where the leading form is
exact).  WaveInterpolant evaluates R and R' by Hermite interpolation of R, R'
and R'' (from the equation) on the grid, and by the tail model beyond it;
SolitaryWave.interpolant builds that table once per wave.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, replace

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
RELOAD_RTOL = 1e-13             # load_wave: saved vs rebuilt profile, relative
SERIES_REACH = 0.3              # largest start radius of a shot, in units of 1/delta
SERIES_TOL = 1e-18              # origin series: last terms at the start, relative to s r^k
SERIES_TERMS = 16               # origin series: most terms past a_0


class StepFailure(RuntimeError):
    """A shot's step underflowed or went non-finite, the shot reached the end
    of its range unclassified, or its trajectory could not be assembled."""


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


def _check_indices(n, k) -> None:
    """ValueError unless n is 1, 2 or 3 and k an integer >= 0, k >= 1 only for n = 2."""
    if not isinstance(n, (int, np.integer)) or n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n!r}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"angular index must be >= 0 and an integer, got {k!r}")
    if k >= 1 and n != 2:
        raise ValueError("angular excited states require n = 2")


@dataclass(frozen=True)
class SolitaryWave:
    """Standing wave amplitude a(x) = R(|x|) e^{i k arg(x)} at frequency omega."""

    n: int
    k: int
    omega: float
    profile: RadialProfile
    spec: PotentialSpec

    def __post_init__(self):
        _check_indices(self.n, self.k)

    @property
    def delta(self) -> float:
        return math.sqrt(self.spec.mass_sq - self.omega**2)

    @functools.cached_property
    def interpolant(self) -> WaveInterpolant:
        """The wave's WaveInterpolant, built on first use and kept: the wave
        is frozen, so its table never changes (dataclasses.replace gives a
        new wave and a new table)."""
        return WaveInterpolant(self)


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


def _origin_series(spec: PotentialSpec, omega: float, n: int, k: int, s: float):
    """(r0, series): the regular solution with datum s about the origin, and
    the radius r0 up to which it is exact to rounding, a shot's start.

    R = r^k sum_m a_m r^{d m} with a_0 = s, d = 2 unless some k (e - 2) is
    odd (then 1).  Each a_m (m <= SERIES_TERMS) follows from the equation's
    r^{k + d m - 2} coefficient: (p (p + n - 2) - k^2) a_m, p = k + d m, is
    the linear term's coefficient minus each |R|^{e-2} R's, whose powers
    (sigma R / r^k)^{e-1} of the series |s| + ... (sigma = sign s) come from
    J.C.P. Miller's recurrence; so the coefficients are odd in s, to the
    bit.  r0 is the largest radius, at most SERIES_REACH / delta, where each
    of the last two terms is below SERIES_TOL |s| r^k: it shrinks by itself
    for large data.  series(r, order=2) -> (R, R', ..., R^(order)) at r >= 0,
    a float or an array.
    """
    d = 1 if any(k * (e - 2) % 2 for _, e in spec.terms) else 2
    lin = spec.mass_sq - omega**2
    a0 = abs(s)
    tol, x_reach = SERIES_TOL * a0, (SERIES_REACH / math.sqrt(lin)) ** d
    # per term: the power alpha = e - 1 of sigma R / r^k, the m where its
    # coefficients enter, and Miller's coefficients of that power so far
    powers = [(e - 1.0, (2 + k * (e - 2)) // d, c, [a0 ** (e - 1)]) for c, e in spec.terms]
    a, x_m, size = [a0], 1.0, a0
    for m in range(1, SERIES_TERMS + 1):
        rhs = lin * a[m - 2 // d] if m >= 2 // d else 0.0
        for alpha, offset, c, b in powers:
            j = m - offset
            if j > 0:  # j a_0 b_j = sum_i ((alpha + 1) i - j) a_i b_{j-i}
                b.append(sum(((alpha + 1.0) * i - j) * a[i] * b[j - i]
                             for i in range(1, j + 1)) / (j * a0))
            if j >= 0:
                rhs -= c * b[j]
        p = k + d * m
        a.append(rhs / (p * (p + n - 2) - k * k))
        x_m *= x_reach
        last, size = size, abs(a[m]) * x_m  # the last two terms at the reach, over r^k
        if last <= tol and size <= tol:
            x0 = x_reach
            break
    else:
        x0 = min([x_reach] + [(tol / abs(a[j])) ** (1.0 / j) for j in (m - 1, m) if a[j]])
    sigma = math.copysign(1.0, s)
    terms = [(k + d * m, sigma * a_m) for m, a_m in enumerate(a)]

    def series(r, order=2):
        return tuple(sum(math.perm(p, j) * a_m * r ** (p - j) for p, a_m in terms if p >= j)
                     for j in range(order + 1))

    return x0 ** (1.0 / d), series


def _constants(spec: PotentialSpec, omega: float, n: int, k: int):
    """(k^2, n - 1, mass_sq - omega^2, *couplings): the constants of the
    amplitude equation, as _rhs and every stepper take them."""
    return (float(k * k), float(n - 1), spec.mass_sq - omega**2,
            *(coupling for coupling, _ in spec.terms))


def _rhs(spec: PotentialSpec, omega: float, n: int, k: int):
    """The amplitude equation as R''(r, R, R') at r > 0, on floats or
    elementwise on arrays; _stepper writes the same expression into its stages."""
    k2, nm1, lin, *_ = _constants(spec, omega, n, k)
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


def _row_sum(row, k):
    """sum_j a_j k_j over one tableau row as source, a_0 * k_0 + a_1 * k_1 + ...
    in the row's order: a loop's float, or -0.0 for +0.0 when all terms are zero."""
    return " + ".join(f"{a!r} * {k}{j}" for j, a in row)


def _stage_lines(rows, first, exponents, k_zero, n_one):
    """Stages first, first + 1, ... from rows: per stage i its R_i, R' (kR_i)
    and R'' (kD_i), the last being _rhs's expression at r + c_i h written
    out, with |R|^p as R ** p for an even p (Python's float power takes |R|
    there itself, so the float is the same).  The (k^2/x^2) R term is left
    out where k = 0 (k_zero) and the (n-1)/x R' term where n = 1 (n_one):
    both are zeros there, so the float is _rhs's but for the sign of a zero."""
    lines = []
    for i, (c, row) in enumerate(rows, first):
        R = f"R{i}"
        nl = " + ".join(f"c{j} * {f'abs({R})' if e % 2 else R} ** {float(e - 2)!r} * {R}"
                        for j, e in enumerate(exponents))
        if not k_zero:
            equation = f"(k2 / (x * x)) * {R} - (nm1 / x) * kR{i} + lin * {R}"
        elif not n_one:
            equation = f"lin * {R} - (nm1 / x) * kR{i}"
        else:
            equation = f"lin * {R}"
        lines += [f"{R} = R + h * ({_row_sum(row, 'kR')})",
                  f"kR{i} = kR0 + h * ({_row_sum(row, 'kD')})",
                  *([] if k_zero and n_one else [f"x = r + {c!r} * h"]),
                  f"kD{i} = {equation}" + (f" - ({nl})" if nl else "")]
    return lines


def _compile_stepper(exponents, k_zero, n_one):
    """The stepper factory of one exponent tuple, for k = 0 or not (k_zero)
    and n = 1 or not (n_one): the tableau arithmetic of a DOP853 step as
    straight-line code, generated from the rows above, taking the constants
    of _constants and returning (stages, dense_piece).

    stages(r, h, R, kR0, kD0) -> (R_new, R'_new, R''_new, e5R, e5D, e3R, e3D, ks)
    steps from (R, R' = kR0, R'' = kD0) through the twelve stages, the last
    (c = 1) being the step's end, and takes the _E5 and _E3 error sums.  ks
    holds the stage values for dense_piece(r, h, R, kR0, kD0, ks), which
    adds the three _EXTRA stages and returns the step's piece (see
    _Trajectory).  Each sum adds its terms in the row's order, so every float
    is a row loop's, with _rhs per stage, but for the sign of a zero.
    """
    last = len(_STAGES)
    ks = ", ".join([f"R{last}"] + [f"{k}{i}" for k in ("kR", "kD") for i in range(1, last + 1)])
    errors = ", ".join(_row_sum(row, k) for row in (_E5, _E3) for k in ("kR", "kD"))
    rows = ", ".join(f"(h * ({_row_sum(row, 'kR')}), h * ({_row_sum(row, 'kD')}))" for row in _D)
    functions = {
        "stages(r, h, R, kR0, kD0)": [
            *_stage_lines(_STAGES, 1, exponents, k_zero, n_one),
            f"return R{last}, kR{last}, kD{last}, {errors}, ({ks})",
        ],
        "dense_piece(r, h, R, kR0, kD0, ks)": [
            f"{ks} = ks",
            *_stage_lines(_EXTRA, last + 1, exponents, k_zero, n_one),
            f"jump_R, jump_D = R{last} - R, kR{last} - kR0",
            "return [(R, kR0), (jump_R, jump_D), (h * kR0 - jump_R, h * kD0 - jump_D),"
            f" (2.0 * jump_R - h * (kR{last} + kR0), 2.0 * jump_D - h * (kD{last} + kD0)),"
            f" {rows}]",
        ],
    }
    constants = ", ".join(["k2", "nm1", "lin", *(f"c{j}" for j in range(len(exponents)))])
    source = f"def bind({constants}):\n" + "".join(
        "\n        ".join([f"    def {signature}:", *body]) + "\n"
        for signature, body in functions.items()) + "    return stages, dense_piece\n"
    namespace = {}
    name = f"<radial DOP853 stages, exponents {exponents}, k = 0 {k_zero}, n = 1 {n_one}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["bind"]


# the factories of _compile_stepper by (exponent tuple, k == 0, n == 1), filled on first use
_STEPPERS = {}


def _stepper(spec, omega, n, k):
    """(stages, dense_piece) of _compile_stepper for this equation: the
    factory of spec's exponent tuple, k == 0 and n == 1, compiled on its
    first use, bound to _constants(spec, omega, n, k)."""
    key = (tuple(exponent for _, exponent in spec.terms), k == 0, n == 1)
    if key not in _STEPPERS:
        _STEPPERS[key] = _compile_stepper(*key)
    return _STEPPERS[key](*_constants(spec, omega, n, k))


class _Trajectory:
    """(R, R') along a dense shot, called on a 1-D array of radii -> (2, m).

    ts are the accepted steps' bounds; per step, pieces holds its start (R, R')
    and the seven rows F of DOP853's 7th-order interpolant.  A radius takes
    the step whose interval holds it, a step end the step that ends there,
    and points outside [t_min, t_max] the nearest step, as scipy's
    OdeSolution picks them; the Horner order is scipy's, to the bit.  A
    shot's trajectory also keeps, as series, the origin series it started
    from at t_min (see _origin_series), which holds before t_min.
    """

    def __init__(self, ts, pieces, series=None):
        self.ts = np.asarray(ts, dtype=float)
        self.series = series
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


def _shoot(spec, omega, n, k, s, rtol=1e-12, dense=False):
    """One outward shot with datum s to SHOT_RANGE / delta by the scalar DOP853
    stepper at rtol (the bracket scan passes 1e-6), classified per step and odd
    in s (the shot at -s is the one at s negated, to the bit, with its miss):
    with sign = +-1 as s, a step with sign * R_new <= 0 or > guard ends it
    Overshot, else one with sign * R' < 0 <= sign * R'_new (|R| rises) Undershot.

    Returns the signed miss, or the trajectory alone with dense=True; a datum
    not finite, or so small that atol (below) is 0, raises ValueError, and an
    underflowing or non-finite step, a non-finite error estimate or a shot
    unclassified at SHOT_RANGE / delta StepFailure.  The steps are _stepper's
    stages under scipy's step control (Hairer's initial step, from two _rhs
    calls; safety 0.9, factor in [0.2, 10], exponent -1/8, atol = 1e-14 |s|),
    in one loop with the classification.  Conditions are checked per step
    (steps resolve 1/delta many times over), not located as events.
    The shot starts from _origin_series, computed once per shot, at its r0:
    the largest radius up to SERIES_REACH / delta where the series' last two
    terms stay below SERIES_TOL |s| r^k, so the steps never crawl out of the
    origin, where the (n-1)/r and k^2/r^2 terms would hold them to about r
    (the cubic n = 3 at omega = 0.825: datum 8.5 starts at 0.043 / delta,
    datum 40 at 0.009 / delta, small data at 0.3 / delta).  The miss is the
    growing-mode amplitude |r^{n-1} (R' D - R D')| at the terminating step,
    the Wronskian of the shot against the unit-prefactor decaying solution
    (D, D') = _tail(r, 1, ...), signed + for Undershot and - for Overshot (a
    zero miss keeps its sign bit).  For the linearized equation r^{n-1} W(R, D) does not depend on r
    (Abel), so the decaying part of the shot drops out and the miss is the
    growing mode's coefficient times a constant: linear in s - s* near the
    root whatever radius the shot ends at, which keeps Brent's secant steps
    close to Newton's.  For n = 1 it is |R' + delta R| e^{-delta r}.  The
    trajectory is the _Trajectory of the steps before the terminating one,
    with the shot's origin series, so it never reaches past the event that
    ended the shot (a shot ending on its first step keeps that step); a miss
    shot records no steps.
    """
    if not (math.isfinite(s) and 1e-14 * abs(s) > 0.0):  # so atol does not underflow to 0
        raise ValueError(f"shot datum must be finite and nonzero, with 1e-14 |s| > 0, got {s}")
    delta = math.sqrt(spec.mass_sq - omega**2)
    guard = DIVERGENCE_FACTOR * spec.amplitude_cap
    r0, series = _origin_series(spec, omega, n, k, s)
    r, (R, dR) = r0, series(r0, 1)
    r_end, atol = SHOT_RANGE / delta, 1e-14 * abs(s)
    stages, dense_piece = _stepper(spec, omega, n, k)
    hypot, nextafter, sqrt, inf = math.hypot, math.nextafter, math.sqrt, math.inf
    root2 = sqrt(2.0)
    sign = math.copysign(1.0, s)  # R keeps it while the shot lives: sign * R is |R|, exactly

    f = _rhs(spec, omega, n, k)
    ddR = f(r, R, dR)
    scale_R, scale_D = atol + abs(R) * rtol, atol + abs(dR) * rtol
    d0 = hypot(R / scale_R, dR / scale_D) / root2
    d1 = hypot(dR / scale_R, ddR / scale_D) / root2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r_end - r)
    d2 = hypot(h0 * ddR / scale_R,
               (f(r + h0, R + h0 * dR, dR + h0 * ddR) - ddR) / scale_D) / root2 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, r_end - r)

    ts, pieces = [r0], []
    undershot = None
    while undershot is None:
        if not r < r_end:
            raise StepFailure(f"shot reached the end of its range, r={r:.6g}, unclassified")
        min_step = 10.0 * (nextafter(r, inf) - r)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        abs_R, abs_D = abs(R), abs(dR)
        while True:
            if not h_abs >= min_step:
                raise StepFailure(f"step size {h_abs:.3g} at r={r:.6g} underflowed")
            r_new = r + h_abs
            h = r_new - r
            R_new, dR_new, ddR_new, e5R, e5D, e3R, e3D, ks = stages(r, h, R, dR, ddR)
            # scipy's max(|y|, |y_new|) and factor clips, as comparisons
            scale_R, scale_D = abs(R_new), abs(dR_new)
            scale_R = atol + (scale_R if scale_R > abs_R else abs_R) * rtol
            scale_D = atol + (scale_D if scale_D > abs_D else abs_D) * rtol
            err5 = (hypot(e5R / scale_R, e5D / scale_D) / root2) ** 2
            err3 = (hypot(e3R / scale_R, e3D / scale_D) / root2) ** 2
            error = 0.0 if err5 == err3 == 0.0 else h * err5 / sqrt(err5 + 0.01 * err3)
            if error < 1.0:
                factor = 0.9 * error**-0.125 if error else 10.0
                cap = 1.0 if rejected else 10.0
                h_abs *= factor if factor < cap else cap
                break
            if not error < inf:
                raise StepFailure(f"error estimate {error} at r={r:.6g}")
            h_abs *= max(0.2, 0.9 * error**-0.125)
            rejected = True
        if dense:
            ts.append(r_new)
            pieces.append(dense_piece(r, h, R, dR, ddR, ks))
        if not 0.0 < sign * R_new <= guard:  # a sign change, zero or runaway
            undershot = False
        elif sign * dR < 0.0 <= sign * dR_new:  # |R| turns back up
            undershot = True
        r, R, dR, ddR = r_new, R_new, dR_new, ddR_new
    if not dense:
        D, dD = _tail(r, 1.0, delta, n, k)
        miss = abs(r ** (n - 1) * float(dR * D - R * dD))
        return miss if undershot else -miss
    if len(pieces) > 1:
        del ts[-1], pieces[-1]
    return _Trajectory(ts, pieces, series)


def _count_sign_changes(values) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
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
    """Shoot at the datum s keeping the step interpolants, cut the trajectory
    at its deepest trusted point, fit the tail prefactor by least squares over
    the last clean decade, and extend the grid with the tail model down to the
    splice threshold.  Every profile, solved or resampled, is checked here:
    interior nodes raise NodeCountMismatch, and a peak above amplitude_cap
    warns that the condition scans did not cover it."""
    delta = math.sqrt(spec.mass_sq - omega**2)
    sol = _shoot(spec, omega, n, k, s, dense=True)
    r_end = sol.t_max
    m = int(math.floor(r_end / h_r))
    if m < 16:
        raise StepFailure(f"trajectory too short to assemble (r_end={r_end:.3g})")
    grid = np.arange(m + 1) * h_r
    # past the trajectory the points clamp to its end; before the shot's
    # start, r = 0 included, the origin series holds
    vals, ders = sol(np.clip(grid, sol.t_min, sol.t_max))
    inner = slice(0, int(np.searchsorted(grid, sol.t_min)))
    vals[inner], ders[inner] = sol.series(grid[inner], 1)

    absv = np.abs(vals)
    max_R = float(np.max(absv))
    j_peak = int(np.argmax(absv))
    q = np.maximum(np.abs(vals), np.abs(ders) / delta)
    j_cut = j_peak + int(np.argmin(q[j_peak:]))
    q_min = q[j_cut]
    if q_min > 1e-3 * max_R:
        warnings.warn(f"shallow tail tracking: trajectory only reaches {q_min / max_R:.2e} "
                      "of the peak before veering; tail fit may be degraded", RuntimeWarning)
    # the numeric data trusted as tail: past the peak, up to the cut
    trusted = slice(j_peak + 1, j_cut + 1)
    r_tail, a_tail = grid[trusted], absv[trusted]

    # least-squares prefactor over the last clean decade of numeric data
    r_opt = math.sqrt(max(q_min, 1e-12 * max_R) * max_R)
    lo, hi = r_opt / math.sqrt(10.0), r_opt * math.sqrt(10.0)
    window = (a_tail >= lo) & (a_tail <= hi)
    if np.count_nonzero(window) < 8:
        window = (a_tail >= lo / 10) & (a_tail <= hi * 10)
    sign = 1.0 if vals[j_cut] >= 0 else -1.0
    if np.count_nonzero(window) >= 4:
        z = np.log(a_tail[window]) - np.log(np.abs(_tail(r_tail[window], 1.0, delta, n, k)[0]))
        prefactor = sign * float(np.exp(np.mean(z)))
    else:  # anchor at the cut point
        prefactor = vals[j_cut] / float(_tail(grid[j_cut], 1.0, delta, n, k)[0])

    # Hand off from numeric data to the tail model across one decade with a
    # C^1 smoothstep: a hard seam at the veer-noise level would dominate the
    # finite-difference residual of the stored values.
    threshold = MATCH_THRESHOLD * max_R
    level_a = max(min(1000.0 * q_min, 1e-2 * max_R), 20.0 * threshold)

    def first_below(level):
        below = np.flatnonzero(a_tail < level)
        return trusted.start + int(below[0]) if below.size else j_cut

    j_a, j_b = first_below(level_a), first_below(level_a / 10.0)
    if j_b <= j_a:
        j_a = j_b = j_cut

    def log_excess(r):
        return float(np.log(np.abs(_tail(r, prefactor, delta, n, k)[0])) - np.log(threshold))

    r_b, m_total = grid[j_b], j_b
    if abs(_tail(max(r_b, h_r), prefactor, delta, n, k)[0]) > threshold:
        r_match = brentq(log_excess, max(r_b, h_r), r_b + 40.0 / delta)
        m_total = max(m_total, int(math.ceil(r_match / h_r)) + 2)

    grid_full = np.arange(m_total + 1) * h_r
    new_vals, new_ders = np.empty((2, m_total + 1))
    new_vals[: j_a + 1], new_ders[: j_a + 1] = vals[: j_a + 1], ders[: j_a + 1]
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

    below = np.flatnonzero(np.abs(new_vals[trusted.start :]) < threshold)
    if below.size == 0:
        raise StepFailure("profile never reaches the tail splice threshold")
    match_radius = float(grid_full[trusted.start + below[0]])

    node_count = _count_sign_changes(vals[: j_cut + 1])
    if node_count != 0:
        raise NodeCountMismatch(f"converged profile has {node_count} interior nodes")
    if max_R > spec.amplitude_cap:
        warnings.warn(f"profile peak {max_R:.4g} exceeds amplitude_cap {spec.amplitude_cap:g}; "
                      "condition scans did not cover the attained range", RuntimeWarning)
    return RadialProfile(r_grid=grid_full, values=new_vals, derivative=new_ders,
                         node_count=node_count, shoot_param=float(s),
                         numeric_radius=float(grid_full[j_a]), prefactor=float(prefactor),
                         match_radius=match_radius)


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
    _check_indices(n, 0)
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
    refinement studies cost one ODE solve per spacing.  The profile is
    assembled and checked by the same path as a solved one: NodeCountMismatch
    on interior nodes, a RuntimeWarning when its peak exceeds the spec's
    amplitude_cap.  Raises ValueError unless h_r is finite and positive.
    """
    if not (math.isfinite(h_r) and h_r > 0):
        raise ValueError(f"h_r must be finite and positive, got {h_r}")
    p = _assemble_profile(wave.spec, wave.omega, wave.n, wave.k, wave.profile.shoot_param, h_r)
    return replace(wave, profile=p)


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
        _, series = _origin_series(wave.spec, wave.omega, n, k, p.shoot_param)
        dd[0] = series(0.0)[2]
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
    write_csv(csv_path, ["r", "R", "dR"], np.stack([p.r_grid, p.values, p.derivative], axis=1))
    write_json(sidecar_path, {
        "n": int(wave.n), "k": int(wave.k), "omega": wave.omega,
        "prefactor": p.prefactor, "match_radius": p.match_radius, "shoot_param": p.shoot_param,
        "node_count": p.node_count, "numeric_radius": p.numeric_radius,
        "mass_sq": wave.spec.mass_sq, "terms": [list(term) for term in wave.spec.terms],
    })


def load_wave(csv_path, sidecar_path, spec: PotentialSpec) -> SolitaryWave:
    """Rebuild a wave from save_wave output plus its potential spec.

    The profile is assembled again, as by a solve (so spec's amplitude_cap
    must cover its peak, or it warns), from the sidecar's n, k, omega and
    shoot_param at the CSV's spacing r_1, and returned if the files agree
    with it: r, R and dR in length and elementwise, prefactor, numeric_radius
    and match_radius to RELOAD_RTOL (relative), node_count exactly.  A wave
    saved by a solver whose assembly differs is refused: re-solve it.
    Raises ValueError naming the file at fault, with the sidecar's key: a
    potential other than spec's (amplitude_cap aside), a key missing or not
    finite, an n, k or node_count that is not a whole number, omega^2 >=
    mass_sq, no rebuild or values off it; a CSV field that is not a number,
    rows not of three columns spanning 1/64 of a shot, or columns off the
    rebuild.  n and k are checked as SolitaryWave checks them.
    """
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar_path}: expected a JSON object, read a {type(meta).__name__}")

    def field(key, whole=False):
        try:
            value = float(meta[key])
        except KeyError:
            raise ValueError(f"{sidecar_path}: no {key!r} key") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{sidecar_path}: {key!r} is not a number: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"{sidecar_path}: {key!r} is not finite: {value}")
        if whole and not value.is_integer():
            raise ValueError(f"{sidecar_path}: {key!r} must be a whole number, "
                             f"got {meta[key]!r}")
        return int(value) if whole else value

    saved = (meta.get("mass_sq"), meta.get("terms"))
    given = (spec.mass_sq, [list(term) for term in spec.terms])
    if saved != given:
        raise ValueError(f"{sidecar_path}: the wave was solved for mass_sq={saved[0]}, "
                         f"terms={saved[1]}, not for mass_sq={given[0]}, terms={given[1]}")
    n, k = field("n", whole=True), field("k", whole=True)
    omega, s = field("omega"), field("shoot_param")
    if not omega**2 < spec.mass_sq:
        raise ValueError(f"{sidecar_path}: 'omega' {omega} has omega^2 >= mass_sq "
                         f"{spec.mass_sq}, so the wave has no decaying tail")
    _check_indices(n, k)
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != 3:
        raise ValueError(f"{csv_path}: expected rows of the three columns r, R, dR, "
                         f"read an array of shape {data.shape}")
    r, values, derivative = data.T
    # a saved profile spans a few times less than a shot, so the rebuild stays near the file's size
    h_r = float(r[1]) if r.size > 1 else math.nan
    shot = SHOT_RANGE / math.sqrt(spec.mass_sq - omega**2)
    if not (math.isfinite(h_r) and shot <= 64.0 * r.size * h_r):
        raise ValueError(f"{csv_path}: the r column spans less than 1/64 of a shot at r_1 = {h_r}")
    try:  # the rebuild's warnings are for the wave returned, not for a refused file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = _assemble_profile(spec, omega, n, k, s, h_r)
    except (ValueError, StepFailure, NodeCountMismatch) as exc:
        raise ValueError(f"{sidecar_path}: no rebuild from 'shoot_param' {s!r}: {exc}") from exc

    def off(saved, rebuilt):  # indices where saved is off rebuilt by more than RELOAD_RTOL
        return np.flatnonzero(~np.isclose(saved, rebuilt, rtol=RELOAD_RTOL, atol=0.0))

    # the r column follows from the CSV's spacing alone, the rest from the datum too
    if off(r[: p.r_grid.size], p.r_grid[: r.size]).size:
        raise ValueError(f"{csv_path}: the r column is not the rebuilt grid r_j = j r_1")
    for keys in (("node_count",), ("prefactor",), ("numeric_radius", "match_radius")):
        read = [field(key, whole=key == "node_count") for key in keys]
        rebuilt = [getattr(p, key) for key in keys]
        if off(read, rebuilt).size:
            pairs = " and ".join(map("{!r} {!r}".format, keys, read))
            raise ValueError(f"{sidecar_path}: {pairs} read, {rebuilt} rebuilt from "
                             f"'shoot_param' {s!r}")
    if r.size != p.r_grid.size:
        raise ValueError(f"{csv_path}: {r.size} rows, the rebuilt profile has {p.r_grid.size}")
    for name, column, rebuilt in (("R", values, p.values), ("dR", derivative, p.derivative)):
        j = off(column, rebuilt)
        if j.size:
            raise ValueError(f"{csv_path}: the {name} column is off the rebuilt profile "
                             f"from line {j[0] + 2}")
    for caught_warning in caught:
        warnings.warn(caught_warning.message, stacklevel=2)
    return SolitaryWave(n=n, k=k, omega=omega, profile=p, spec=spec)
