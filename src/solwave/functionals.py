"""Scalar functionals of solitary waves and the identities they satisfy.

For an amplitude a(x) the basic functionals are

    I_0 = 1/2 int |a|^2 dy,    I_j = 1/2 int |grad_j a|^2 dy,    V_0 = int U(|a|) dy,

and the rest energy E_0 = sum_j I_j + omega^2 I_0 + V_0.  Any decaying
solution of the amplitude equation obeys the Derrick-Pokhozhaev dilation
identity

    -(n-2) sum_j I_j = n (V_0 - omega^2 I_0),

and the particle-like energy-momentum relation E_v = gamma E_0,
P_v = gamma v E_0 holds exactly when the gradient distribution is isotropic
in the sense I_1 (n-1) = I_2 + ... + I_n (automatic for radial profiles and
for planar waves R(r) e^{i k phi}).  The general (possibly anisotropic)
moving-frame formulas are

    E_v = gamma E_0 + gamma (2 v^2 / n) [I_1 (n-1) - sum_{j>=2} I_j],
    P_v = gamma v 2 (I_1 + omega^2 I_0)   along the boost axis,

with the convention that component 1 of I_j is the boost axis.

FunctionalReport stores I_0, I_1..I_n and V_0 and derives E_0 and both identity
residuals from them; lorentz_boost is the one velocity check and gamma.
compute_functionals shares the gradient integral equally among I_1..I_n, so
a computed report's isotropy defect is zero by construction: it is reported,
not checked.  predict_energy_momentum is the particle-like relation and
predict_general_energy_momentum the anisotropic formulas above.

All integrals reduce to radial quadrature: composite Simpson sums on the
stored uniform grid and nothing else.  That grid ends where |R| <= 1e-8 max|R|
(the tail splice threshold), so the tail beyond it contributes about 1e-13
relative (at most 1.5e-13, for n = 3, where the volume factor r^{n-1} is
largest).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import simpson
from .potential import evaluate_potential
from .radial import SolitaryWave

__all__ = [
    "FunctionalReport",
    "EnergyMomentum",
    "SuperluminalVelocity",
    "compute_functionals",
    "lorentz_boost",
    "predict_energy_momentum",
    "predict_general_energy_momentum",
    "report_to_dict",
]

EPS_FLOOR = 1e-30  # residual denominators: avoids 0/0 for the zero wave

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class SuperluminalVelocity(ValueError):
    """|v| >= 1 requested."""


@dataclass(frozen=True)
class FunctionalReport:
    """Rest-frame functionals of one wave; E_0 and the identity residuals are
    derived from them on every read, so a replaced functional updates them."""

    i0: float
    i_k: np.ndarray          # I_1..I_n; component 1 is the boost axis
    v0: float
    omega: float
    n: int
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "i_k", np.asarray(self.i_k, dtype=float))

    @property
    def e0(self) -> float:
        """Rest energy sum_j I_j + omega^2 I_0 + V_0."""
        return float(np.sum(self.i_k) + self.omega**2 * self.i0 + self.v0)

    @property
    def pokhozhaev_residual(self) -> float:
        """Relative residual of -(n-2) sum I_j = n (V_0 - omega^2 I_0)."""
        n = self.n
        sum_i = float(np.sum(self.i_k))
        lhs = (n - 2) * sum_i + n * (self.v0 - self.omega**2 * self.i0)
        scale = (abs(n * self.v0) + abs(n * self.omega**2 * self.i0)
                 + abs((n - 2) * sum_i) + EPS_FLOOR)
        return abs(lhs) / scale

    @property
    def isotropy_defect(self) -> float:
        """I_1 (n-1) - sum_{j>=2} I_j; zero iff the particle-like relation holds."""
        i = self.i_k
        return float(i[0] * (self.n - 1) - np.sum(i[1:]))


@dataclass(frozen=True)
class EnergyMomentum:
    energy: float
    momentum: np.ndarray


def lorentz_boost(v, n: int) -> tuple[np.ndarray, float, float]:
    """(v as an n-vector, |v|, gamma = 1/sqrt(1 - |v|^2)); raises ValueError
    unless v has n components and SuperluminalVelocity when |v| >= 1."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (n,):
        raise ValueError(f"velocity must have {n} components, got shape {v.shape}")
    speed = float(np.linalg.norm(v))
    if not speed < 1.0:  # NaN fails too
        raise SuperluminalVelocity(f"|v| = {speed} >= 1")
    return v, speed, 1.0 / math.sqrt(1.0 - speed**2)


def compute_functionals(wave: SolitaryWave) -> FunctionalReport:
    """Radial quadrature of I_0, I_1..I_n, V_0 for a = R(r) e^{i k phi}.

    Composite Simpson sums on the stored grid alone; the grid ends where
    |R| <= 1e-8 max|R|, so the tail beyond it contributes about 1e-13
    relative (at most 1.5e-13, for n = 3).  With |S| the measure of the
    unit sphere,

        I_0 = |S|/2 int R^2 r^{n-1} dr,
        I_j = |S| (int R'^2 r^{n-1} dr + k^2 int R^2 r^{n-3} dr) / (2n),

    the gradient integral shared equally among the n components (k = 0
    unless n = 2).  Emits a warning for omega = 0, and one for a nonpositive
    rest energy, which no solution has.
    """
    profile = wave.profile
    r, R, dR = profile.r_grid, profile.values, profile.derivative
    n, k, omega = wave.n, wave.k, wave.omega
    measure = SPHERE_MEASURE[n]

    rn = r ** (n - 1)
    # R^2 r^{n-3}: 0 at the origin when k >= 1 (R ~ r^k), and weighted by k^2 = 0 otherwise
    cent = np.zeros_like(r)
    cent[1:] = R[1:] ** 2 * r[1:] ** (n - 3)
    h = profile.h_r
    grad = simpson(dR**2 * rn, h) + k * k * simpson(cent, h)
    i0 = 0.5 * measure * simpson(R**2 * rn, h)
    i_k = np.full(n, measure * grad / (2.0 * n))
    v0 = measure * simpson(evaluate_potential(wave.spec, R) * rn, h)

    report = FunctionalReport(i0, i_k, v0, omega, n, k)

    if omega == 0.0:
        warnings.warn(
            "zero-frequency wave: the sign conditions cannot both hold, the "
            "dilation-identity proof of E_0 > 0 does not apply, and such "
            "states are unstable; flagging rather than asserting stability",
            RuntimeWarning,
        )
    elif report.e0 <= 0.0:
        # E_0 - lhs/n = (2/n) sum I_j + 2 omega^2 I_0 > 0, so E_0 <= 0 puts the
        # Pokhozhaev residual at 1/2 or more (n <= 3)
        warnings.warn(
            f"nonpositive rest energy E_0={report.e0:.6g} with Pokhozhaev residual "
            f"{report.pokhozhaev_residual:.3g}: the dilation identity forces "
            "E_0 > 0 on a solution, so the wave is suspect",
            RuntimeWarning,
        )
    return report


def predict_energy_momentum(report: FunctionalReport, v) -> EnergyMomentum:
    """The particle-like relation (gamma E_0, gamma E_0 v) from the rest-frame
    functionals."""
    v, _, gamma = lorentz_boost(v, report.n)
    return EnergyMomentum(energy=float(gamma * report.e0), momentum=gamma * report.e0 * v)


def predict_general_energy_momentum(report: FunctionalReport, v) -> EnergyMomentum:
    """The general moving-frame formulas: the anisotropy term kept in the
    energy and the momentum from 2(I_1 + omega^2 I_0).  The boost axis must
    be component 1 of the report's i_k (axis relabeling is the caller's
    responsibility)."""
    v, speed, gamma = lorentz_boost(v, report.n)
    energy = (gamma * report.e0
              + gamma * (2.0 * speed**2 / report.n) * report.isotropy_defect)
    if speed > 0.0:
        along = gamma * speed * 2.0 * (report.i_k[0] + report.omega**2 * report.i0)
        momentum = along * (v / speed)
    else:
        momentum = np.zeros(report.n)
    return EnergyMomentum(energy=float(energy), momentum=momentum)


def report_to_dict(report: FunctionalReport) -> dict:
    return {
        "i0": report.i0,
        "i_k": [float(x) for x in report.i_k],
        "v0": report.v0,
        "e0": report.e0,
        "pokhozhaev_residual": report.pokhozhaev_residual,
        "isotropy_defect": report.isotropy_defect,
        "omega": report.omega,
        "n": report.n,
        "k": report.k,
    }
