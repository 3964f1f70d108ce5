"""U(1)-invariant polynomial potentials and their admissibility conditions.

The field equation couples to a real potential V(psi) = U(|psi|) where

    U(a) = mass_sq * a^2 / 2  -  sum_j  c_j * a^{e_j} / e_j,

so the force f(psi) = -grad_psi V is a real multiple of psi:

    f(psi) = g(|psi|) * psi / |psi|,   g(a) = -U'(a) = -mass_sq*a + sum_j c_j a^{e_j - 1}.

The canonical cubic case (mass_sq=m^2, one term (b, 4)) gives
U(a) = m^2 a^2/2 - b a^4/4 and f(a) = -m^2 a + b a^3.

Admissibility of a spec for solitary waves at frequency omega is summarized by
four scalar conditions (small-amplitude mass gap, a negative-energy amplitude,
power subcriticality, and nonnegativity of U(a) + omega^2 a^2/2), each checked
numerically over [0, amplitude_cap] plus an exact polynomial tail analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .stencil import abs_sq

__all__ = [
    "PotentialSpec",
    "ConditionReport",
    "evaluate_potential",
    "evaluate_force",
    "force_slope",
    "check_conditions",
    "expected_amplitude",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial self-interaction: mass term plus finitely many monomials.

    mass_sq: m^2 >= 0, the coefficient with U(a) = m^2 a^2/2 + higher order.
    terms: (coupling, exponent) pairs, exponent >= 3 an integer; each
        contributes -coupling*a^exponent/exponent to U and
        +coupling*a^(exponent-1) to the restriction of f to a >= 0.
    amplitude_cap: upper end of the range over which the admissibility
        conditions are scanned.
    """

    mass_sq: float
    terms: tuple[tuple[float, int], ...] = ()
    amplitude_cap: float = 10.0

    def __post_init__(self):
        if self.mass_sq < 0:
            raise ValueError(f"mass_sq must be >= 0, got {self.mass_sq}")
        if self.amplitude_cap <= 0:
            raise ValueError(f"amplitude_cap must be > 0, got {self.amplitude_cap}")
        norm = []
        for coupling, exponent in self.terms:
            if int(exponent) != exponent or exponent < 3:
                raise ValueError(f"term exponent must be an integer >= 3, got {exponent}")
            norm.append((float(coupling), int(exponent)))
        object.__setattr__(self, "terms", tuple(norm))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the admissibility checks at one (omega, n).

    s1_value is omega^2 - mass_sq (the small-amplitude limit of f(a)/a + omega^2);
    s1 holds iff it is negative.  s2_witness is an amplitude where
    U(a) - omega^2 a^2/2 < 0, if one exists.  s3_holds is None for n <= 2
    where the critical exponent (n+2)/(n-2) is undefined or negative.
    s4 is scanned on [0, amplitude_cap]; first_violation is the smallest
    amplitude where U(a) + omega^2 a^2/2 dips below zero.
    """

    s1_holds: bool
    s1_value: float
    s2_holds: bool
    s2_witness: float | None
    s3_holds: bool | None
    s4_holds_on_cap_range: bool
    s4_first_violation: float | None
    omega: float
    n: int


def _poly_coeffs(spec: PotentialSpec) -> np.ndarray:
    """Coefficients of U as a numpy polynomial (highest degree first)."""
    degree = max([e for _, e in spec.terms], default=2)
    degree = max(degree, 2)
    coeffs = np.zeros(degree + 1)
    coeffs[degree - 2] = spec.mass_sq / 2.0  # a^2 slot
    for coupling, exponent in spec.terms:
        coeffs[degree - exponent] -= coupling / exponent
    return coeffs


def evaluate_potential(spec: PotentialSpec, a):
    """U(a) for real amplitude a >= 0 (scalar or array).

    Each a^e is a^2 or a^3 times repeated factors of a^2: numpy's general
    power, taken for any exponent but 2, costs several times as much.
    """
    a = np.asarray(a, dtype=float)
    a2 = a * a
    out = spec.mass_sq * a2 / 2.0
    for coupling, exponent in spec.terms:
        power = a2 if exponent % 2 == 0 else a * a2
        for _ in range((exponent - 2) // 2):
            power = power * a2
        out = out - coupling * power / exponent
    return out if out.ndim else float(out)


def force_slope(spec: PotentialSpec, a):
    """h(a) with f(psi) = h(|psi|)*psi, i.e. h(a) = -mass_sq + sum_j c_j a^(e_j-2).

    Factoring out one power of psi keeps the force exactly U(1)-equivariant
    and finite at psi = 0 (every exponent is >= 3).
    """
    return _slope(spec, np.asarray(a, dtype=float), 1)


def _slope(spec: PotentialSpec, x: np.ndarray, power: int):
    """h(a) from x = a**power, where power divides every e_j - 2.

    The first term's array takes the mass and the other terms in place, in
    the order -mass_sq + t_1 + t_2 + ..., and a unit power is x itself."""
    out = None
    for coupling, exponent in spec.terms:
        p = (exponent - 2) // power
        term = coupling * (x if p == 1 else x ** p)
        if out is None:
            out = term
            out -= spec.mass_sq
        else:
            out += term
    if out is None:
        out = np.full_like(x, -spec.mass_sq)
    return out if out.ndim else float(out)


def evaluate_force(spec: PotentialSpec, psi):
    """f(psi) = -grad_psi V(psi), for complex (or real) psi, scalar or array.

    Equivariance f(e^{i theta} psi) = e^{i theta} f(psi) holds by construction:
    the force is psi times the real scalar h(|psi|).  When every exponent is
    even, h is a polynomial in |psi|^2 = re^2 + im^2 and no square root is
    taken; an odd exponent needs |psi| itself.
    """
    psi_arr = np.asarray(psi)
    if all(exponent % 2 == 0 for _, exponent in spec.terms):
        slope = _slope(spec, np.asarray(abs_sq(psi_arr), dtype=float), 2)
    else:
        slope = force_slope(spec, np.abs(psi_arr))
    out = psi_arr * slope
    return out if out.ndim else out[()]


def expected_amplitude(spec: PotentialSpec, omega: float) -> float | None:
    """Smallest positive zero of U(a) - omega^2 a^2/2 at which it changes
    sign, or None.

    This is the separatrix amplitude of the one-dimensional profile equation
    and sets the scale of ground-state amplitudes in any dimension; it is the
    natural default for sizing amplitude_cap.  The zero comes from brackets
    between the polynomial's extrema (_sign_change_zeros), not from np.roots,
    whose companion eigenvalues lose a zero near 1 beside a coupling ~1e-115.
    """
    g = _poly_coeffs(spec).copy()
    g[-3] -= omega**2 / 2.0
    zeros = _sign_change_zeros(g)
    return zeros[0] if zeros else None


def _sign_change_zeros(coeffs: np.ndarray) -> list[float]:
    """Ascending positive zeros at which the polynomial (highest degree first)
    changes sign.

    Between consecutive sign-changing zeros of the derivative (found the same
    way) the polynomial is monotone, so each stretch up to Fujiwara's bound on
    the zeros holds at most one, bracketed by its ends and polished by brentq.
    Dividing out a^k (trailing zero coefficients) keeps the sign on a > 0,
    and above a = 1 the polynomial is evaluated over a^degree, in 1/a, so
    nothing overflows.
    """
    c = np.trim_zeros(np.trim_zeros(np.asarray(coeffs, dtype=float), "f"), "b")
    degree = c.size - 1
    if degree < 1:
        return []
    reverse = c[::-1]

    def sign_poly(a):  # p(a) / max(1, a)^degree
        return float(np.polyval(c, a) if a <= 1.0 else np.polyval(reverse, 1.0 / a))

    with np.errstate(over="ignore"):
        bound = 2.0 * max(abs(c[k] / c[0]) ** (1.0 / k) for k in range(1, degree + 1))
    bound = min(float(bound), np.finfo(float).max)
    extrema = [z for z in _sign_change_zeros(np.polyder(c)) if z < bound]
    edges = [0.0, *extrema, bound]
    # bisecting from the whole float range to 4 eps relative takes < 2200 steps
    return [float(brentq(sign_poly, lo, hi, xtol=np.finfo(float).tiny, maxiter=2200))
            for lo, hi in zip(edges, edges[1:])
            if np.sign(sign_poly(lo)) * np.sign(sign_poly(hi)) < 0]


def _scan_negative(coeffs: np.ndarray, cap: float, n_grid: int = 10_000):
    """First point in (0, cap] where the polynomial dips negative, refined
    against exact stationary points; None if nonnegative on the range."""
    grid = np.linspace(0.0, cap, n_grid + 1)
    candidates = [grid]
    if len(coeffs) > 2:
        crit = np.roots(np.polyder(coeffs))
        crit = crit[np.abs(crit.imag) < 1e-9 * (1 + np.abs(crit))].real
        crit = crit[(crit > 0) & (crit <= cap)]
        if crit.size:
            candidates.append(crit)
    points = np.sort(np.concatenate(candidates))
    values = np.polyval(coeffs, points)
    bad = points[values < 0]
    return float(bad[0]) if bad.size else None


def _leading_force_term(spec: PotentialSpec) -> tuple[float, int]:
    """(coefficient, power) of the dominant term of f(a) as a -> infinity."""
    if not spec.terms:
        return (-spec.mass_sq, 1)
    by_exponent: dict[int, float] = {}
    for coupling, exponent in spec.terms:
        by_exponent[exponent - 1] = by_exponent.get(exponent - 1, 0.0) + coupling
    for power in sorted(by_exponent, reverse=True):
        if by_exponent[power] != 0.0:
            return (by_exponent[power], power)
    return (-spec.mass_sq, 1)


def check_conditions(spec: PotentialSpec, omega: float, n: int) -> ConditionReport:
    """Evaluate the four admissibility conditions for (spec, omega, n).

    S2 and S4 are decided on a 10^4-point uniform grid over [0, amplitude_cap]
    augmented with the exact stationary points of the scanned polynomial; if
    the grid shows no S2 witness but the polynomial tail is negative, the
    witness is recovered from the exact roots beyond the cap.
    """
    cap = spec.amplitude_cap
    s1_value = omega**2 - spec.mass_sq
    s1_holds = s1_value < 0

    # S2: U(a) - omega^2 a^2 / 2 < 0 somewhere
    g2 = _poly_coeffs(spec).copy()
    g2[-3] -= omega**2 / 2.0
    witness = _scan_negative(g2, cap)
    if witness is None and g2[0] < 0:
        # negative leading coefficient: a witness exists beyond the cap
        roots = np.roots(g2)
        real = roots[np.abs(roots.imag) < 1e-9 * (1 + np.abs(roots))].real
        beyond = np.sort(real[real > cap])
        probe = 1.01 * beyond[-1] if beyond.size else 2.0 * cap
        while np.polyval(g2, probe) >= 0:
            probe *= 2.0
        witness = float(probe)
    s2_holds = witness is not None

    # S3: growth of f at infinity against the critical power (n+2)/(n-2)
    if n <= 2:
        s3_holds = None
    else:
        coeff, power = _leading_force_term(spec)
        l_crit = (n + 2) / (n - 2)
        s3_holds = power < l_crit or (power == l_crit and coeff <= 0)

    # S4: U(a) + omega^2 a^2 / 2 >= 0 on [0, cap]
    g4 = _poly_coeffs(spec).copy()
    g4[-3] += omega**2 / 2.0
    violation = _scan_negative(g4, cap)

    return ConditionReport(
        s1_holds=s1_holds,
        s1_value=float(s1_value),
        s2_holds=s2_holds,
        s2_witness=witness,
        s3_holds=s3_holds,
        s4_holds_on_cap_range=violation is None,
        s4_first_violation=violation,
        omega=float(omega),
        n=int(n),
    )
