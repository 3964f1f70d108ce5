"""U(1)-invariant polynomial potentials and their admissibility conditions.

The field equation couples to a real potential V(psi) = U(|psi|) where

    U(a) = mass_sq * a^2 / 2  -  sum_j  c_j * a^{e_j} / e_j,

so the force f(psi) = -grad_psi V is a real multiple of psi:

    f(psi) = h(|psi|) * psi,   h(a) = -U'(a)/a = -mass_sq + sum_j c_j a^{e_j - 2}.

The canonical cubic case (mass_sq=m^2, one term (b, 4)) gives
U(a) = m^2 a^2/2 - b a^4/4 and f(a) = -m^2 a + b a^3.

evaluate_potential and evaluate_force both take the field psi.  Both sum
the one power ladder sum_j w_j a^{e_j - 2}, built from a^2 = re^2 + im^2 when
every exponent is even: U(a) = a^2 (mass_sq/2 - sum_j (c_j/e_j) a^{e_j-2}).

Admissibility of a spec for solitary waves at frequency omega is summarized by
four scalar conditions (small-amplitude mass gap, a negative-energy amplitude,
power subcriticality, and nonnegativity of U(a) + omega^2 a^2/2), each checked
numerically over [0, amplitude_cap] plus an exact polynomial tail analysis.
The polynomials U(a) -+ omega^2 a^2/2 have one coefficient builder, and every
zero of them and of their derivatives comes from one bracketing root finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import brentq

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
        if not (math.isfinite(self.mass_sq) and self.mass_sq >= 0):
            raise ValueError(f"mass_sq must be finite and >= 0, got {self.mass_sq}")
        if not (math.isfinite(self.amplitude_cap) and self.amplitude_cap > 0):
            raise ValueError(f"amplitude_cap must be finite and > 0, got {self.amplitude_cap}")
        norm = []
        for coupling, exponent in self.terms:
            if int(exponent) != exponent or exponent < 3:
                raise ValueError(f"term exponent must be an integer >= 3, got {exponent}")
            if not math.isfinite(coupling):
                raise ValueError(f"term coupling must be finite, got {coupling}")
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


def _poly_coeffs(spec: PotentialSpec, w2: float = 0.0) -> np.ndarray:
    """Coefficients of U(a) + w2 a^2/2 as a numpy polynomial (highest degree
    first); the a^2 slot is mass_sq/2, then + w2/2."""
    degree = max([2, *(e for _, e in spec.terms)])
    coeffs = np.zeros(degree + 1)
    coeffs[degree - 2] = spec.mass_sq / 2.0
    coeffs[degree - 2] += w2 / 2.0
    for coupling, exponent in spec.terms:
        coeffs[degree - exponent] -= coupling / exponent
    return coeffs


def _abs_sq(z) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the hypot (and its square root) that
    np.abs(z)**2 takes first.  np.square of a strided real or imaginary part
    is faster than multiplying it by itself."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.square(z)
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _moduli(spec: PotentialSpec, psi):
    """(a^2, a) for a = |psi|.  When every exponent is even only a^2 is
    needed, taken as re^2 + im^2 without a square root, and a is None."""
    if all(exponent % 2 == 0 for _, exponent in spec.terms):
        return np.asarray(_abs_sq(psi), dtype=float), None
    a = np.asarray(np.abs(psi), dtype=float)
    return a * a, a


def _power_sum(spec: PotentialSpec, weights, start: float, a2, a):
    """start + sum_j w_j a^(e_j - 2), summed in that order into the first
    term's array.  Each power is a product of factors a^2, times a for an odd
    e_j: numpy's general power, taken for any exponent but 2, costs several
    times as much."""
    out = None
    for w, (_, exponent) in zip(weights, spec.terms):
        power = a if exponent % 2 else None
        for _ in range((exponent - 2) // 2):
            power = a2 if power is None else power * a2
        term = w * power
        if out is None:
            out = term
            out += start
        else:
            out += term
    return np.full_like(a2, start) if out is None else out


def evaluate_potential(spec: PotentialSpec, psi):
    """V(psi) = U(|psi|) = a^2 (mass_sq/2 - sum_j (c_j/e_j) a^(e_j-2)) at
    a = |psi|, for complex (or real) psi, scalar or array."""
    a2, a = _moduli(spec, psi)
    out = _power_sum(spec, [-c / e for c, e in spec.terms], spec.mass_sq / 2.0, a2, a)
    out *= a2
    return out if out.ndim else float(out)


def force_slope(spec: PotentialSpec, a):
    """h(a) with f(psi) = h(|psi|)*psi, i.e. h(a) = -mass_sq + sum_j c_j a^(e_j-2).

    Factoring out one power of psi keeps the force exactly U(1)-equivariant
    and finite at psi = 0 (every exponent is >= 3).
    """
    a = np.asarray(a, dtype=float)
    out = _power_sum(spec, [c for c, _ in spec.terms], -spec.mass_sq, a * a, a)
    return out if out.ndim else float(out)


def evaluate_force(spec: PotentialSpec, psi):
    """f(psi) = -grad_psi V(psi), for complex (or real) psi, scalar or array.

    Equivariance f(e^{i theta} psi) = e^{i theta} f(psi) holds by construction:
    the force is psi times the real scalar h(|psi|), from the moduli that
    evaluate_potential takes.
    """
    psi_arr = np.asarray(psi)
    a2, a = _moduli(spec, psi_arr)
    out = psi_arr * _power_sum(spec, [c for c, _ in spec.terms], -spec.mass_sq, a2, a)
    return out if out.ndim else out[()]


def expected_amplitude(spec: PotentialSpec, omega: float) -> float | None:
    """Smallest positive zero of U(a) - omega^2 a^2/2 at which it changes
    sign, or None.

    This is the separatrix amplitude of the one-dimensional profile equation
    and sets the scale of ground-state amplitudes in any dimension; it is the
    natural default for sizing amplitude_cap.  The zero comes from brackets
    between the polynomial's extrema (_sign_change_zeros), not from the
    eigenvalues of its companion matrix, which lose a zero near 1 beside a
    coupling ~1e-115.
    """
    zeros = _sign_change_zeros(_poly_coeffs(spec, -omega**2))
    return zeros[0] if zeros else None


def _horner(coeffs: list[float], x: float) -> float:
    """The polynomial (highest degree first) at x by Horner's rule on plain
    floats, in np.polyval's order of operations: the same float, without
    its array overhead on the scalar calls of a root polish."""
    p = 0.0
    for c in coeffs:
        p = p * x + c
    return p


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
    forward, reverse = c.tolist(), c[::-1].tolist()

    def sign_poly(a):  # p(a) / max(1, a)^degree
        return _horner(forward, a) if a <= 1.0 else _horner(reverse, 1.0 / a)

    with np.errstate(over="ignore"):
        bound = 2.0 * max(abs(c[k] / c[0]) ** (1.0 / k) for k in range(1, degree + 1))
    bound = min(float(bound), np.finfo(float).max)
    extrema = [z for z in _sign_change_zeros(np.polyder(c)) if z < bound]
    edges = [0.0, *extrema, bound]
    # bisecting from the whole float range to 4 eps relative takes < 2200 steps
    return [float(brentq(sign_poly, lo, hi, xtol=np.finfo(float).tiny, maxiter=2200))
            for lo, hi in zip(edges, edges[1:])
            if np.sign(sign_poly(lo)) * np.sign(sign_poly(hi)) < 0]


def _scan_negative(coeffs: np.ndarray, cap: float):
    """First point in (0, cap] where the polynomial dips negative, on a
    10^4-step grid refined by its stationary points; None if nonnegative on
    the range."""
    crit = [z for z in _sign_change_zeros(np.polyder(coeffs)) if z <= cap]
    points = np.sort(np.concatenate([np.linspace(0.0, cap, 10_001), crit]))
    bad = points[np.polyval(coeffs, points) < 0]
    return float(bad[0]) if bad.size else None


def check_conditions(spec: PotentialSpec, omega: float, n: int) -> ConditionReport:
    """Evaluate the four admissibility conditions for (spec, omega, n).

    S2 and S4 are decided on a 10^4-point uniform grid over [0, amplitude_cap]
    augmented with the stationary points of the scanned polynomial; if the
    grid shows no S2 witness but the polynomial's leading coefficient is
    negative, the witness is 1.01 times its last sign-changing zero, past
    which it stays negative.  Every zero comes from _sign_change_zeros.
    """
    cap = spec.amplitude_cap
    s1_value = omega**2 - spec.mass_sq
    s1_holds = s1_value < 0

    # S2: U(a) - omega^2 a^2 / 2 < 0 somewhere
    g2 = _poly_coeffs(spec, -omega**2)
    witness = _scan_negative(g2, cap)
    if witness is None and g2[0] < 0:
        # nonnegative up to the cap, negative at infinity: it changes sign
        witness = 1.01 * _sign_change_zeros(g2)[-1]
    s2_holds = witness is not None

    # S3: growth of f at infinity against the critical power (n+2)/(n-2);
    # with u_d the top nonzero coefficient of U, f leads with -d u_d a^(d-1)
    if n <= 2:
        s3_holds = None
    else:
        u = np.trim_zeros(_poly_coeffs(spec), "f")
        power = u.size - 2
        l_crit = (n + 2) / (n - 2)
        s3_holds = bool(power < l_crit or (power == l_crit and u[0] >= 0))

    # S4: U(a) + omega^2 a^2 / 2 >= 0 on [0, cap]
    violation = _scan_negative(_poly_coeffs(spec, omega**2), cap)

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
