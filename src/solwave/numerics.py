"""The two textbook numerical routines the solver shares: Brent's root finder
and Simpson's rule.

brentq is Brent's method (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4) in the iteration of scipy.optimize.brentq: the same
half-tolerance (xtol + rtol |x|)/2, the same choice between inverse-quadratic
extrapolation, secant interpolation and bisection, so the same iterates and
the same roots.  simpson is the composite Simpson rule on a uniform grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["brentq", "simpson"]


def brentq(f, a, b, xtol=2e-12, rtol=4.0 * np.finfo(float).eps, maxiter=100):
    """A zero of f in [a, b], to within xtol + rtol |x|.

    Raises ValueError when f(a) and f(b) have the same sign (by sign bit) or f
    returns NaN, RuntimeError when maxiter iterations do not converge.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.15g} is NaN")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best iterate, xblk its bracket partner
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a step below is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; an underflowing denominator bisects, as inf would
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def simpson(y, dx):
    """Composite Simpson integral of the samples y (at least three) at uniform
    spacing dx.  An even count closes with the three-point rule for the last
    interval alone, 5/12, 8/12, -1/12 (Cartwright's correction, as
    scipy.integrate.simpson applies it)."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise ValueError(f"Simpson's rule needs at least 3 samples, got {y.size}")
    last = 0.0
    if y.size % 2 == 0:
        last = dx * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
        y = y[:-1]
    return float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])) * (dx / 3.0) + last
