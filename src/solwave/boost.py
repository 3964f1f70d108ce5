"""Lorentz-boosted field sampling and direct grid measurement of E and P.

A standing wave a(x) e^{-i omega t} boosted to velocity v becomes

    psi_v(x, t) = a(y) e^{-i omega gamma (t - v.x)},
    y = gamma (x_par - v t) + x_perp,   gamma = 1/sqrt(1 - |v|^2),

Lorentz-contracted along the boost axis and phase-modulated.  psi_dot is
sampled from the exact chain-rule expression

    psi_dot = (-gamma (v . grad a)(y) - i gamma omega a(y)) * phase,

never by numerical time differencing.

A grid may mirror an axis j >= 1 (GridSpec.mirrored): it then stores only
the cells x_j > 0 of a field that is even in x_j, and the mirror plane
x_j = 0 lies on a cell face.  The field is even in every x_j, j >= 1, with
v_j = 0 of a k = 0 wave, as y_j = x_j there at any t; grid_for mirrors
those axes, and sample_boosted samples any other mirrored axis in full.  An
axis-0 boost of a radial wave, the only kind the command line makes, so
stores, steps and sums 1/2^(n-1) of the grid.

A grid may also reverse axis 0 (GridSpec.reversal).  At t = 0 a boost
along axis 0 (v_j = 0 for every j >= 1, v = 0 included) has y_0 odd and
every other y_j even in x_0, so it is its own time-reversed mirror image:

    psi(-x_0, x_perp) = (-1)^k conj psi(x_0, x_perp),
    psi_dot(-x_0, x_perp) = -(-1)^k conj psi_dot(x_0, x_perp),

and a reversed grid stores only its cells x_0 > 0.  boost_scan, which only
measures t = 0 samples, samples every velocity along axis 0 on the reversed
copy of its grid, so a scan of a radial wave stores and sums 1/2^n of the
grid.  Nothing steps a reversed sample: the relation holds at t = 0 only.

Sampling writes psi and psi_dot one row block of solwave.stencil at a time,
and they are the only full-size arrays it allocates.  Within a block the
phase is the constant e^{-i omega gamma t} times the outer product of one 1D
factor e^{i omega gamma v_j x_j} per axis, the vortex factor e^{i k phi} of
a k >= 1 wave is ((y_0 + i y_1)/r)^k, and R, R' come from one call of the
wave's own radial.WaveInterpolant (SolitaryWave.interpolant, built once per
wave) on the block's r.  At t = 0, y(-x) = -y(x): R and R' are even, the
psi_dot terms in y/r odd and e^{i k phi} picks up (-1)^k, so each block of
a full axis 0's first half also writes its mirror (every axis that is not
mirrored reversed), and the radial part runs on half the stored cells; a
reversed grid stores only one of the two halves, and the blocks walk it
alone.  On every axis j >= 1 with v_j = 0 the blocks walk the upper half
x_j > 0, and an axis stored in full (a vortex's, or a grid's given in full)
gets the rest by reflection.  R, R' and the (v.y)/r term are even under
it; on axis 1 of a vortex, e^{i k phi} and the k (v_1 y_0 - v_0 y_1)/r^2
term are conjugated.  An axis-0 boost thus runs the radial part on 1/2^n of
the full grid at t = 0 and on 1/2^(n-1) at any other t, mirrored, reversed
or not.  The boundary-decay check compares
|psi| on the boundary faces, the mirror planes excepted, with the largest
|R|.

Energy, momentum and the center of energy are then measured by plain grid
sums of the Hamiltonian density and of -Re(psi_dot conj(grad psi)) with
2nd-order centered differences under periodic wrap (immaterial given the
exponential decay, which the grid-sizing rule keeps below 1e-8 of the peak
at the boundary), or with the mirrored ends of a mirrored or reversed
axis.  The differences are solwave.stencil's unscaled neighbour
differences, with the 1/(2h) folded into the sums.  Each sum walks the
field in the stencil's row blocks and takes every Re sum a conj(b)
(|psi_dot|^2, |D_j psi|^2, psi_dot conj(D_j psi)) as one einsum over the
float views, with no squared temporary and no BLAS dot, whose last bits
follow its thread count.  The
density is written once, in one reduction that yields its total (E) or its
marginal along each axis (the center of energy, which dots each marginal
with that axis's coordinates).  On a halved grid E and P_0 are the stored
cells' sums times 2^(halved axes), and P_j and the center's component j
of a mirrored axis j are 0.0: their integrands are odd in x_j.  On a
reversed grid so is every P_j, j >= 1, and the center's component 0: their
integrands are odd in x_0.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import atomic_write, write_csv, write_json
from .functionals import FunctionalReport, lorentz_boost, predict_energy_momentum
from .potential import PotentialSpec, evaluate_potential
from .radial import SolitaryWave
from .stencil import neighbour_difference, row_blocks

__all__ = [
    "GridSpec",
    "FieldSample",
    "GridTooSmall",
    "ZeroField",
    "ScanRow",
    "sample_boosted",
    "measure_energy",
    "measure_momentum",
    "center_of_energy",
    "boost_scan",
    "grid_for",
    "scan_to_csv",
    "scan_to_json",
    "save_sample",
    "load_sample",
]

BOUNDARY_DECAY = 1e-8  # required |psi| suppression at the grid boundary


class GridTooSmall(RuntimeError):
    """Field support does not fit on the grid with the required boundary decay."""


class ZeroField(RuntimeError):
    """Center of energy is undefined for an (almost) zero field."""


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform Cartesian grid covering [-L_j, L_j) per axis.

    A mirrored axis j >= 1 stores only the cells of [0, L_j), the upper
    half of a field that is even in x_j.  A reversed grid (reversal +1 or
    -1) stores only the cells x_0 > 0 of axis 0, the upper half of a field
    with psi(-x_0, x_perp) = reversal conj psi(x_0, x_perp): a t = 0 sample
    of a boost along axis 0, its own time-reversed mirror image (see
    sample_boosted).  points keeps the full, even count N_j and shape gives
    the stored counts.  Raises ValueError unless every extent L_j is finite
    and positive, every point count N_j is a positive, even integer,
    mirrored has one bool per axis, False on axis 0, and reversal is 0, +1
    or -1."""

    n: int
    extent: tuple[float, ...]
    points: tuple[int, ...]
    mirrored: tuple[bool, ...] | None = None  # None: no axis mirrored
    reversal: int = 0  # 0: axis 0 stored in full

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if len(self.extent) != self.n or len(self.points) != self.n:
            raise ValueError("extent and points must have one entry per axis")
        # NaN fails every comparison, so `L <= 0` alone would let it through
        if not all(math.isfinite(L) and L > 0 for L in self.extent):
            raise ValueError(f"extents must be finite and positive, got {self.extent}")
        if not all(isinstance(N, (int, np.integer)) and N > 0 and N % 2 == 0
                   for N in self.points):
            raise ValueError(f"point counts must be positive even integers, got {self.points}")
        mirrored = (False,) * self.n if self.mirrored is None else tuple(self.mirrored)
        if len(mirrored) != self.n or not all(isinstance(m, (bool, np.bool_)) for m in mirrored):
            raise ValueError(f"mirrored must be one bool per axis, got {self.mirrored}")
        if mirrored[0]:
            raise ValueError("axis 0 may not be mirrored")
        if not (isinstance(self.reversal, (int, np.integer)) and self.reversal in (-1, 0, 1)):
            raise ValueError(f"reversal must be 0, +1 or -1, got {self.reversal!r}")
        object.__setattr__(self, "mirrored", tuple(map(bool, mirrored)))
        object.__setattr__(self, "reversal", int(self.reversal))

    # the grid is frozen, so its derived values are computed once: a leapfrog
    # step reads them on every call
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * L / N for L, N in zip(self.extent, self.points))

    @functools.cached_property
    def halved(self) -> tuple[bool, ...]:
        """Per axis, whether only the half x_j > 0 is stored: a mirrored
        axis, and axis 0 of a reversed grid."""
        return (bool(self.reversal), *self.mirrored[1:])

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """The stored cell counts: N_j / 2 on a halved axis, N_j elsewhere."""
        return tuple(N // 2 if m else N for N, m in zip(self.points, self.halved))

    @functools.cached_property
    def reflections(self) -> int:
        """2^(halved axes): the full grid's cells per stored cell."""
        return 2 ** sum(self.halved)

    def axes(self) -> list[np.ndarray]:
        """Stored cell-center coordinates per axis, (i - (N - 1)/2) h: one
        rounding per cell, so cell N - 1 - i sits exactly at minus cell i,
        and a halved axis keeps the upper half, i >= N/2, of those bits."""
        return [((np.arange(N) - (N - 1) / 2) * h)[N // 2 if m else 0:]
                for N, h, m in zip(self.points, self.spacing, self.halved)]

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


@dataclass(frozen=True)
class FieldSample:
    """(psi, psi_dot) at one time on a grid's stored cells.  Raises
    ValueError unless time is finite and psi and psi_dot are complex128
    arrays of shape grid.shape: the grid sums view each as float64 pairs."""

    grid: GridSpec
    time: float
    psi: np.ndarray
    psi_dot: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError(f"sample time must be finite, got {self.time}")
        shape = self.grid.shape
        for name, field in (("psi", self.psi), ("psi_dot", self.psi_dot)):
            if not (isinstance(field, np.ndarray) and field.dtype == np.complex128
                    and field.shape == shape):
                got = (f"{field.dtype} array of shape {field.shape}"
                       if isinstance(field, np.ndarray) else type(field).__name__)
                raise ValueError(f"{name} must be a complex array of shape {shape} "
                                 f"(complex128), got a {got}")


def grid_for(wave: SolitaryWave, v, t_max: float, h: float) -> GridSpec:
    """Grid keeping the boundary-decay invariant up to |t| = t_max: on axis j,
    L_j >= match_radius + 1/delta + |v_j| t_max, with match_radius/gamma on
    the axis of an axis-aligned boost.  N_j is even and the spacing
    2 L_j / N_j is never below h.

    |psi| has already fallen below 1e-8 of its peak at match_radius, and the
    1/delta pad adds a further e^-1 of safety: every boundary cell centre lies
    1/delta - h/2 beyond match_radius in y (gamma times that along the axis
    of an axis-aligned boost), and sample_boosted checks the invariant on
    every sample.  A trapezoid sum of the decaying densities loses only the
    mass left outside the box, about 1e-16 of E, so a wider pad changes no
    measured E or P.

    For a k = 0 wave every axis j >= 1 with v_j = 0 is mirrored: r is even
    in x_j there at any t, so the field is too, and the grid stores only the
    half x_j > 0 (see GridSpec).  The flags follow this sizing v;
    sample_boosted samples a mirrored axis in full for any other v that is
    not even there.  Raises ValueError unless h and t_max are finite and
    h > 0."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {h}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    v, speed, gamma = lorentz_boost(v, wave.n)
    mr = wave.profile.match_radius
    margin = 1.0 / wave.delta
    extents, points = [], []
    for vj in v:
        support = mr / gamma if speed > 0 and abs(vj) == speed else mr
        L = support + margin + abs(vj) * abs(t_max)
        N = 2 * int(math.ceil(L / h))
        L = N * h / 2.0
        # one ulp of L restores a spacing 2L/N that rounded below h
        extents.append(L if 2.0 * L / N >= h else math.nextafter(L, math.inf))
        points.append(N)
    mirrored = tuple(j > 0 and wave.k == 0 and not vj for j, vj in enumerate(v))
    return GridSpec(n=wave.n, extent=tuple(extents), points=tuple(points), mirrored=mirrored)


def _boundary_max(field: np.ndarray, halved) -> float:
    """max |field| over the grid's boundary faces; the inner face of a
    halved axis is the mirror plane, not a boundary, and is skipped."""
    worst = 0.0
    for axis, m in enumerate(halved):
        for end in ((-1,) if m else (0, -1)):
            face = (slice(None),) * axis + (end,)
            worst = max(worst, float(np.max(np.abs(field[face]))))
    return worst


def sample_boosted(wave: SolitaryWave, v, grid: GridSpec, t: float = 0.0) -> FieldSample:
    """Evaluate (psi_v, psi_dot_v) at time t on the grid's stored cells, one
    row block at a time; psi and psi_dot are the only full-size arrays
    allocated.

    With a(y) = R(r) e^{i k phi}, the chain rule gives psi = R * u and
    psi_dot = -gamma (dR (v.y)/r + i k R (v_1 y_0 - v_0 y_1)/r^2 + i omega R) * u,
    u = e^{i k phi} * phase.  The phase is the constant e^{-i omega gamma t}
    times one 1D factor e^{i omega gamma v_j x_j} per axis, and
    e^{i k phi} = ((y_0 + i y_1)/r)^k.  On each axis j >= 1 with v_j = 0
    the blocks walk the upper half x_j > 0: R, R' and (v.y)/r are even in
    x_j there, and on axis 1 a vortex's e^{i k phi} and
    k (v_1 y_0 - v_0 y_1)/r^2 are conjugated.  Such an axis that the grid
    mirrors stays a sector, storing that half, when k = 0; every other axis
    is stored in full (on the grid given, or its copy with those flags
    cleared), and an even one gets the half's reflection onto the cells
    N_j - 1 - i_j.  At t = 0 each block of a full axis 0's first half also
    fills its mirror, the cells N_j - 1 - i_j on every axis that is not
    mirrored, with the y/r terms negated and e^{i k phi} times (-1)^k.
    GridSpec.axes mirrors exactly, so the reflected cells get the very bits
    that direct evaluation gives them.

    At t = 0 with v_j = 0 for every j >= 1, y_0 is odd in x_0 and every
    other y_j even, so psi(-x_0, x_perp) = (-1)^k conj psi(x_0, x_perp) and
    psi_dot the same with -(-1)^k.  A reversed grid then keeps the half
    x_0 > 0 alone, the blocks walk it, and the sample's grid carries
    reversal = (-1)^k.  At any other t or v a reversed grid's axis 0 is
    sampled in full.

    Raises GridTooSmall when the boundary cells carry more than 1e-8 of the
    peak amplitude, max |R| (the mirror plane of a halved axis is not a
    boundary), and ValueError when t is not finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"sample time must be finite, got {t}")
    if wave.n != grid.n:
        raise ValueError(f"wave dimension {wave.n} != grid dimension {grid.n}")
    v, speed, gamma = lorentz_boost(v, wave.n)
    omega, k = wave.omega, wave.k
    # y_j = x_j at any t on the even axes, so the blocks walk x_j > 0 there;
    # the field is even there only for k = 0, else the axis is stored in full
    even = [j for j in range(1, grid.n) if not v[j]]
    mirrored = tuple(m and not k and j in even for j, m in enumerate(grid.mirrored))
    # the time-reversed image holds at t = 0 with v_perp = 0 only
    reversal = (-1) ** k if grid.reversal and t == 0 and not v[1:].any() else 0
    if (mirrored, reversal) != (grid.mirrored, grid.reversal):
        grid = replace(grid, mirrored=mirrored, reversal=reversal)
    cols = tuple(slice(-(N // 2), None) if j in even else slice(None)
                 for j, N in enumerate(grid.points[1:], 1))
    mesh = np.meshgrid(*(x[c] for x, c in zip(grid.axes(), (slice(None), *cols))),
                       indexing="ij", sparse=True)
    e = v / speed if speed > 0 else v
    # the constant folds into axis 0's factor; a factor with v_j = 0 is 1
    factors = [np.exp(1j * omega * gamma * vj * m) for vj, m in zip(v, mesh)]
    factors[0] *= np.exp(-1j * omega * gamma * t)
    interp = wave.interpolant

    psi = np.empty(grid.shape, dtype=complex)
    psi_dot = np.empty(grid.shape, dtype=complex)
    # (psi, psi_dot, phase factors, sign of y-odd terms, conjugated?), one per
    # reflection image of the walked cells; at t = 0 the blocks walk a full
    # axis 0's first half and also fill the arrays flipped on every axis that
    # is not mirrored, (-1)^k in their factors
    targets = [(psi, psi_dot, factors, 1.0, False)]
    inverted = t == 0 and not reversal
    if inverted:
        flips = tuple(j for j in range(grid.n) if not grid.mirrored[j])
        mirror = [np.flip(f, flips) for f in factors]
        mirror[0] = mirror[0] * (-1.0) ** k
        targets.append((np.flip(psi, flips), np.flip(psi_dot, flips), mirror, -1.0, False))
    # each even axis stored in full doubles the targets: its flip keeps the
    # phase factors, and on axis 1 conjugates a vortex's e^{ik phi} and odd
    for j in even:
        if not grid.mirrored[j]:
            targets += [(np.flip(f, j), np.flip(fd, j), fs, sign, conj or (j == 1 and k > 0))
                        for f, fd, fs, sign, conj in targets]
    peak = 0.0
    for rows in row_blocks(psi[:grid.points[0] // 2] if inverted else psi):
        x = [mesh[0][rows], *mesh[1:]]
        x_dot_e = sum(xj * ej for xj, ej in zip(x, e) if ej)
        y = [xj + (gamma - 1.0) * x_dot_e * ej - gamma * vj * t if ej else xj
             for xj, ej, vj in zip(x, e, v)]
        r = np.sqrt(sum(yj**2 for yj in y))
        safe_r = np.where(r > 0, r, 1.0)  # y = 0 where r = 0, so every y/r term is 0 there
        R, dR = interp(r)
        if k:
            ang = np.empty(r.shape, dtype=complex)
            np.divide(y[0], safe_r, out=ang.real)
            np.divide(y[1], safe_r, out=ang.imag)
            if k > 1:  # ang**1 takes numpy's general complex power, 8 ns a cell
                ang = ang**k
        # psi_dot / u = -gamma (odd + i omega R), odd = dR (v.y)/r + i k R (v_1 y_0 - v_0 y_1)/r^2
        odd = np.zeros(r.shape, dtype=complex)
        if speed > 0:
            np.multiply(dR, sum(vj * yj for vj, yj in zip(v, y) if vj) / safe_r, out=odd.real)
            if k:
                np.multiply(R, (k * v[1] * y[0] - k * v[0] * y[1]) / safe_r**2, out=odd.imag)
        even = (gamma * omega) * R
        block = (rows, *cols)
        for field, field_dot, fs, sign, conj in targets:
            u = fs[0][rows]
            for vj, f in zip(v[1:], fs[1:]):
                if vj:
                    u = u * f
            if k:
                u = u * (ang.conj() if conj else ang)
            np.multiply(R, u, out=field[block])
            out = field_dot[block]
            np.multiply(odd.conj() if conj else odd, -gamma * sign, out=out)
            out.imag -= even
            out *= u

        peak = max(peak, float(np.max(np.abs(R))))

    boundary = _boundary_max(psi, grid.halved)
    if peak > 0 and boundary >= BOUNDARY_DECAY * peak:
        raise GridTooSmall(
            f"boundary amplitude {boundary:.3e} exceeds {BOUNDARY_DECAY:g} of "
            f"peak {peak:.3e}; enlarge the grid (contracted support plus "
            f"travel distance must fit)"
        )
    return FieldSample(grid=grid, time=float(t), psi=psi, psi_dot=psi_dot)


def _re_dot(a: np.ndarray, b: np.ndarray, axis: int | None = None):
    """Re sum a conj(b) over every axis but axis (all when None): one einsum
    over the float views of C-contiguous copies (numpy refuses that view of
    other layouts), with no squared temporary and no BLAS dot, whose order
    follows its thread count.  The views interleave each cell's re/im pair
    along the last axis, so a sum kept along it adds the pairs."""
    if axis is None:
        return float(np.einsum("i,i->", np.ravel(a).view(float), np.ravel(b).view(float)))
    subs = "abc"[:a.ndim]
    a, b = (np.ascontiguousarray(x).view(float) for x in (a, b))
    out = np.einsum(f"{subs},{subs}->{subs[axis]}", a, b)
    return out[0::2] + out[1::2] if axis == a.ndim - 1 else out


def _energy_sums(sample: FieldSample, spec: PotentialSpec, axes) -> list[np.ndarray]:
    """Grid sums of the Hamiltonian density
    |psi_dot|^2/2 + sum_j |D_j psi|^2 / (8 h_j^2) + U(|psi|), one per entry of
    axes: the total (a 0-d array) for None, the density's marginal along axis
    j (its sum over every other axis) for j.  One walk of the row blocks adds
    each block's terms, in that order, into every sum.  D_j psi is the
    unscaled neighbour difference psi[i + 1] - psi[i - 1], so the 1/(2 h_j) of
    the centered difference is paid in the weight.  The sums run over the
    stored cells only; the full grid's are grid.reflections times them."""
    psi, psi_dot = sample.psi, sample.psi_dot
    grid = sample.grid
    n = grid.n
    blocks = row_blocks(psi)
    d = np.empty(psi[blocks[0]].shape, dtype=complex)
    weights = [0.125 / (h * h) for h in grid.spacing]
    sums = [np.zeros(() if axis is None else grid.shape[axis]) for axis in axes]
    others = [None if axis is None else tuple(b for b in range(n) if b != axis) for axis in axes]
    for rows in blocks:
        diff = d[:rows.stop - rows.start]
        # a marginal along axis 0 takes the block's sums on the block's rows
        parts = [s[rows] if axis == 0 else s[...] for s, axis in zip(sums, axes)]
        for part, axis in zip(parts, axes):
            part += 0.5 * _re_dot(psi_dot[rows], psi_dot[rows], axis)
        for j, w in enumerate(weights):
            neighbour_difference(psi, j, rows, out=diff, mirrored=grid.mirrored[j],
                                 reversal=grid.reversal if j == 0 else 0)
            for part, axis in zip(parts, axes):
                part += w * _re_dot(diff, diff, axis)
        potential = evaluate_potential(spec, psi[rows])
        for part, other in zip(parts, others):
            part += np.sum(potential, axis=other)
    return sums


def measure_energy(sample: FieldSample, spec: PotentialSpec) -> float:
    """Grid sum of |psi_dot|^2/2 + |grad psi|^2/2 + U(|psi|), the total of
    _energy_sums times the cell volume and the grid's reflections."""
    (total,) = _energy_sums(sample, spec, [None])
    return float(total * sample.grid.cell_volume * sample.grid.reflections)


def measure_momentum(sample: FieldSample) -> np.ndarray:
    """-Re int psi_dot conj(grad psi) dx, per component.  Each component
    sums Re(psi_dot conj(D_j psi)) over the unscaled neighbour difference,
    one einsum per row block, and takes the 1/(2 h_j) once, on the sum.  On
    a mirrored axis j the integrand of P_j is odd in x_j, and on a reversed
    grid that of every P_j, j >= 1, is odd in x_0, so those components are
    0.0 and not summed.  The minus is taken as 0.0 - x, so an exact zero
    reads +0.0."""
    psi, psi_dot = sample.psi, sample.psi_dot
    grid = sample.grid
    axes = [j for j in range(grid.n) if not (grid.mirrored[j] or grid.reversal and j)]
    blocks = row_blocks(psi)
    d = np.empty(psi[blocks[0]].shape, dtype=complex)
    sums = np.zeros(grid.n)
    for rows in blocks:
        diff = d[:rows.stop - rows.start]
        for axis in axes:
            # a reversed grid sums axis 0 alone
            neighbour_difference(psi, axis, rows, out=diff, reversal=grid.reversal)
            sums[axis] += _re_dot(psi_dot[rows], diff)
    scale = [0.5 / h for h in grid.spacing]
    return 0.0 - sums * scale * (grid.cell_volume * grid.reflections)


def center_of_energy(sample: FieldSample, spec: PotentialSpec) -> np.ndarray:
    """Energy-density-weighted mean position: one walk of _energy_sums gives
    the density's marginal along every axis that is not halved, and the
    center's component j is the axis-j marginal against the axis-j
    coordinates over the total.  On a halved axis the density is even, so
    that component is 0.0."""
    grid = sample.grid
    axes = [j for j in range(grid.n) if not grid.halved[j]]
    marginals = _energy_sums(sample, spec, axes or [None])
    volume = grid.cell_volume * grid.reflections
    total = float(np.sum(marginals[0])) * volume  # every marginal sums to it
    if total < 1e-20:
        raise ZeroField(f"total energy {total:.3e} below 1e-20")
    coords = grid.axes()
    center = np.zeros(grid.n)
    center[axes] = [float(m @ coords[j]) for m, j in zip(marginals, axes)]
    return center * volume / total


@dataclass(frozen=True)
class ScanRow:
    v: np.ndarray
    e_measured: float
    p_measured: np.ndarray
    e_predicted: float
    p_predicted: np.ndarray
    rel_err_e: float
    rel_err_p: float


def boost_scan(wave: SolitaryWave, spec: PotentialSpec, velocities,
               grid: GridSpec, report: FunctionalReport) -> list[ScanRow]:
    """Measure (E, P) on the grid for each velocity and compare against the
    particle-like prediction gamma E_0 (1, v) from the wave's report.

    Rows are sorted by |v|.  rel_err_p is normalized by |P_pred| when nonzero,
    else by E_pred (the v = 0 row).  A velocity along axis 0 (v = 0
    included) is sampled on the grid's reversed copy, which stores and sums
    only the half x_0 > 0 of the t = 0 sample; any other on the grid as
    given.  sample_boosted decides which mirrored axes stay sectors.
    """
    boosts = sorted((lorentz_boost(v, wave.n) for v in velocities), key=lambda b: b[1])

    def one(v):
        scan_grid = grid if v[1:].any() else replace(grid, reversal=(-1) ** wave.k)
        try:
            sample = sample_boosted(wave, v, scan_grid, t=0.0)
        except GridTooSmall as exc:
            raise GridTooSmall(f"at v={v.tolist()}: {exc}") from exc
        e_m = measure_energy(sample, spec)
        p_m = measure_momentum(sample)
        pred = predict_energy_momentum(report, v)
        rel_e = abs(e_m / pred.energy - 1.0)
        p_scale = float(np.linalg.norm(pred.momentum))
        rel_p = float(np.linalg.norm(p_m - pred.momentum)) / (p_scale if p_scale > 0 else pred.energy)
        return ScanRow(v=v, e_measured=e_m, p_measured=p_m,
                       e_predicted=pred.energy, p_predicted=pred.momentum,
                       rel_err_e=rel_e, rel_err_p=rel_p)

    # one call per velocity, so each sample is freed before the next is built
    return [one(v) for v, _, _ in boosts]


def scan_to_csv(rows: list[ScanRow], path) -> None:
    n = rows[0].v.size if rows else 0
    header = (["v", "E_meas"] + [f"P{j+1}_meas" for j in range(n)]
              + ["E_pred"] + [f"P{j+1}_pred" for j in range(n)] + ["relE", "relP"])
    records = ([float(np.linalg.norm(row.v)), row.e_measured, *row.p_measured,
                row.e_predicted, *row.p_predicted, row.rel_err_e, row.rel_err_p]
               for row in rows)
    write_csv(path, header, records)


def scan_to_json(rows: list[ScanRow], path) -> None:
    payload = [
        {
            "v": row.v.tolist(),
            "E_meas": row.e_measured,
            "P_meas": row.p_measured.tolist(),
            "E_pred": row.e_predicted,
            "P_pred": row.p_predicted.tolist(),
            "relE": row.rel_err_e,
            "relP": row.rel_err_p,
        }
        for row in rows
    ]
    write_json(path, payload)


def save_sample(sample: FieldSample, path) -> None:
    """Flat binary layout, little-endian throughout:
    header  = [n] + [N_1..N_n] as int64, [L_1..L_n] + [time] as float64,
    payload = psi, then psi_dot, each as complex128 (re/im float64 pairs) in C order.
    A mirrored axis j is written as -N_j, and the payload holds the stored
    cells, grid.shape; a full grid's file is unchanged by this marker.
    The layout has no mark for a reversed grid, so its sample raises
    ValueError: sample axis 0 in full to save it.
    """
    g = sample.grid
    if g.reversal:
        raise ValueError("save_sample stores axis 0 in full; this sample's grid is "
                         "reversed and holds only its half x_0 > 0")

    def write(fh):
        fh.write(struct.pack("<q", g.n))
        fh.write(struct.pack(f"<{g.n}q", *(-N if m else N for N, m in zip(g.points, g.mirrored))))
        fh.write(struct.pack(f"<{g.n}d", *g.extent))
        fh.write(struct.pack("<d", sample.time))
        for field in (sample.psi, sample.psi_dot):
            fh.write(np.asarray(field, dtype="<c16").tobytes(order="C"))

    atomic_write(path, write, binary=True)


def load_sample(path) -> FieldSample:
    """Read a save_sample file.  Raises ValueError, naming the path, when
    the header does not describe a valid grid and sample (a -N on axis 0, a
    non-finite time, say) or the file size is not the one its header
    implies (a truncated write, say)."""
    with open(path, "rb") as fh:
        actual = os.fstat(fh.fileno()).st_size
        head = fh.read(8 * (2 + 2 * 3))  # the longest header, n = 3
        try:
            (n,) = struct.unpack_from("<q", head)
            points = struct.unpack_from(f"<{n}q", head, 8)
            extent = struct.unpack_from(f"<{n}d", head, 8 + 8 * n)
            (time,) = struct.unpack_from("<d", head, 8 + 16 * n)
        except struct.error as exc:
            raise ValueError(f"{os.fspath(path)}: sample file has {actual} bytes "
                             "and no complete header") from exc
        header = 8 * (2 + 2 * n)
        fh.seek(header)
        try:
            grid = GridSpec(n=int(n), extent=tuple(extent),
                            points=tuple(abs(int(p)) for p in points),
                            mirrored=tuple(p < 0 for p in points))
        except ValueError as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from exc
        size = math.prod(grid.shape)
        expected = header + 2 * 16 * size
        if actual != expected:
            raise ValueError(f"{os.fspath(path)}: sample file has {actual} bytes, "
                             f"its header implies {expected}")
        fields = [np.fromfile(fh, dtype="<c16", count=size).reshape(grid.shape)
                  for _ in range(2)]
    try:
        return FieldSample(grid=grid, time=float(time), psi=fields[0], psi_dot=fields[1])
    except ValueError as exc:
        raise ValueError(f"{os.fspath(path)}: {exc}") from exc
