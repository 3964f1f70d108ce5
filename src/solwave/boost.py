"""Lorentz-boosted field sampling and direct grid measurement of E and P.

A standing wave a(x) e^{-i omega t} boosted to velocity v becomes

    psi_v(x, t) = a(y) e^{-i omega gamma (t - v.x)},
    y = gamma (x_par - v t) + x_perp,   gamma = 1/sqrt(1 - |v|^2),

Lorentz-contracted along the boost axis and phase-modulated.  psi_dot is
sampled from the exact chain-rule expression

    psi_dot = (-gamma (v . grad a)(y) - i gamma omega a(y)) * phase,

never by numerical time differencing.  Sampling writes psi and psi_dot one
row block of solwave.stencil at a time, and they are the only full-size
arrays it allocates.  Within a block the phase is the constant
e^{-i omega gamma t} times the outer product of one 1D factor
e^{i omega gamma v_j x_j} per axis, the vortex factor e^{i k phi} of a k >= 1
wave is ((y_0 + i y_1)/r)^k, and R, R' come from one radial.WaveInterpolant
call on the block's r.  At t = 0, y(-x) = -y(x): R and R' are even, the
psi_dot terms in y/r odd and e^{i k phi} picks up (-1)^k, so each block of
axis 0's first half also writes its mirror (every axis reversed), and the
radial part runs on half the grid.  On every axis j >= 1 with v_j = 0,
y_j = x_j at any t, so r is even in x_j: the blocks walk that axis's first
half as well and fill the other by reflection.  R, R' and the (v.y)/r term
are even under it; on axis 1 of a vortex, e^{i k phi} and the
k (v_1 y_0 - v_0 y_1)/r^2 term are conjugated.  An axis-0 boost, the only
kind the command line makes, thus runs the radial part on 1/2^n of the grid
at t = 0 and on 1/2^(n-1) at any other t.
The boundary-decay check compares |psi| on the boundary faces with the
largest |R|.

Energy, momentum and the center of energy are then measured by plain grid
sums of the Hamiltonian density (for the center, its marginals against the
coordinates) and -Re(psi_dot conj(grad psi)) with 2nd-order centered
differences under periodic wrap (immaterial given the exponential decay,
which the grid-sizing rule keeps below 1e-8 of the peak at the boundary).
The differences are solwave.stencil's unscaled neighbour differences, with
the 1/(2h) folded into the sums.  Each sum walks the field in the stencil's
row blocks.  E and P take sum |psi_dot|^2, sum |D_j psi|^2 and
Re sum psi_dot conj(D_j psi) per block as one einsum over the float views,
with no squared temporary and no BLAS dot, whose last bits follow its thread
count; the center of energy builds each block's density for its marginals.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_write, write_csv, write_json
from .functionals import FunctionalReport, lorentz_boost, predict_energy_momentum
from .potential import PotentialSpec, evaluate_potential
from .radial import SolitaryWave, WaveInterpolant
from .stencil import abs_sq, neighbour_difference, row_blocks

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
    Raises ValueError unless every extent L_j is finite and positive and
    every point count N_j is a positive, even integer."""

    n: int
    extent: tuple[float, ...]
    points: tuple[int, ...]

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

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * L / N for L, N in zip(self.extent, self.points))

    def axes(self) -> list[np.ndarray]:
        """Cell-center coordinates per axis, (i - (N - 1)/2) h: one rounding
        per cell, so cell N - 1 - i sits exactly at minus cell i."""
        return [(np.arange(N) - (N - 1) / 2) * h for N, h in zip(self.points, self.spacing)]

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


@dataclass(frozen=True)
class FieldSample:
    grid: GridSpec
    time: float
    psi: np.ndarray
    psi_dot: np.ndarray


def grid_for(wave: SolitaryWave, v, t_max: float, h: float) -> GridSpec:
    """Grid keeping the boundary-decay invariant up to |t| = t_max: on axis j,
    L_j >= match_radius + 1/delta + |v_j| t_max, with match_radius/gamma on
    the axis of an axis-aligned boost.

    |psi| has already fallen below 1e-8 of its peak at match_radius, and the
    1/delta pad adds a further e^-1 of safety: every boundary cell centre lies
    1/delta - h/2 beyond match_radius in y (gamma times that along the axis
    of an axis-aligned boost), and sample_boosted checks the invariant on
    every sample.  A trapezoid sum of the decaying densities loses only the
    mass left outside the box, about 1e-16 of E, so a wider pad changes no
    measured E or P.  Raises ValueError unless h and t_max are finite and
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
        extents.append(N * h / 2.0)
        points.append(N)
    return GridSpec(n=wave.n, extent=tuple(extents), points=tuple(points))


def _boundary_max(field: np.ndarray) -> float:
    worst = 0.0
    for axis in range(field.ndim):
        sl0 = [slice(None)] * field.ndim
        sl0[axis] = 0
        sl1 = [slice(None)] * field.ndim
        sl1[axis] = -1
        worst = max(worst, float(np.max(np.abs(field[tuple(sl0)]))),
                    float(np.max(np.abs(field[tuple(sl1)]))))
    return worst


def sample_boosted(wave: SolitaryWave, v, grid: GridSpec, t: float = 0.0) -> FieldSample:
    """Evaluate (psi_v, psi_dot_v) at time t on the grid, one row block at a
    time; psi and psi_dot are the only full-size arrays allocated.

    With a(y) = R(r) e^{i k phi}, the chain rule gives psi = R * u and
    psi_dot = -gamma (dR (v.y)/r + i k R (v_1 y_0 - v_0 y_1)/r^2 + i omega R) * u,
    u = e^{i k phi} * phase.  The phase is the constant e^{-i omega gamma t}
    times one 1D factor e^{i omega gamma v_j x_j} per axis, and
    e^{i k phi} = ((y_0 + i y_1)/r)^k.  At t = 0 each block of axis 0's first
    half also fills its mirror, the cells N_j - 1 - i_j, with the y/r terms
    negated and e^{i k phi} times (-1)^k.  On every axis j >= 1 with v_j = 0
    the blocks compute the first half only and reflect it onto the cells
    N_j - 1 - i_j: R, R' and (v.y)/r are even in x_j there, and on axis 1
    a vortex's e^{i k phi} and k (v_1 y_0 - v_0 y_1)/r^2 are conjugated.
    GridSpec.axes mirrors exactly, so the reflected cells get the very bits
    that direct evaluation gives them.

    Raises GridTooSmall when the boundary cells carry more than 1e-8 of the
    peak amplitude, max |R|, and ValueError when t is not finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"sample time must be finite, got {t}")
    if wave.n != grid.n:
        raise ValueError(f"wave dimension {wave.n} != grid dimension {grid.n}")
    v, speed, gamma = lorentz_boost(v, wave.n)
    omega, k = wave.omega, wave.k
    # on an axis j >= 1 with v_j = 0, y_j = x_j at any t, so r is even in x_j
    # and the blocks walk the axis's first half
    halves = [j for j in range(1, grid.n) if not v[j]]
    cols = tuple(slice(N // 2) if j in halves else slice(None)
                 for j, N in enumerate(grid.points[1:], 1))
    mesh = np.meshgrid(*(x[:x.size // 2] if j in halves else x
                         for j, x in enumerate(grid.axes())), indexing="ij", sparse=True)
    e = v / speed if speed > 0 else v
    # the constant folds into axis 0's factor; a factor with v_j = 0 is 1
    factors = [np.exp(1j * omega * gamma * vj * m) for vj, m in zip(v, mesh)]
    factors[0] *= np.exp(-1j * omega * gamma * t)
    interp = WaveInterpolant(wave)

    psi = np.empty(grid.points, dtype=complex)
    psi_dot = np.empty(grid.points, dtype=complex)
    # (psi, psi_dot, phase factors, sign of y-odd terms, conjugated?), one per
    # reflection image of the walked cells; at t = 0 the blocks walk axis 0's
    # first half and also fill the flipped arrays, (-1)^k in their factors
    targets = [(psi, psi_dot, factors, 1.0, False)]
    if t == 0:
        mirror = [np.flip(f) for f in factors]
        mirror[0] = mirror[0] * (-1.0) ** k
        targets.append((np.flip(psi), np.flip(psi_dot), mirror, -1.0, False))
    # each halved axis doubles the targets: its flip keeps R, R', (v.y)/r and
    # the phase factors, and on axis 1 conjugates a vortex's e^{ik phi} and odd
    for j in halves:
        targets += [(np.flip(f, j), np.flip(fd, j), fs, sign, conj or (j == 1 and k > 0))
                    for f, fd, fs, sign, conj in targets]
    peak = 0.0
    for rows in row_blocks(psi[:grid.points[0] // (2 if t == 0 else 1)]):
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

    boundary = _boundary_max(psi)
    if peak > 0 and boundary >= BOUNDARY_DECAY * peak:
        raise GridTooSmall(
            f"boundary amplitude {boundary:.3e} exceeds {BOUNDARY_DECAY:g} of "
            f"peak {peak:.3e}; enlarge the grid (contracted support plus "
            f"travel distance must fit)"
        )
    return FieldSample(grid=grid, time=float(t), psi=psi, psi_dot=psi_dot)


def _density_blocks(sample: FieldSample, spec: PotentialSpec):
    """(rows, Hamiltonian density over those rows) for each row block.

    The gradient term sum_j |D_j psi|^2 / (8 h_j^2) takes the unscaled
    neighbour difference D_j psi = psi[i + 1] - psi[i - 1], so the 1/(2 h_j)
    of the centered difference is paid on one real block per axis."""
    psi = sample.psi
    blocks = row_blocks(psi)
    d = np.empty(psi[blocks[0]].shape, dtype=complex)
    weights = [0.125 / (h * h) for h in sample.grid.spacing]
    for rows in blocks:
        diff = d[:rows.stop - rows.start]
        density = abs_sq(sample.psi_dot[rows])
        density *= 0.5
        for axis, w in enumerate(weights):
            grad_sq = abs_sq(neighbour_difference(psi, axis, rows, out=diff))
            grad_sq *= w
            density += grad_sq
        density += evaluate_potential(spec, psi[rows])
        yield rows, density


def _re_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum a conj(b), one einsum over the float views: no squared temporary,
    and no BLAS dot, whose summation order follows its thread count."""
    return float(np.einsum("i,i->", np.ravel(a).view(float), np.ravel(b).view(float)))


def measure_energy(sample: FieldSample, spec: PotentialSpec) -> float:
    """Grid sum of |psi_dot|^2/2 + |grad psi|^2/2 + U(|psi|): per row block,
    einsum sums of |psi_dot|^2 and |D_j psi|^2 (weight 1/(8 h_j^2)) and one
    evaluate_potential call."""
    psi, psi_dot = sample.psi, sample.psi_dot
    blocks = row_blocks(psi)
    d = np.empty(psi[blocks[0]].shape, dtype=complex)
    weights = [0.125 / (h * h) for h in sample.grid.spacing]
    total = 0.0
    for rows in blocks:
        diff = d[:rows.stop - rows.start]
        total += 0.5 * _re_dot(psi_dot[rows], psi_dot[rows])
        for axis, w in enumerate(weights):
            neighbour_difference(psi, axis, rows, out=diff)
            total += w * _re_dot(diff, diff)
        total += float(np.sum(evaluate_potential(spec, psi[rows])))
    return total * sample.grid.cell_volume


def measure_momentum(sample: FieldSample) -> np.ndarray:
    """-Re int psi_dot conj(grad psi) dx, per component.  Each component
    sums Re(psi_dot conj(D_j psi)) over the unscaled neighbour difference,
    one einsum per row block, and takes the 1/(2 h_j) once, on the sum."""
    psi, psi_dot = sample.psi, sample.psi_dot
    blocks = row_blocks(psi)
    d = np.empty(psi[blocks[0]].shape, dtype=complex)
    sums = np.zeros(sample.grid.n)
    for rows in blocks:
        diff = d[:rows.stop - rows.start]
        for axis in range(sample.grid.n):
            neighbour_difference(psi, axis, rows, out=diff)
            sums[axis] += _re_dot(psi_dot[rows], diff)
    scale = [0.5 / h for h in sample.grid.spacing]
    return -sums * scale * sample.grid.cell_volume


def center_of_energy(sample: FieldSample, spec: PotentialSpec) -> np.ndarray:
    """Energy-density-weighted mean position, by grid sums: the moment along
    axis j is the density's marginal over the other axes (its row sums for
    axis 0, its column sums for axis 1) against the axis-j coordinates."""
    n = sample.grid.n
    axes = sample.grid.axes()
    weight = 0.0
    moments = np.zeros(n)
    for rows, density in _density_blocks(sample, spec):
        for axis, x in enumerate(axes):
            marginal = np.sum(density, axis=tuple(b for b in range(n) if b != axis))
            moments[axis] += float(marginal @ (x[rows] if axis == 0 else x))
        weight += float(np.sum(marginal))  # every marginal sums to the block's total
    total = weight * sample.grid.cell_volume
    if total < 1e-20:
        raise ZeroField(f"total energy {total:.3e} below 1e-20")
    return moments * sample.grid.cell_volume / total


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
    else by E_pred (the v = 0 row).
    """
    boosts = sorted((lorentz_boost(v, wave.n) for v in velocities), key=lambda b: b[1])

    def one(v):
        try:
            sample = sample_boosted(wave, v, grid, t=0.0)
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
    """
    g = sample.grid

    def write(fh):
        fh.write(struct.pack("<q", g.n))
        fh.write(struct.pack(f"<{g.n}q", *g.points))
        fh.write(struct.pack(f"<{g.n}d", *g.extent))
        fh.write(struct.pack("<d", sample.time))
        for field in (sample.psi, sample.psi_dot):
            fh.write(np.asarray(field, dtype="<c16").tobytes(order="C"))

    atomic_write(path, write, binary=True)


def load_sample(path) -> FieldSample:
    """Read a save_sample file.  Raises ValueError when the file size is not
    the one its header implies (a truncated write, say)."""
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
        grid = GridSpec(n=int(n), extent=tuple(extent), points=tuple(int(p) for p in points))
        size = int(np.prod(points))
        expected = header + 2 * 16 * size
        if actual != expected:
            raise ValueError(f"{os.fspath(path)}: sample file has {actual} bytes, "
                             f"its header implies {expected}")
        fields = [np.fromfile(fh, dtype="<c16", count=size).reshape(points) for _ in range(2)]
    return FieldSample(grid=grid, time=float(time), psi=fields[0], psi_dot=fields[1])
