"""Leapfrog time evolution of the field equation on a periodic grid, or on
the stored cells of a mirrored one, in n = 1, 2 and 3 alike.

The second-order update psi^{m+1} = 2 psi^m - psi^{m-1} + dt^2 (Lap_h psi^m
+ f(psi^m)), with the standard 2nd-order Laplacian stencil under periodic
wrap, is written around one kernel

    K(psi) = sum_j c_j N_j(psi) + (2 - 2 sum_j c_j) psi + dt^2 f(psi),
    c_j = dt^2 / h_j^2,

where N_j is solwave.stencil's neighbour sum along axis j, mirrored on the
grid's mirrored axes.  The on-site part (2 - 2 sum_j c_j) psi + dt^2 f(psi)
is itself psi times a polynomial in |psi|, so it is evaluated as the force
of a "step potential" W: with A = 2 - 2 sum_j c_j - dt^2 m^2 and f's terms
(c_e, e), W has mass_sq |A| and terms (-+dt^2 c_e, e), and the on-site part
is -evaluate_force(W, psi) for A >= 0 and +evaluate_force(W, psi) for
A < 0 (a mass_sq is never negative).  K is then the neighbour sums plus one
force evaluation per block.  The equation is invariant under x_j -> -x_j,
so a field even in x_j stays even, and stepping the stored cells with
mirrored ends gives the full grid's values on those cells bit for bit.  A
step is psi^{m+1} = K(psi^m) - psi^{m-1}, and the first step is the Taylor
bootstrap psi^1 = dt psi_dot^0 + K(psi^0)/2.  The time derivative is
reconstructed centrally as (psi^{m+1} - psi^{m-1})/(2 dt), so each state
carries a consistent (psi, psi_dot) pair at its own time at the cost of one
kernel evaluation per step.  The linearised step is stable while
dt^2 (sum_j 1/h_j^2 + m^2/4) <= 1, and a step must keep both that bound and
dt <= 0.5 min h_j (CFL_NUMBER).  A step is one blocked pass over
the rows of the grid: each block's kernel, update and psi_dot are finished
while its temporaries are still in cache.  A run has one mutable state,
which each step advances in place, writing the new levels over its own
three arrays, and which holds the run's plan: the c_j, W, the row blocks
and their scratch, built and checked once per (grid, spec, dt) (see step).
Blow-up is reported (NonFinite), not prevented: focusing nonlinearities can
and should fail loudly for non-soliton data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .boost import (FieldSample, center_of_energy, measure_energy, measure_momentum,
                    save_sample)
from .potential import PotentialSpec, evaluate_force
from .stencil import neighbour_sum, row_blocks

__all__ = [
    "CFL_NUMBER",
    "CflViolation",
    "NonFinite",
    "DiagnosticPoint",
    "EvolutionState",
    "step",
    "step_count",
    "evolve",
    "diagnostics_to_csv",
]

CFL_NUMBER = 0.5


class CflViolation(ValueError):
    """Time step breaks dt <= 0.5 min h_j (CFL_NUMBER) or the linearised
    stability bound dt^2 (sum_j 1/h_j^2 + m^2/4) <= 1."""


class NonFinite(RuntimeError):
    """Field left the finite range (blow-up or instability)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class DiagnosticPoint:
    time: float
    energy: float
    momentum: np.ndarray
    center_of_energy: np.ndarray


@dataclass(frozen=True, eq=False)
class _Plan:
    """What every step of a run at one (grid, spec, dt) shares: the c_j,
    the step potential W with the sign of the on-site part (module
    docstring), the row blocks and two blocks of complex scratch."""

    key: tuple
    coeffs: tuple[float, ...]
    mirrored: tuple[bool, ...]
    onsite: PotentialSpec
    negate: bool
    blocks: list[slice]
    scratch: np.ndarray

    @classmethod
    def build(cls, grid, spec: PotentialSpec, dt: float, psi: np.ndarray) -> _Plan:
        _check_step(grid, spec, dt)
        coeffs = tuple(dt * dt / (h * h) for h in grid.spacing)
        a = 2.0 - 2.0 * sum(coeffs) - dt * dt * spec.mass_sq
        sign = 1.0 if a >= 0 else -1.0
        onsite = PotentialSpec(mass_sq=sign * a,
                               terms=tuple((-sign * dt * dt * c, e) for c, e in spec.terms))
        blocks = row_blocks(psi)
        scratch = np.empty((2,) + psi[blocks[0]].shape, dtype=complex)
        return cls((grid, spec, dt), coeffs, grid.mirrored, onsite, sign > 0, blocks, scratch)


@dataclass
class EvolutionState:
    """The one mutable state of a run, which step advances in place.

    sample holds a consistent (psi, psi_dot) pair at sample.time; _ahead is
    (dt, the sample it was stepped from, the next level computed at that dt),
    None before the first step, so the centered psi_dot reconstruction costs
    nothing extra.  _plan is the last step's _Plan, rebuilt when the grid,
    spec or dt changes.  diagnostics and snapshots (the file names evolve
    wrote) collect as the run goes.
    """

    sample: FieldSample
    diagnostics: list[DiagnosticPoint] = field(default_factory=list)
    snapshots: list[str] = field(default_factory=list)
    _ahead: tuple[float, FieldSample, np.ndarray] | None = None
    _plan: _Plan | None = None


def _check_step(grid, spec: PotentialSpec, dt: float) -> None:
    """Reject a time step the leapfrog scheme cannot advance on grid."""
    if grid.reversal:
        # psi(-x_0) = +-conj psi(x_0) holds at t = 0 only, so the stored half
        # no longer knows its outside neighbours after one step
        raise ValueError("cannot step a reversed grid's sample, which stores only "
                         "x_0 > 0 of a t = 0 field; sample axis 0 in full")
    if not dt > 0:  # NaN too
        raise ValueError(f"need dt > 0, got {dt}")
    linear = dt * dt * (sum(1.0 / (h * h) for h in grid.spacing) + spec.mass_sq / 4.0)
    if dt > CFL_NUMBER * min(grid.spacing) or linear > 1.0:
        raise CflViolation(f"dt={dt} exceeds {CFL_NUMBER} min h = {CFL_NUMBER * min(grid.spacing)}"
                           f" or gives dt^2 (sum_j 1/h_j^2 + m^2/4) = {linear:.4g} > 1")


def _kernel(psi: np.ndarray, plan: _Plan, rows: slice, out: np.ndarray,
            tmp: np.ndarray) -> None:
    """out = K(psi) of the module docstring over one block of rows: the
    scaled neighbour sums plus the step potential's force; tmp is scratch of
    the block's shape.  The real c_j scale the blocks' float views."""
    coeffs = plan.coeffs
    neighbour_sum(psi, 0, rows, out=out)
    floats = out.view(float)
    floats *= coeffs[0]
    for axis in range(1, len(coeffs)):
        neighbour_sum(psi, axis, rows, out=tmp, mirrored=plan.mirrored[axis])
        floats = tmp.view(float)
        floats *= coeffs[axis]
        out += tmp
    force = evaluate_force(plan.onsite, psi[rows])
    if plan.negate:
        out -= force
    else:
        out += force


def step(state: EvolutionState, spec: PotentialSpec, dt: float) -> EvolutionState:
    """Advance state one leapfrog step in place and return it.

    One pass over the row blocks writes the next level
    psi^{m+2} = K(psi^{m+1}) - psi^m (K of the module docstring: the scaled
    neighbour sums plus the force of the step potential W) and the centered
    psi_dot^{m+1}, so every temporary is one block.  The c_j, W, the row
    blocks and their scratch are the state's plan: built, and the step
    checked, on the first step and whenever the sample's grid, spec or dt
    differs from the last step's.  A state with no level ahead of its sample
    at this dt (one the caller built, one last stepped at another dt, or one
    whose sample the caller replaced) first takes the Taylor bootstrap from
    its own sample; a new spec at the same dt continues from the level ahead.

    Memory: the bootstrap allocates the three arrays the state then owns and
    writes none of its sample's, so a caller's FieldSample is never written.
    Later steps write psi^{m+2} over psi_dot^m and psi_dot^{m+1} over psi^m
    and replace state.sample, so a sample taken from the state is overwritten
    by its next step at the same dt (copy it to keep it), and a steady-state
    step allocates only block temporaries.  After NonFinite the state is
    invalid.

    Raises ValueError unless dt > 0 and the sample's grid is not reversed
    (GridSpec.reversal), CflViolation (see there), and NonFinite (failing
    time attached) when the update leaves the finite range.
    """
    grid = state.sample.grid
    psi = state.sample.psi
    plan = state._plan
    if plan is None or plan.key != (grid, spec, dt):
        plan = state._plan = _Plan.build(grid, spec, dt, psi)

    t = state.sample.time
    # blow-up produces inf/nan mid-update before the explicit check below;
    # keep numpy quiet about it
    with np.errstate(invalid="ignore", over="ignore"):
        ahead = state._ahead
        if ahead is None or ahead[0] != dt or ahead[1] is not state.sample:
            cur = np.empty(psi.shape, dtype=complex)
            for rows in plan.blocks:
                half, tmp = plan.scratch[:, :rows.stop - rows.start]
                _kernel(psi, plan, rows, half, tmp)
                half *= 0.5
                np.multiply(state.sample.psi_dot[rows], dt, out=cur[rows])
                cur[rows] += half
            ahead = np.empty(psi.shape, dtype=complex)
            psi_dot = np.empty(psi.shape, dtype=complex)
        else:
            # the ring: psi^{m+2} over psi_dot^m, psi_dot^{m+1} over psi^m
            cur, ahead, psi_dot = ahead[2], state.sample.psi_dot, psi

        tmp = plan.scratch[1]
        rate = 0.5 / dt
        for rows in plan.blocks:
            nxt = ahead[rows]
            _kernel(cur, plan, rows, nxt, tmp[:rows.stop - rows.start])
            nxt -= psi[rows]
            if not np.isfinite(nxt.view(float)).all():
                raise NonFinite(f"field became non-finite at t={t + 2 * dt:.6g}",
                                time=t + 2 * dt)
            # psi[rows] is read here for the last time before psi_dot may
            # overwrite it
            dot = np.subtract(nxt, psi[rows], out=psi_dot[rows]).view(float)
            dot *= rate

    state.sample = FieldSample(grid=grid, time=t + dt, psi=cur, psi_dot=psi_dot)
    state._ahead = (dt, state.sample, ahead)
    return state


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps that end exactly at t_final.

    Raises ValueError, naming both values, when t_final/dt lies more than
    1e-9 max(1, t_final/dt) from an integer: the run would otherwise stop at
    the nearest multiple of dt instead of at t_final.
    """
    ratio = t_final / dt
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)):
        raise ValueError(f"t_final={t_final} is not a whole multiple of dt={dt}")
    return round(ratio)


def evolve(initial: FieldSample, spec: PotentialSpec, t_final: float, dt: float,
           diag_stride: int = 10, snapshot_stride: int | None = None,
           snapshot_dir=None) -> EvolutionState:
    """Step the field from initial to t_final, recording diagnostics
    (time, E, P, center of energy) every diag_stride steps.

    With snapshot_stride set, the full field is written in the flat binary
    sample layout to snapshot_dir every snapshot_stride steps (plus the
    initial state), and the returned state's snapshots lists the file names.
    t_final < 0, dt <= 0, a t_final that is not a whole multiple of dt (see
    step_count), a stride that is not an integer >= 1, a snapshot_stride
    without a snapshot_dir or a reversed initial grid raises ValueError,
    and a dt beyond the CFL bound raises CflViolation, before anything is
    recorded or written."""
    if not t_final >= 0:
        raise ValueError(f"need t_final >= 0, got {t_final}")
    for name, stride in (("diag_stride", diag_stride), ("snapshot_stride", snapshot_stride)):
        if stride is not None and not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {stride!r}")
    if snapshot_stride is not None and snapshot_dir is None:
        raise ValueError("snapshot_stride needs a snapshot_dir")
    _check_step(initial.grid, spec, dt)
    n_steps = step_count(t_final, dt)
    state = EvolutionState(initial)
    for m in range(n_steps + 1):
        if m:
            step(state, spec, dt)
        sample = state.sample
        if m % diag_stride == 0 or m == n_steps:
            state.diagnostics.append(DiagnosticPoint(
                time=sample.time,
                energy=measure_energy(sample, spec),
                momentum=measure_momentum(sample),
                center_of_energy=center_of_energy(sample, spec),
            ))
        if snapshot_stride is not None and m % snapshot_stride == 0:
            name = f"snapshot_{m:08d}.bin"
            save_sample(sample, os.path.join(os.fspath(snapshot_dir), name))
            state.snapshots.append(name)
    return state


def diagnostics_to_csv(diagnostics: list[DiagnosticPoint], path) -> None:
    n = diagnostics[0].momentum.size if diagnostics else 0
    header = (["time", "E"] + [f"P{j+1}" for j in range(n)]
              + [f"X{j+1}" for j in range(n)])
    write_csv(path, header, ([d.time, d.energy, *d.momentum, *d.center_of_energy]
                             for d in diagnostics))
