"""Leapfrog time evolution of the field equation on a periodic grid, or on
the stored cells of a mirrored one, in n = 1, 2 and 3 alike.

The second-order update psi^{m+1} = 2 psi^m - psi^{m-1} + dt^2 (Lap_h psi^m
+ f(psi^m)), with the standard 2nd-order Laplacian stencil under periodic
wrap, is written around one kernel

    K(psi) = sum_j c_j N_j(psi) + (2 - 2 sum_j c_j) psi + dt^2 f(psi),
    c_j = dt^2 / h_j^2,

where N_j is solwave.stencil's neighbour sum along axis j, mirrored on the
grid's mirrored axes.  The equation is invariant under x_j -> -x_j, so a
field even in x_j stays even, and stepping the stored cells with mirrored
ends gives the full grid's values on those cells bit for bit.  A step is
psi^{m+1} = K(psi^m) - psi^{m-1}, and the first step is the Taylor bootstrap
psi^1 = dt psi_dot^0 + K(psi^0)/2.  The time derivative is reconstructed
centrally as (psi^{m+1} - psi^{m-1})/(2 dt), so each state carries a
consistent (psi, psi_dot) pair at its own time at the cost of one kernel
evaluation per step.  The linearised step is stable while
dt^2 (sum_j 1/h_j^2 + m^2/4) <= 1; dt <= 0.5 min h_j (CFL_NUMBER) keeps
dt^2 sum_j 1/h_j^2 <= n/4 < 1 for n <= 3.  A step is one blocked pass over
the rows of the grid: each block's kernel, update and psi_dot are finished
while its temporaries are still in cache, and in steady state the new levels
are written over the arrays of the state being stepped (see step).  Blow-up
is reported (NonFinite), not prevented: focusing nonlinearities can and
should fail loudly for non-soliton data.
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
    """Time step exceeds the stability bound CFL * min h_j: dt <= 0.5 min h_j
    keeps dt^2 sum_j 1/h_j^2 <= n/4 < 1 for n <= 3."""


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


@dataclass
class EvolutionState:
    """Field state at one time level plus the memory the two-step scheme needs.

    sample holds a consistent (psi, psi_dot) pair at sample.time; _psi_next
    caches the already-computed next level (None before the first step) so
    the centered psi_dot reconstruction costs nothing extra.  diagnostics and
    snapshots (the file names evolve wrote) carry over from step to step.

    Stepping a state made by step consumes its arrays (see step); a state
    built by the caller (no _psi_next) is never written.
    """

    sample: FieldSample
    diagnostics: list[DiagnosticPoint] = field(default_factory=list)
    snapshots: list[str] = field(default_factory=list)
    _psi_next: np.ndarray | None = None


def _check_step(grid, dt: float) -> None:
    """Reject a time step the leapfrog scheme cannot advance on grid."""
    if not dt > 0:  # NaN too
        raise ValueError(f"need dt > 0, got {dt}")
    h_min = min(grid.spacing)
    if dt > CFL_NUMBER * h_min:
        raise CflViolation(f"dt={dt} exceeds {CFL_NUMBER} * min h = {CFL_NUMBER * h_min}")


def _kernel(psi: np.ndarray, spec: PotentialSpec, coeffs, mirrored, dt: float,
            rows: slice, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = K(psi) of the module docstring over one block of rows, with
    coeffs the c_j = dt^2/h_j^2 and mirrored the grid's flags; tmp is
    scratch of the block's shape."""
    neighbour_sum(psi, 0, rows, out=out)
    out *= coeffs[0]
    for axis in range(1, len(coeffs)):
        neighbour_sum(psi, axis, rows, out=tmp, mirrored=mirrored[axis])
        tmp *= coeffs[axis]
        out += tmp
    np.multiply(psi[rows], 2.0 - 2.0 * sum(coeffs), out=tmp)
    out += tmp
    force = evaluate_force(spec, psi[rows])
    force *= dt * dt
    out += force


def step(state: EvolutionState, spec: PotentialSpec, dt: float) -> EvolutionState:
    """Advance one leapfrog step; returns a new state one dt later.

    One pass over the row blocks writes the next level
    psi^{m+2} = K(psi^{m+1}) - psi^m (K of the module docstring) and the
    centered psi_dot^{m+1}, so every temporary is one block; a state without
    a cached next level first takes the Taylor bootstrap.

    Ownership: a state made by step hands its arrays on.  Stepping it writes
    psi^{m+2} over its psi_dot and psi_dot^{m+1} over its psi, so its sample
    must not be used afterwards, and a step-made state is stepped at most
    once; in steady state a step allocates only block scratch.  A state the
    caller built (no cached next level) is never written: its first step
    allocates the three arrays of the new state.  After NonFinite the stepped
    state is invalid.

    Raises ValueError unless dt > 0, CflViolation when dt > 0.5 min h_j, and
    NonFinite (failing time attached) when the update leaves the finite range.
    """
    grid = state.sample.grid
    _check_step(grid, dt)

    psi = state.sample.psi
    t = state.sample.time
    coeffs = [dt * dt / (h * h) for h in grid.spacing]
    blocks = row_blocks(psi)
    scratch = np.empty((2,) + psi[blocks[0]].shape, dtype=complex)
    # blow-up produces inf/nan mid-update before the explicit check below;
    # keep numpy quiet about it
    with np.errstate(invalid="ignore", over="ignore"):
        if state._psi_next is None:
            cur = np.empty(psi.shape, dtype=complex)
            for rows in blocks:
                half, tmp = scratch[:, :rows.stop - rows.start]
                _kernel(psi, spec, coeffs, grid.mirrored, dt, rows, half, tmp)
                half *= 0.5
                np.multiply(state.sample.psi_dot[rows], dt, out=cur[rows])
                cur[rows] += half
            ahead = np.empty(psi.shape, dtype=complex)
            psi_dot = np.empty(psi.shape, dtype=complex)
        else:
            # the ring: psi^{m+2} over psi_dot^m, psi_dot^{m+1} over psi^m
            cur, ahead, psi_dot = state._psi_next, state.sample.psi_dot, psi

        tmp = scratch[1]
        for rows in blocks:
            nxt = ahead[rows]
            _kernel(cur, spec, coeffs, grid.mirrored, dt, rows, nxt,
                    tmp[:rows.stop - rows.start])
            nxt -= psi[rows]
            if not np.isfinite(nxt.view(float)).all():
                raise NonFinite(f"field became non-finite at t={t + 2 * dt:.6g}",
                                time=t + 2 * dt)
            # psi[rows] is read here for the last time before psi_dot may
            # overwrite it
            np.subtract(nxt, psi[rows], out=psi_dot[rows])
            psi_dot[rows] *= 0.5 / dt

    new_sample = FieldSample(grid=grid, time=t + dt, psi=cur, psi_dot=psi_dot)
    return EvolutionState(
        sample=new_sample,
        diagnostics=state.diagnostics,
        snapshots=state.snapshots,
        _psi_next=ahead,
    )


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
    step_count), a stride below 1 or a snapshot_stride without a snapshot_dir
    raises ValueError, and a dt beyond the CFL bound raises CflViolation,
    before anything is recorded or written."""
    if not t_final >= 0:
        raise ValueError(f"need t_final >= 0, got {t_final}")
    for name, stride in (("diag_stride", diag_stride), ("snapshot_stride", snapshot_stride)):
        if stride is not None and stride < 1:
            raise ValueError(f"{name} must be >= 1, got {stride}")
    if snapshot_stride is not None and snapshot_dir is None:
        raise ValueError("snapshot_stride needs a snapshot_dir")
    _check_step(initial.grid, dt)
    n_steps = step_count(t_final, dt)
    state = EvolutionState(initial)

    def record(st):
        st.diagnostics.append(DiagnosticPoint(
            time=st.sample.time,
            energy=measure_energy(st.sample, spec),
            momentum=measure_momentum(st.sample),
            center_of_energy=center_of_energy(st.sample, spec),
        ))

    def snapshot(st, m):
        if snapshot_stride is not None and m % snapshot_stride == 0:
            name = f"snapshot_{m:08d}.bin"
            save_sample(st.sample, os.path.join(os.fspath(snapshot_dir), name))
            st.snapshots.append(name)

    record(state)
    snapshot(state, 0)
    for m in range(1, n_steps + 1):
        state = step(state, spec, dt)
        if m % diag_stride == 0 or m == n_steps:
            record(state)
        snapshot(state, m)
    return state


def diagnostics_to_csv(diagnostics: list[DiagnosticPoint], path) -> None:
    n = diagnostics[0].momentum.size if diagnostics else 0
    header = (["time", "E"] + [f"P{j+1}" for j in range(n)]
              + [f"X{j+1}" for j in range(n)])
    write_csv(path, header, ([d.time, d.energy, *d.momentum, *d.center_of_energy]
                             for d in diagnostics))
