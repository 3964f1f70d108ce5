"""Second-order stencils, periodic or mirrored per axis, applied one block of
rows at a time.

Every grid kernel walks the field in blocks of whole rows along axis 0, each
about BLOCK_BYTES of the field, so the temporaries of one block stay in cache
while the block is finished.  The stencils read the neighbours of the block
from the full array and write through slices into a caller-supplied,
C-contiguous out of the block's shape, so no shifted copy of the whole field
is ever made.  On a periodic axis the end cells i = 0 and i = N - 1 take
their outside neighbour from the other end.  On a mirrored axis the stored
cells are the upper half of a field even about the cell face below cell 0,
so each end cell is its own outside neighbour: below cell 0 by the mirror,
and above cell N - 1 because the full grid's periodic wrap reaches the
mirror image of cell N - 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BLOCK_BYTES",
    "row_blocks",
    "neighbour_sum",
    "neighbour_difference",
]

BLOCK_BYTES = 256 * 1024


def row_blocks(field: np.ndarray) -> list[slice]:
    """Slices [i0, i1) of axis 0 covering it in order, each block of rows
    holding about BLOCK_BYTES of field (at least one row)."""
    n = field.shape[0]
    rows = max(1, BLOCK_BYTES // (field.itemsize * math.prod(field.shape[1:])))
    return [slice(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _shifted_pair(op, psi: np.ndarray, axis: int, rows: slice, out: np.ndarray,
                  mirrored: bool) -> np.ndarray:
    """out = op(psi[i + 1], psi[i - 1]) with i running along axis, under
    periodic wrap or, when mirrored, with each end cell its own outside
    neighbour, for the rows of axis 0 in rows."""
    i0, i1 = rows.start, rows.stop
    n = psi.shape[axis]
    # the outside neighbours of cells 0 and n - 1
    below, above = (0, n - 1) if mirrored else (n - 1, 0)
    if axis == 0:
        lo = 1 if i0 == 0 else 0              # row 0 takes its i - 1 from row below
        hi = i1 - i0 - (1 if i1 == n else 0)  # row n - 1 takes its i + 1 from row above
        op(psi[i0 + lo + 1:i0 + hi + 1], psi[i0 + lo - 1:i0 + hi - 1], out=out[lo:hi])
        if i0 == 0:
            op(psi[1:2], psi[below:below + 1], out=out[:1])
        if i1 == n:
            op(psi[above:above + 1], psi[n - 2:n - 1], out=out[-1:])
        return out
    # along a later axis, one shift of the flattened block by the axis stride
    # is right everywhere except on the two boundary slabs, rewritten below
    block = psi[rows]
    stride = math.prod(psi.shape[axis + 1:])
    flat = block.reshape(-1)
    op(flat[2 * stride:], flat[:flat.size - 2 * stride],
       out=np.reshape(out, -1, copy=False)[stride:flat.size - stride])

    def cols(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    op(block[cols(1, 2)], block[cols(below, below + 1)], out=out[cols(0, 1)])
    op(block[cols(above, above + 1)], block[cols(n - 2, n - 1)], out=out[cols(n - 1, n)])
    return out


def neighbour_sum(psi: np.ndarray, axis: int, rows: slice, out: np.ndarray,
                  mirrored: bool = False) -> np.ndarray:
    """psi[i + 1] + psi[i - 1] along axis (periodic, or mirrored at both
    ends), over the given rows."""
    return _shifted_pair(np.add, psi, axis, rows, out, mirrored)


def neighbour_difference(psi: np.ndarray, axis: int, rows: slice, out: np.ndarray,
                         mirrored: bool = False) -> np.ndarray:
    """psi[i + 1] - psi[i - 1] along axis (periodic, or mirrored at both
    ends), over the given rows; the centered difference is this over 2 h, a
    scale the callers fold into their sums."""
    return _shifted_pair(np.subtract, psi, axis, rows, out, mirrored)

