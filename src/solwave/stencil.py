"""Periodic second-order stencils, applied one block of rows at a time.

Every grid kernel walks the field in blocks of whole rows along axis 0, each
about BLOCK_BYTES of the field, so the temporaries of one block stay in cache
while the block is finished.  The stencils read the neighbours of the block
from the full array (the wrap rows i = 0 and i = N - 1 take theirs from the
other end) and write through slices into a caller-supplied, C-contiguous out
of the block's shape, so no shifted copy of the whole field is ever made.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BLOCK_BYTES",
    "row_blocks",
    "neighbour_sum",
    "neighbour_difference",
    "abs_sq",
]

BLOCK_BYTES = 256 * 1024


def row_blocks(field: np.ndarray) -> list[slice]:
    """Slices [i0, i1) of axis 0 covering it in order, each block of rows
    holding about BLOCK_BYTES of field (at least one row)."""
    n = field.shape[0]
    rows = max(1, BLOCK_BYTES // (field.itemsize * math.prod(field.shape[1:])))
    return [slice(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _shifted_pair(op, psi: np.ndarray, axis: int, rows: slice, out: np.ndarray) -> np.ndarray:
    """out = op(psi[i + 1], psi[i - 1]) with i running along axis, under
    periodic wrap, for the rows of axis 0 in rows."""
    i0, i1 = rows.start, rows.stop
    if axis == 0:
        n = psi.shape[0]
        lo = 1 if i0 == 0 else 0              # row 0 takes its i - 1 from row n - 1
        hi = i1 - i0 - (1 if i1 == n else 0)  # row n - 1 takes its i + 1 from row 0
        op(psi[i0 + lo + 1:i0 + hi + 1], psi[i0 + lo - 1:i0 + hi - 1], out=out[lo:hi])
        if i0 == 0:
            op(psi[1:2], psi[n - 1:], out=out[:1])
        if i1 == n:
            op(psi[:1], psi[n - 2:n - 1], out=out[-1:])
        return out
    # along a later axis, one shift of the flattened block by the axis stride
    # is right everywhere except on the two boundary slabs, rewritten below
    block = psi[rows]
    n, stride = psi.shape[axis], math.prod(psi.shape[axis + 1:])
    flat = block.reshape(-1)
    op(flat[2 * stride:], flat[:flat.size - 2 * stride],
       out=np.reshape(out, -1, copy=False)[stride:flat.size - stride])

    def cols(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    op(block[cols(1, 2)], block[cols(n - 1, n)], out=out[cols(0, 1)])
    op(block[cols(0, 1)], block[cols(n - 2, n - 1)], out=out[cols(n - 1, n)])
    return out


def neighbour_sum(psi: np.ndarray, axis: int, rows: slice, out: np.ndarray) -> np.ndarray:
    """psi[i + 1] + psi[i - 1] along axis (periodic), over the given rows."""
    return _shifted_pair(np.add, psi, axis, rows, out)


def neighbour_difference(psi: np.ndarray, axis: int, rows: slice, out: np.ndarray) -> np.ndarray:
    """psi[i + 1] - psi[i - 1] along axis (periodic), over the given rows;
    the centered difference is this over 2 h, a scale the callers fold into
    their sums."""
    return _shifted_pair(np.subtract, psi, axis, rows, out)


def abs_sq(z) -> np.ndarray:
    """|z|^2 as re^2 + im^2, without the hypot (and its square root) that
    np.abs(z)**2 takes first.  np.square of a strided real or imaginary part
    is faster than multiplying it by itself."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.square(z)
    out = np.square(z.real)
    out += np.square(z.imag)
    return out
