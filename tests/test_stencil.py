"""Oracle tests for the blocked periodic stencils.

A periodic plane wave exp(i k.x) is an eigenfunction of both stencils:

    psi[i + 1] + psi[i - 1] = 2 cos(k_j h_j) psi          (along axis j)
    Lap_h psi = -sum_j (2 - 2 cos(k_j h_j)) / h_j^2 psi
    psi[i + 1] - psi[i - 1] = 2 i sin(k_j h_j) psi

The grids have unequal spacings and a row count that is not a multiple of
the block rows, so every case crosses both wrap rows and a ragged last
block.  Each output starts as NaN, so a row a stencil leaves unwritten fails.
A mirrored axis is checked against np.pad's "symmetric" mode, which repeats
each end cell as its outside neighbour.
"""

import numpy as np
import pytest

from solwave.stencil import BLOCK_BYTES, neighbour_difference, neighbour_sum, row_blocks

# shape, spacing, mode numbers
CASES = {
    "2d": ((600, 64), (0.1, 0.13), (7, 5)),              # blocks of 256 rows: 256, 256, 88
    "3d": ((300, 16, 16), (0.2, 0.15, 0.25), (3, 5, 2)),  # blocks of 64 rows: 4 x 64, 44
}


def plane_wave(shape, spacing, modes):
    """exp(i k.x) at x_j = i_j h_j with k_j = 2 pi m_j / (N_j h_j); each
    factor's phase is reduced mod 2 pi in integers, so psi is exact to
    rounding."""
    k = [2 * np.pi * m / (n * h) for n, h, m in zip(shape, spacing, modes)]
    psi = np.ones(shape, dtype=complex)
    for axis, (n, m) in enumerate(zip(shape, modes)):
        factor = np.exp(2j * np.pi * (m * np.arange(n) % n) / n)
        psi = psi * factor.reshape([-1 if j == axis else 1 for j in range(len(shape))])
    return psi, k


def blocked(psi, kernel):
    out = np.full_like(psi, np.nan)
    for rows in row_blocks(psi):
        kernel(rows, out[rows])
    return out


@pytest.fixture(params=sorted(CASES))
def case(request):
    shape, spacing, modes = CASES[request.param]
    psi, k = plane_wave(shape, spacing, modes)
    return psi, spacing, k


def test_blocks_are_ragged(case):
    psi, _, _ = case
    blocks = row_blocks(psi)
    sizes = [rows.stop - rows.start for rows in blocks]
    assert len(sizes) > 2 and sizes[-1] < sizes[0]
    assert [rows.start for rows in blocks] == [0, *np.cumsum(sizes)[:-1]]
    assert blocks[-1].stop == psi.shape[0]
    assert sizes[0] * psi[0].nbytes == BLOCK_BYTES


def test_neighbour_sum_and_laplacian(case):
    psi, spacing, k = case
    lap = np.zeros_like(psi)
    for axis, (h, kj) in enumerate(zip(spacing, k)):
        nsum = blocked(psi, lambda rows, out: neighbour_sum(psi, axis, rows, out=out))
        np.testing.assert_allclose(nsum, 2 * np.cos(kj * h) * psi, rtol=0, atol=1e-12)
        lap += (nsum - 2 * psi) / (h * h)
    symbol = -sum((2 - 2 * np.cos(kj * h)) / (h * h) for h, kj in zip(spacing, k))
    np.testing.assert_allclose(lap, symbol * psi, rtol=0, atol=1e-12 * abs(symbol))


def test_neighbour_difference(case):
    psi, spacing, k = case
    for axis, (h, kj) in enumerate(zip(spacing, k)):
        d = blocked(psi, lambda rows, out: neighbour_difference(psi, axis, rows, out=out))
        np.testing.assert_allclose(d, 2j * np.sin(kj * h) * psi, rtol=0, atol=1e-12)


def test_wrap_rows_read_the_far_end():
    # row 0 and row n - 1 are neighbours: a field that is nonzero only on
    # row n - 1 shows up in row 0 of the first block and nowhere else
    psi = np.zeros((600, 64), dtype=complex)
    psi[-1] = 1.0
    rows = row_blocks(psi)[0]
    out = neighbour_sum(psi, 0, rows, out=np.full_like(psi[rows], np.nan))
    assert np.all(out[0] == 1.0) and np.all(out[1:] == 0.0)


def test_one_dimensional_demo_grid_is_one_block():
    # the 1D demo grid (about 5k cells) runs as a single block
    assert row_blocks(np.zeros(6000, dtype=complex)) == [slice(0, 6000)]


def test_out_must_be_a_contiguous_block():
    psi = np.ones((8, 6), dtype=complex)
    out = np.empty((6, 8), dtype=complex).T
    with pytest.raises(ValueError):
        neighbour_sum(psi, 1, slice(0, 8), out=out)


# shape, mirrored axis; the row ranges start at 0, lie inside and end at N
MIRROR_CASES = [((40, 12), 1), ((40, 12), 0), ((20, 7, 9), 1), ((20, 7, 9), 2)]


@pytest.mark.parametrize("shape,axis", MIRROR_CASES)
@pytest.mark.parametrize("stencil,op", [(neighbour_sum, np.add),
                                        (neighbour_difference, np.subtract)],
                         ids=["sum", "difference"])
def test_mirrored_axis_matches_symmetric_padding(shape, axis, stencil, op):
    # a mirrored axis holds the upper half of an even field: each end cell
    # is its own outside neighbour, as np.pad's "symmetric" mode repeats it
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pad = [(1, 1) if j == axis else (0, 0) for j in range(psi.ndim)]
    padded = np.pad(psi, pad, mode="symmetric")
    n = shape[axis]
    want = op(np.take(padded, range(2, n + 2), axis), np.take(padded, range(n), axis))
    for rows in (slice(0, 7), slice(5, 16), slice(13, shape[0])):
        out = stencil(psi, axis, rows, out=np.full_like(psi[rows], np.nan), mirrored=True)
        np.testing.assert_array_equal(out, want[rows])
    # the periodic stencil reads the far end instead, so it differs at the ends
    periodic = blocked(psi, lambda rows, out: stencil(psi, axis, rows, out=out))
    assert not np.array_equal(periodic, want)
