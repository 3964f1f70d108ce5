import csv
import io
import math
import stat
import tracemalloc

import numpy as np
import pytest

from solwave.artifacts import CSV_CHUNK_ROWS, atomic_write, write_csv
from solwave.radial import save_wave


class Interrupted(RuntimeError):
    pass


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("previous", [None, "old contents\n"])
def test_failed_write_leaves_no_trace(tmp_path, binary, previous):
    target = tmp_path / "artifact.out"
    if previous is not None:
        target.write_text(previous)

    def write(fh):
        fh.write(b"partial" if binary else "partial")
        fh.flush()
        raise Interrupted

    with pytest.raises(Interrupted):
        atomic_write(target, write, binary=binary)
    # no temporary file is left behind, and the target is untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if previous is None else ["artifact.out"])
    if previous is not None:
        assert target.read_text() == previous


def test_completed_write_replaces_target(tmp_path):
    target = tmp_path / "artifact.out"
    target.write_text("old\n")
    atomic_write(target, lambda fh: fh.write("new\n"))
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.out"]


def test_new_file_gets_default_permissions(tmp_path):
    plain = tmp_path / "plain.out"
    plain.write_text("x")
    target = tmp_path / "artifact.out"
    atomic_write(target, lambda fh: fh.write("x"))
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_write_csv_bytes(tmp_path):
    # the bytes of csv.writer with every float formatted f"{x:.17g}": float,
    # numpy and int fields, signed zeros, subnormals and non-finite values
    header = ["r", "R", "dR"]
    records = [(0.1, -0.0, 1), (np.float64(2.5e-320), -1.0 / 3.0, math.inf),
               (np.nextafter(1.0, 2.0), math.nan, -1e300)]
    target = tmp_path / "table.csv"
    write_csv(target, header, iter(records))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for record in records:
        writer.writerow([f"{x:.17g}" for x in record])
    assert target.read_bytes() == expected.getvalue().encode()
    assert target.read_bytes().startswith(b"r,R,dR\r\n0.10000000000000001,-0,1\r\n")


def _row_by_row(header, records):
    """The bytes of csv.writer with every float formatted f"{x:.17g}"."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for record in records:
        writer.writerow([f"{x:.17g}" for x in record])
    return expected.getvalue().encode()


@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                  CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 7])
@pytest.mark.parametrize("kind", ["iterator", "list", "ndarray"])
def test_write_csv_chunks_match_row_by_row(tmp_path, rows, kind):
    # floats over the whole exponent range, signed zeros, subnormals and
    # non-finite values, around the chunk boundaries
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    specials = [-0.0, 0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1.0]
    table.ravel()[: min(table.size, len(specials))] = specials[: table.size]
    header = ["a", "b", "c", "d"]
    records = {"iterator": lambda: iter(map(tuple, table)),
               "list": lambda: [list(row) for row in table.tolist()],
               "ndarray": lambda: table}[kind]()
    target = tmp_path / "table.csv"
    write_csv(target, header, records)
    assert target.read_bytes() == _row_by_row(header, table.tolist())


@pytest.mark.parametrize("records", [[(1.0, 2.0)], np.zeros((2, 4)), [(1.0, 2.0, 3.0, 4.0)]])
def test_write_csv_rejects_records_off_the_header(tmp_path, records):
    target = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="records of 3 numbers"):
        write_csv(target, ["r", "R", "dR"], records)
    assert not target.exists()


def test_saving_the_demo_wave_formats_in_chunks(tmp_path, wave_1d):
    # the demo's wave has 9,560 rows; one %-operation over them all peaked
    # at 2.0 MB traced, against 0.38 MB for the float64 table (0.23 MB) and
    # one chunk at a time
    assert wave_1d.profile.r_grid.size > 10 * CSV_CHUNK_ROWS
    save_wave(wave_1d, tmp_path / "wave.csv", tmp_path / "wave.json")  # warm up
    tracemalloc.start()
    try:
        save_wave(wave_1d, tmp_path / "wave.csv", tmp_path / "wave.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6
