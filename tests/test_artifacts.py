import csv
import io
import math
import stat

import numpy as np
import pytest

from solwave.artifacts import atomic_write, write_csv


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
