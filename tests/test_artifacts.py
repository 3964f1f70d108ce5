import stat

import pytest

from solwave.artifacts import atomic_write


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
