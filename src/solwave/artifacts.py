"""Atomic artifact writes: every file the package writes appears complete or
not at all.

Each writer streams into a temporary file beside the target and renames it
over the target only after the write returned; a write that raises removes
the temporary file and leaves the target as it was.  Text is written with
newline="" so the bytes are the same on every platform.
"""

from __future__ import annotations

import csv
import json
import os
import secrets

__all__ = ["atomic_write", "write_csv", "write_json"]


def atomic_write(path, write, binary: bool = False) -> None:
    """Call write(fh) on an open temporary file, then move it to path."""
    directory, name = os.path.split(os.path.abspath(path))
    # created like any new file (umask permissions, unlike tempfile.mkstemp)
    tmp = os.path.join(directory, f".tmp_{secrets.token_hex(8)}_{name}")
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", newline="")) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, records) -> None:
    """A header row, then one row per record of floats at full precision."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            writer.writerow([f"{x:.17g}" for x in record])

    atomic_write(path, write)


def write_json(path, obj) -> None:
    """obj as indented JSON with a trailing newline."""
    atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))
