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

import numpy as np

__all__ = ["atomic_write", "write_csv", "write_json"]

CSV_CHUNK_ROWS = 512  # rows per %-operation of write_csv


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
    """The header row, then one row per record of len(header) floats.

    records is an iterable of rows or a 2D array.  Each float is written
    "%.17g" (17 significant digits, enough to read back the same float),
    fields are separated by "," and every row, the header's too, ends in
    "\r\n": the bytes csv.writer's default dialect gives.  The records are
    taken as one float64 table, and each chunk of CSV_CHUNK_ROWS rows is
    formatted in one %-operation on its tolist() floats, so the formatted
    text never holds more than one chunk.  Raises ValueError when a record
    is not len(header) numbers.
    """
    table = np.asarray(records if isinstance(records, np.ndarray) else list(records),
                       dtype=float)
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"expected records of {len(header)} numbers, "
                         f"got a table of shape {table.shape}")
    row = ",".join(["%.17g"] * len(header)) + "\r\n"

    def write(fh):
        csv.writer(fh).writerow(header)
        for i in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[i:i + CSV_CHUNK_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))

    atomic_write(path, write)


def write_json(path, obj) -> None:
    """obj as indented JSON with a trailing newline."""
    atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))
