"""Block-wise CSV output shared by every table this package writes.

The bytes equal what :mod:`csv`'s default writer produces for the same
fields: ``\\r\\n`` line ends, floats as their shortest round-trip ``repr``
and integers in decimal.
"""

from __future__ import annotations

import numpy as np

from .streams import CHUNK_PATHS


def write_csv(path, header, columns) -> None:
    """Write ``header``, then one row per index of ``columns``.

    Each column is an array of one length, 1-D for one field or 2-D for one
    field per column; float, integer and string (object) fields must not
    need quoting.  Each block of ``CHUNK_PATHS`` rows is formatted by one
    ``%`` operation over the block's values in row order, so no Python runs
    per row and memory stays bounded.  The values come from each field's
    ``tolist``, interleaved column by column into one flat list, with no
    object array in between.
    """
    fields = [np.asarray(c).reshape(len(c), -1) for c in columns]
    width, rows = sum(f.shape[1] for f in fields), len(fields[0])
    row_fmt = ",".join(["%s"] * width) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, CHUNK_PATHS):
            count = min(CHUNK_PATHS, rows - start)
            # Python floats and ints: their str is the csv module's repr.
            block = (c for f in fields for c in f[start : start + count].T.tolist())
            flat = [None] * (count * width)
            for at, column in enumerate(block):
                flat[at::width] = column
            fh.write((row_fmt * count) % tuple(flat))
