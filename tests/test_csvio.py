"""Block-wise CSV writer: byte-identical to the csv module and exact
round trips across block boundaries."""

import csv
import io

import numpy as np
import pytest

from stablemix import streams
from stablemix.csvio import write_csv

SPECIAL = [
    np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
    1.7976931348623157e308, 0.1, 1e16, 1e-5, 123456789.0,
]


def csv_module_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "n", [streams.CHUNK_PATHS - 1, streams.CHUNK_PATHS, streams.CHUNK_PATHS + 1]
)
def test_matches_csv_module_and_round_trips(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    floats[: len(SPECIAL), 0] = SPECIAL
    floats[-len(SPECIAL) :, 1] = SPECIAL
    ints = rng.integers(-5, 10**12, n)
    labels = np.where(rng.random(n) < 0.5, "", "2.5").astype(object)
    header = ["id", "x_0", "x_1", "label"]
    path = tmp_path / "out.csv"
    write_csv(path, header, [ints, floats, labels])

    oracle = csv_module_bytes(
        header,
        (
            [int(i)] + [repr(float(x)) for x in row] + [s]
            for i, row, s in zip(ints, floats, labels)
        ),
    )
    assert path.read_bytes() == oracle

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header and len(rows) == n + 1
    back = np.array([[float(x) for x in r[1:3]] for r in rows[1:]])
    assert np.array_equal(back, floats, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(floats))
    assert np.array_equal([int(r[0]) for r in rows[1:]], ints)
