"""Table writers: the block-wise CSV writer is byte-identical to the csv
module with exact round trips across block boundaries; the ``.npy`` writer
keeps field names and exact bits."""

import csv
import io

import numpy as np
import pytest

from stablemix import streams
from stablemix.csvio import write_csv, write_table

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


@pytest.mark.parametrize("n", [10, streams.CHUNK_PATHS + 3])
def test_mixed_numeric_and_object_columns(tmp_path, n):
    # Numeric fields of three dtypes beside an object field holding Python
    # floats, ints and strings.
    values = [-0.0, 5e-324, 1e300, np.inf, -np.inf, 0.1]
    floats = np.resize(np.array(values), n)
    small = np.resize(np.array([-7, 0, 2**31 - 1], dtype=np.int32), n)
    wide = np.array([[-(2**62), 3], [5, 2**63 - 1]], dtype=np.int64)
    wide = np.resize(wide, (n, 2))
    mixed = np.resize(np.array(values + [3, -2**70, "", "x"], dtype=object), n)
    header = ["f", "i32", "i64_0", "i64_1", "obj"]
    columns = [floats, small, wide, mixed]
    path = tmp_path / "mixed.csv"
    write_csv(path, header, columns)

    rows = zip(floats.tolist(), small.tolist(), wide.tolist(), mixed.tolist())
    oracle = csv_module_bytes(header, ([f, i, *w, o] for f, i, w, o in rows))
    assert path.read_bytes() == oracle
    lines = oracle.split(b"\r\n")
    assert lines[1] == b"-0.0,-7,-4611686018427387904,3,-0.0"
    assert lines[2] == b"5e-324,0,5,9223372036854775807,5e-324"
    assert lines[3] == b"1e+300,2147483647,-4611686018427387904,3,1e+300"
    assert lines[10] == b"inf,-7,5,9223372036854775807,x"


@pytest.mark.parametrize(
    "n", [streams.CHUNK_PATHS - 1, streams.CHUNK_PATHS, streams.CHUNK_PATHS + 1]
)
def test_table_keeps_names_dtypes_and_bits(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    floats[: len(SPECIAL), 0] = SPECIAL
    floats[-len(SPECIAL) :, 1] = SPECIAL
    floats[1, 1] = -np.nan
    # A nan with a payload: text could never carry it.
    floats[2, 1] = np.array(0x7FF8_0000_0000_BEEF, dtype=np.uint64).view(np.float64)
    ids = np.arange(n)
    small = rng.integers(-5, 10**6, n).astype(np.int32)
    wide = np.resize(np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64), n)
    header = ["path_id", "x_0", "x_1", "count", "wide"]
    path = tmp_path / "out.npy"
    write_table(path, header, [ids, floats, small, wide])

    table = np.load(path, allow_pickle=False)
    assert table.dtype.names == tuple(header)
    assert [table.dtype[name] for name in header] == [
        np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.float64),
        np.dtype(np.int64), np.dtype(np.int64),
    ]
    assert table.shape == (n,)
    for name, want in (("x_0", floats[:, 0]), ("x_1", floats[:, 1])):
        assert np.array_equal(table[name].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(table["path_id"], ids)
    assert np.array_equal(table["count"], small)
    assert np.array_equal(table["wide"], wide)


def test_table_writes_at_the_path_given(tmp_path):
    # np.save on a bare name would append ".npy".
    path = tmp_path / "lemma"
    write_table(path, ["x_0"], [np.array([1.0, -0.0])])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lemma"]
    assert np.signbit(np.load(path)["x_0"]).tolist() == [False, True]


def test_table_header_must_name_every_field(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.npy", ["x_0"], [np.zeros((3, 2))])
