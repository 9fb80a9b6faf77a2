"""tools/bitcheck.py's table comparison: .npy against .npy bit for bit, and
a CSV against its .npy by value."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from stablemix.csvio import write_csv, write_table

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", _TOOL)
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)

HEADER = ["path_id", "x_0", "x_1"]


@pytest.fixture
def columns():
    ids = np.arange(6)
    x = np.array([[0.1, -0.0], [np.inf, 5e-324], [np.nan, 1e300],
                  [-np.inf, 2.0], [3.0, 0.0], [1.7976931348623157e308, -1.5]])
    return [ids, x]


def write(tmp_path, name, columns):
    path = str(tmp_path / name)
    (write_csv if name.endswith(".csv") else write_table)(path, HEADER, columns)
    return path


def test_csv_and_npy_of_the_same_values(tmp_path, columns):
    found = bitcheck.compare_tables(
        write(tmp_path, "t.csv", columns), write(tmp_path, "t.npy", columns), 10
    )
    assert found == ["format .csv -> .npy, 6 rows x 3 fields: every value unchanged"]


def test_identical_npy_tables(tmp_path, columns):
    old = write(tmp_path, "a.npy", columns)
    assert bitcheck.compare_tables(old, write(tmp_path, "b.npy", columns), 10) == []


def test_npy_tables_compare_bits(tmp_path, columns):
    old = write(tmp_path, "a.npy", columns)
    ids, x = columns
    x = x.copy()
    x[0, 1] = 0.0  # was -0.0
    x[2, 0] = np.array(0x7FF8_0000_0000_0001, dtype=np.uint64).view(np.float64)
    x[5, 1] = np.nextafter(-1.5, -2.0)
    found = bitcheck.compare_tables(old, write(tmp_path, "b.npy", [ids, x]), 10)
    assert found[0].startswith("3 of 18 values differ (6 rows x 3 fields); ")
    # A zero's sign and a nan payload change by no finite relative amount.
    assert found[0].endswith("largest change 2.22e-16 absolute, inf relative")
    assert "row 0, x_1: -0.0 -> 0.0" in found


def test_csv_against_npy_by_value(tmp_path, columns):
    old = write(tmp_path, "t.csv", columns)
    ids, x = columns
    x = x.copy()
    x[2, 0] = -np.nan  # text has no nan sign: still equal
    x[0, 1] = 0.0  # was -0.0: a zero's sign counts
    x[3, 1] = 2.5
    found = bitcheck.compare_tables(old, write(tmp_path, "t.npy", [ids, x]), 10)
    assert found == [
        "2 of 18 values differ (6 rows x 3 fields, format .csv -> .npy); "
        "largest change 0.5 absolute, inf relative",
        "row 0, x_1: -0.0 -> 0.0",
        "row 3, x_1: 2.0 -> 2.5",
    ]


def test_field_names_must_agree(tmp_path, columns):
    old = write(tmp_path, "t.csv", columns)
    new = str(tmp_path / "t.npy")
    write_table(new, ["path_id", "y_0", "y_1"], columns)
    assert bitcheck.compare_tables(old, new, 10) == [
        "fields ['path_id', 'x_0', 'x_1'] -> ['path_id', 'y_0', 'y_1']"
    ]


def test_format_pairs():
    assert bitcheck._format_pairs(
        {"lemma.csv", "paths.csv", "x.json"}, {"lemma.npy", "other.npy"}
    ) == [("lemma.csv", "lemma.npy")]


def test_csv_lines_size_a_change_to_nan_as_relatively_infinite():
    old, new = [b"x_0,x_1", b"1.5,2.0"], [b"x_0,x_1", b"nan,2.5"]
    assert bitcheck._largest_change(old, new, [1]) == (0.5, math.inf)


def test_npy_dtypes_must_agree(tmp_path, columns):
    old = write(tmp_path, "a.npy", columns)
    ids, x = columns
    new = write(tmp_path, "b.npy", [ids.astype(np.float64), x])
    assert bitcheck.compare_tables(old, new, 10) == [
        "dtypes ['<i8', '<f8', '<f8'] -> ['<f8', '<f8', '<f8']"
    ]
