import csv
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavrelay.output import write_csv, write_json

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_subnormal=True).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf]),
)
# a carriage return is rejected (see test_write_csv_rejects_carriage_return)
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))
CELLS = st.one_of(FLOATS, st.integers(), TEXT)


def read_back(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def same_float(a: float, b: float) -> bool:
    # text keeps no NaN payload or sign: any NaN reads back as nan
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=5))
def test_write_csv_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["a", "b,c", 'd"e'], rows)
    header, *got = read_back(path)
    assert header == ["a", "b,c", 'd"e']
    assert len(got) == len(rows)
    for row, back in zip(rows, got):
        assert len(back) == len(row)
        for cell, text in zip(row, back):
            if isinstance(cell, (float, np.floating)):
                assert same_float(float(cell), float(text)), (cell, text)
            elif isinstance(cell, int):
                assert int(text) == cell
            else:
                assert text == cell


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [[0.1], [np.float64(1e-7)], [np.float32(0.5)], [3], [np.int64(4)],
                            ["s"], [float("nan")], [-0.0]])
    assert path.read_bytes() == b"x\n0.1\n1e-07\n0.5\n3\n4\ns\nnan\n-0.0\n"


def test_write_json_layout(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"a": [1, 2.5]})
    assert path.read_bytes() == b'{\n "a": [\n  1,\n  2.5\n ]\n}\n'
    assert json.loads(path.read_text()) == {"a": [1, 2.5]}


@pytest.mark.parametrize("cell", ["\r", "a\rb", "x\r\n"])
def test_write_csv_rejects_carriage_return(tmp_path, cell):
    with pytest.raises(ValueError, match="carriage return"):
        write_csv(tmp_path / "t.csv", ["x"], [[cell]])
