"""The one output format of every CSV table and JSON document uavrelay writes.

A CSV cell that is a Python or numpy float is written as repr(float(v)), the
shortest text that reads back to the same double (nan, inf and -0.0 too);
any other cell as str(v). A carriage return in a cell is rejected: the csv
module of Python 3.11 leaves it unquoted, so the table would not read back.
"""
from __future__ import annotations

import csv
import json

import numpy as np


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "\r" in text:
        raise ValueError(f"CSV cell {text!r} holds a carriage return")
    return text


def write_csv(path, header, rows) -> None:
    """UTF-8 with LF line endings: the header line, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def write_json(path, doc) -> None:
    """Indented by one space, with a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
