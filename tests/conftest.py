"""Collects acceptance verdict lines and prints them after the run, and
reads back the greyscale images the diagnostics write.  The oracles the
package is checked against live in ``oracles``."""

import numpy as np

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    fields: list[bytes] = []
    i = 0
    while len(fields) < 4:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(blob) and not blob[j : j + 1].isspace():
            j += 1
        fields.append(blob[i:j])
        i = j
    if fields[0] != b"P5":
        raise ValueError(f"not a binary greyscale file: magic {fields[0]!r}")
    cols, rows, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"expected 8-bit data, maxval {maxval}")
    start = i + 1
    data = np.frombuffer(blob[start : start + rows * cols], dtype=np.uint8)
    if data.size != rows * cols:
        raise ValueError("truncated pixel data")
    return data.reshape(rows, cols).copy()
