"""Collects acceptance verdict lines and prints them after the run, and
holds the helpers only the tests use: the ``row-stack`` tape op, the
op-by-op oracles of the module pool's dispatch and the greyscale image
reader."""

import numpy as np

from modnet.autodiff import ShapeError, Tensor, _as_tensor, _emit, add, mul, relu, slice_last

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


def stack_rows(xs) -> Tensor:
    """Join tensors along the first axis; trailing shapes must agree."""
    ts = [_as_tensor(x) for x in xs]
    if not ts:
        raise ShapeError("row-stack: no inputs")
    tail = ts[0].shape[1:]
    for t in ts:
        if t.ndim < 1 or t.shape[1:] != tail:
            raise ShapeError(
                f"row-stack: trailing shapes differ: {[t.shape for t in ts]}"
            )
    out = np.concatenate([t.data for t in ts], axis=0)
    offsets = np.cumsum([0] + [t.shape[0] for t in ts])

    def make_pull(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[lo:hi]

    return _emit("row-stack", out, ts, [make_pull(i) for i in range(len(ts))])


def pool_module(pool, j, x):
    """Module j of ``pool`` alone on x, rectified for ``linear-relu``, as
    ``Linear`` computes it: a plain array in gives a plain array out, a
    ``Tensor`` in a ``Tensor`` out.  The oracle of each slice of
    ``ModulePool.apply``'s stacked call."""
    h = pool.modules[j](x)
    return relu(h) if pool.kind == "linear-relu" else h


def pool_combine(pool, x, weights, used):
    """Outputs on x of the modules ``used``, each scaled by its column of
    the (batch, modules) ``weights`` and summed, taped op by op: a
    ``matmul``, ``add``, ``elementwise-mul`` and slice per used module and
    an ``add`` to join each term.  Modules outside ``used`` are never run.
    The oracle of ``ModulePool.select``'s one ``pool-combine`` record."""
    out = None
    for j in used:
        term = mul(pool_module(pool, int(j), x), slice_last(weights, int(j), int(j) + 1))
        out = term if out is None else add(out, term)
    return out


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
