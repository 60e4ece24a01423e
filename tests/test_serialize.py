import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modnet.autodiff import Parameter
from modnet.serialize import (
    MetricsWriter,
    check_like,
    read_checkpoint,
    write_checkpoint,
    write_json_atomic,
)


def sample_state(params):
    pieces = [piece for p in params for piece in p.pieces]
    return {
        "opt": {
            "t": 7,
            "m": {name: np.full_like(view, 0.25) for name, view in pieces},
            "v": {name: np.full_like(view, 0.5) for name, view in pieces},
        },
        "arrays": {
            "buffer_comps": np.array([[1, 0], [2, 1]], dtype=np.int64),
            "buffer_scores": np.array([-np.inf, 3.5]),
        },
        "scalars": {"streak": 0, "total": 2},
    }


def write_sample(path, params, streams_state=None):
    write_checkpoint(
        str(path),
        version="1",
        config={"seed": 4, "trainer": {"kind": "em"}},
        iteration=123,
        streams_state=streams_state or {"seed": 4, "streams": {}},
        params=params,
        trainer_state=sample_state(params),
    )


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    w = Parameter(rng.standard_normal((3, 4)), "layer.w")
    # awkward values: negative zero, denormal, huge, tiny
    b = Parameter(np.array([-0.0, 5e-324, 1e308, -1e-308]), "layer.b")
    # stored as pieces, as a module pool is: one named array per piece
    pool = Parameter(
        np.arange(12.0).reshape(2, 3, 2),
        "pool",
        [(f"pool.m{i}.{part}", (i, ix)) for i in range(2) for part, ix in (("w", slice(2)), ("b", 2))],
    )
    path = tmp_path / "snap.ckpt"
    write_sample(path, [w, b, pool])
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    names = [e["name"] for e in json.loads(blob[16 : 16 + n])["arrays"]]
    pieces = ["layer.w", "layer.b", "pool.m0.w", "pool.m0.b", "pool.m1.w", "pool.m1.b"]
    assert names[:6] == [f"param:{name}" for name in pieces]
    assert names[6:18] == [f"{kind}:{name}" for name in pieces for kind in ("opt_m", "opt_v")]
    back = read_checkpoint(str(path))
    assert back.params["layer.w"].tobytes() == w.data.tobytes()
    assert back.params["layer.b"].tobytes() == b.data.tobytes()
    assert back.params["pool.m1.w"].tobytes() == pool.data[1, :2].tobytes()
    assert np.array_equal(back.params["pool.m1.b"], [10.0, 11.0])
    assert back.opt_m["pool.m0.b"].shape == (2,)
    assert back.iteration == 123
    assert back.version == "1"
    assert back.config["trainer"]["kind"] == "em"
    assert back.opt_t == 7
    assert back.opt_m["layer.w"].shape == (3, 4)
    assert np.all(back.opt_v["layer.b"] == 0.5)
    assert back.trainer_scalars == {"streak": 0, "total": 2}


def test_checkpoint_restores_integer_arrays_exactly(tmp_path):
    p = Parameter(np.zeros(2), "p")
    state = sample_state([p])
    big = 2**53 - 1
    state["arrays"]["buffer_comps"] = np.array([big, -big, 0, 17], dtype=np.int64)
    path = tmp_path / "a.ckpt"
    write_checkpoint(str(path), version="1", config={}, iteration=0,
                     streams_state={}, params=[p], trainer_state=state)
    back = read_checkpoint(str(path))
    comps = back.trainer_arrays["buffer_comps"]
    assert comps.dtype == np.int64
    assert np.array_equal(comps, [big, -big, 0, 17])
    # non-integer score arrays stay float and keep infinities
    assert np.isneginf(back.trainer_arrays["buffer_scores"][0])


@pytest.mark.parametrize("value", [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)])
def test_checkpoint_refuses_integers_doubles_cannot_hold(tmp_path, value):
    p = Parameter(np.zeros(2), "p")
    state = sample_state([p])
    path = tmp_path / "a.ckpt"
    state["arrays"]["buffer_comps"] = np.array([2**53], dtype=np.int64)
    write_state(path, [p], state)
    assert read_checkpoint(str(path)).trainer_arrays["buffer_comps"].tolist() == [2**53]
    state["arrays"]["buffer_comps"] = np.array([value], dtype=np.int64)
    with pytest.raises(ValueError, match="buffer_comps"):
        write_state(tmp_path / "b.ckpt", [p], state)
    assert not (tmp_path / "b.ckpt").exists()


@pytest.mark.parametrize("value", [0.5, -2.5, 2.0**53 + 2, math.inf, math.nan])
def test_checkpoint_refuses_int64_payloads_that_are_not_whole(tmp_path, value):
    # a hand-edited 0.5 used to load as 0 without a word
    p = Parameter(np.zeros(2), "p")
    state = sample_state([p])
    state["arrays"]["buffer_comps"] = np.array([1, 0], dtype=np.int64)
    path = tmp_path / "a.ckpt"
    write_state(path, [p], state)
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    entry = next(
        e for e in json.loads(blob[16 : 16 + n])["arrays"] if e["name"] == "state:buffer_comps"
    )
    assert entry["dtype"] == "int64"
    at = 16 + n + 8 * entry["offset"]
    path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8 :])
    with pytest.raises(ValueError, match="malformed checkpoint.*state:buffer_comps"):
        read_checkpoint(str(path))


# every float64 bit pattern class: NaN, the infinities, -0.0 and denormals included
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# integers the double payload holds exactly (the format's documented range)
EXACT_INTS = st.integers(-(2**53), 2**53)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)


@st.composite
def checkpoint_states(draw):
    """Parameters, then a trainer state with Adam moments of the same
    shapes, int64 and float64 trainer arrays, and JSON scalars."""
    def floats(shape):
        return draw(hnp.arrays(np.float64, shape, elements=FLOATS))

    shapes = draw(st.lists(SHAPES, min_size=1, max_size=3))
    params = [Parameter(floats(shape), f"p{i}") for i, shape in enumerate(shapes)]
    state = {
        "opt": {
            "t": draw(EXACT_INTS.filter(lambda t: t >= 0)),
            "m": {p.name: floats(p.shape) for p in params},
            "v": {p.name: floats(p.shape) for p in params},
        },
        "arrays": {
            "comps": draw(hnp.arrays(np.int64, SHAPES, elements=EXACT_INTS)),
            "scores": floats(draw(SHAPES)),
        },
        "scalars": draw(st.dictionaries(st.text(max_size=4), EXACT_INTS | FLOATS, max_size=3)),
    }
    return params, state


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2e-308, 1e308])


def write_state(path, params, state):
    write_checkpoint(str(path), version="1", config={"seed": 4}, iteration=9,
                     streams_state={"seed": 4, "streams": {}}, params=params,
                     trainer_state=state)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(checkpoint_states())
@example((
    [Parameter(SPECIAL, "w")],
    {
        "opt": {"t": 3, "m": {"w": SPECIAL[::-1].copy()}, "v": {"w": SPECIAL}},
        "arrays": {"comps": np.array([[2**53, -(2**53)], [0, -1]]), "scores": SPECIAL},
        "scalars": {"ema": float("nan"), "hi": float("inf"), "z": -0.0, "streak": 2},
    },
))
def test_checkpoint_write_read_write_is_byte_identical(tmp_path, drawn):
    params, state = drawn
    write_state(tmp_path / "a.ckpt", params, state)
    back = read_checkpoint(str(tmp_path / "a.ckpt"))
    names = [p.name for p in params]
    assert back.trainer_arrays["comps"].dtype == np.int64
    assert np.array_equal(back.trainer_arrays["comps"], state["arrays"]["comps"])
    again = {
        "opt": {"t": back.opt_t, "m": back.opt_m, "v": back.opt_v},
        "arrays": back.trainer_arrays,
        "scalars": back.trainer_scalars,
    }
    write_state(tmp_path / "b.ckpt", [Parameter(back.params[n], n) for n in names], again)
    assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()


@pytest.mark.parametrize("short", ["m", "v"])
def test_checkpoint_refuses_a_moment_missing_for_a_piece(tmp_path, short):
    # moments are looked up by piece name: a missing one cannot be skipped
    params = [Parameter(np.zeros(2), "a"), Parameter(np.ones(3), "b")]
    state = sample_state(params)
    del state["opt"][short]["b"]
    with pytest.raises(KeyError, match="b"):
        write_state(tmp_path / "x.ckpt", params, state)
    assert not (tmp_path / "x.ckpt").exists()


def test_checkpoint_rejects_duplicate_parameter_names(tmp_path):
    a = Parameter(np.zeros(1), "same")
    b = Parameter(np.ones(1), "same")
    with pytest.raises(ValueError, match="duplicate"):
        write_sample(tmp_path / "x.ckpt", [a, b])


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_checkpoint(str(path))


def test_checkpoint_detects_truncation(tmp_path):
    p = Parameter(np.arange(64, dtype=np.float64), "p")
    path = tmp_path / "t.ckpt"
    write_sample(path, [p])
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(ValueError, match="truncated"):
        read_checkpoint(str(path))


def edited_header(tmp_path, edit):
    """A sample checkpoint whose header ``edit`` changed in place."""
    path = tmp_path / "h.ckpt"
    write_sample(path, [Parameter(np.zeros(2), "p")])
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + n])
    edit(header)
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + n :])
    return str(path)


@pytest.mark.parametrize(
    "key, value",
    [("rng", "garbage"), ("scalars", []), ("iteration", "7"), ("arrays", {}),
     ("iteration", True), ("opt_t", True)],  # true was read as 1
)
def test_checkpoint_rejects_wrongly_typed_header_field(tmp_path, key, value):
    path = edited_header(tmp_path, lambda header: header.update({key: value}))
    with pytest.raises(ValueError, match=f"header field '{key}' is not a JSON"):
        read_checkpoint(path)


@pytest.mark.parametrize("dtype", [-1, 1.5, True, None, "x", 1e308])
def test_checkpoint_refuses_an_unknown_array_dtype(tmp_path, dtype):
    # anything but "int64" was read as float64
    def edit(header):
        header["arrays"][0]["dtype"] = dtype

    with pytest.raises(ValueError, match=r"array 'param:p': unknown dtype"):
        read_checkpoint(edited_header(tmp_path, edit))


LIVE = {"n": 3, "x": 0.5, "name": "a", "w": np.zeros((2, 3)), "l": [1, 2]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({}, None),
        ({"w": np.zeros((2, 3), dtype=np.int64)}, None),  # the shape alone counts
        ({"n": 0, "x": -1e308, "l": [0, 2**64]}, None),
        ({"extra": 1}, r"^s: missing \[\], unknown \['extra'\]$"),
        ({"w": np.zeros((3, 2))}, r"^s\.w: expected shape \(2, 3\), got \(3, 2\)$"),
        ({"w": [[0.0] * 3] * 2}, r"^s\.w: expected shape \(2, 3\), got None$"),
        ({"l": [1]}, r"^s\.l: expected a list of 2, got \[1\]$"),
        ({"l": {"0": 1, "1": 2}}, r"^s\.l: expected a list of 2"),
        ({"l": [1, -2]}, r"^s\.l\[1\]: -2 is out of range$"),
        ({"n": True}, r"^s\.n: expected int, got True$"),
        ({"n": 3.0}, r"^s\.n: expected int, got 3\.0$"),
        ({"n": None}, r"^s\.n: expected int, got None$"),
        ({"x": 1}, r"^s\.x: expected float, got 1$"),
        ({"x": math.nan}, r"^s\.x: nan is out of range$"),
        ({"x": -math.inf}, r"^s\.x: -inf is out of range$"),
        ({"name": 0}, r"^s\.name: expected str, got 0$"),
    ],
)
def test_check_like_rule(change, message):
    saved = dict(LIVE, **change)
    if message is None:
        check_like(saved, LIVE, "s")
    else:
        with pytest.raises(ValueError, match=message):
            check_like(saved, LIVE, "s")


@pytest.mark.parametrize("drop", ["n", "w"])
def test_check_like_names_missing_keys_and_nested_paths(drop):
    saved = {"outer": {k: v for k, v in LIVE.items() if k != drop}}
    with pytest.raises(ValueError, match=rf"^s\.outer: missing \['{drop}'\], unknown \[\]$"):
        check_like(saved, {"outer": LIVE}, "s")
    with pytest.raises(ValueError, match=r"^s: expected an object, got \[\]$"):
        check_like([], LIVE, "s")


def test_no_temp_files_left_behind(tmp_path):
    p = Parameter(np.zeros(3), "p")
    write_sample(tmp_path / "first.ckpt", [p])
    write_sample(tmp_path / "first.ckpt", [p])  # overwrite path
    write_json_atomic(str(tmp_path / "r.json"), {"a": 1})
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".part")]
    assert leftovers == []
    assert sorted(os.listdir(tmp_path)) == ["first.ckpt", "r.json"]


def test_json_atomic_writes_stable_readable_output(tmp_path):
    path = tmp_path / "record.json"
    write_json_atomic(str(path), {"b": 2, "a": [1, 2]})
    text = path.read_text()
    assert json.loads(text) == {"a": [1, 2], "b": 2}
    assert text.endswith("\n")
    # keys are sorted so repeated writes are byte-stable
    write_json_atomic(str(path), {"a": [1, 2], "b": 2})
    assert path.read_text() == text


def test_metrics_writer_emits_one_json_object_per_line(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with MetricsWriter(str(path)) as mw:
        mw.write({"iteration": 0, "objective": -1.5})
        # rows are flushed immediately, readable before close
        first = path.read_text().splitlines()
        assert json.loads(first[0])["iteration"] == 0
        mw.write({"iteration": 1, "objective": -1.0, "h_a": 0.2})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[1])
    assert row == {"iteration": 1, "objective": -1.0, "h_a": 0.2}
    # insertion order is preserved verbatim
    assert lines[1].index("iteration") < lines[1].index("objective")
