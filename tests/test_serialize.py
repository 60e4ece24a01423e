import json
import os
import struct

import numpy as np
import pytest

from modnet.autodiff import Parameter
from modnet.serialize import (
    MetricsWriter,
    read_checkpoint,
    write_checkpoint,
    write_json_atomic,
)


def sample_state(params):
    return {
        "opt": {
            "t": 7,
            "m": [np.full_like(p.data, 0.25) for p in params],
            "v": [np.full_like(p.data, 0.5) for p in params],
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
    path = tmp_path / "snap.ckpt"
    write_sample(path, [w, b])
    back = read_checkpoint(str(path))
    assert back.params["layer.w"].tobytes() == w.data.tobytes()
    assert back.params["layer.b"].tobytes() == b.data.tobytes()
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


@pytest.mark.parametrize(
    "key, value", [("rng", "garbage"), ("scalars", []), ("iteration", "7"), ("arrays", {})]
)
def test_checkpoint_rejects_wrongly_typed_header_field(tmp_path, key, value):
    path = tmp_path / "w.ckpt"
    write_sample(path, [Parameter(np.zeros(2), "p")])
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + n])
    header[key] = value
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + n :])
    with pytest.raises(ValueError, match=f"{key}"):
        read_checkpoint(str(path))


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
