"""On-disk formats: checkpoints, metrics streams, JSON records.

Checkpoint layout: 8 magic bytes, an 8-byte little-endian header length,
a UTF-8 JSON header, then one contiguous block of little-endian float64
values.  The header lists every array's name, shape, element offset, and
logical dtype; integer arrays are stored as doubles (exact below 2**53)
and cast back on load.  Writes go through a temp file and an atomic
rename so a crash never leaves a half-written file.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from modnet.autodiff import Parameter

MAGIC = b"MODNETC1"


def _atomic_write(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


class MetricsWriter:
    """Appends one JSON object per line; key order is insertion order."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, row: dict) -> None:
        self._fh.write(json.dumps(row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _pack_arrays(entries: list[tuple[str, np.ndarray, str]]) -> tuple[list[dict], bytes]:
    manifest = []
    chunks = []
    offset = 0
    for name, arr, dtype in entries:
        data = np.ascontiguousarray(arr, dtype=np.float64)
        manifest.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "dtype": dtype}
        )
        chunks.append(data.astype("<f8").tobytes())
        offset += data.size
    return manifest, b"".join(chunks)


def _unpack_arrays(manifest: list[dict], payload: bytes) -> dict[str, np.ndarray]:
    out = {}
    for entry in manifest:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        start = entry["offset"] * 8
        flat = np.frombuffer(payload[start : start + size * 8], dtype="<f8")
        if flat.size != size:
            raise ValueError(f"array {entry['name']!r}: truncated payload")
        arr = flat.reshape(shape).astype(np.float64)
        if entry["dtype"] == "int64":
            arr = np.round(arr).astype(np.int64)
        out[entry["name"]] = arr
    return out


@dataclass
class CheckpointData:
    version: str
    config: dict
    iteration: int
    streams_state: dict
    params: dict[str, np.ndarray]
    opt_t: int
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    trainer_arrays: dict[str, np.ndarray]
    trainer_scalars: dict


def write_checkpoint(
    path: str,
    *,
    version: str,
    config: dict,
    iteration: int,
    streams_state: dict,
    params: list[Parameter],
    trainer_state: dict,
) -> None:
    """Snapshot everything needed for a bit-exact resume."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate parameter names: {dupes}")
    entries: list[tuple[str, np.ndarray, str]] = []
    for p in params:
        entries.append((f"param:{p.name}", p.data, "float64"))
    opt = trainer_state["opt"]
    for p, m, v in zip(params, opt["m"], opt["v"]):
        entries.append((f"opt_m:{p.name}", m, "float64"))
        entries.append((f"opt_v:{p.name}", v, "float64"))
    for key, arr in trainer_state.get("arrays", {}).items():
        arr = np.asarray(arr)
        dtype = "int64" if arr.dtype.kind in "iu" else "float64"
        entries.append((f"state:{key}", arr, dtype))
    manifest, payload = _pack_arrays(entries)
    header = {
        "version": version,
        "config": config,
        "iteration": iteration,
        "rng": streams_state,
        "opt_t": int(opt["t"]),
        "scalars": trainer_state.get("scalars", {}),
        "arrays": manifest,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = MAGIC + struct.pack("<Q", len(head)) + head + payload
    _atomic_write(path, blob)


def read_checkpoint(path: str) -> CheckpointData:
    """Load a checkpoint; any malformed content raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:8]!r})")
    try:
        return _parse_checkpoint(blob)
    except (
        struct.error, AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError
    ) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc!r}") from exc


_HEADER_TYPES = {
    "version": str,
    "config": dict,
    "iteration": int,
    "rng": dict,
    "opt_t": int,
    "scalars": dict,
    "arrays": list,
}


def _parse_checkpoint(blob: bytes) -> CheckpointData:
    (head_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + head_len].decode("utf-8"))
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header[key], kind):
            raise ValueError(f"header field {key!r} is not a JSON {kind.__name__}")
    arrays = _unpack_arrays(header["arrays"], blob[16 + head_len :])
    params, opt_m, opt_v, state = {}, {}, {}, {}
    for name, arr in arrays.items():
        kind, _, rest = name.partition(":")
        if kind == "param":
            params[rest] = arr
        elif kind == "opt_m":
            opt_m[rest] = arr
        elif kind == "opt_v":
            opt_v[rest] = arr
        elif kind == "state":
            state[rest] = arr
        else:
            raise ValueError(f"unknown array kind {kind!r}")
    return CheckpointData(
        version=header["version"],
        config=header["config"],
        iteration=int(header["iteration"]),
        streams_state=header["rng"],
        params=params,
        opt_t=int(header["opt_t"]),
        opt_m=opt_m,
        opt_v=opt_v,
        trainer_arrays=state,
        trainer_scalars=header["scalars"],
    )
