"""On-disk formats: checkpoints, metrics streams, JSON records.

Checkpoint layout: 8 magic bytes, an 8-byte little-endian header length,
a UTF-8 JSON header, then one contiguous block of little-endian float64
values.  The header lists every array's name, shape, element offset, and
logical dtype, ``float64`` or ``int64`` (a load refuses any other);
integer arrays are stored as doubles and cast back on load, so
``write_checkpoint`` refuses any integer past +-2**53, the range doubles
hold exactly, and a load refuses an ``int64`` array whose values are not
whole numbers in that range.  Writes go through a temp file and an
atomic rename so a crash never leaves a half-written file.

What a load restores must have the form of the live component's
``state()``, which is the only declaration of that form: objects with
the same keys, lists of the same length, arrays of the same shape (of
either dtype), and scalars of the same type, a bool being no int and 1.5
no int, with every int >= 0 and every float finite.  ``check_like``
applies that rule before anything is restored, so each ``restore`` is
plain assignment.
"""

from __future__ import annotations

import json
import math
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
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, (text + "\n").encode("utf-8"))


class MetricsWriter:
    """Appends one JSON object per line; key order is insertion order."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, row: dict) -> None:
        self._fh.write(json.dumps(row, allow_nan=False) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def check_like(saved, live, path: str) -> None:
    """Raise ``ValueError``, naming the place below ``path``, where ``saved``
    leaves the form of ``live`` (the rule in the module docstring)."""
    if isinstance(live, dict):
        if not isinstance(saved, dict):
            raise ValueError(f"{path}: expected an object, got {saved!r}")
        missing, unknown = sorted(live.keys() - saved.keys()), sorted(saved.keys() - live.keys())
        if missing or unknown:
            raise ValueError(f"{path}: missing {missing}, unknown {unknown}")
        for key in live:
            check_like(saved[key], live[key], f"{path}.{key}")
    elif isinstance(live, list):
        if not isinstance(saved, list) or len(saved) != len(live):
            raise ValueError(f"{path}: expected a list of {len(live)}, got {saved!r}")
        for i, (s, v) in enumerate(zip(saved, live)):
            check_like(s, v, f"{path}[{i}]")
    elif isinstance(live, np.ndarray):
        shape = getattr(saved, "shape", None)
        if not isinstance(saved, np.ndarray) or shape != live.shape:
            raise ValueError(f"{path}: expected shape {live.shape}, got {shape}")
    elif type(saved) is not type(live):
        raise ValueError(f"{path}: expected {type(live).__name__}, got {saved!r}")
    elif (type(saved) is int and saved < 0) or (type(saved) is float and not math.isfinite(saved)):
        raise ValueError(f"{path}: {saved!r} is out of range")


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
    """The arrays as ``_pack_arrays`` lays them out: each starts where the
    one before it ends, and the last ends the payload."""
    out = {}
    offset, last = 0, "the header"
    for entry in manifest:
        if entry["offset"] != offset:
            raise ValueError(
                f"array {entry['name']!r} at offset {entry['offset']!r}, "
                f"not at {offset}, where {last} ends"
            )
        if entry["dtype"] not in ("float64", "int64"):
            raise ValueError(f"array {entry['name']!r}: unknown dtype {entry['dtype']!r}")
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        flat = np.frombuffer(payload[offset * 8 : (offset + size) * 8], dtype="<f8")
        if flat.size != size:
            raise ValueError(f"array {entry['name']!r}: truncated payload")
        arr = flat.reshape(shape).astype(np.float64)
        if entry["dtype"] == "int64":
            if not np.all((np.abs(arr) <= 2**53) & (np.floor(arr) == arr)):
                raise ValueError(
                    f"array {entry['name']!r}: int64 values that are not "
                    f"whole numbers within +-2**53"
                )
            arr = arr.astype(np.int64)
        out[entry["name"]] = arr
        offset, last = offset + size, f"array {entry['name']!r}"
    if len(payload) != offset * 8:
        raise ValueError(f"{len(payload) - offset * 8} payload bytes past the end of {last}")
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
    """Snapshot everything needed for a bit-exact resume: one array per
    parameter piece (``Parameter.pieces``), with its two moments."""
    pieces = [piece for p in params for piece in p.pieces]
    names = [name for name, _ in pieces]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate parameter names: {dupes}")
    opt = trainer_state["opt"]
    entries: list[tuple[str, np.ndarray, str]] = []
    for name, view in pieces:
        entries.append((f"param:{name}", view, "float64"))
    for name in names:
        entries.append((f"opt_m:{name}", opt["m"][name], "float64"))
        entries.append((f"opt_v:{name}", opt["v"][name], "float64"))
    for key, arr in trainer_state.get("arrays", {}).items():
        arr = np.asarray(arr)
        dtype = "int64" if arr.dtype.kind in "iu" else "float64"
        if dtype == "int64" and arr.size and (arr.min() < -(2**53) or arr.max() > 2**53):
            raise ValueError(f"trainer array {key!r} holds integers past +-2**53")
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
        if type(header[key]) is not kind:  # a bool is no int
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
        iteration=header["iteration"],
        streams_state=header["rng"],
        params=params,
        opt_t=header["opt_t"],
        opt_m=opt_m,
        opt_v=opt_v,
        trainer_arrays=state,
        trainer_scalars=header["scalars"],
    )
