"""Named, independent random streams derived from one master seed.

Each consumer (data generation, parameter init, assignment search, ...)
draws from its own counter-based generator, so adding draws to one stream
never perturbs another.  Stream state serializes to JSON for exact resume.
"""

from __future__ import annotations

import numpy as np

STREAM_NAMES = ("data", "init", "buffer", "estep", "mstep", "noise", "probe")


class SeedStreams:
    """A fixed set of named Philox generators spawned from a master seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        children = np.random.SeedSequence(self.seed).spawn(len(STREAM_NAMES))
        self._gens = {
            name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(STREAM_NAMES, children)
        }

    def __getitem__(self, name: str) -> np.random.Generator:
        try:
            return self._gens[name]
        except KeyError:
            raise KeyError(f"unknown random stream {name!r}; have {STREAM_NAMES}") from None

    def state(self) -> dict:
        """JSON-serializable snapshot of every stream's position."""
        out = {"seed": self.seed, "streams": {}}
        for name, gen in self._gens.items():
            st = gen.bit_generator.state
            out["streams"][name] = {
                "counter": [int(v) for v in st["state"]["counter"]],
                "key": [int(v) for v in st["state"]["key"]],
                "buffer": [int(v) for v in st["buffer"]],
                "buffer_pos": int(st["buffer_pos"]),
                "has_uint32": int(st["has_uint32"]),
                "uinteger": int(st["uinteger"]),
            }
        return out

    def restore(self, snapshot: dict) -> None:
        if snapshot["seed"] != self.seed:
            raise ValueError(
                f"stream snapshot was taken under seed {snapshot['seed']}, "
                f"not {self.seed}"
            )
        for name, st in snapshot["streams"].items():
            gen = self[name]
            full = gen.bit_generator.state
            # the generator indexes its buffer with this unchecked
            if not 0 <= st["buffer_pos"] <= full["buffer"].size:
                raise ValueError(f"stream {name!r}: buffer_pos {st['buffer_pos']!r} out of range")
            full["state"]["counter"] = np.array(st["counter"], dtype=np.uint64)
            full["state"]["key"] = np.array(st["key"], dtype=np.uint64)
            full["buffer"] = np.array(st["buffer"], dtype=np.uint64)
            full["buffer_pos"] = st["buffer_pos"]
            full["has_uint32"] = st["has_uint32"]
            full["uinteger"] = st["uinteger"]
            gen.bit_generator.state = full
