"""Pinned bytes of the two smoke runs.

A change that claims to keep every output byte-identical must leave
these digests alone.  They depend on numpy's and the BLAS library's
arithmetic, so a new numpy may move them; a change to the numerics made
on purpose updates the pins and says so in CHANGES.md.
"""

import hashlib
import os

import numpy as np
import pytest

from modnet.config import load_config
from modnet.runner import execute_run

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# config -> sha256 of (metrics.jsonl, checkpoints/final.ckpt)
PINNED = {
    "toy_em_smoke": (
        "e98c8503daf975d39da1692fb9377046720c58066b49154f48bb64b1004d3665",
        "1241452c550488dfab7c5fe72a8a176cc763abd3b608f3980210031fcc2ddd00",
    ),
    "two_regime_em_smoke": (
        "a37294a49fe2072460ce2190c83540f24d60446b6341f9f69d6d1063a972f426",
        "053c2c8a7a0cb58a3e291fead509e9498e807f05e28f8e3faa9a224132701977",
    ),
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_run_keeps_its_pinned_bytes(tmp_path, name):
    execute_run(load_config(os.path.join(CONFIGS, f"{name}.json")), str(tmp_path))
    got = (sha256(tmp_path / "metrics.jsonl"), sha256(tmp_path / "checkpoints" / "final.ckpt"))
    for fname, want, have in zip(("metrics.jsonl", "final.ckpt"), PINNED[name], got):
        assert have == want, (
            f"{name} {fname}: sha256 {have}, pinned {want} (numpy {np.__version__})"
        )
