"""Pinned bytes of the two smoke runs and of short runs of every other
feedforward and two-regime trainer.

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


# short runs of the other shipped trainers: config -> (iterations, sha256
# of metrics.jsonl, sha256 of checkpoints/final.ckpt), without interval
# checkpoints.  text_char_em is left out: its checkpoint header stores the
# corpus's absolute task.path, so that digest moves with the checkout.
SHORT_RUNS = {
    "toy_reinforce": (
        20,
        "1ef9e39f72644b7187505f17280d8c2a865fb91a1486449245af9430faa7b5a9",
        "1dd43d04056c6357bcd4e8d3ca89daf06977b0724779a7d2cbb146aead376bf7",
    ),
    "toy_static": (
        20,
        "76dda18179c1fb992d509078ecf0687fcb69f67f64d84c1e0a436114392390ee",
        "e01535eda13f211e002d947ff1491ab7324b229565693d73222ea71a3b3b4eed",
    ),
    "toy_noisy_topk": (
        20,
        "841db87e2394623db320a7f86dca8a642f1422601c66927b8069a0f8c52964ac",
        "f7de53c7b649415928db2945e2eb7d2fc03ff7a6ae99f2fa8b1870644d161e12",
    ),
    "two_regime_reinforce": (
        3,
        "eaa9d9390e0213c2a725c9eff7796b4befb59f8844fdf22e8d2ded7583317678",
        "5f41d92459db81b3bccdee13bd451b38e02051b4bf805f94a61fda0a93c39023",
    ),
    "two_regime_static": (
        3,
        "05d5874d32a07fff09b7cbb5d28be6d41c7a0467732c708868b3951192f56f33",
        "bf69d34c14330edfad70c53f052ca9616a958f24b186aa375cec68d81b10a3e4",
    ),
    "two_regime_noisy_topk": (
        3,
        "badbda20483238a9638111305ec86dca8d7a5148a8e5ce965b06ba6b5b53e202",
        "538d499fcd26983598068c4803f7be231a7af6303a0285341e10d002bfd18711",
    ),
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(cfg, tmp_path, name, pinned) -> None:
    execute_run(cfg, str(tmp_path))
    got = (sha256(tmp_path / "metrics.jsonl"), sha256(tmp_path / "checkpoints" / "final.ckpt"))
    for fname, want, have in zip(("metrics.jsonl", "final.ckpt"), pinned, got):
        assert have == want, (
            f"{name} {fname}: sha256 {have}, pinned {want} (numpy {np.__version__})"
        )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_run_keeps_its_pinned_bytes(tmp_path, name):
    check_run(load_config(os.path.join(CONFIGS, f"{name}.json")), tmp_path, name, PINNED[name])


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_short_run_keeps_its_pinned_bytes(tmp_path, name):
    iterations, *pinned = SHORT_RUNS[name]
    overrides = [f"trainer.iterations={iterations}", "diagnostics.checkpoint_interval=0"]
    cfg = load_config(os.path.join(CONFIGS, f"{name}.json"), overrides)
    check_run(cfg, tmp_path, name, pinned)
