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
        "366abf951fce057c620dc25171dae964db243ac793aa75e8f8c23dd306a7d4c7",
    ),
    "two_regime_em_smoke": (
        "a37294a49fe2072460ce2190c83540f24d60446b6341f9f69d6d1063a972f426",
        "0cc57646ff3912f416c54b2a3a27fc64f943f43ed9fe4be164664251b76be677",
    ),
}


# short runs of the other shipped trainers: name -> (iterations, sha256 of
# metrics.jsonl, sha256 of checkpoints/final.ckpt, *overrides), without
# interval checkpoints.  A name is a config, or a config and a label after
# "/" when the entry carries overrides.  text_char_em pins only its
# metrics: its checkpoint header stores the corpus's absolute task.path,
# so that digest moves with the checkout (None: not pinned).
SHORT_RUNS = {
    "toy_reinforce": (
        20,
        "1ef9e39f72644b7187505f17280d8c2a865fb91a1486449245af9430faa7b5a9",
        "337124edc7adfd14b8b42b783fedda5758298ce8973f82fcf4b3d2b4261bd847",
    ),
    # 32 modules: sample_rows draws against 31 inner boundaries built by
    # cumsum, where the two-module runs take the single comparison
    "toy_reinforce/m32": (
        20,
        "fe1d6b9f72d441aa83c47f434f60b6b976967c76fddf8e04fb3d03e9072e3ff9",
        "2e5611129a39fe0bec3485d2f2c2e1635f817ac25cf682d99397499c4366e323",
        "architecture.n_modules=32",
    ),
    # unused modules, a module picked by both slots of a row, and the relu
    # mask, through two layers of ModulePool.select
    "toy_em/m8_two_slots_relu": (
        20,
        "6226955d02be55df7a31372249e67cc7263d296108b05676bd615ca6ad85acd5",
        "b723a1fa0fa0abb737c68ae4403561a27f4c533284b84f621df3e765809b4bae",
        "architecture.n_modules=8",
        "architecture.n_slots=2",
        "architecture.n_layers=2",
        "architecture.module_kind=linear-relu",
    ),
    "toy_static": (
        20,
        "76dda18179c1fb992d509078ecf0687fcb69f67f64d84c1e0a436114392390ee",
        "fd3736004153d4addfa25a02d1e8f94b423f90146dcb628105232db0a8ce1cbe",
    ),
    "toy_noisy_topk": (
        20,
        "841db87e2394623db320a7f86dca8a642f1422601c66927b8069a0f8c52964ac",
        "4431462eccbf46adcddcb540133843f8b7947d6ed57c801960fa7d816b2a654c",
    ),
    # three gated layers of rectified modules: each layer's input gradient
    # joins the pool's term with both gate maps' through ModulePool.select
    "toy_noisy_topk/three_layers_relu": (
        20,
        "4c777573b24c474b53d82e640777e9181ff6e8e1a61bbf33936f591e5323c467",
        "05aeb35ae33cf5c9f906c1b641df27963755a5d587ad512c0b315a29aa79c533",
        "architecture.n_layers=3",
        "architecture.hidden=4",
        "architecture.module_kind=linear-relu",
    ),
    "two_regime_reinforce": (
        3,
        "eaa9d9390e0213c2a725c9eff7796b4befb59f8844fdf22e8d2ded7583317678",
        "26267ca3d359de169abc8b881f0b09b74bcc2776b92d5209ec1f31a6a104925c",
    ),
    # eight modules under two slots: the default clip norm of 5.0 fires on
    # every gradient step, adding one sum per module weight and bias
    "two_regime_reinforce/m8_two_slots_clipped": (
        3,
        "e300bbffc84f30e62bad5636e1c61c53bb3675d791b5a517fb55ecf06433297d",
        "c61437d55f6127b63660223e14c49eea3925b211295c9d3cce0f5efdba5c0b55",
        "architecture.n_modules=8",
        "architecture.n_slots=2",
    ),
    "two_regime_static": (
        3,
        "05d5874d32a07fff09b7cbb5d28be6d41c7a0467732c708868b3951192f56f33",
        "6781ced11828b1f19a7a72197b211a2be95ad5206395cc2369778d0600df454a",
    ),
    "two_regime_noisy_topk": (
        3,
        "badbda20483238a9638111305ec86dca8d7a5148a8e5ce965b06ba6b5b53e202",
        "43d2925ccfc2dfab3fbaca43a517932259b70a29298f96e68724f6b7f95fccf6",
    ),
    # the only run whose unroll reads a real character vocabulary
    "text_char_em": (
        3,
        "840899f6d4224a8594566ce5c34051561a35c8f444a4ca1b203c1dd1bbca7f77",
        None,
    ),
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(cfg, tmp_path, name, pinned) -> None:
    execute_run(cfg, str(tmp_path))
    got = (sha256(tmp_path / "metrics.jsonl"), sha256(tmp_path / "checkpoints" / "final.ckpt"))
    for fname, want, have in zip(("metrics.jsonl", "final.ckpt"), pinned, got):
        assert want is None or have == want, (
            f"{name} {fname}: sha256 {have}, pinned {want} (numpy {np.__version__})"
        )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_run_keeps_its_pinned_bytes(tmp_path, name):
    check_run(load_config(os.path.join(CONFIGS, f"{name}.json")), tmp_path, name, PINNED[name])


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_short_run_keeps_its_pinned_bytes(tmp_path, name):
    iterations, metrics, ckpt, *extra = SHORT_RUNS[name]
    overrides = [f"trainer.iterations={iterations}", "diagnostics.checkpoint_interval=0", *extra]
    cfg = load_config(os.path.join(CONFIGS, f"{name.split('/')[0]}.json"), overrides)
    check_run(cfg, tmp_path, name, (metrics, ckpt))
