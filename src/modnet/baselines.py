"""Baseline trainers: score-function gradients, noisy top-k, static.

All three take the same number of gradient steps per iteration as the EM
trainer's ascent phase, so iteration counts are comparable across
methods.  Each works against the same task-adapter protocol.
"""

from __future__ import annotations

import math

import numpy as np

from modnet.config import TrainerConfig
from modnet.em import AscentTrainer


class _GradientTrainer(AscentTrainer):
    """One iteration is one run of the shared guarded ascent loop."""

    def iteration(self) -> dict:
        return self.ascend()


class ReinforceTrainer(_GradientTrainer):
    """Score-function controller updates with a moving-average baseline.

    Per step: sample one composition per example (more via
    ``samples_per_example``), ascend the conditional log-likelihood plus
    the advantage-weighted controller log-probability.  The advantage is
    the detached reward minus a running mean; the running mean updates
    after the parameters move.  Controller inputs are detached so the
    selection term trains only the controller.
    """

    def __init__(self, task, config: TrainerConfig, streams, clip_norm: float | None = None):
        super().__init__(task, config, streams, clip_norm)
        self.ema = 0.0

    def step_objective(self, idx):
        if self.cfg.samples_per_example > 1:
            idx = np.tile(idx, self.cfg.samples_per_example)
        comps = self.task.sample_comps(idx, self.streams["estep"])
        obj, rewards = self.task.reinforce_surrogate(idx, comps, self.ema)
        return obj, float(np.mean(rewards))

    def after_step(self, report):
        d = self.cfg.ema_decay
        self.ema = d * self.ema + (1.0 - d) * report

    def state(self) -> dict:
        out = super().state()
        out["scalars"] = dict(out["scalars"], ema=self.ema)
        return out

    def restore(self, state: dict) -> None:
        scalars = dict(state["scalars"])
        ema = float(scalars.pop("ema"))
        if not math.isfinite(ema):
            raise ValueError(f"baseline ema {ema!r} is not finite")
        super().restore({**state, "scalars": scalars})
        self.ema = ema


class NoisyTopKTrainer(_GradientTrainer):
    """Backprop through the sparse gate with training-mode noise."""

    def step_objective(self, idx):
        return self.task.noisy_objective(idx, train=True, rng=self.streams["noise"]), None


class StaticTrainer(_GradientTrainer):
    """Fixed composition for every example; the selection never trains."""

    def step_objective(self, idx):
        return self.task.objective(idx, self.task.static_comps(idx), with_ctrl=False), None
