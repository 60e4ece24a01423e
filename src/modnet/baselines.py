"""Baseline trainers: score-function gradients, noisy top-k, static.

All three take the same number of gradient steps per iteration as the EM
trainer's ascent phase, so iteration counts are comparable across
methods.  Each works against the same task-adapter protocol.
"""

from __future__ import annotations

import numpy as np

from modnet.autodiff import Tape
from modnet.config import TrainerConfig
from modnet.em import StepGuard
from modnet.optim import Adam


class _GradientTrainer:
    """Shared guarded-step loop; subclasses build the step objective."""

    def __init__(self, task, config: TrainerConfig, streams, clip_norm: float | None = None):
        self.task = task
        self.cfg = config
        self.streams = streams
        self.opt = Adam(task.parameters(), lr=config.lr, clip_norm=clip_norm)
        self.guard = StepGuard()

    def _build(self, idx: np.ndarray):
        """Return (scalar objective Tensor, per-step extras dict); called
        under an active tape."""
        raise NotImplementedError

    def _after_step(self, extras: dict) -> None:
        pass

    def iteration(self) -> dict:
        rng = self.streams["mstep"]
        values = []
        skipped = 0
        for _ in range(self.cfg.m_steps):
            idx = rng.integers(0, self.task.n_examples, size=self.cfg.batch)
            with Tape() as tape:
                obj, extras = self._build(idx)
            value = float(obj.data)
            report = extras.pop("report", value)
            if not np.isfinite(value):
                skipped += 1
                self.guard.record_skip("non-finite objective")
                continue
            grads = tape.parameter_grads(tape.backward(obj), self.opt.params)
            if any(not np.isfinite(g).all() for g in grads.values()):
                skipped += 1
                self.guard.record_skip("non-finite gradient")
                continue
            self.guard.record_ok()
            self.opt.step(grads)
            self._after_step(extras)
            values.append(report)
        return {
            "objective": float(np.mean(values)) if values else float("nan"),
            "e_step_improved_fraction": 0.0,
            "skipped_steps": skipped,
        }

    def state(self) -> dict:
        return {"arrays": {}, "opt": self.opt.state(), "scalars": self.guard.state()}

    def restore(self, state: dict) -> None:
        self.opt.restore(state["opt"])
        self.guard.restore(state["scalars"])


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

    def _build(self, idx):
        if self.cfg.samples_per_example > 1:
            idx = np.tile(idx, self.cfg.samples_per_example)
        comps = self.task.sample_comps(idx, self.streams["estep"])
        obj, rewards = self.task.reinforce_surrogate(idx, comps, self.ema)
        return obj, {"rewards": rewards, "report": float(np.mean(rewards))}

    def _after_step(self, extras):
        d = self.cfg.ema_decay
        self.ema = d * self.ema + (1.0 - d) * float(np.mean(extras["rewards"]))

    def state(self) -> dict:
        out = super().state()
        out["scalars"] = dict(out["scalars"], ema=self.ema)
        return out

    def restore(self, state: dict) -> None:
        scalars = dict(state["scalars"])
        self.ema = float(scalars.pop("ema"))
        super().restore({**state, "scalars": scalars})


class NoisyTopKTrainer(_GradientTrainer):
    """Backprop through the sparse gate with training-mode noise."""

    def _build(self, idx):
        obj = self.task.noisy_objective(idx, train=True, rng=self.streams["noise"])
        return obj, {}


class StaticTrainer(_GradientTrainer):
    """Fixed composition for every example; the selection never trains."""

    def _build(self, idx):
        comps = self.task.static_comps(idx)
        obj = self.task.objective(idx, comps, with_ctrl=False)
        return obj, {}

