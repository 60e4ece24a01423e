"""Hard-assignment EM with sampled search steps and multi-step ascent.

Each training example owns a best-known composition in a persistent
buffer, the only per-example state.  A search step re-scores a
minibatch's incumbents under the current parameters against fresh
controller proposals and keeps the argmax; ties favour the incumbent, so
only a strictly better proposal replaces it.  An ascent step then runs
several Adam updates on the mean joint log-probability of fresh
minibatches under their buffered compositions.
"""

from __future__ import annotations

import logging

import numpy as np

from modnet.autodiff import Tape, Tensor
from modnet.config import TrainerConfig
from modnet.optim import Adam

log = logging.getLogger("modnet")


class NumericAbort(RuntimeError):
    """Training stopped: too many consecutive non-finite gradient steps."""


class StepGuard:
    """Counts skipped update steps and aborts on a long streak."""

    def __init__(self, limit: int = 10):
        self.limit = limit
        self.streak = 0
        self.total = 0

    def record_skip(self, reason: str) -> None:
        self.streak += 1
        self.total += 1
        log.warning("update step skipped (%s); streak %d", reason, self.streak)
        if self.streak >= self.limit:
            raise NumericAbort(
                f"{self.streak} consecutive update steps skipped ({reason})"
            )

    def record_ok(self) -> None:
        self.streak = 0

    def state(self) -> dict:
        return {"streak": self.streak, "total": self.total}

    def restore(self, state: dict) -> None:
        self.streak = state["streak"]
        self.total = state["total"]


class AscentTrainer:
    """The guarded Adam loop under every trainer: ``m_steps`` ascent steps,
    each on a fresh minibatch.

    Each step's gradients are flattened once into ``Adam``'s layout; one
    finiteness check runs on that vector, and the same vector feeds the
    update.  A step whose objective or gradient is not finite is skipped,
    and ``StepGuard`` aborts the run after a streak of them.  Subclasses build
    each step's objective in ``step_objective`` and may act on a taken
    step in ``after_step``.  ``config`` is the run's trainer section and
    ``clip_norm`` the effective gradient clip.
    """

    def __init__(self, task, config: TrainerConfig, streams, clip_norm: float | None = None):
        self.task = task
        self.cfg = config
        self.streams = streams
        self.opt = Adam(task.parameters(), lr=config.lr, clip_norm=clip_norm)
        self.guard = StepGuard()

    def step_objective(self, idx: np.ndarray) -> tuple[Tensor, float | None]:
        """(scalar objective, value to report or None for the objective's
        own), built under the active tape."""
        raise NotImplementedError

    def after_step(self, report: float) -> None:
        pass

    def ascend(self) -> dict:
        rng = self.streams["mstep"]
        values = []
        skipped = 0
        for _ in range(self.cfg.m_steps):
            idx = rng.integers(0, self.task.n_examples, size=self.cfg.batch)
            with Tape() as tape:
                obj, report = self.step_objective(idx)
            value = float(obj.data)
            if not np.isfinite(value):
                skipped += 1
                self.guard.record_skip("non-finite objective")
                continue
            grads = tape.parameter_grads(tape.backward(obj), self.opt.params)
            flat = self.opt.flatten(grads)
            if not np.isfinite(flat).all():
                skipped += 1
                self.guard.record_skip("non-finite gradient")
                continue
            self.guard.record_ok()
            self.opt.step(flat)
            report = value if report is None else report
            self.after_step(report)
            values.append(report)
        return {
            "objective": float(np.mean(values)) if values else None,  # no step taken
            "skipped_steps": skipped,
        }

    def state(self) -> dict:
        return {"arrays": {}, "opt": self.opt.state(), "scalars": self.guard.state()}

    def restore(self, state: dict) -> None:
        self.opt.restore(state["opt"])
        self.guard.restore(state["scalars"])


class EMTrainer(AscentTrainer):
    """Drives the search/ascent alternation over a task adapter, the
    protocol of ``runner.Task``.  ``buffer`` is one int64 (examples,
    units, slots) array: each example's best-known composition, drawn
    uniformly at the start, and nothing beside it.

    ``partial_e_step`` is the search step and ``partial_m_step`` the
    ascent step, run on ``AscentTrainer``'s guarded loop; the buffer
    travels in ``state()`` next to the optimizer and the guard.
    """

    def __init__(self, task, config: TrainerConfig, streams, clip_norm: float | None = None):
        super().__init__(task, config, streams, clip_norm)
        self.buffer = streams["buffer"].integers(
            0, task.n_choices, size=(task.n_examples, *task.unit_shape), dtype=np.int64
        )

    def partial_e_step(
        self, idx: np.ndarray | None = None, exhaustive: bool = False
    ) -> dict:
        """Replace incumbents that a proposal strictly beats.

        With ``exhaustive`` the candidate set is every composition instead
        of controller draws, making the update an exact argmax.  Samples
        scoring non-finite are discarded; rows where every candidate
        including the incumbent is non-finite are left untouched.
        """
        rng = self.streams["estep"]
        if idx is None:
            idx = rng.integers(0, self.task.n_examples, size=self.cfg.e_batch)
        idx = np.asarray(idx)
        incumbent = self.buffer[idx]
        if exhaustive:
            cands, scores = self.task.enumerate_and_score(idx, incumbent)
        else:
            cands, scores = self.task.propose_and_score(
                idx, incumbent, self.cfg.n_samples, rng
            )
        finite = np.isfinite(scores)
        dropped = int((~finite[1:]).sum())
        if dropped:
            log.warning("discarded %d non-finite proposal scores", dropped)
        scores = np.where(finite, scores, -np.inf)
        rows = np.arange(len(idx))
        best = scores.argmax(axis=0)  # first max wins: index 0 is the incumbent
        best_scores = scores[best, rows]
        ok = np.isfinite(best_scores)
        self.buffer[idx[ok]] = cands[best[ok], rows[ok]]
        improved = ok & (best != 0)
        inc_scores = scores[0]
        deltas = np.zeros(len(idx))
        measurable = improved & np.isfinite(inc_scores)
        np.subtract(best_scores, inc_scores, out=deltas, where=measurable)
        return {
            "improved_fraction": float(improved.mean()),
            "mean_improvement": float(deltas.mean()),
            "dropped_samples": dropped,
            "incumbent_scores": inc_scores,
            "best_scores": best_scores,
            "indices": idx,
        }

    def partial_m_step(self) -> dict:
        """Ascend the buffered-composition objective on fresh minibatches."""
        return self.ascend()

    def step_objective(self, idx):
        return self.task.objective(idx, self.buffer[idx]), None

    def iteration(self) -> dict:
        e_stats = self.partial_e_step()
        m_stats = self.partial_m_step()
        return {
            "objective": m_stats["objective"],
            "e_step_improved_fraction": e_stats["improved_fraction"],
            "e_step_mean_improvement": e_stats["mean_improvement"],
            "skipped_steps": m_stats["skipped_steps"],
        }

    def state(self) -> dict:
        return dict(super().state(), arrays={"buffer_comps": self.buffer})

    def restore(self, state: dict) -> None:
        """Load the buffer, refusing any value that is not a module index;
        whole-valued float64 arrays, as checkpoints before the int64 layout
        hold them, load as they are."""
        comps = state["arrays"]["buffer_comps"]
        n = self.task.n_choices
        if not np.all((comps >= 0) & (comps < n) & (np.floor(comps) == comps)):
            raise ValueError(f"buffer_comps holds values that are not whole numbers in [0, {n})")
        self.buffer[...] = comps
        super().restore(state)
