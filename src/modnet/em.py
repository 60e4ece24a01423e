"""Hard-assignment EM with sampled search steps and multi-step ascent.

Each training example owns a best-known composition in a persistent
buffer.  A search step re-scores a minibatch's incumbents against fresh
controller proposals and keeps the argmax (ties favour the incumbent, so
stored scores never decrease within a step).  An ascent step then runs
several Adam updates on the mean joint log-probability of fresh
minibatches under their buffered compositions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
        self.streak = int(state["streak"])
        self.total = int(state["total"])


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
            "objective": float(np.mean(values)) if values else float("nan"),
            "skipped_steps": skipped,
        }

    def state(self) -> dict:
        return {"arrays": {}, "opt": self.opt.state(), "scalars": self.guard.state()}

    def restore(self, state: dict) -> None:
        self.opt.restore(state["opt"])
        self.guard.restore(state["scalars"])


@dataclass
class AssignmentBuffer:
    """Best-known composition and its last joint score, per example."""

    comps: np.ndarray
    scores: np.ndarray


def init_assignment_buffer(
    rng: np.random.Generator, n: int, unit_shape: tuple, n_choices: int
) -> AssignmentBuffer:
    """Independent uniform choices for every example and slot."""
    if n < 1:
        raise ValueError("buffer needs at least one example")
    comps = rng.integers(0, n_choices, size=(n, *unit_shape), dtype=np.int64)
    scores = np.full(n, -np.inf)
    return AssignmentBuffer(comps, scores)


class EMTrainer(AscentTrainer):
    """Drives the search/ascent alternation over a task adapter, the
    protocol of ``runner.Task``.  The buffer holds one (units, slots)
    composition per example.

    ``partial_e_step`` is the search step and ``partial_m_step`` the
    ascent step, run on ``AscentTrainer``'s guarded loop; the buffer
    travels in ``state()`` next to the optimizer and the guard.
    """

    def __init__(self, task, config: TrainerConfig, streams, clip_norm: float | None = None):
        super().__init__(task, config, streams, clip_norm)
        self.buffer = init_assignment_buffer(
            streams["buffer"], task.n_examples, task.unit_shape, task.n_choices
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
        incumbent = self.buffer.comps[idx]
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
        write = idx[ok]
        self.buffer.comps[write] = cands[best[ok], rows[ok]]
        self.buffer.scores[write] = best_scores[ok]
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
        return self.task.objective(idx, self.buffer.comps[idx]), None

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
        arrays = {
            "buffer_comps": self.buffer.comps.astype(np.float64),
            "buffer_scores": self.buffer.scores.copy(),
        }
        return dict(super().state(), arrays=arrays)

    def restore(self, state: dict) -> None:
        comps = state["arrays"]["buffer_comps"]
        if comps.shape != self.buffer.comps.shape:
            raise ValueError(
                f"buffer shape {comps.shape} does not match "
                f"{self.buffer.comps.shape}"
            )
        self.buffer.comps = np.asarray(comps).astype(np.int64)
        self.buffer.scores = np.asarray(state["arrays"]["buffer_scores"]).copy()
        super().restore(state)
