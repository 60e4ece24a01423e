"""Outside-in tracing of one ``execute_run``: spans and counters.

Every wrapper is installed on a public name of ``modnet`` from here, so
the library itself is untouched.  Spans (name, start, end, parent) and
counts stay in memory until the run ends; ``uninstall`` puts every
original attribute back and checks that it did.

Phases: ``setup`` until the trainer's first ``iteration`` call, ``loop``
until the first ``MetricsWriter.close`` (the runner closes its writers as
soon as the training loop ends), then ``after`` (final checkpoint and
evaluation).  Counts and shares are taken over the ``loop`` phase.

Machine speed: on a host shared with other tenants the same code runs up
to twice as slow for stretches of seconds to minutes.  So every run times
a fixed calibration kernel (``kernel_seconds``) at the start of an
iteration and, in untraced runs, of a gradient step, at most once per
``CAL_PERIOD_S``, and logs it with the iteration number.  The caller
subtracts the kernels from that iteration's wall time and scales the
iteration by the kernel's speed around it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import Counter

import numpy as np

import modnet.baselines as baselines
import modnet.em as em
import modnet.gru as gru
import modnet.modular as modular
import modnet.runner as runner
import modnet.serialize as serialize
from modnet.autodiff import Tape
from modnet.optim import Adam

TASKS = (runner.RegressionTask, runner.SequenceTask)

# span name -> attributes it wraps, as (owner, attribute name)
SPANS = {
    "runner.objective": [(t, "objective") for t in TASKS],
    "runner.propose": [(t, "propose_and_score") for t in TASKS],
    "runner.sample": [(t, "sample_comps") for t in TASKS],
    "runner.surrogate": [(t, "reinforce_surrogate") for t in TASKS],
    "runner.noisy_objective": [(t, "noisy_objective") for t in TASKS],
    "runner.probe": [(t, "probe") for t in TASKS],
    "runner.eval": [(t, "eval_metrics") for t in TASKS],
    "em.e_step": [(em.EMTrainer, "partial_e_step")],
    "em.m_step": [(em.EMTrainer, "partial_m_step")],
    "baselines.iteration": [(baselines._GradientTrainer, "iteration")],
    "autodiff.backward": [(Tape, "backward")],
    "optim.adam": [(Adam, "step")],
    "gru.rollout": [(gru.ModularGruLM, "rollout"), (gru.NoisyTopKGruLM, "rollout")],
    # the runner calls the names it imported, so those are the ones wrapped
    "serialize.ckpt_write": [(runner, "write_checkpoint")],
    "serialize.metrics_write": [(serialize.MetricsWriter, "write")],
    "datasets.build": [(runner, "build_dataset")],
    "diagnostics.export": [
        (runner, "selection_image"),
        (runner, "write_pgm"),
        (runner, "export_path_trace"),
    ],
}

# counter name -> attribute whose calls it counts
COUNTS = {
    "modular.pool_apply_calls": (modular.ModulePool, "apply"),
    "modular.forward_selected_calls": (modular.ModularLayer, "forward_selected"),
}

# spans whose self time (duration minus direct child spans) is reported
SELF_TIMES = ("em.e_step", "em.m_step", "baselines.iteration")

CAL_PERIOD_S = 0.1
_CAL_X = np.linspace(0.0, 1.0, 512).reshape(64, 8)
_CAL_W = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def kernel_seconds() -> float:
    """Time one fixed mix of interpreter work and small-array numpy ops,
    the same kind of work a training step does (about 1.2 ms on a quiet
    core of the build box)."""
    start = time.perf_counter()
    total = 0.0
    for i in range(240):
        total += float(np.tanh(_CAL_X @ _CAL_W * (i % 7)).sum())
    return time.perf_counter() - start


class SetupDone(Exception):
    """Raised at the first training iteration when only set-up is timed."""


class Tracer:
    """Collects spans and counts for one run; install, run, uninstall.

    ``install(full=False)`` hooks only the loop boundaries and the
    calibration kernel, so an untraced run still knows when its first
    iteration began and how fast the machine ran.
    With ``stop_at_loop`` the first iteration raises ``SetupDone`` instead
    of running, which times set-up alone.
    """

    def __init__(self, stop_at_loop: bool = False):
        self.stop_at_loop = stop_at_loop
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.records: Counter = Counter()
        self.improved: list[float] = []
        self.final_ckpt_bytes: int | None = None
        self.phase = "setup"
        self.loop_start: float | None = None
        self.loop_end: float | None = None
        self.kernel_log: list[tuple[int, float]] = []  # (iteration, seconds)
        self.iteration = 0
        self._last_kernel = -math.inf
        self._span_phase: list[str] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name: str, fn):
        spans, stack, phases = self.spans, self._stack, self._span_phase

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id so children can point at it
            phases.append(self.phase)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.phase == "loop":
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, full: bool = True) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._replace(runner, "build_trainer", self._wrap_build_trainer)
        self._replace(serialize.MetricsWriter, "close", self._wrap_close)
        if not full:
            # kernels inside a step would land inside the traced spans
            self._replace(Tape, "__enter__", self._wrap_tape_enter)
            return
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._replace(owner, attr, functools.partial(self._span, name))
        for name, (owner, attr) in COUNTS.items():
            self._replace(owner, attr, functools.partial(self._count, name))
        self._replace(Tape, "record", self._wrap_record)
        self._replace(em.EMTrainer, "partial_e_step", self._wrap_e_step)
        self._replace(runner, "write_checkpoint", self._wrap_ckpt)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first, and verify it."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        first = {}
        for owner, attr, original in self._saved:
            first.setdefault((owner, attr), original)
        self._saved = []
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in first.items()
            if owner.__dict__[attr] is not original
        ]
        if stale:
            raise RuntimeError(f"wrappers left in place: {stale}")

    def _wrap_record(self, fn):
        records = self.records

        def wrapper(tape, kind, out_data, pulls):
            if self.phase == "loop":
                records[kind] += 1
            return fn(tape, kind, out_data, pulls)

        return wrapper

    def _wrap_e_step(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.phase == "loop":
                self.improved.append(out["improved_fraction"])
            return out

        return wrapper

    def _wrap_ckpt(self, fn):
        def wrapper(path, **kwargs):
            fn(path, **kwargs)
            if os.path.basename(path) == "final.ckpt":
                self.final_ckpt_bytes = os.path.getsize(path)

        return wrapper

    def _calibrate(self) -> None:
        now = time.perf_counter()
        if now - self._last_kernel >= CAL_PERIOD_S:
            self.kernel_log.append((self.iteration, kernel_seconds()))
            self._last_kernel = now

    def _wrap_build_trainer(self, fn):
        def wrapper(*args, **kwargs):
            trainer = fn(*args, **kwargs)
            step = trainer.iteration

            def iteration():
                self.iteration += 1
                if self.iteration == 1:
                    self.loop_start = time.perf_counter()
                    if self.stop_at_loop:
                        raise SetupDone
                    self.phase = "loop"
                self._calibrate()
                return step()

            trainer.iteration = iteration
            return trainer

        return wrapper

    def _wrap_tape_enter(self, fn):
        # one more chance to calibrate per gradient step, inside long iterations
        def wrapper(tape):
            if self.phase == "loop":
                self._calibrate()
            return fn(tape)

        return wrapper

    def _wrap_close(self, fn):
        def wrapper(writer):
            if self.phase == "loop":
                self.phase = "after"
                self.loop_end = time.perf_counter()
            return fn(writer)

        return wrapper

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, grad_steps: int) -> dict[str, float]:
        """Per-layer metrics; names a run never reaches are left out."""
        if self.loop_start is None or self.loop_end is None:
            raise RuntimeError("the traced run never finished its training loop")
        loop_wall = self.loop_end - self.loop_start - sum(k for _, k in self.kernel_log)
        durations: dict[str, list[float]] = {}
        loop_total: Counter = Counter()
        loop_calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for (name, start, end, parent), phase in zip(self.spans, self._span_phase):
            durations.setdefault(name, []).append(end - start)
            if phase == "loop":
                loop_total[name] += end - start
                loop_calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name, values in durations.items():
            out[f"{name}_ms"] = 1e3 * statistics.median(values)
            if loop_total[name] > 0:
                out[f"{name}_ms_share"] = loop_total[name] / loop_wall
        for name in SELF_TIMES:
            own = [
                end - start - child_time[sid]
                for sid, (n, start, end, _) in enumerate(self.spans)
                if n == name
            ]
            if own:
                out[f"{name}_self_ms"] = 1e3 * statistics.median(own)
        if self.improved:
            out["em.e_step_improved_frac"] = statistics.fmean(self.improved)
        if self.records:
            out["autodiff.records_per_step"] = sum(self.records.values()) / grad_steps
            for kind, n in self.records.items():
                out[f"autodiff.records.{kind}"] = n / grad_steps
        for name, n in self.counts.items():
            out[name] = n / grad_steps
        if loop_calls["gru.rollout"]:
            out["gru.rollout_calls"] = loop_calls["gru.rollout"] / grad_steps
        if self.final_ckpt_bytes is not None:
            out["serialize.ckpt_bytes"] = float(self.final_ckpt_bytes)
        return out
