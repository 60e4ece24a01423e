"""Experiment orchestration: build, train, evaluate, persist, resume.

``Task`` binds a model to a dataset behind the one protocol every
trainer uses, listed in its docstring.  ``execute_run`` drives any
trainer through the shared loop and leaves a self-describing run
directory: metrics stream, wall-clock sidecar, checkpoints, optional
exports, and a run record.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import time

import numpy as np

import modnet
from modnet.autodiff import Tensor, add, constant, mean_all, mul, paused
from modnet.baselines import NoisyTopKTrainer, ReinforceTrainer, StaticTrainer
from modnet.config import (
    ConfigError,
    ExperimentConfig,
    anchor_task_path,
    apply_overrides,
    check_resume_overrides,
    from_dict,
    require_object,
)
from modnet.datasets import gen_toy_regression, gen_two_regime_sequences, load_text_data
from modnet.diagnostics import export_path_trace, selection_image, write_pgm
from modnet.em import EMTrainer, NumericAbort
from modnet.gru import ModularGruLM, NoisyTopKGruLM
from modnet.modular import (
    Controller,
    ModularLayer,
    ModularNet,
    ModulePool,
    NoisyTopKGate,
    NoisyTopKNet,
    OutputHead,
)
from modnet.seeding import SeedStreams
from modnet.serialize import (
    CheckpointData,
    MetricsWriter,
    check_like,
    read_checkpoint,
    write_checkpoint,
    write_json_atomic,
)

log = logging.getLogger("modnet")


def _static_pattern(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.trainer.static_indices is not None:
        return np.asarray(cfg.trainer.static_indices, dtype=np.int64)
    a = cfg.architecture
    return np.asarray([k % a.n_modules for k in range(a.n_slots)], dtype=np.int64)


class Task:
    """A model bound to one dataset behind the trainer protocol.

    Trainers address examples by index arrays ``idx`` and see
    ``n_examples``, ``n_choices`` (modules per slot), ``unit_shape``
    (units, slots; a unit is a layer or a timestep) and ``parameters()``;
    the search steps ``propose_and_score`` and ``enumerate_and_score``
    (candidates (candidates, batch, units, slots), the incumbent first,
    and their joint scores); the objectives ``objective``,
    ``reinforce_surrogate`` and ``noisy_objective``, built under the
    active tape; ``sample_comps`` (off any tape) and ``static_comps``;
    ``probe``; and ``eval_metrics``, which each kind reports its own way.
    The static trainer's fixed pattern also steers probes and evaluation.
    """

    def __init__(self, model, inputs, targets, cfg: ExperimentConfig):
        self.model = model
        self.inputs, self.targets = inputs, targets
        self.n_examples = len(inputs)
        self.n_choices = cfg.architecture.n_modules
        self.unit_shape = (model.n_units(inputs), cfg.architecture.n_slots)
        self._pattern = _static_pattern(cfg)
        self._fixed_path = cfg.trainer.kind == "static"

    def parameters(self):
        return self.model.parameters()

    def propose_and_score(self, idx, incumbent, n_samples, rng):
        x, y = self.inputs[idx], self.targets[idx]
        return self.model.propose_and_score(x, y, incumbent, n_samples, rng)

    def enumerate_and_score(self, idx, incumbent):
        """The incumbent and every batch-shared composition, then their scores."""
        x, y, inc = self.inputs[idx], self.targets[idx], np.asarray(incumbent)
        space, scores = self.model.enumerate_and_score(x, y)
        return np.concatenate([inc[None], space]), np.vstack([self.model.score(x, y, inc), scores])

    def objective(self, idx, comps, with_ctrl: bool = True) -> Tensor:
        x, y = self.inputs[idx], self.targets[idx]
        res = self.model.rollout(x, y, comps=comps, with_ctrl=with_ctrl)
        return mean_all(add(res.cond_ll, res.ctrl_ll) if with_ctrl else res.cond_ll)

    def sample_comps(self, idx, rng):
        # off any tape, and without targets the walk skips the output head
        with paused():
            return self.model.rollout(self.inputs[idx], rng=rng).comps

    def reinforce_surrogate(self, idx, comps, baseline, rng=None):
        """Score-function surrogate: the conditional log-likelihood plus the
        controller log-probability weighted by the detached advantage.

        With ``comps`` None the walk that builds the surrogate also draws the
        compositions with ``rng``, in the order ``sample_comps`` would, so one
        rollout both samples and scores.
        """
        x, y = self.inputs[idx], self.targets[idx]
        res = self.model.rollout(x, y, comps, rng=rng, with_ctrl=True, detach_ctrl_inputs=True)
        rewards = res.cond_ll.data.copy()
        obj = add(mean_all(res.cond_ll), mean_all(mul(res.ctrl_ll, constant(rewards - baseline))))
        return obj, rewards

    def noisy_objective(self, idx, train, rng) -> Tensor:
        x, y = self.inputs[idx], self.targets[idx]
        return mean_all(self.model.rollout(x, y, train=train, rng=rng).cond_ll)

    def static_comps(self, idx):
        return np.broadcast_to(self._pattern, (len(idx), *self.unit_shape))

    def _path(self, idx) -> np.ndarray | None:
        return self.static_comps(idx) if self._fixed_path else None

    def probe(self, idx, rng):
        return self.model.probe(self.inputs[idx], rng, self._path(idx))

    def _evaluate(self, mode: str, units: int):
        """(predictions or None, nll) over the whole dataset.  The nll is the
        mean of the model's reported log-likelihoods, or in the
        enumerate-marginal mode the exact marginal per example over ``units``."""
        inputs, targets = self.inputs, self.targets
        pred, ll = self.model.evaluate(inputs, targets, self._path(np.arange(self.n_examples)))
        if mode != "enumerate-marginal":
            return pred, -float(ll.mean())
        try:
            return pred, -float(self.model.marginal_log_lik(inputs, targets).mean()) / units
        except ValueError as exc:
            raise ConfigError(f"mode: {exc}") from exc


class RegressionTask(Task):
    """Two-cluster regression: mse and the nll per example."""

    # perfbench/tracer.py wraps these by name in each kind's own class dict
    objective, probe, sample_comps = Task.objective, Task.probe, Task.sample_comps
    propose_and_score, noisy_objective = Task.propose_and_score, Task.noisy_objective
    reinforce_surrogate = Task.reinforce_surrogate

    def eval_metrics(self, mode: str = "most-likely-composition") -> dict:
        pred, nll = self._evaluate(mode, units=1)
        return {"mode": mode, "mse": float(np.mean((pred - self.targets) ** 2)), "nll": nll}


class SequenceTask(Task):
    """Windowed next-token modelling: the nll per token and its perplexity."""

    # perfbench/tracer.py wraps these by name in each kind's own class dict
    objective, probe, sample_comps = Task.objective, Task.probe, Task.sample_comps
    propose_and_score, noisy_objective = Task.propose_and_score, Task.noisy_objective
    reinforce_surrogate = Task.reinforce_surrogate

    def eval_metrics(self, mode: str = "most-likely-composition") -> dict:
        _, nll = self._evaluate(mode, units=self.unit_shape[0])
        return {"mode": mode, "nll": nll, "perplexity": float(np.exp(nll))}


# ---------------------------------------------------------------------------
# builders


def build_dataset(cfg: ExperimentConfig, streams: SeedStreams):
    t = cfg.task
    if t.kind == "toy-regression":
        return gen_toy_regression(
            streams["data"], t.n, t.dim, t.center, t.spread, t.scale_lo, t.scale_hi
        )
    if t.kind == "two-regime-lm":
        return gen_two_regime_sequences(
            streams["data"], t.n_windows, t.unroll, t.n_states, t.noise
        )
    # text-lm, the only kind left once the config has validated
    try:
        return load_text_data(t.path, t.mode, t.unroll, t.vocab_cap)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"task.path: cannot read corpus {t.path!r}: {exc}") from exc
    except ValueError as exc:  # a validated config leaves one cause: too short a corpus
        raise ConfigError(f"task.unroll: {t.path!r}: {exc}") from exc


def _toy_dims(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    a, d = cfg.architecture, cfg.task.dim
    widths = [d] + [a.hidden] * (a.n_layers - 1) + [d]
    return list(zip(widths[:-1], widths[1:]))


def build_model(cfg: ExperimentConfig, data, streams: SeedStreams):
    a = cfg.architecture
    rng = streams["init"]
    gated = cfg.trainer.kind == "noisy-topk"
    if cfg.task.kind == "toy-regression":
        layers = []
        for l, (din, dout) in enumerate(_toy_dims(cfg)):
            # each layer draws its pool, then its router
            pool = ModulePool(rng, a.n_modules, din, dout, a.module_kind, f"l{l}.pool")
            if gated:
                router = NoisyTopKGate(rng, din, a.n_modules, a.topk, f"l{l}.gate")
            else:
                router = Controller(rng, din, a.n_modules, a.n_slots, f"l{l}.ctrl")
            layers.append(ModularLayer(pool, router))
        return (NoisyTopKNet if gated else ModularNet)(layers, OutputHead())
    if gated:
        return NoisyTopKGruLM(rng, data.vocab_size, a.embed_dim, a.hidden, a.n_modules, a.topk)
    return ModularGruLM(rng, data.vocab_size, a.embed_dim, a.hidden, a.n_modules, a.n_slots)


def build_task(cfg: ExperimentConfig, model, data):
    if cfg.task.kind == "toy-regression":
        return RegressionTask(model, data.x, data.y, cfg)
    return SequenceTask(model, data.tokens, data.targets, cfg)


def _effective_clip(cfg: ExperimentConfig) -> float | None:
    # recurrent tasks clip at 5.0 unless the config says otherwise; 0 disables
    clip = cfg.trainer.clip_norm
    if clip is None:
        return 5.0 if cfg.task.kind in ("two-regime-lm", "text-lm") else None
    return None if clip == 0 else float(clip)


def build_trainer(cfg: ExperimentConfig, task, streams: SeedStreams):
    trainer = {
        "em": EMTrainer,
        "reinforce": ReinforceTrainer,
        "noisy-topk": NoisyTopKTrainer,
        "static": StaticTrainer,
    }[cfg.trainer.kind]
    return trainer(task, cfg.trainer, streams, _effective_clip(cfg))


# ---------------------------------------------------------------------------
# run orchestration


def _load_params(params, ckpt: CheckpointData) -> None:
    """Copy a checkpoint's arrays into the pieces of ``params``, refusing
    another library version and any parameter or moment arrays other than
    one of each piece's shape."""
    if ckpt.version != modnet.__version__:
        raise ConfigError(
            f"checkpoint version {ckpt.version} does not match "
            f"library version {modnet.__version__}"
        )
    pieces = {name: view for p in params for name, view in p.pieces}
    try:
        for path, arrays in (("param", ckpt.params), ("opt_m", ckpt.opt_m), ("opt_v", ckpt.opt_v)):
            check_like(arrays, pieces, path)
    except ValueError as exc:
        raise ConfigError(f"checkpoint arrays do not fit the model: {exc}") from exc
    for name, view in pieces.items():
        view[...] = ckpt.params[name]


def _restore_into(trainer, task, streams, ckpt: CheckpointData) -> None:
    _load_params(task.parameters(), ckpt)
    arrays = dict(ckpt.trainer_arrays)
    if "buffer_comps" in arrays:  # EM checkpoints before int64 compositions kept scores too
        arrays.pop("buffer_scores", None)
    saved = {
        "arrays": arrays,
        "opt": {"t": ckpt.opt_t, "m": ckpt.opt_m, "v": ckpt.opt_v},
        "scalars": ckpt.trainer_scalars,
    }
    try:
        check_like(saved, trainer.state(), "trainer")
        check_like(ckpt.streams_state, streams.state(), "rng")
        trainer.restore(saved)
        streams.restore(ckpt.streams_state)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"trainer or random-stream state does not restore: {exc!r}") from exc
    _resume_step_counts(trainer, ckpt.iteration)


def _resume_step_counts(trainer, iteration: int) -> None:
    """Refuse step counts that no run writes: each ascent step moves Adam
    or counts as skipped, so ``opt_t + total == iteration * m_steps`` with
    the streak below the guard's limit, except in an ``abort.ckpt``: at the
    limit, the count inside ``iteration``.  Resuming one counts its unrun
    steps as skipped and starts a new streak, so its checkpoints keep this."""
    t, guard, m = trainer.opt.t, trainer.guard, trainer.cfg.m_steps
    if not 0 <= guard.streak <= min(guard.total, guard.limit):
        raise ConfigError(
            f"scalars.streak: {guard.streak} is negative, or above scalars.total "
            f"{guard.total} or the guard's limit {guard.limit}"
        )
    hi = iteration * m
    lo = hi if guard.streak < guard.limit else hi - m + 1
    if not lo <= t + guard.total <= hi:
        raise ConfigError(
            f"opt_t: {t} plus scalars.total {guard.total} ascent steps do not end "
            f"iteration {iteration} at trainer.m_steps {m}"
        )
    if guard.streak == guard.limit:
        guard.streak, guard.total = 0, hi - t


def _save(trainer, task, streams, cfg, iteration, path) -> None:
    # the run's location stays out of the header: a resume picks its own,
    # and two runs of one config write the same bytes wherever they ran
    write_checkpoint(
        path,
        version=modnet.__version__,
        config=dict(cfg.to_dict(), out_dir=None),
        iteration=iteration,
        streams_state=streams.state(),
        params=task.parameters(),
        trainer_state=trainer.state(),
    )


def execute_run(
    cfg: ExperimentConfig, out_dir: str, resume_from: CheckpointData | None = None
) -> dict:
    """Train per config into ``out_dir``; returns the run record dict.

    With ``resume_from``, every piece of mutable state is restored first
    and the loop continues from the stored iteration; the metrics file of
    the resumed segment holds exactly the rows an uninterrupted run would
    have produced for those iterations.
    """
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    probe_idx = streams["probe"].integers(
        0, task.n_examples, size=min(cfg.diagnostics.probe_size, task.n_examples)
    )
    trainer = build_trainer(cfg, task, streams)

    start = 0
    if resume_from is not None:
        start = resume_from.iteration
        if not 0 <= start <= cfg.trainer.iterations:
            raise ConfigError(
                f"iteration: the checkpoint is at {start}, "
                f"outside [0, {cfg.trainer.iterations}]"
            )
        _restore_into(trainer, task, streams, resume_from)

    # directories only once everything that can refuse the config has run
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

    exports_dir = os.path.join(out_dir, "exports")
    if cfg.diagnostics.export_images or cfg.diagnostics.export_traces:
        os.makedirs(exports_dir, exist_ok=True)

    checkpoints: list[str] = []
    status, failure = "completed", None
    last_row = None
    t0 = time.monotonic()
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    timing_path = os.path.join(out_dir, "timing.jsonl")
    iteration = start
    with MetricsWriter(metrics_path) as metrics, MetricsWriter(timing_path) as timing:
        try:
            for iteration in range(start + 1, cfg.trainer.iterations + 1):
                stats = trainer.iteration()
                snap, paths = task.probe(probe_idx, streams["probe"])
                row = {
                    "iteration": iteration,
                    "objective": stats["objective"],
                    "h_a": snap.h_selection,
                    "h_b": snap.h_batch,
                    "e_step_improved_fraction": stats.get(
                        "e_step_improved_fraction", 0.0
                    ),
                }
                metrics.write(row)
                timing.write(
                    {"iteration": iteration, "wall_time_s": time.monotonic() - t0}
                )
                last_row = row
                if iteration % cfg.diagnostics.interval == 0:
                    if cfg.diagnostics.export_images:
                        for l, probs in enumerate(snap.probs):
                            write_pgm(
                                selection_image(probs),
                                os.path.join(
                                    exports_dir, f"it{iteration:06d}_layer{l}.pgm"
                                ),
                            )
                    if cfg.diagnostics.export_traces:
                        export_path_trace(
                            paths,
                            task.n_choices,
                            os.path.join(exports_dir, f"it{iteration:06d}_paths.dot"),
                        )
                ci = cfg.diagnostics.checkpoint_interval
                if ci and iteration % ci == 0 and iteration < cfg.trainer.iterations:
                    path = os.path.join(ckpt_dir, f"step-{iteration:06d}.ckpt")
                    _save(trainer, task, streams, cfg, iteration, path)
                    checkpoints.append(path)
        except NumericAbort as exc:
            status, failure = "aborted", str(exc)
            path = os.path.join(ckpt_dir, "abort.ckpt")
            _save(trainer, task, streams, cfg, iteration, path)
            checkpoints.append(path)
            log.error("numeric abort at iteration %d: %s", iteration, exc)

    if status == "completed":
        final_path = os.path.join(ckpt_dir, "final.ckpt")
        _save(trainer, task, streams, cfg, cfg.trainer.iterations, final_path)
        checkpoints.append(final_path)
        try:
            eval_metrics = _finite_eval(task)
        except NumericAbort as exc:
            status, failure, eval_metrics = "aborted", str(exc), None
    else:
        eval_metrics = None

    record = {
        "version": modnet.__version__,
        "config": cfg.to_dict(),
        "status": status,
        "failure": failure,
        "resumed_from": start if resume_from is not None else None,
        "metrics_path": metrics_path,
        "timing_path": timing_path,
        "checkpoints": checkpoints,
        "summary": {
            "iterations": iteration if status == "aborted" else cfg.trainer.iterations,
            "final_objective": None if last_row is None else last_row["objective"],
            "final_h_a": None if last_row is None else last_row["h_a"],
            "final_h_b": None if last_row is None else last_row["h_b"],
            "eval": eval_metrics,
        },
    }
    write_json_atomic(os.path.join(out_dir, "run_record.json"), record)
    if status == "aborted":
        raise NumericAbort(failure)
    return record


def _finite_eval(task, mode: str = "most-likely-composition") -> dict:
    """The task's evaluation; ``NumericAbort`` names each non-finite metric."""
    out = task.eval_metrics(mode)
    bad = [k for k, v in out.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NumericAbort(f"evaluation: {', '.join(bad)} not finite")
    return out


def resolve_out_dir(cfg: ExperimentConfig, out_root: str, tag: str = "") -> str:
    if cfg.out_dir:
        base = cfg.out_dir
        if not os.path.isabs(base):
            base = os.path.join(out_root, base)
        return base
    stem = f"{cfg.task.kind}-{cfg.trainer.kind}-s{cfg.seed}{tag}"
    candidate = os.path.join(out_root, stem)
    suffix = 0
    while os.path.exists(candidate) and os.listdir(candidate):
        suffix += 1
        candidate = os.path.join(out_root, f"{stem}-{suffix}")
    return candidate


def resume_run(checkpoint_path: str, overrides: list[str], out_root: str) -> dict:
    """Continue a checkpointed run; only schedule overrides are allowed.

    Output goes to a fresh directory (suffix ``-resume``) unless an
    ``out_dir`` override points elsewhere, so the original run's files
    stay untouched.
    """
    check_resume_overrides(overrides)
    ckpt = read_checkpoint(checkpoint_path)
    raw = apply_overrides(ckpt.config, overrides) if overrides else ckpt.config
    cfg = from_dict(raw)
    if not any(o.split("=", 1)[0] == "out_dir" for o in overrides):
        cfg.out_dir = None
        out_dir = resolve_out_dir(cfg, out_root, tag="-resume")
    else:
        out_dir = resolve_out_dir(cfg, out_root)
    try:
        return execute_run(cfg, out_dir, resume_from=ckpt)
    except ConfigError as exc:
        raise ConfigError(f"{checkpoint_path}: {exc}") from exc


def emit_sweep(grid_path: str, out_root: str) -> dict:
    """Expand a grid file into one config per combination; nothing runs.

    Grid file keys: ``base`` (inline config object) or ``base_path``
    (relative to the grid file), optional ``axes`` mapping dotted config
    keys to value lists, optional ``out_dir``.  Without ``axes`` the
    default comparison grid is 5 or 15 modules with EM, REINFORCE and
    static at 1 or 3 slots, and noisy top-k, whose gate routes one slot,
    at 1.
    """
    with open(grid_path, "r", encoding="utf-8") as fh:
        grid = require_object(json.load(fh), "sweep grid")
    if "base" in grid:
        base = require_object(grid["base"], "base")
        anchor_task_path(base, os.path.dirname(os.path.abspath(grid_path)))
    elif "base_path" in grid:
        if not isinstance(grid["base_path"], str):
            raise ConfigError(f"base_path: expected a file name, got {grid['base_path']!r}")
        rel = os.path.join(os.path.dirname(os.path.abspath(grid_path)), grid["base_path"])
        with open(rel, "r", encoding="utf-8") as fh:
            base = require_object(json.load(fh), f"base_path {rel}")
        anchor_task_path(base, os.path.dirname(os.path.abspath(rel)))
    else:
        raise ConfigError("sweep grid needs 'base' or 'base_path'")
    modules = {"architecture.n_modules": [5, 15]}
    default = [
        {**modules, "architecture.n_slots": [1, 3], "trainer.kind": ["em", "reinforce", "static"]},
        {**modules, "architecture.n_slots": [1], "trainer.kind": ["noisy-topk"]},
    ]
    grids = [grid["axes"]] if "axes" in grid else default
    for axes in grids:
        if not isinstance(axes, dict) or not axes:
            raise ConfigError("sweep axes must be a non-empty object")
        for key, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(
                    f"axes.{key}: expected a non-empty list of values, got {values!r}"
                )
    sweep_dir = grid.get("out_dir", "sweep")
    if not isinstance(sweep_dir, str):
        raise ConfigError(f"out_dir: expected a directory name, got {sweep_dir!r}")
    if not os.path.isabs(sweep_dir):
        sweep_dir = os.path.join(out_root, sweep_dir)
    settings = []
    for axes in grids:
        keys = sorted(axes)
        settings += [dict(zip(keys, c)) for c in itertools.product(*[axes[k] for k in keys])]
    configs = []
    for i, combo in enumerate(settings):
        data = apply_overrides(base, [f"{k}={json.dumps(v)}" for k, v in combo.items()])
        data["out_dir"] = os.path.join(sweep_dir, f"combo-{i:03d}")
        from_dict(data)  # every combination validates before any is written
        configs.append(data)
    os.makedirs(sweep_dir, exist_ok=True)
    entries = []
    for i, (data, combo) in enumerate(zip(configs, settings)):
        path = os.path.join(sweep_dir, f"combo-{i:03d}.json")
        write_json_atomic(path, data)
        entries.append({"path": path, "settings": combo})
    manifest = {"grid": grid_path, "configs": entries}
    write_json_atomic(os.path.join(sweep_dir, "manifest.json"), manifest)
    return manifest


def evaluate_checkpoint(
    checkpoint_path: str, dataset_spec: str, mode: str = "most-likely-composition"
) -> dict:
    """Rebuild the model from a checkpoint and score a dataset.

    ``dataset_spec`` is ``train`` (regenerate the run's own data) or a
    JSON file ``{"task": {...}, "seed": N}`` describing another dataset.
    A spec ``seed`` other than the run's draws a synthetic process
    afresh: on two-regime data it redraws the transition tables, so the
    spec is scored on another process, not on held-out windows of the
    trained one.
    """
    if mode not in ("most-likely-composition", "enumerate-marginal"):
        raise ConfigError(
            f"mode: expected most-likely-composition or enumerate-marginal, got {mode!r}"
        )
    ckpt = read_checkpoint(checkpoint_path)
    cfg = data_cfg = from_dict(ckpt.config)
    streams = SeedStreams(cfg.seed)
    if dataset_spec == "train":
        data = build_dataset(cfg, streams)
    else:
        with open(dataset_spec, "r", encoding="utf-8") as fh:
            spec = require_object(json.load(fh), f"dataset spec {dataset_spec}")
        unknown = sorted(set(spec) - {"task", "seed"})
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown dataset spec field")
        # a relative corpus path is read against the spec's own directory
        anchor_task_path(spec, os.path.dirname(os.path.abspath(dataset_spec)))
        # the checkpoint's config with the spec's task and seed, validated as one
        data_cfg = from_dict(
            dict(ckpt.config, task=spec.get("task", ckpt.config["task"]),
                 seed=spec.get("seed", cfg.seed))
        )
        want, got = cfg.task, data_cfg.task
        if got.kind != want.kind:
            raise ConfigError(f"task.kind: the checkpoint models {want.kind!r}, got {got.kind!r}")
        # the task field that sets the model's input size, where one does
        key = {"toy-regression": "dim", "two-regime-lm": "n_states"}.get(want.kind)
        if key and getattr(got, key) != getattr(want, key):
            raise ConfigError(
                f"task.{key}: the checkpoint's model takes {getattr(want, key)}, "
                f"got {getattr(got, key)}"
            )
        data = build_dataset(data_cfg, SeedStreams(data_cfg.seed))
    # a corpus with another vocabulary would reach the model as a shape error
    rows = np.shape(ckpt.params.get(ModularGruLM.EMBED))[:1]
    if cfg.task.kind == "text-lm" and rows and rows[0] != data.vocab_size:
        got = data_cfg.task
        field = "task.vocab_cap" if got.vocab_cap != cfg.task.vocab_cap else "task.path"
        raise ConfigError(
            f"{field}: {got.path!r} at vocab_cap {got.vocab_cap} has a vocabulary of "
            f"{data.vocab_size} tokens, the checkpoint's model {rows[0]}"
        )
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    _load_params(task.parameters(), ckpt)
    out = _finite_eval(task, mode)
    out["iteration"] = ckpt.iteration
    return out
