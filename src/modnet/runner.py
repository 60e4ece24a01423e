"""Experiment orchestration: build, train, evaluate, persist, resume.

A task adapter binds a model to a dataset behind the trainer protocol
(index-based minibatches, composition proposals, objectives, probes).
``execute_run`` drives any trainer through the shared loop and leaves a
self-describing run directory: metrics stream, wall-clock sidecar,
checkpoints, optional exports, dataset cache, and a run record.
"""

from __future__ import annotations

import itertools
import json
import logging
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
)
from modnet.datasets import (
    ToyRegression,
    TwoRegimeData,
    gen_toy_regression,
    gen_two_regime_sequences,
    load_text_data,
)
from modnet.diagnostics import SelectionSnapshot, export_path_trace, selection_image, write_pgm
from modnet.em import EMTrainer, NumericAbort
from modnet.gru import ModularGruLM, NoisyTopKGruLM
from modnet.modular import (
    Controller,
    ModularLayer,
    ModularNet,
    ModulePool,
    NoisyTopKGate,
    NoisyTopKLayer,
    NoisyTopKNet,
    OutputHead,
    enumerate_compositions,
)
from modnet.seeding import SeedStreams
from modnet.serialize import (
    CheckpointData,
    MetricsWriter,
    read_checkpoint,
    save_array_bundle,
    write_checkpoint,
    write_json_atomic,
)

log = logging.getLogger("modnet")

ENUM_BUDGET = 100_000
SEQ_ENUM_BUDGET = 4096


def _static_pattern(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.trainer.static_indices is not None:
        return np.asarray(cfg.trainer.static_indices, dtype=np.int64)
    a = cfg.architecture
    return np.asarray([k % a.n_modules for k in range(a.n_slots)], dtype=np.int64)


def _enumerate_and_score(task, idx, incumbent, budget: int, score):
    """The incumbent and every batch-shared composition, then their scores."""
    space = enumerate_compositions(task.n_choices, *task.unit_shape, budget)
    shared = np.broadcast_to(space[:, None], (len(space), len(idx), *space.shape[1:]))
    cands = np.concatenate([np.asarray(incumbent)[None], shared])
    return cands, np.stack([score(c) for c in cands])


class RegressionTask:
    """Two-cluster regression behind the trainer protocol."""

    def __init__(self, model, data: ToyRegression, cfg: ExperimentConfig):
        self.model = model
        self.data = data
        self.cfg = cfg
        self.n_examples = data.n
        self.n_choices = cfg.architecture.n_modules
        if isinstance(model, ModularNet):
            self.unit_shape = (model.n_layers, model.n_slots)

    def parameters(self):
        return self.model.parameters()

    def propose_and_score(self, idx, incumbent, n_samples, rng):
        x, y = self.data.x[idx], self.data.y[idx]
        cands = [np.asarray(incumbent)]
        for _ in range(n_samples):
            cands.append(self.model.sample_compositions(x, rng))
        stacked = np.stack(cands)
        scores = np.stack([self.model.score_compositions(x, y, c) for c in stacked])
        return stacked, scores

    def enumerate_and_score(self, idx, incumbent):
        x, y = self.data.x[idx], self.data.y[idx]
        return _enumerate_and_score(
            self, idx, incumbent, ENUM_BUDGET, lambda c: self.model.score_compositions(x, y, c)
        )

    def objective(self, idx, comps, with_ctrl: bool = True) -> Tensor:
        x, y = self.data.x[idx], self.data.y[idx]
        if with_ctrl:
            ll = self.model.joint_log_prob(x, y, comps)
        else:
            ll = self.model.cond_log_lik(x, y, comps)
        return mean_all(ll)

    def sample_comps(self, idx, rng):
        # the draw never feeds a loss, so it stays off any active tape
        with paused():
            return self.model.sample_compositions(self.data.x[idx], rng)

    def reinforce_surrogate(self, idx, comps, baseline):
        x, y = self.data.x[idx], self.data.y[idx]
        h, ctrl_ll = self.model.forward(x, comps, with_ctrl=True, detach_ctrl_inputs=True)
        cond = self.model.head.log_prob(h, y)
        rewards = cond.data.copy()
        advantage = rewards - baseline
        obj = add(mean_all(cond), mean_all(mul(ctrl_ll, constant(advantage))))
        return obj, rewards

    def noisy_objective(self, idx, train, rng) -> Tensor:
        x, y = self.data.x[idx], self.data.y[idx]
        return mean_all(self.model.cond_log_lik(x, y, train=train, rng=rng))

    def static_comps(self, idx):
        pattern = _static_pattern(self.cfg)
        layers = self.cfg.architecture.n_layers
        return np.broadcast_to(pattern, (len(idx), layers, pattern.size))

    def probe(self, idx, rng):
        x = self.data.x[idx]
        if isinstance(self.model, NoisyTopKNet):
            _, weights, _ = self.model.forward(x, train=False)
            probs = [w[:, None, :] for w in weights]
            comps = np.stack([w.argmax(axis=-1)[:, None] for w in weights], axis=1)
        elif self.cfg.trainer.kind == "static":
            comps = self.static_comps(idx)
            probs = []
            h = x
            for l, layer in enumerate(self.model.layers):
                probs.append(layer.controller.distribution(h))
                h = layer.forward_selected(Tensor(h), comps[:, l]).data
        else:
            comps, probs = self.model.trace(x, rng=rng)
        chosen = [comps[:, l] for l in range(comps.shape[1])]
        return SelectionSnapshot(probs, chosen), comps

    def eval_metrics(self, mode: str = "most-likely-composition") -> dict:
        x, y = self.data.x, self.data.y
        if isinstance(self.model, NoisyTopKNet):
            if mode == "enumerate-marginal":
                raise ConfigError("mode: mixture gating has no compositions to enumerate")
            pred = self.model.predict(x)
            nll = -float(self.model.cond_log_lik(x, y, train=False).data.mean())
            mse = float(np.mean((pred - y) ** 2))
            return {"mode": mode, "mse": mse, "nll": nll}
        if self.cfg.trainer.kind == "static":
            comps = self.static_comps(np.arange(self.data.n))
        else:
            comps = self.model.greedy_compositions(x)
        pred = self.model.predict(x, comps)
        mse = float(np.mean((pred - y) ** 2))
        out = {"mode": mode, "mse": mse, "nll": -float(self.model.cond_log_lik(x, y, comps).data.mean())}
        if mode == "enumerate-marginal":
            try:
                out["nll"] = -float(self.model.marginal_log_lik(x, y, ENUM_BUDGET).mean())
            except ValueError as exc:
                raise ConfigError(f"mode: {exc}") from exc
        return out


class SequenceTask:
    """Windowed next-token modelling behind the trainer protocol."""

    def __init__(self, model, data, cfg: ExperimentConfig):
        self.model = model
        self.data = data
        self.cfg = cfg
        self.n_examples = data.n
        self.n_choices = cfg.architecture.n_modules
        if isinstance(model, ModularGruLM):
            self.unit_shape = (data.tokens.shape[1], model.n_slots)

    def parameters(self):
        return self.model.parameters()

    def propose_and_score(self, idx, incumbent, n_samples, rng):
        return self.model.propose_and_score(
            self.data.tokens[idx], self.data.targets[idx], incumbent, n_samples, rng
        )

    def enumerate_and_score(self, idx, incumbent):
        tokens, targets = self.data.tokens[idx], self.data.targets[idx]
        return _enumerate_and_score(
            self, idx, incumbent, SEQ_ENUM_BUDGET, lambda c: self.model.score(tokens, targets, c)
        )

    def objective(self, idx, comps, with_ctrl: bool = True) -> Tensor:
        res = self.model.rollout(
            self.data.tokens[idx],
            self.data.targets[idx],
            comps=np.asarray(comps),
            with_ctrl=with_ctrl,
        )
        ll = add(res.cond_ll, res.ctrl_ll) if with_ctrl else res.cond_ll
        return mean_all(ll)

    def sample_comps(self, idx, rng):
        # the draw never feeds a loss, so it stays off any active tape
        # and without targets the unroll skips the output head
        with paused():
            return self.model.rollout(self.data.tokens[idx], rng=rng).comps

    def reinforce_surrogate(self, idx, comps, baseline):
        res = self.model.rollout(
            self.data.tokens[idx],
            self.data.targets[idx],
            comps=np.asarray(comps),
            with_ctrl=True,
            detach_ctrl_inputs=True,
        )
        rewards = res.cond_ll.data.copy()
        advantage = rewards - baseline
        obj = add(mean_all(res.cond_ll), mean_all(mul(res.ctrl_ll, constant(advantage))))
        return obj, rewards

    def noisy_objective(self, idx, train, rng) -> Tensor:
        res = self.model.rollout(
            self.data.tokens[idx], self.data.targets[idx], train=train, rng=rng
        )
        return mean_all(res.cond_ll)

    def static_comps(self, idx):
        pattern = _static_pattern(self.cfg)
        steps = self.data.tokens.shape[1]
        return np.broadcast_to(pattern, (len(idx), steps, pattern.size))

    def probe(self, idx, rng):
        tokens, targets = self.data.tokens[idx], self.data.targets[idx]
        batch, steps = tokens.shape
        if isinstance(self.model, NoisyTopKGruLM):
            res = self.model.rollout(tokens, targets, train=False, collect_weights=True)
            flat = res.weights.reshape(batch * steps, 1, -1)
            snap = SelectionSnapshot([flat], [flat.argmax(axis=-1)])
            paths = res.weights.argmax(axis=-1)[:, :, None]
            return snap, paths
        if self.cfg.trainer.kind == "static":
            comps = np.ascontiguousarray(self.static_comps(idx))
            res = self.model.rollout(tokens, targets, comps=comps, collect_probs=True)
        else:
            res = self.model.rollout(tokens, targets, rng=rng, collect_probs=True)
        k, m = res.probs.shape[2], res.probs.shape[3]
        snap = SelectionSnapshot(
            [res.probs.reshape(batch * steps, k, m)],
            [res.comps.reshape(batch * steps, k)],
        )
        return snap, res.comps

    def eval_metrics(self, mode: str = "most-likely-composition") -> dict:
        tokens, targets = self.data.tokens, self.data.targets
        if isinstance(self.model, NoisyTopKGruLM):
            if mode == "enumerate-marginal":
                raise ConfigError("mode: mixture gating has no compositions to enumerate")
            res = self.model.rollout(tokens, targets, train=False)
            nll = -float(res.token_ll.mean())
            return {"mode": mode, "nll": nll, "perplexity": float(np.exp(nll))}
        if mode == "enumerate-marginal":
            try:
                marg = self.model.marginal_log_lik(tokens, targets, SEQ_ENUM_BUDGET)
            except ValueError as exc:
                raise ConfigError(f"mode: {exc}") from exc
            nll = -float(marg.mean()) / tokens.shape[1]
        elif self.cfg.trainer.kind == "static":
            comps = np.ascontiguousarray(self.static_comps(np.arange(self.data.n)))
            res = self.model.rollout(tokens, targets, comps=comps)
            nll = -float(res.token_ll.mean())
        else:
            res = self.model.rollout(tokens, targets, greedy=True)
            nll = -float(res.token_ll.mean())
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
    if t.kind == "text-lm":
        return load_text_data(t.path, t.mode, t.unroll, t.vocab_cap)
    raise ConfigError(f"task.kind: unknown task {t.kind!r}")


def _toy_dims(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    a = cfg.architecture
    d = cfg.task.dim
    if a.n_layers == 1:
        return [(d, d)]
    dims = []
    width = d
    for l in range(a.n_layers):
        out = a.hidden if l < a.n_layers - 1 else d
        dims.append((width, out))
        width = out * (a.n_slots if a.combine == "concat" else 1)
    return dims


def build_model(cfg: ExperimentConfig, data, streams: SeedStreams):
    a = cfg.architecture
    rng = streams["init"]
    if cfg.task.kind == "toy-regression":
        if cfg.trainer.kind == "noisy-topk":
            layers = []
            for l, (din, dout) in enumerate(_toy_dims(cfg)):
                pool = ModulePool(rng, a.n_modules, din, dout, a.module_kind, f"l{l}.pool")
                gate = NoisyTopKGate(rng, din, a.n_modules, a.topk, f"l{l}.gate")
                layers.append(NoisyTopKLayer(pool, gate))
            return NoisyTopKNet(layers, OutputHead("gaussian"))
        layers = []
        for l, (din, dout) in enumerate(_toy_dims(cfg)):
            pool = ModulePool(rng, a.n_modules, din, dout, a.module_kind, f"l{l}.pool")
            ctrl = Controller(rng, din, a.n_modules, a.n_slots, f"l{l}.ctrl")
            layers.append(ModularLayer(pool, ctrl, a.combine))
        return ModularNet(layers, OutputHead("gaussian"))
    vocab = data.vocab if isinstance(data, TwoRegimeData) else data.vocab_size
    if cfg.trainer.kind == "noisy-topk":
        return NoisyTopKGruLM(rng, vocab, a.embed_dim, a.hidden, a.n_modules, a.topk)
    return ModularGruLM(rng, vocab, a.embed_dim, a.hidden, a.n_modules, a.n_slots)


def build_task(cfg: ExperimentConfig, model, data):
    if cfg.task.kind == "toy-regression":
        return RegressionTask(model, data, cfg)
    return SequenceTask(model, data, cfg)


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
    }.get(cfg.trainer.kind)
    if trainer is None:
        raise ConfigError(f"trainer.kind: unknown trainer {cfg.trainer.kind!r}")
    return trainer(task, cfg.trainer, streams, _effective_clip(cfg))


# ---------------------------------------------------------------------------
# run orchestration


def _dataset_cache_arrays(data) -> dict[str, np.ndarray] | None:
    if isinstance(data, ToyRegression):
        return {
            "x": data.x,
            "y": data.y,
            "cluster": data.cluster,
            "rotation": data.rotation,
            "scale": data.scale,
        }
    if isinstance(data, TwoRegimeData):
        return {
            "tokens": data.tokens,
            "targets": data.targets,
            "regimes": data.regimes,
            "tables": data.tables,
        }
    return None


def _restore_into(trainer, task, streams, ckpt: CheckpointData) -> None:
    params = task.parameters()
    for p in params:
        if p.name not in ckpt.params:
            raise ConfigError(f"checkpoint missing parameter {p.name!r}")
        saved = ckpt.params[p.name]
        if saved.shape != p.data.shape:
            raise ConfigError(
                f"checkpoint parameter {p.name!r} has shape {saved.shape}, "
                f"model expects {p.data.shape}"
            )
        p.data[...] = saved
    try:
        trainer.restore(
            {
                "arrays": ckpt.trainer_arrays,
                "opt": {
                    "t": ckpt.opt_t,
                    "m": [ckpt.opt_m[p.name] for p in params],
                    "v": [ckpt.opt_v[p.name] for p in params],
                },
                "scalars": ckpt.trainer_scalars,
            }
        )
        streams.restore(ckpt.streams_state)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"trainer or random-stream state does not restore: {exc!r}") from exc


def _save(trainer, task, streams, cfg, iteration, path) -> None:
    write_checkpoint(
        path,
        version=modnet.__version__,
        config=cfg.to_dict(),
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
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

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
        if resume_from.version != modnet.__version__:
            raise ConfigError(
                f"checkpoint version {resume_from.version} does not match "
                f"library version {modnet.__version__}"
            )
        _restore_into(trainer, task, streams, resume_from)
        start = resume_from.iteration
    else:
        cache = _dataset_cache_arrays(data)
        if cache is not None:
            meta = {"task": cfg.to_dict()["task"], "seed": cfg.seed}
            save_array_bundle(os.path.join(out_dir, "dataset"), cache, meta)

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
        eval_metrics = task.eval_metrics()
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
    default comparison grid is 5 or 15 modules, 1 or 3 slots, all four
    trainers.
    """
    with open(grid_path, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    if "base" in grid:
        base = grid["base"]
        anchor_task_path(base, os.path.dirname(os.path.abspath(grid_path)))
    elif "base_path" in grid:
        rel = os.path.join(os.path.dirname(os.path.abspath(grid_path)), grid["base_path"])
        with open(rel, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        anchor_task_path(base, os.path.dirname(os.path.abspath(rel)))
    else:
        raise ConfigError("sweep grid needs 'base' or 'base_path'")
    axes = grid.get(
        "axes",
        {
            "architecture.n_modules": [5, 15],
            "architecture.n_slots": [1, 3],
            "trainer.kind": ["em", "reinforce", "noisy-topk", "static"],
        },
    )
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("sweep axes must be a non-empty object")
    sweep_dir = grid.get("out_dir", "sweep")
    if not os.path.isabs(sweep_dir):
        sweep_dir = os.path.join(out_root, sweep_dir)
    os.makedirs(sweep_dir, exist_ok=True)
    keys = sorted(axes)
    combos = list(itertools.product(*[axes[k] for k in keys]))
    entries = []
    for i, combo in enumerate(combos):
        sets = [f"{k}={json.dumps(v)}" for k, v in zip(keys, combo)]
        data = apply_overrides(base, sets)
        data["out_dir"] = os.path.join(sweep_dir, f"combo-{i:03d}")
        from_dict(data)  # validate before writing
        path = os.path.join(sweep_dir, f"combo-{i:03d}.json")
        write_json_atomic(path, data)
        entries.append({"path": path, "settings": dict(zip(keys, combo))})
    manifest = {"grid": grid_path, "configs": entries}
    write_json_atomic(os.path.join(sweep_dir, "manifest.json"), manifest)
    return manifest


def evaluate_checkpoint(
    checkpoint_path: str, dataset_spec: str, mode: str = "most-likely-composition"
) -> dict:
    """Rebuild the model from a checkpoint and score a dataset.

    ``dataset_spec`` is ``train`` (regenerate the run's own data) or a
    JSON file ``{"task": {...}, "seed": N}`` describing another dataset.
    """
    if mode not in ("most-likely-composition", "enumerate-marginal"):
        raise ConfigError(
            f"mode: expected most-likely-composition or enumerate-marginal, got {mode!r}"
        )
    ckpt = read_checkpoint(checkpoint_path)
    if ckpt.version != modnet.__version__:
        raise ConfigError(
            f"checkpoint version {ckpt.version} does not match library "
            f"version {modnet.__version__}"
        )
    cfg = from_dict(ckpt.config)
    streams = SeedStreams(cfg.seed)
    if dataset_spec == "train":
        data = build_dataset(cfg, streams)
    else:
        with open(dataset_spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        eval_cfg_dict = dict(ckpt.config)
        eval_cfg_dict["task"] = spec.get("task", ckpt.config["task"])
        eval_cfg = from_dict(eval_cfg_dict)
        eval_streams = SeedStreams(int(spec.get("seed", cfg.seed)))
        data = build_dataset(eval_cfg, eval_streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    for p in task.parameters():
        if p.name not in ckpt.params:
            raise ConfigError(f"checkpoint missing parameter {p.name!r}")
        p.data[...] = ckpt.params[p.name]
    out = task.eval_metrics(mode)
    out["iteration"] = ckpt.iteration
    return out
