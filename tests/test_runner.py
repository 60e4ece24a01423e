import importlib.util
import json
import os

import numpy as np
import pytest

from modnet.autodiff import Tape, mean_all
from modnet.baselines import NoisyTopKTrainer, ReinforceTrainer, StaticTrainer
from modnet.config import from_dict
from modnet.em import EMTrainer
from modnet.modular import ModularNet, NoisyTopKNet, enumerate_compositions
from modnet.gru import ModularGruLM
from modnet.runner import (
    _static_pattern,
    _toy_dims,
    build_dataset,
    build_model,
    build_task,
    build_trainer,
    emit_sweep,
    execute_run,
    resolve_out_dir,
    resume_run,
)
from modnet.seeding import SeedStreams


def build_all(overrides):
    cfg = from_dict(overrides)
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    return cfg, streams, data, model, task


def test_toy_layer_dims():
    cfg = from_dict({"task": {"dim": 2}})
    assert _toy_dims(cfg) == [(2, 2)]

    cfg = from_dict({"task": {"dim": 2},
                     "architecture": {"n_layers": 3, "hidden": 8}})
    assert _toy_dims(cfg) == [(2, 8), (8, 8), (8, 2)]

    # concat multiplies the width fed to the next layer by the slot count
    cfg = from_dict({"task": {"dim": 2},
                     "architecture": {"n_layers": 2, "hidden": 4,
                                      "n_slots": 3, "combine": "concat"}})
    assert _toy_dims(cfg) == [(2, 4), (12, 2)]


def test_static_pattern_defaults_to_round_robin():
    cfg = from_dict({"architecture": {"n_slots": 3, "n_modules": 2}})
    assert _static_pattern(cfg).tolist() == [0, 1, 0]
    cfg = from_dict({"trainer": {"kind": "static", "static_indices": [1, 1]},
                     "architecture": {"n_slots": 2}})
    assert _static_pattern(cfg).tolist() == [1, 1]


def test_trainer_and_model_kinds():
    base = {"task": {"kind": "toy-regression", "n": 32}}
    for kind, klass in [("em", EMTrainer), ("reinforce", ReinforceTrainer),
                        ("static", StaticTrainer)]:
        cfg, streams, _, model, task = build_all({**base, "trainer": {"kind": kind}})
        assert isinstance(model, ModularNet)
        assert isinstance(build_trainer(cfg, task, streams), klass)
    cfg, streams, _, model, task = build_all(
        {**base, "trainer": {"kind": "noisy-topk"}, "architecture": {"topk": 2}})
    assert isinstance(model, NoisyTopKNet)
    assert isinstance(build_trainer(cfg, task, streams), NoisyTopKTrainer)


def test_sequence_task_probe_shapes():
    cfg, streams, data, model, task = build_all({
        "task": {"kind": "two-regime-lm", "n_windows": 32, "unroll": 5},
        "architecture": {"hidden": 4, "embed_dim": 4},
    })
    assert isinstance(model, ModularGruLM)
    assert task.unit_shape == (5, 1)
    snap, paths = task.probe(np.arange(8), streams["probe"])
    assert snap.probs[0].shape == (40, 1, 2)
    assert snap.chosen[0].shape == (40, 1)
    assert paths.shape == (8, 5, 1)
    assert 0.0 <= snap.h_batch <= np.log(2) + 1e-12


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "toy-regression", "n": 16},
        {"kind": "two-regime-lm", "n_windows": 8, "unroll": 4},
    ],
)
def test_sample_comps_records_nothing_on_an_active_tape(task):
    cfg, streams, data, model, task = build_all({"task": task, "trainer": {"kind": "reinforce"}})
    idx = np.array([0, 3, 3, 5, 7])
    want = task.sample_comps(idx, np.random.default_rng(12))
    with Tape() as tape:
        mean_all(model.parameters()[0])
        before = len(tape)
        got = task.sample_comps(idx, np.random.default_rng(12))
        assert before > 0 and len(tape) == before
    assert np.array_equal(got, want)


def test_sequence_sample_comps_skips_the_output_head():
    cfg, streams, data, model, task = build_all({
        "task": {"kind": "two-regime-lm", "n_windows": 8, "unroll": 4},
        "trainer": {"kind": "reinforce"},
    })
    idx = np.array([1, 2, 2, 6])
    want = model.rollout(data.tokens[idx], data.targets[idx], rng=np.random.default_rng(4)).comps
    head, calls = model.out, []
    model.out = lambda h: calls.append(1) or head(h)
    got = task.sample_comps(idx, np.random.default_rng(4))
    assert calls == [] and np.array_equal(got, want)
    res = model.rollout(data.tokens[idx], rng=np.random.default_rng(4))
    assert res.cond_ll is None and res.token_ll is None
    with Tape(), pytest.raises(ValueError, match="needs targets"):
        model.rollout(data.tokens[idx], rng=np.random.default_rng(4))


@pytest.mark.parametrize(
    "overrides,unit_shape",
    [
        ({"task": {"kind": "toy-regression", "n": 16},
          "architecture": {"n_layers": 2, "n_slots": 2, "n_modules": 3, "hidden": 4}}, (2, 2)),
        ({"task": {"kind": "two-regime-lm", "n_windows": 8, "unroll": 3},
          "architecture": {"n_slots": 1, "n_modules": 2, "hidden": 4, "embed_dim": 4}}, (3, 1)),
    ],
    ids=["regression", "sequence"],
)
def test_enumerate_and_score_is_incumbent_then_every_composition(overrides, unit_shape):
    cfg, streams, data, model, task = build_all(overrides)
    assert task.unit_shape == unit_shape
    idx = np.array([0, 5, 5])
    incumbent = np.random.default_rng(3).integers(0, task.n_choices, size=(3, *unit_shape))
    cands, scores = task.enumerate_and_score(idx, incumbent)
    space = enumerate_compositions(task.n_choices, *unit_shape, budget=100)
    assert cands.shape == (1 + len(space), 3, *unit_shape)
    assert np.array_equal(cands[0], incumbent)
    assert np.array_equal(cands[1:], np.broadcast_to(space[:, None], cands[1:].shape))
    for c, row in zip(cands[[0, 1, -1]], scores[[0, 1, -1]]):
        rescored = task.propose_and_score(idx, c, 0, np.random.default_rng(0))[1][0]
        assert np.array_equal(rescored, row)


def test_benchmark_tracer_targets_exist():
    """perfbench/tracer.py wraps these by name in their owners' __dict__."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for ts in tracer.SPANS.values() for t in ts] + list(tracer.COUNTS.values())
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in targets if a not in vars(o)]
    assert missing == []
    t = tracer.Tracer()
    try:
        t.install(full=True)
    finally:
        t.uninstall()


def test_resolve_out_dir_explicit_and_collision(tmp_path):
    cfg = from_dict({"out_dir": "exp1"})
    assert resolve_out_dir(cfg, str(tmp_path)) == str(tmp_path / "exp1")
    cfg = from_dict({"out_dir": str(tmp_path / "abs")})
    assert resolve_out_dir(cfg, "ignored") == str(tmp_path / "abs")

    cfg = from_dict({"seed": 3})
    stem = tmp_path / "toy-regression-em-s3"
    assert resolve_out_dir(cfg, str(tmp_path)) == str(stem)
    stem.mkdir()
    (stem / "junk").write_text("x")
    assert resolve_out_dir(cfg, str(tmp_path)) == str(tmp_path / "toy-regression-em-s3-1")


def test_execute_run_timing_rows_are_monotonic(tmp_path):
    cfg = from_dict({
        "task": {"kind": "toy-regression", "n": 64},
        "trainer": {"kind": "em", "iterations": 3, "n_samples": 2,
                    "m_steps": 2, "e_batch": 16, "batch": 16},
        "diagnostics": {"probe_size": 16},
    })
    record = execute_run(cfg, str(tmp_path / "out"))
    assert record["status"] == "completed"
    with open(record["timing_path"]) as fh:
        times = [json.loads(line)["wall_time_s"] for line in fh]
    assert len(times) == 3
    assert times == sorted(times)
    saved = json.loads((tmp_path / "out" / "run_record.json").read_text())
    from_dict(saved["config"])  # stored config must itself validate


def test_export_artifacts_written_when_enabled(tmp_path):
    cfg = from_dict({
        "task": {"kind": "toy-regression", "n": 64},
        "trainer": {"kind": "em", "iterations": 2, "n_samples": 2,
                    "m_steps": 2, "e_batch": 16, "batch": 16},
        "diagnostics": {"probe_size": 16, "interval": 2,
                        "export_images": True, "export_traces": True},
    })
    execute_run(cfg, str(tmp_path / "out"))
    exports = os.listdir(tmp_path / "out" / "exports")
    assert "it000002_layer0.pgm" in exports
    assert "it000002_paths.dot" in exports
    assert not any(name.startswith("it000001") for name in exports)


@pytest.mark.parametrize("trainer", ["em", "reinforce", "noisy-topk", "static"])
@pytest.mark.parametrize(
    "task",
    [
        {"kind": "toy-regression", "n": 32},
        {"kind": "two-regime-lm", "n_windows": 16, "unroll": 4},
    ],
    ids=["regression", "sequence"],
)
def test_resume_from_first_checkpoint_stitches_byte_for_byte(tmp_path, task, trainer):
    # out_dir stays unset, so the resumed run's config equals the original's
    cfg = from_dict({
        "task": task,
        "architecture": {"n_modules": 2, "topk": 1, "hidden": 4, "embed_dim": 4},
        "trainer": {"kind": trainer, "iterations": 5, "m_steps": 2, "batch": 8,
                    "e_batch": 8, "n_samples": 2},
        "diagnostics": {"probe_size": 8, "checkpoint_interval": 2},
    })
    full = execute_run(cfg, str(tmp_path / "full"))
    first = full["checkpoints"][0]
    assert os.path.basename(first) == "step-000002.ckpt"
    resumed = resume_run(first, [], str(tmp_path))
    with open(full["metrics_path"], "rb") as fh:
        rows = fh.read().splitlines(keepends=True)
    with open(resumed["metrics_path"], "rb") as fh:
        tail = fh.read().splitlines(keepends=True)
    assert len(rows) == 5 and tail == rows[2:]
    with open(full["checkpoints"][-1], "rb") as a, open(resumed["checkpoints"][-1], "rb") as b:
        assert os.path.basename(b.name) == "final.ckpt" and a.read() == b.read()


def test_default_sweep_grid_covers_all_trainers(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "base": {"task": {"kind": "toy-regression", "n": 64},
                 "trainer": {"iterations": 2}},
    }))
    manifest = emit_sweep(str(grid), str(tmp_path / "root"))
    assert len(manifest["configs"]) == 16
    kinds = {e["settings"]["trainer.kind"] for e in manifest["configs"]}
    assert kinds == {"em", "reinforce", "noisy-topk", "static"}
    for entry in manifest["configs"]:
        from_dict(json.loads(open(entry["path"]).read()))
