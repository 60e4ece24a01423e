import gc
import importlib.util
import json
import os
import struct
import weakref
from collections import Counter

import numpy as np
import pytest

import modnet.gru as gru_mod
import modnet.modular as modular_mod
from modnet.autodiff import Tape, mean_all
from modnet.baselines import NoisyTopKTrainer, ReinforceTrainer, StaticTrainer
from modnet.config import from_dict, load_config, project
from modnet.em import EMTrainer
from modnet.modular import ModularNet, NoisyTopKNet, enumerate_compositions
from modnet.gru import ModularGruLM
from modnet.optim import Adam
from modnet.runner import (
    RegressionTask,
    SequenceTask,
    Task,
    _load_params,
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
from modnet.serialize import read_checkpoint


TRAINER_CONFIGS = sorted(
    name[: -len(".json")]
    for name in os.listdir(os.path.join(os.path.dirname(__file__), os.pardir, "configs"))
    if name.endswith(".json") and not name.startswith("sweep") and "_smoke" not in name
)


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
    assert res.cond_ll is None and res.pred_ll is None
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


@pytest.mark.parametrize(
    "overrides,per_token",
    [
        ({"task": {"kind": "toy-regression", "n": 16},
          "architecture": {"n_layers": 2, "n_modules": 2, "hidden": 4}}, False),
        ({"task": {"kind": "two-regime-lm", "n_windows": 8, "unroll": 3},
          "architecture": {"n_modules": 2, "hidden": 4, "embed_dim": 4}}, True),
    ],
    ids=["regression", "sequence"],
)
def test_enumerate_marginal_nll_is_per_example_or_per_token(overrides, per_token):
    """Regression reports the marginal nll per example, not per layer;
    sequences report it per token."""
    cfg, streams, data, model, task = build_all(overrides)
    x, y = (data.tokens, data.targets) if per_token else (data.x, data.y)
    want = -float(np.mean(model.marginal_log_lik(x, y)))
    if per_token:
        want /= cfg.task.unroll
    assert task.eval_metrics("enumerate-marginal")["nll"] == want


def load_harness(name):
    """The benchmark harness module ``perfbench/<name>.py``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_exist():
    """perfbench/tracer.py wraps these by name in their owners' __dict__."""
    tracer = load_harness("tracer")
    targets = [t for ts in tracer.SPANS.values() for t in ts] + list(tracer.COUNTS.values())
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in targets if a not in vars(o)]
    assert missing == []
    # no attribute is wrapped twice, and each kind of task is its own owner
    assert len(set(targets)) == len(targets)
    task_targets = [(o, a) for o, a in targets if isinstance(o, type) and issubclass(o, Task)]
    assert {o for o, _ in task_targets} == {RegressionTask, SequenceTask}
    # both kinds run the one Task method under every traced name but eval_metrics
    shared = {a for _, a in task_targets} - {"eval_metrics"}
    assert len(shared) == 6
    for name in shared:
        assert vars(RegressionTask)[name] is vars(SequenceTask)[name] is vars(Task)[name]
    t = tracer.Tracer()
    try:
        t.install(full=True)
    finally:
        t.uninstall()


def test_benchmark_workloads_emit_every_counted_record_kind(monkeypatch):
    # the benchmark reports a per-step count for each record kind it lists;
    # a fusion that drops a workload's last record of a kind loses a metric
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    kinds = [n[len("autodiff.records."):] for n in listed if n.startswith("autodiff.records.")]
    assert "matmul" in kinds
    counts = Counter()
    record = Tape.record

    def counting(tape, kind, out_data, pulls):
        counts[kind] += 1
        return record(tape, kind, out_data, pulls)

    monkeypatch.setattr(Tape, "record", counting)
    per_step, missing = {}, {}
    for name, (config, _, _) in load_harness("run").WORKLOADS.items():
        cfg = load_config(os.path.join(root, config), ["trainer.m_steps=1"])
        streams = SeedStreams(cfg.seed)
        data = build_dataset(cfg, streams)
        task = build_task(cfg, build_model(cfg, data, streams), data)
        trainer = build_trainer(cfg, task, streams)
        counts.clear()
        assert trainer.ascend()["skipped_steps"] == 0
        per_step[name] = sum(counts.values())
        missing[name] = [k for k in kinds if not counts[k]]
    assert missing == {name: [] for name in per_step}
    assert per_step == {
        "toy-em": 7,
        "two-regime-em": 8,
        "two-regime-reinforce": 11,
        "toy-noisy-topk": 8,
    }


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


def test_checkpoint_bytes_do_not_depend_on_out_dir(tmp_path):
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy_em_smoke.json")
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        cfg = load_config(shipped, [f"out_dir={out}", "trainer.iterations=3"])
        record = execute_run(cfg, out)
        with open(record["checkpoints"][-1], "rb") as fh:
            blobs.append(fh.read())
        assert read_checkpoint(record["checkpoints"][-1]).config["out_dir"] is None
    assert blobs[0] == blobs[1]


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
    assert_resume_stitches(tmp_path, task, trainer, {"n_modules": 2, "topk": 1})


def test_resume_stitches_noisy_topk_sequence_at_top_2(tmp_path):
    # at top-1 every gate weight is exactly 1 and the gate's gradient is
    # zero; top-2 of 4 trains the gate through the unroll's pullback
    task = {"kind": "two-regime-lm", "n_windows": 16, "unroll": 4}
    assert_resume_stitches(tmp_path, task, "noisy-topk", {"n_modules": 4, "topk": 2})


def assert_resume_stitches(tmp_path, task, trainer, arch):
    # out_dir stays unset, so the resumed run's config equals the original's;
    # each pair keeps only the fields its kinds read
    cfg = from_dict(project({
        "task": task,
        "architecture": {**arch, "hidden": 4, "embed_dim": 4},
        "trainer": {"kind": trainer, "iterations": 5, "m_steps": 2, "batch": 8,
                    "e_batch": 8, "n_samples": 2},
        "diagnostics": {"probe_size": 8, "checkpoint_interval": 2},
    }))
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
    # noisy top-k's gate routes one slot, so it runs at 1 slot only
    assert len(manifest["configs"]) == 14
    kinds = {e["settings"]["trainer.kind"] for e in manifest["configs"]}
    assert kinds == {"em", "reinforce", "noisy-topk", "static"}
    emitted = []
    for entry in manifest["configs"]:
        data = json.loads(open(entry["path"]).read())
        from_dict(data)
        emitted.append(json.dumps(dict(data, out_dir=None), sort_keys=True))
    assert len(set(emitted)) == len(emitted)


def assert_pool_aliases_its_stack(pool):
    data = pool.param.data
    assert pool.weights.base is data and pool.biases.base is data
    for j in range(pool.n_modules):
        (_, w), (_, b) = pool.param.pieces[2 * j : 2 * j + 2]
        assert w.base is data and b.base is data
        assert np.array_equal(w, pool.weights[j]) and np.array_equal(b, pool.biases[j])


def test_pool_stacks_follow_adam_steps_and_checkpoint_loads(tmp_path):
    # each module's pieces, and the pool's weights and biases, are views
    # into the pool's one buffer, and both in-place writers keep them so
    cfg = from_dict({
        "task": {"kind": "two-regime-lm", "n_windows": 16, "unroll": 4},
        "architecture": {"n_modules": 3, "hidden": 4, "embed_dim": 4},
        "trainer": {"kind": "em", "iterations": 2, "m_steps": 2, "batch": 8,
                    "e_batch": 8, "n_samples": 2},
        "diagnostics": {"probe_size": 8},
    })
    record = execute_run(cfg, str(tmp_path / "run"))
    ckpt = read_checkpoint(record["checkpoints"][-1])
    _, _, _, model, task = build_all(dict(cfg.to_dict(), seed=cfg.seed + 1))
    pool = model.cell.pool
    before = pool.weights.copy()
    opt = Adam(task.parameters(), lr=0.1)
    opt.step(np.ones(sum(p.size for p in task.parameters())))
    assert_pool_aliases_its_stack(pool)
    np.testing.assert_allclose(pool.weights, before + 0.1, rtol=0.0, atol=1e-8)
    _load_params(task.parameters(), ckpt)
    assert_pool_aliases_its_stack(pool)
    for name, view in pool.param.pieces:
        assert np.array_equal(view, ckpt.params[name])


def build_config(name, overrides):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.json")
    cfg = load_config(path, overrides)
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    return cfg, streams, build_task(cfg, build_model(cfg, data, streams), data)


@pytest.mark.parametrize("name", ["toy_em", "two_regime_em"])
def test_a_taped_objective_has_as_many_leaves_at_any_pool_size(monkeypatch, name):
    # a pool is one leaf: its record takes the pool's one parameter, not a
    # weight and a bias per module
    seen = {}
    for n_modules in (2, 32):
        size = "task.n=64" if name == "toy_em" else "task.n_windows=16"
        _, streams, task = build_config(name, [f"architecture.n_modules={n_modules}", size])
        idx = np.arange(8)
        comps = task.sample_comps(idx, streams["estep"])
        model = task.model
        pool = (model.layers[0] if name == "toy_em" else model.cell).pool.param
        records = []
        for mod in (modular_mod, gru_mod):
            def spy(kind, out, inputs, pullback, true=mod.record_joint):
                records.append((kind, len(inputs), sum(p is pool for p in inputs)))
                return true(kind, out, inputs, pullback)

            monkeypatch.setattr(mod, "record_joint", spy)
        with Tape() as tape:
            loss = task.objective(idx, comps)
        monkeypatch.undo()
        seen[n_modules] = (len(tape.backward(loss)), records)
    assert seen[2] == seen[32]
    leaves, records = seen[32]
    assert leaves == len(task.parameters())
    kind, n_inputs, n_pool = records[0]
    if name == "toy_em":
        # the input and the pool; a controller's slot counts are plain weights
        assert (kind, n_inputs, n_pool) == ("pool-combine", 2, 1)
    else:
        # the embedding table, the update and reset gates' weights and
        # biases, the pool
        assert (kind, n_inputs, n_pool) == ("modular-gru-unroll", 6, 1)


def test_checkpoint_names_every_module_of_a_large_pool_in_order(tmp_path):
    cfg, _, _ = build_config("toy_em", ["architecture.n_modules=32", "task.n=64"])
    cfg = from_dict(dict(cfg.to_dict(), trainer=dict(cfg.to_dict()["trainer"], iterations=1)))
    record = execute_run(cfg, str(tmp_path))
    blob = open(record["checkpoints"][-1], "rb").read()
    (n,) = struct.unpack("<Q", blob[8:16])
    names = [e["name"] for e in json.loads(blob[16 : 16 + n])["arrays"]]
    pieces = [f"l0.pool.m{i}.{part}" for i in range(32) for part in ("w", "b")]
    assert [a for a in names if a.startswith("param:l0.pool.")] == [f"param:{a}" for a in pieces]
    moments = [a for a in names if a.startswith("opt_m:l0.pool.")]
    assert moments == [f"opt_m:{a}" for a in pieces]


@pytest.mark.parametrize("name", TRAINER_CONFIGS)
def test_an_iteration_frees_every_tape_it_made(monkeypatch, name):
    # a pullback that holds a Tensor holds its tape, in a cycle that only
    # the cycle collector frees: with it off, every tape must be gone once
    # the iteration returns
    # each config's own dataset size field; the text corpus keeps its length
    size = {"toy": ["task.n=128"], "two": ["task.n_windows=32"]}.get(name.split("_")[0], [])
    cfg, streams, task = build_config(name, size)
    trainer = build_trainer(cfg, task, streams)
    tapes, true_init = [], Tape.__init__

    def init(tape):
        true_init(tape)
        tapes.append(weakref.ref(tape))

    monkeypatch.setattr(Tape, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        trainer.iteration()
        alive = sum(ref() is not None for ref in tapes)
    finally:
        gc.enable()
    assert tapes and alive == 0, f"{alive} of {len(tapes)} tapes outlive the iteration"
