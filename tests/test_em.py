import math
from types import SimpleNamespace

import numpy as np
import pytest

from modnet.autodiff import Parameter, record_joint
from modnet.config import ConfigError, TrainerConfig, from_dict
from modnet.em import AscentTrainer, EMTrainer, NumericAbort, StepGuard
from modnet.runner import (
    _restore_into,
    _save,
    build_dataset,
    build_model,
    build_task,
    build_trainer,
)
from modnet.seeding import SeedStreams
from modnet.serialize import read_checkpoint


def toy_cfg(seed=0, layers=1, modules=2, **trainer):
    tr = {"kind": "em", "n_samples": 10, "m_steps": 3, "e_batch": 16,
          "batch": 16, "lr": 1e-3}
    tr.update(trainer)
    return from_dict({
        "seed": seed,
        "task": {"kind": "toy-regression", "n": 128},
        "trainer": tr,
        "architecture": {"n_layers": layers, "n_modules": modules,
                         "n_slots": 1, "module_kind": "linear", "hidden": 3},
    })


def make_trainer(cfg):
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    return build_trainer(cfg, task, streams), task, model, data


# ---------------------------------------------------------------------------
# step guard


def test_guard_aborts_after_limit():
    g = StepGuard(limit=3)
    g.record_skip("x")
    g.record_skip("x")
    with pytest.raises(NumericAbort):
        g.record_skip("x")


def test_guard_resets_streak_but_keeps_total():
    g = StepGuard(limit=3)
    g.record_skip("x")
    g.record_skip("x")
    g.record_ok()
    g.record_skip("x")
    g.record_skip("x")  # would abort without the reset
    assert g.state() == {"streak": 2, "total": 4}


def test_guard_state_roundtrip():
    g = StepGuard(limit=5)
    g.record_skip("x")
    h = StepGuard(limit=5)
    h.restore(g.state())
    assert h.streak == 1 and h.total == 1


# ---------------------------------------------------------------------------
# the buffer's initial draw


def initial_buffer(seed, n, unit_shape, n_choices):
    task = SimpleNamespace(
        n_examples=n, unit_shape=unit_shape, n_choices=n_choices, parameters=lambda: []
    )
    return EMTrainer(task, TrainerConfig(), SeedStreams(seed)).buffer


def test_buffer_init_deterministic():
    a = initial_buffer(5, 50, (2, 1), 3)
    assert a.dtype == np.int64 and a.shape == (50, 2, 1)
    assert np.array_equal(a, initial_buffer(5, 50, (2, 1), 3))
    # one draw from the buffer stream, and nothing stored beside it
    want = SeedStreams(5)["buffer"].integers(0, 3, size=(50, 2, 1), dtype=np.int64)
    assert a.tobytes() == want.tobytes()


def test_buffer_init_uniform_choices():
    buf = initial_buffer(0, 30000, (1, 1), 3)
    counts = np.bincount(buf.reshape(-1), minlength=3)
    # binomial std for p=1/3 over 30000 draws
    sigma = math.sqrt(30000 * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - 10000) < 3 * sigma)


def test_buffer_init_single_choice_degenerate():
    assert np.all(initial_buffer(1, 20, (1, 2), 1) == 0)


# ---------------------------------------------------------------------------
# search-step semantics on a scripted task


class ScriptedTask:
    """Returns canned proposals so update rules can be pinned exactly.

    ``script`` maps example index -> list of (composition value, score)
    proposals; the incumbent is always rescored as ``incumbent_score``.
    """

    n_examples = 4
    unit_shape = (1, 1)
    n_choices = 5

    def __init__(self, script, incumbent_scores):
        self.script = script
        self.incumbent_scores = incumbent_scores

    def parameters(self):
        return []

    def propose_and_score(self, idx, incumbent, n_samples, rng):
        batch = len(idx)
        cands = [np.asarray(incumbent)]
        scores = [np.array([self.incumbent_scores[i] for i in idx])]
        for s in range(n_samples):
            comp = np.zeros((batch, 1, 1), dtype=np.int64)
            row = np.zeros(batch)
            for b, i in enumerate(idx):
                value, score = self.script[i][s]
                comp[b, 0, 0] = value
                row[b] = score
            cands.append(comp)
            scores.append(row)
        return np.stack(cands), np.stack(scores)


def scripted_trainer(script, incumbent_scores, n_samples=2):
    task = ScriptedTask(script, incumbent_scores)
    cfg = TrainerConfig(n_samples=n_samples, m_steps=1, e_batch=4, batch=4)
    return EMTrainer(task, cfg, SeedStreams(0))


def test_search_keeps_incumbent_on_tie():
    script = {i: [(3, 1.0), (4, 1.0)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[1.0] * 4)
    tr.buffer[:] = 2
    stats = tr.partial_e_step(idx=np.arange(4))
    assert np.all(tr.buffer == 2)
    assert stats["improved_fraction"] == 0.0
    assert np.array_equal(stats["best_scores"], np.ones(4))


def test_search_takes_strictly_better_proposal():
    script = {i: [(3, 2.0), (4, 1.5)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[1.0] * 4)
    tr.buffer[:] = 2
    stats = tr.partial_e_step(idx=np.arange(4))
    assert np.all(tr.buffer == 3)
    assert np.array_equal(stats["best_scores"], np.full(4, 2.0))
    assert stats["improved_fraction"] == 1.0
    assert stats["mean_improvement"] == pytest.approx(1.0)


def test_search_discards_non_finite_proposals():
    script = {i: [(3, math.nan), (4, 0.5)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[1.0] * 4)
    tr.buffer[:] = 2
    stats = tr.partial_e_step(idx=np.arange(4))
    # the NaN proposal never wins even though argmax would favour NaN order
    assert np.all(tr.buffer == 2)
    assert stats["dropped_samples"] == 4


def test_search_leaves_row_untouched_when_everything_non_finite():
    script = {i: [(3, math.nan), (4, -math.inf)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[math.nan] * 4)
    tr.buffer[:] = 2
    stats = tr.partial_e_step(idx=np.arange(4))
    assert np.all(tr.buffer == 2)
    assert np.all(np.isneginf(stats["best_scores"]))
    assert stats["improved_fraction"] == 0.0


def test_search_first_visit_improvement_not_counted_in_delta():
    # the incumbent scores -inf, so the win has no finite delta; deltas
    # only accumulate over finite incumbent evaluations
    script = {i: [(3, 5.0), (4, 1.0)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[-math.inf] * 4)
    stats = tr.partial_e_step(idx=np.arange(4))
    assert stats["improved_fraction"] == 1.0
    assert stats["mean_improvement"] == 0.0
    assert np.array_equal(stats["best_scores"], np.full(4, 5.0))


def test_search_touches_only_requested_rows():
    script = {i: [(3, 2.0), (4, 1.0)] for i in range(4)}
    tr = scripted_trainer(script, incumbent_scores=[0.0] * 4)
    tr.buffer[:] = 2
    stats = tr.partial_e_step(idx=np.array([1, 3]))
    assert np.array_equal(tr.buffer[:, 0, 0], [2, 3, 2, 3])
    assert np.array_equal(stats["best_scores"], [2.0, 2.0])
    assert stats["improved_fraction"] == 1.0


# ---------------------------------------------------------------------------
# real-task behavior


def test_search_step_never_worsens_stored_score():
    cfg = toy_cfg(seed=3)
    trainer, _, _, _ = make_trainer(cfg)
    for _ in range(40):
        stats = trainer.partial_e_step()
        finite = np.isfinite(stats["incumbent_scores"])
        assert np.all(
            stats["best_scores"][finite] >= stats["incumbent_scores"][finite] - 1e-9
        )
        trainer.partial_m_step()


def np_linear_net_scores(model, x, y):
    """Joint score of every composition of a two-layer, one-slot, linear
    network, computed with plain numpy: controller log-probs are chained
    through realized layer inputs and the output density is unit-variance
    gaussian."""

    def softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    log2pi = math.log(2.0 * math.pi)
    m = model.layers[0].pool.n_modules
    out = {}
    for j0 in range(m):
        for j1 in range(m):
            l0, l1 = model.layers
            p0 = softmax(x @ l0.controller.heads[0].w.data + l0.controller.heads[0].b.data)
            h = x @ l0.pool.weights[j0] + l0.pool.biases[j0]
            p1 = softmax(h @ l1.controller.heads[0].w.data + l1.controller.heads[0].b.data)
            pred = h @ l1.pool.weights[j1] + l1.pool.biases[j1]
            cond = (-0.5 * (y - pred) ** 2 - 0.5 * log2pi).sum(axis=1)
            out[(j0, j1)] = cond + np.log(p0[:, j0]) + np.log(p1[:, j1])
    return out


def test_exhaustive_search_matches_brute_force_argmax():
    cfg = toy_cfg(seed=11, layers=2, modules=2)
    trainer, task, model, data = make_trainer(cfg)
    idx = np.arange(32)
    stats = trainer.partial_e_step(idx=idx, exhaustive=True)
    table = np_linear_net_scores(model, data.x[idx], data.y[idx])
    comps = sorted(table)
    stacked = np.stack([table[c] for c in comps])
    expect = stacked.argmax(axis=0)
    got = trainer.buffer[idx][:, :, 0]
    for b in range(len(idx)):
        assert tuple(got[b]) == comps[expect[b]]
        assert stats["best_scores"][b] == pytest.approx(stacked[expect[b], b], abs=1e-9)


def test_exhaustive_search_beats_any_single_sampled_step():
    cfg = toy_cfg(seed=2, layers=2, modules=2)
    trainer, _, _, _ = make_trainer(cfg)
    idx = np.arange(24)
    sampled = trainer.partial_e_step(idx=idx)
    best_sampled = sampled["best_scores"].copy()
    exact = trainer.partial_e_step(idx=idx, exhaustive=True)
    assert np.all(exact["best_scores"] >= best_sampled - 1e-9)


def test_stored_objective_bounded_by_marginal():
    cfg = toy_cfg(seed=5)
    trainer, task, model, data = make_trainer(cfg)
    for _ in range(30):
        trainer.iteration()
    idx = np.arange(task.n_examples)
    trainer.partial_e_step(idx=idx, exhaustive=True)
    joint = model.score(data.x[idx], data.y[idx], trainer.buffer[idx])
    marginal = model.marginal_log_lik(data.x[idx], data.y[idx])
    assert np.all(joint <= marginal + 1e-9)


def test_ascent_step_trains_and_reports_objective():
    cfg = toy_cfg(seed=7, m_steps=5)
    trainer, _, _, _ = make_trainer(cfg)
    trainer.partial_e_step(idx=np.arange(trainer.task.n_examples))
    before = trainer.partial_m_step()["objective"]
    for _ in range(20):
        after = trainer.partial_m_step()["objective"]
    assert math.isfinite(before) and math.isfinite(after)
    assert after > before


def test_frozen_assignments_monotone_early_mse():
    # with correct cluster assignments fixed, the training MSE drops at
    # every one of the first 100 full-batch steps
    cfg = toy_cfg(seed=9, m_steps=1, batch=128, e_batch=128)
    trainer, task, model, data = make_trainer(cfg)
    trainer.buffer[:, 0, 0] = data.cluster
    mses = []
    for _ in range(101):
        pred = model.rollout(data.x, comps=trainer.buffer).outputs
        mses.append(float(((pred - data.y) ** 2).mean()))
        trainer.partial_m_step()
    assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
    assert mses[-1] < mses[0]


def test_degenerate_single_module_runs():
    cfg = toy_cfg(seed=1, modules=1)
    trainer, _, _, _ = make_trainer(cfg)
    stats = trainer.partial_e_step(idx=np.arange(16))
    # only one composition exists, so search can never move anything
    assert stats["improved_fraction"] == 0.0
    out = trainer.iteration()
    assert math.isfinite(out["objective"])


def test_trainer_state_roundtrip_resumes_identically():
    cfg = toy_cfg(seed=13)
    a, _, _, _ = make_trainer(cfg)
    for _ in range(5):
        a.iteration()
    saved = a.state()
    assert list(saved["arrays"]) == ["buffer_comps"]
    assert saved["arrays"]["buffer_comps"].dtype == np.int64
    b, _, _, _ = make_trainer(cfg)
    b.restore(saved)
    assert np.array_equal(a.buffer, b.buffer)
    # restored by value: training one leaves the other alone
    before = b.buffer.copy()
    for _ in range(5):
        a.iteration()
    assert np.array_equal(b.buffer, before)


def test_restore_refuses_another_buffer_shape(tmp_path):
    # the checkpoint boundary checks the saved form before any restore
    cfg = toy_cfg(seed=13)
    trainer, task, _, _ = make_trainer(cfg)
    trainer.buffer = trainer.buffer[:-1]
    path = str(tmp_path / "short.ckpt")
    _save(trainer, task, trainer.streams, cfg, 0, path)
    fresh, task, _, _ = make_trainer(cfg)
    before = fresh.buffer.copy()
    shapes = r"expected shape \(128, 1, 1\), got \(127, 1, 1\)"
    with pytest.raises(ConfigError, match=rf"trainer\.arrays\.buffer_comps: {shapes}"):
        _restore_into(fresh, task, fresh.streams, read_checkpoint(path))
    assert np.array_equal(fresh.buffer, before)


def test_guard_aborts_training_on_poisoned_parameters():
    cfg = toy_cfg(seed=17)
    trainer, task, model, _ = make_trainer(cfg)
    model.layers[0].pool.weights[:2] = np.nan
    with pytest.raises(NumericAbort):
        for _ in range(20):
            trainer.partial_m_step()


class FiniteObjectiveTask:
    """Two parameters under a finite objective; ``poison`` turns the first
    parameter's gradient to NaN."""

    n_examples = 4

    def __init__(self):
        self.a = Parameter(np.arange(6.0).reshape(2, 3), "a")
        self.b = Parameter(np.ones(2), "b")
        self.poison = False

    def parameters(self):
        return [self.a, self.b]


class FiniteObjectiveTrainer(AscentTrainer):
    def step_objective(self, idx):
        task = self.task

        def pullback(g):
            ga = np.full(task.a.data.shape, np.nan if task.poison else 0.5)
            return [ga * g, np.ones(task.b.data.shape) * g]

        return record_joint("stub", np.asarray(1.0), task.parameters(), pullback), None


def test_guard_skips_a_non_finite_gradient_under_a_finite_objective():
    task = FiniteObjectiveTask()
    trainer = FiniteObjectiveTrainer(
        task, TrainerConfig(m_steps=1, batch=2, lr=0.1), {"mstep": np.random.default_rng(0)}
    )
    assert trainer.ascend()["skipped_steps"] == 0
    before = trainer.state()["opt"]
    params = [p.data.copy() for p in task.parameters()]
    task.poison = True
    out = trainer.ascend()
    assert out["skipped_steps"] == 1 and math.isnan(out["objective"])
    assert trainer.guard.total == 1
    after = trainer.state()["opt"]
    assert after["t"] == before["t"] == 1
    for key in ("m", "v"):
        assert all(np.array_equal(x, y) for x, y in zip(before[key], after[key]))
    assert all(np.array_equal(p.data, q) for p, q in zip(task.parameters(), params))
