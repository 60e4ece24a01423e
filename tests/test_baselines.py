import math

import numpy as np
import pytest

from modnet.autodiff import Parameter, Tape, mean_all
from modnet.baselines import NoisyTopKTrainer, ReinforceTrainer, StaticTrainer
from modnet.config import TrainerConfig, from_dict
from modnet.runner import build_dataset, build_model, build_task, build_trainer
from modnet.seeding import SeedStreams


def toy_cfg(seed=0, kind="reinforce", **kw):
    tr = {"kind": kind, "m_steps": 3, "batch": 16, "lr": 1e-3}
    tr.update(kw.pop("trainer", {}))
    arch = {"n_layers": 1, "n_modules": 2, "n_slots": 1, "module_kind": "linear"}
    arch.update(kw.pop("architecture", {}))
    return from_dict({
        "seed": seed,
        "task": {"kind": "toy-regression", "n": 128},
        "trainer": tr,
        "architecture": arch,
    })


def make(cfg):
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    return build_trainer(cfg, task, streams), task, model, data


# ---------------------------------------------------------------------------
# moving-average baseline timing


class EmaProbeTask:
    """Reports which baseline each surrogate call saw; step k's mean
    reward is exactly k."""

    n_examples = 10
    unit_shape = (1, 1)
    n_choices = 2

    def __init__(self):
        self.p = Parameter(np.zeros((1, 1)), "p")
        self.seen = []
        self.calls = 0

    def parameters(self):
        return [self.p]

    def sample_comps(self, idx, rng):
        return np.zeros((len(idx), 1, 1), dtype=np.int64)

    def reinforce_surrogate(self, idx, comps, baseline):
        self.seen.append(baseline)
        self.calls += 1
        rewards = np.full(len(idx), float(self.calls))
        return mean_all(self.p), rewards


def test_ema_updates_after_each_step():
    task = EmaProbeTask()
    cfg = TrainerConfig(m_steps=3, batch=4, ema_decay=0.9)
    tr = ReinforceTrainer(task, cfg, SeedStreams(0))
    out = tr.iteration()
    e1 = 0.9 * 0.0 + 0.1 * 1.0
    e2 = 0.9 * e1 + 0.1 * 2.0
    e3 = 0.9 * e2 + 0.1 * 3.0
    assert task.seen == pytest.approx([0.0, e1, e2])
    assert tr.ema == pytest.approx(e3)
    # reported objective is the mean reward across steps
    assert out["objective"] == pytest.approx(2.0)


def test_ema_survives_state_roundtrip():
    task = EmaProbeTask()
    tr = ReinforceTrainer(task, TrainerConfig(m_steps=2, batch=4), SeedStreams(0))
    tr.iteration()
    saved = tr.state()
    other = ReinforceTrainer(EmaProbeTask(), TrainerConfig(m_steps=2, batch=4),
                             SeedStreams(0))
    other.restore(saved)
    assert other.ema == pytest.approx(tr.ema)


# ---------------------------------------------------------------------------
# score-function gradient against the enumerated expectation


def ctrl_grad_exact(model, x, y, baseline):
    """Closed-form E[(R - b) d log p / d phi] for one layer, one slot."""
    head = model.layers[0].controller.heads[0]
    z = x @ head.w.data + head.b.data
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    n, m = p.shape
    log2pi = math.log(2.0 * math.pi)
    rewards = np.zeros((n, m))
    for j in range(m):
        mod = model.layers[0].pool.modules[j]
        pred = x @ mod.w.data + mod.b.data
        rewards[:, j] = (-0.5 * (y - pred) ** 2 - 0.5 * log2pi).sum(axis=1)
    gw = np.zeros_like(head.w.data)
    gb = np.zeros_like(head.b.data)
    for j in range(m):
        coeff = p[:, j] * (rewards[:, j] - baseline)  # (n,)
        jac = -p.copy()
        jac[:, j] += 1.0  # d log p_j / d z_k = delta - p_k
        gw += x.T @ (coeff[:, None] * jac)
        gb += (coeff[:, None] * jac).sum(axis=0)
    return gw / n, gb / n


def test_reinforce_controller_gradient_is_unbiased():
    cfg = toy_cfg(seed=6)
    _, task, model, data = make(cfg)
    idx = np.arange(4)
    x, y = data.x[idx], data.y[idx]
    baseline = 0.37
    head = model.layers[0].controller.heads[0]
    exact_w, exact_b = ctrl_grad_exact(model, x, y, baseline)

    rng = np.random.default_rng(123)
    reps = 8000
    sw = np.zeros((reps,) + head.w.data.shape)
    sb = np.zeros((reps,) + head.b.data.shape)
    for r in range(reps):
        comps = task.sample_comps(idx, rng)
        with Tape() as tape:
            obj, _ = task.reinforce_surrogate(idx, comps, baseline)
        grads = tape.parameter_grads(tape.backward(obj), [head.w, head.b])
        sw[r] = grads[head.w]
        sb[r] = grads[head.b]
    for sample, exact in ((sw, exact_w), (sb, exact_b)):
        mean = sample.mean(axis=0)
        se = sample.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-12)


def test_reinforce_module_gradient_only_for_sampled_modules():
    cfg = toy_cfg(seed=3)
    _, task, model, _ = make(cfg)
    idx = np.arange(8)
    comps = np.zeros((8, 1, 1), dtype=np.int64)  # force module 0 everywhere
    mods = model.layers[0].pool.modules
    with Tape() as tape:
        obj, _ = task.reinforce_surrogate(idx, comps, 0.0)
    grads = tape.parameter_grads(tape.backward(obj), [mods[0].w, mods[1].w])
    assert np.any(grads[mods[0].w] != 0.0)
    assert np.all(grads[mods[1].w] == 0.0)


def test_reinforce_training_improves_fit():
    cfg = toy_cfg(seed=0, trainer={"m_steps": 10, "lr": 3e-3})
    trainer, task, _, _ = make(cfg)
    first = task.eval_metrics()["mse"]
    for _ in range(60):
        trainer.iteration()
    assert task.eval_metrics()["mse"] < first


def test_samples_per_example_tiles_the_batch():
    cfg = toy_cfg(seed=2, trainer={"samples_per_example": 3, "m_steps": 1,
                                   "batch": 5})
    trainer, task, _, _ = make(cfg)
    seen = {}
    orig = task.reinforce_surrogate

    def spy(idx, comps, baseline):
        seen["n"] = len(idx)
        return orig(idx, comps, baseline)

    task.reinforce_surrogate = spy
    trainer.iteration()
    assert seen["n"] == 15


# ---------------------------------------------------------------------------
# static trainer


def test_static_trainer_never_touches_selection_parameters():
    cfg = toy_cfg(seed=1, kind="static", trainer={"m_steps": 4})
    trainer, _, model, _ = make(cfg)
    head = model.layers[0].controller.heads[0]
    ctrl_before = head.w.data.copy()
    mod0_before = model.layers[0].pool.modules[0].w.data.copy()
    mod1_before = model.layers[0].pool.modules[1].w.data.copy()
    for _ in range(5):
        trainer.iteration()
    assert np.array_equal(head.w.data, ctrl_before)
    assert not np.array_equal(model.layers[0].pool.modules[0].w.data, mod0_before)
    # the fixed pattern for one slot names module 0 only
    assert np.array_equal(model.layers[0].pool.modules[1].w.data, mod1_before)


def test_static_pattern_round_robin_and_override():
    cfg = toy_cfg(seed=1, kind="static",
                  architecture={"n_slots": 2, "combine": "sum"})
    _, task, _, _ = make(cfg)
    assert np.array_equal(task.static_comps(np.arange(3))[0], [[0, 1]])
    cfg = toy_cfg(seed=1, kind="static", trainer={"static_indices": [1]})
    _, task, _, _ = make(cfg)
    assert np.array_equal(task.static_comps(np.arange(3))[0], [[1]])


# ---------------------------------------------------------------------------
# noisy top-k trainer


def test_noisy_topk_training_improves_fit():
    cfg = toy_cfg(seed=0, kind="noisy-topk",
                  architecture={"topk": 1}, trainer={"m_steps": 10, "lr": 3e-3})
    trainer, task, _, _ = make(cfg)
    first = task.eval_metrics()["mse"]
    for _ in range(40):
        trainer.iteration()
    assert task.eval_metrics()["mse"] < first


def test_noisy_topk_deterministic_across_rebuilds():
    def run():
        cfg = toy_cfg(seed=5, kind="noisy-topk", architecture={"topk": 1})
        trainer, _, model, _ = make(cfg)
        for _ in range(3):
            trainer.iteration()
        return model.layers[0].pool.modules[0].w.data.copy()

    assert np.array_equal(run(), run())


def test_iteration_report_shape():
    cfg = toy_cfg(seed=0, kind="static")
    trainer, _, _, _ = make(cfg)
    out = trainer.iteration()
    # the runner, not the trainer, reports a baseline's improved fraction as 0
    assert set(out) == {"objective", "skipped_steps"}
    assert math.isfinite(out["objective"])
