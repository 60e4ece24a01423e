"""Release gate: one test per shipped guarantee, at the stated tolerances.

Every test finishes by printing a single verdict line through
``record_verdict``; pytest shows them in the terminal summary.  The two
training studies (criteria 1 and 8) run whole seed sweeps and dominate
the runtime; everything else is seconds.

Expected values never come from the code under test: closed-form numbers
are hard-coded, and model quantities are cross-checked against plain
numpy re-computations written out in this file.
"""

import ast
import itertools
import json
import math
import os
import re

import numpy as np

from conftest import read_pgm, record_verdict
from oracles import (
    categorical_log_prob,
    concat_last,
    random_biases,
    relu,
    reshape,
    row_softmax,
    sigmoid,
    slice_last,
    softplus,
    sum_along,
)

import modnet.gru as gru_mod
import modnet.modular as modular_mod
from modnet.autodiff import (
    Parameter,
    Tape,
    add,
    categorical_head,
    constant,
    embedding_lookup,
    gaussian_log_density,
    grad_check,
    matmul,
    mean_all,
    mul,
)
from modnet.cli import main as cli_main
from modnet.config import from_dict
from modnet.diagnostics import (
    SelectionSnapshot,
    export_path_trace,
    selection_image,
    write_pgm,
)
from modnet.gru import ModularGruCell
from modnet.modular import Linear, ModulePool, NoisyTopKGate, slot_counts
from modnet.runner import (
    build_dataset,
    build_model,
    build_task,
    build_trainer,
    execute_run,
)
from modnet.seeding import SeedStreams

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_verdict(line)
    assert ok, line


def build_stack(overrides: dict, seed: int):
    cfg = from_dict(overrides)
    cfg.seed = seed
    streams = SeedStreams(seed)
    data = build_dataset(cfg, streams)
    model = build_model(cfg, data, streams)
    task = build_task(cfg, model, data)
    return cfg, streams, data, model, task


# ---------------------------------------------------------------------------
# independent plain-numpy oracles


def np_layer_ctrl_logp(layer, h, j):
    head = layer.controller.heads[0]
    z = h @ head.w.data + head.b.data
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return logp[:, j]


def np_joint_scores(net, x, y):
    """Joint score of every single-slot composition of a linear-module net.

    Returns {composition tuple: (batch,) array of
    log p(y | x, comp) + log p(comp | x)} with controllers reading each
    layer's realized input, matching the chained forward pass.
    """
    n_modules = net.layers[0].pool.n_modules
    out = {}
    for comp in itertools.product(range(n_modules), repeat=len(net.layers)):
        h = np.asarray(x, dtype=np.float64)
        logp = np.zeros(h.shape[0])
        for layer, j in zip(net.layers, comp):
            logp += np_layer_ctrl_logp(layer, h, j)
            h = h @ layer.pool.weights[j] + layer.pool.biases[j]
            if layer.pool.kind == "linear-relu":
                h = np.maximum(h, 0.0)
        cond = -0.5 * ((y - h) ** 2).sum(axis=-1) - 0.5 * y.shape[1] * np.log(2 * np.pi)
        out[comp] = logp + cond
    return out


def comp_to_buffer_layout(comp) -> np.ndarray:
    return np.asarray(comp, dtype=np.int64)[:, None]  # (layers, slots=1)


# ---------------------------------------------------------------------------
# fast criteria


def test_criterion_02_planted_parameters_fit_exactly():
    cfg, streams, data, model, task = build_stack(
        {"task": {"kind": "toy-regression"}}, seed=0
    )
    lo = data.x[data.cluster == 0, 0].max()
    hi = data.x[data.cluster == 1, 0].min()
    assert lo < hi, "clusters are not separable on the first coordinate"
    gap_mid = 0.5 * (lo + hi)

    pool = model.layers[0].pool
    pool.weights[0] = data.rotation.T
    pool.biases[0] = 0.0
    pool.weights[1] = data.scale.T
    pool.biases[1] = 0.0
    head = model.layers[0].controller.heads[0]
    head.w.data[...] = 0.0
    head.w.data[0, 0] = -50.0
    head.w.data[0, 1] = 50.0
    head.b.data[...] = [50.0 * gap_mid, -50.0 * gap_mid]

    mse = task.eval_metrics()["mse"]
    verdict(2, mse < 1e-9, f"planted modules and router give mse={mse:.3e} (< 1e-9)")


def primitive_checks():
    rng = np.random.default_rng(11)
    a = Parameter(rng.standard_normal((3, 4)), "a")
    b = Parameter(rng.standard_normal((4, 2)), "b")
    v = Parameter(rng.standard_normal(4), "v")
    # keep every relu input at least 0.3 away from the kink
    away = Parameter(
        rng.uniform(0.3, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4)),
        "away",
    )
    table = Parameter(rng.standard_normal((5, 3)), "table")
    logits = Parameter(rng.standard_normal((4, 5)), "logits")
    ids = np.array([0, 4, 2])
    repeated = np.array([4, 0, 4, 2, 4, 0])
    targets = np.array([1, 0, 4, 2])
    ymat = rng.standard_normal((3, 4))
    wmat = constant(rng.standard_normal((3, 4)))
    rows6 = rng.standard_normal((6, 3))

    return [
        ("matmul", lambda: mean_all(matmul(a, b)), [a, b]),
        ("add", lambda: mean_all(add(a, v)), [a, v]),
        ("elementwise-mul", lambda: mean_all(mul(a, v)), [a, v]),
        ("relu", lambda: mean_all(mul(relu(away), wmat)), [away]),
        ("sigmoid", lambda: mean_all(sigmoid(a)), [a]),
        ("softplus", lambda: mean_all(softplus(a)), [a]),
        ("row-softmax", lambda: mean_all(mul(row_softmax(a), wmat)), [a]),
        ("concat-last-axis", lambda: mean_all(mul(concat_last(a, a), constant(np.ones((3, 8))))), [a]),
        ("sum-over-axis", lambda: mean_all(sum_along(mul(a, a), 0)), [a]),
        ("slice-last-axis", lambda: mean_all(mul(slice_last(a, 1, 3), constant(ymat[:, :2]))), [a]),
        ("reshape", lambda: mean_all(mul(reshape(a, (2, 6)), constant(ymat.reshape(2, 6)))), [a]),
        ("embedding-lookup", lambda: mean_all(mul(embedding_lookup(table, ids), constant(ymat[:, :3]))), [table]),
        ("embedding-lookup, repeated ids", lambda: mean_all(mul(embedding_lookup(table, repeated), constant(rows6))), [table]),
        ("gaussian-log-density", lambda: mean_all(gaussian_log_density(constant(ymat), a)), [a]),
        ("categorical-log-prob", lambda: mean_all(categorical_log_prob(logits, targets)), [logits]),
        *unroll_checks(rng),
        *gate_checks(rng),
        gated_unroll_check(rng),
        pool_combine_check(rng),
        categorical_head_check(rng),
    ]


def emitted_kinds() -> set[str]:
    """Every record kind that ``src/modnet`` names as a string literal in
    the first argument of a call to ``_emit`` or ``record_joint``."""
    kinds = set()
    src = os.path.dirname(modular_mod.__file__)
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            kind = node.args[0]
            if name in ("_emit", "record_joint") and isinstance(kind, ast.Constant):
                kinds.add(kind.value)
    return kinds


def min_relu_input(module, fn) -> float:
    """Smallest |relu input| while ``fn`` runs with ``module.relu`` spied."""
    true_relu, seen = module.relu, []

    def relu_spy(x):
        seen.append(np.abs(x.data).min())
        return true_relu(x)

    module.relu = relu_spy
    try:
        fn()
    finally:
        module.relu = true_relu
    return min(seen)


def topk_margin(x, gate, eps=None) -> float:
    """Smallest gap over rows between the k-th and (k+1)-th noisy gate
    logits, in plain numpy: the top-k cut is the gate's kink."""
    z = x @ gate.gate.w.data + gate.gate.b.data
    if eps is not None:
        z = z + eps * np.log1p(np.exp(x @ gate.noise.w.data + gate.noise.b.data))
    z = -np.sort(-z, axis=-1)
    return float((z[:, gate.k - 1] - z[:, gate.k]).min())


def read_unroll(outputs, weight, read):
    """The unroll's states and [h, x] rows, each weighted by its columns of
    ``weight`` and averaged: ``read`` is "h", "hx" or "both" (their sum)."""
    h, hx = outputs
    hid = h.shape[1]
    terms = []
    if read in ("h", "both"):
        terms.append(mean_all(mul(h, constant(weight[:, :hid]))))
    if read in ("hx", "both"):
        terms.append(mean_all(mul(hx, constant(weight[:, hid:]))))
    return add(*terms) if read == "both" else terms[0]


def unroll_checks(rng):
    """The recurrent unroll over 3 steps of 2 rows: 2 slots, one row picking
    a module twice, module 1 unused at step 0; a loss that reads both of
    its outputs, and one that reads each alone.  Random biases keep every
    candidate pre-activation off the relu kink (checked here)."""
    cell = ModularGruCell(rng, in_dim=2, hidden=3, n_modules=3, n_slots=2)
    random_biases(cell.parameters(), rng)
    xs = Parameter(rng.standard_normal((6, 2)), "xs")
    h0 = rng.standard_normal((2, 3))
    sels = np.array([[[2, 2], [0, 2]], [[1, 0], [2, 1]], [[0, 1], [1, 1]]])
    weight = rng.standard_normal((6, 3 + 3 + 2))

    def select(t, hx):
        return slot_counts(sels[t], 3), None

    checks = []
    for read in ("both", "h", "hx"):
        def fn(read=read):
            return read_unroll(cell.unroll(xs, 3, select, h0), weight, read)

        assert min_relu_input(gru_mod, fn) > 1e-3, "unroll check sits too close to a relu kink"
        checks.append((f"modular-gru-unroll, reading {read}", fn, [xs] + cell.parameters()))
    return checks


def pool_combine_check(rng):
    """The controller-routed layer's fused record: a rectified pool of 4
    modules under 2 slots, row 0 picking module 2 twice and module 1
    unused, so the input's gradient joins three terms.  Random biases keep
    every module pre-activation off the relu kink (checked here)."""
    pool = ModulePool(rng, 4, 3, 2, kind="linear-relu")
    random_biases(pool.parameters(), rng)
    xp = Parameter(rng.standard_normal((5, 3)), "combine_x")
    counts = slot_counts(np.array([[2, 2], [0, 3], [3, 0], [0, 0], [2, 3]]), 4)
    wout = constant(rng.standard_normal((5, 2)))

    def fn():
        return mean_all(mul(pool.select(xp, counts), wout))

    assert min_relu_input(modular_mod, fn) > 1e-3, "pool-combine check sits on a relu kink"
    return "pool-combine", fn, [xp] + pool.parameters()


def categorical_head_check(rng):
    """Two softmax heads on one input, as the controller scores its slots,
    with (steps, batch, heads) targets, so the record also sums each
    window's steps; targets at both ends of the range."""
    x = Parameter(rng.standard_normal((6, 3)), "head_x")
    heads = [Linear(rng, 3, 4, f"head{k}") for k in range(2)]
    params = [x] + [p for h in heads for p in h.parameters()]
    random_biases(params, rng)
    targets = np.array([[[0, 3], [3, 1]], [[2, 0], [1, 3]], [[3, 3], [0, 2]]])
    wout = constant(rng.standard_normal(2))

    def fn():
        products = [matmul(x, h.w) for h in heads]
        return mean_all(mul(categorical_head(products, [h.b for h in heads], targets)[0], wout))

    return "categorical-head", fn, params


def gate_checks(rng):
    """The noisy top-k gate record, in training and in evaluation, mixing a
    rectified pool through ``ModulePool.select`` as the feedforward layer
    does, so the pool's record takes the weights' gradient; kept off the
    relu kink and the top-k cut (both checked here)."""
    pool = ModulePool(rng, 4, 3, 2, kind="linear-relu")
    gate = NoisyTopKGate(rng, 3, 4, 2)
    random_biases(pool.parameters() + gate.parameters(), rng)
    xp = Parameter(rng.standard_normal((5, 3)), "gate_x")
    wout = constant(rng.standard_normal((5, 2)))
    checks = []
    for train in (True, False):
        def fn(train=train):
            w, mask = gate.weights(xp, train, np.random.default_rng(21))
            return mean_all(mul(pool.select(xp, w), wout))

        eps = np.random.default_rng(21).standard_normal((5, 4)) if train else None
        mode = "train" if train else "eval"
        assert min_relu_input(modular_mod, fn) > 1e-3, f"gate {mode} check sits on a relu kink"
        assert topk_margin(xp.data, gate, eps) > 1e-3, f"gate {mode} check sits on the top-k cut"
        checks.append((f"noisy-topk-gate, {mode}", fn, [xp] + pool.parameters() + gate.parameters()))
    return checks


def gated_unroll_check(rng):
    """The unroll routed by a noisy top-2 gate over 4 modules in training,
    3 steps of 2 rows, so BPTT carries the gate weights' gradient; kept
    off the relu kink and the top-k cut (both checked here)."""
    cell = ModularGruCell(rng, in_dim=2, hidden=3, n_modules=4, topk=2)
    random_biases(cell.parameters(), rng)
    xs = Parameter(rng.standard_normal((6, 2)), "gated_xs")
    h0 = rng.standard_normal((2, 3))
    weight = rng.standard_normal((6, 3 + 3 + 2))

    def rows():
        noise = np.random.default_rng(23)

        def select(t, hx):
            w, _, eps = cell.gate.forward(hx, True, noise)
            return w, eps

        return cell.unroll(xs, 3, select, h0)

    def fn():
        return read_unroll(rows(), weight, "both")

    assert min_relu_input(gru_mod, fn) > 1e-3, "gated unroll check sits on a relu kink"
    noise = np.random.default_rng(23)
    eps = np.concatenate([noise.standard_normal((2, 4)) for _ in range(3)])
    margin = topk_margin(rows()[1].data, cell.gate, eps)
    assert margin > 1e-3, "gated unroll check sits on the top-k cut"
    return "modular-gru-unroll, noisy top-k", fn, [xs] + cell.parameters()


def test_criterion_03_gradients_match_finite_differences(monkeypatch):
    worst, checked = 0.0, set()
    for name, fn, params in primitive_checks():
        err = grad_check(fn, params, step=1e-5)
        worst = max(worst, err)
        checked.add(name.split(",")[0])

    # every record kind the package can emit has a check above
    kinds = emitted_kinds()
    assert {"matmul", "categorical-head", "pool-combine", "modular-gru-unroll"} <= kinds
    uncovered = sorted(kinds - checked)

    relu_inputs = []
    true_relu = modular_mod.relu

    def relu_spy(x):
        relu_inputs.append(float(np.abs(np.asarray(x.data)).min()))
        return true_relu(x)

    # full stacked modular forward, rectified modules, fixed composition.
    # Zero-init biases park dead rows exactly on the relu kink, so draw
    # the biases at random before checking; the check must stay off kinks.
    cfg, streams, data, model, task = build_stack(
        {
            "task": {"kind": "toy-regression", "n": 4},
            "architecture": {"n_layers": 2, "hidden": 3,
                            "module_kind": "linear-relu"},
        },
        seed=5,
    )
    jig = np.random.default_rng(17)
    random_biases(task.parameters(), jig)
    idx = np.arange(4)
    comps = task.sample_comps(idx, streams["estep"])
    monkeypatch.setattr(modular_mod, "relu", relu_spy)
    task.objective(idx, comps)
    monkeypatch.setattr(modular_mod, "relu", true_relu)
    assert min(relu_inputs) > 1e-3, "composition sits too close to a relu kink"
    err = grad_check(lambda: task.objective(idx, comps), task.parameters(), step=1e-5)
    worst = max(worst, err)

    # full recurrent forward: embedding, gates, modular candidate, softmax
    cfg, streams, data, model, task = build_stack(
        {
            "task": {"kind": "two-regime-lm", "n_windows": 2, "unroll": 3},
            "architecture": {"hidden": 2, "embed_dim": 2},
        },
        seed=3,
    )
    random_biases(task.parameters(), jig)
    idx = np.arange(2)
    comps = task.sample_comps(idx, streams["estep"])
    relu_inputs.clear()
    monkeypatch.setattr(gru_mod, "relu", relu_spy)
    task.objective(idx, comps)
    monkeypatch.setattr(gru_mod, "relu", true_relu)
    assert min(relu_inputs) > 1e-3, "rollout sits too close to a relu kink"
    err = grad_check(lambda: task.objective(idx, comps), task.parameters(), step=1e-5)
    worst = max(worst, err)

    verdict(3, worst < 1e-4 and not uncovered,
            f"max relative gradient error {worst:.2e} across primitives, "
            "stacked net, and recurrent net (< 1e-4); "
            f"{len(kinds)} record kinds in src/modnet, unchecked: {uncovered or 'none'}")


def test_criterion_04_selection_updates_take_the_argmax():
    mismatched = 0
    for i in range(100):
        cfg, streams, data, model, task = build_stack(
            {
                "task": {"kind": "toy-regression", "n": 6},
                "architecture": {"n_layers": 2, "hidden": 3},
                "trainer": {"e_batch": 6},
            },
            seed=1000 + i,
        )
        trainer = build_trainer(cfg, task, streams)
        trainer.partial_e_step(idx=np.arange(6), exhaustive=True)

        oracle = np_joint_scores(model, data.x, data.y)
        comps = list(oracle)
        table = np.stack([oracle[c] for c in comps])  # (n_comps, batch)
        want = table.argmax(axis=0)
        for b in range(6):
            expect = comp_to_buffer_layout(comps[want[b]])
            if not np.array_equal(trainer.buffer[b], expect):
                mismatched += 1

    # single-sample proposals may only ever replace a worse incumbent
    cfg, streams, data, model, task = build_stack(
        {
            "task": {"kind": "toy-regression", "n": 256},
            "trainer": {"n_samples": 1, "m_steps": 3, "e_batch": 64, "batch": 64},
        },
        seed=0,
    )
    trainer = build_trainer(cfg, task, streams)
    drops = 0
    for _ in range(300):
        stats = trainer.partial_e_step()
        finite = np.isfinite(stats["incumbent_scores"])
        if np.any(stats["best_scores"][finite]
                  < stats["incumbent_scores"][finite] - 1e-9):
            drops += 1
        trainer.partial_m_step()

    ok = mismatched == 0 and drops == 0
    verdict(4, ok,
            f"exhaustive refresh matched the brute-force argmax on "
            f"{600 - mismatched}/600 points across 100 instances; "
            f"{drops}/300 single-sample refreshes lowered an incumbent's score")


def test_criterion_05_enumerated_marginal_matches_brute_force():
    worst = 0.0
    slack = np.inf
    for i in range(100):
        arch = ({"n_layers": 1, "n_modules": 3} if i < 50
                else {"n_layers": 2, "n_modules": 2, "hidden": 3})
        cfg, streams, data, model, task = build_stack(
            {"task": {"kind": "toy-regression", "n": 5}, "architecture": arch},
            seed=3000 + i,
        )
        oracle = np_joint_scores(model, data.x, data.y)
        table = np.stack(list(oracle.values()))
        m = table.max(axis=0)
        brute = m + np.log(np.exp(table - m).sum(axis=0))
        got = model.marginal_log_lik(data.x, data.y)
        worst = max(worst, float(np.abs(got - brute).max()))
        # the marginal upper-bounds the score of every single composition
        slack = min(slack, float((got - table.max(axis=0)).min()))
    ok = worst < 1e-9 and slack >= -1e-12
    verdict(5, ok,
            f"enumerated marginal within {worst:.2e} of brute force on 100 "
            f"instances (< 1e-9); worst bound slack {slack:.2e} (>= 0)")


def test_criterion_06_score_function_gradient_is_unbiased():
    cfg, streams, data, model, task = build_stack(
        {"task": {"kind": "toy-regression", "n": 4}}, seed=2
    )
    head = model.layers[0].controller.heads[0]
    x, y = data.x, data.y

    # exact gradient of E[log-lik] over the enumerated selection law
    probs = model.layers[0].controller.distribution(x)[:, 0, :]
    rewards = np.empty_like(probs)
    for j in range(2):
        pool = model.layers[0].pool
        h = x @ pool.weights[j] + pool.biases[j]
        rewards[:, j] = (-0.5 * ((y - h) ** 2).sum(-1)
                        - 0.5 * y.shape[1] * np.log(2 * np.pi))
    gw = np.zeros_like(head.w.data)
    gb = np.zeros_like(head.b.data)
    for j in range(2):
        coeff = probs[:, j] * rewards[:, j]
        jac = -probs.copy()
        jac[:, j] += 1.0
        gw += x.T @ (coeff[:, None] * jac)
        gb += (coeff[:, None] * jac).sum(axis=0)
    exact = np.concatenate([gw.reshape(-1), gb]) / len(x)

    # empirical mean of the sampled estimator, 1e5 total draws
    draws_w, draws_b = [], []
    idx = np.repeat(np.arange(4), 250)
    rng = streams["estep"]
    for _ in range(100):
        with Tape() as tape:
            obj, _ = task.reinforce_surrogate(idx, None, 0.0, rng)
        grads = tape.backward(obj)
        draws_w.append(tape.grad(grads, head.w).reshape(-1))
        draws_b.append(tape.grad(grads, head.b))
    batches = np.hstack([np.stack(draws_w), np.stack(draws_b)])
    emp = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])
    dev = np.abs(emp - exact)
    sigmas = float((dev / np.maximum(se, 1e-300)).max())
    ok = bool(np.all(dev <= 3.0 * se + 1e-12))
    verdict(6, ok,
            f"sampled selection gradient within {sigmas:.2f} standard errors "
            "of the enumerated gradient on every coordinate (<= 3)")


def test_criterion_07_sparse_gate_keeps_exactly_k():
    cfg, streams, data, model, task = build_stack(
        {
            "task": {"kind": "toy-regression", "n": 64},
            "architecture": {"n_modules": 4, "topk": 2},
            "trainer": {"kind": "noisy-topk"},
        },
        seed=1,
    )
    x = data.x
    _, w, mask = model.layers[0].forward_mixed(x, train=True, rng=streams["noise"])
    w = w.data
    active_ok = bool(np.all((w > 0).sum(axis=1) == 2)
                     and np.all(mask.sum(axis=1) == 2))
    sum_err = float(np.abs(w.sum(axis=1) - 1.0).max())

    layer = model.layers[0]
    z = x @ layer.gate.gate.w.data + layer.gate.gate.b.data
    order = np.argsort(-z, axis=-1, kind="stable")
    oracle_w = np.zeros_like(z)
    rows = np.arange(len(x))[:, None]
    kept = order[:, :2]
    zk = z[rows, kept]
    e = np.exp(zk - zk.max(axis=1, keepdims=True))
    oracle_w[rows, kept] = e / e.sum(axis=1, keepdims=True)
    oracle_out = np.zeros((len(x), x.shape[1]))
    for j in range(4):
        oracle_out += oracle_w[:, j:j + 1] * (x @ layer.pool.weights[j] + layer.pool.biases[j])

    res = model.rollout(x, collect_probs=True)
    eval_err = float(np.abs(res.outputs - oracle_out).max())
    weight_err = float(np.abs(res.probs[:, 0, 0] - oracle_w).max())

    ok = active_ok and sum_err < 1e-9 and eval_err < 1e-9 and weight_err < 1e-9
    verdict(7, ok,
            f"every row keeps exactly 2 of 4 modules; weight sums off by "
            f"{sum_err:.1e}; eval path within {max(eval_err, weight_err):.1e} "
            "of the sort-and-renormalize oracle (< 1e-9)")


def test_criterion_09_entropy_metrics_are_exact_and_ordered():
    m = 5
    uniform = np.full((7, 2, m), 1.0 / m)
    snap = SelectionSnapshot([uniform])
    err = abs(snap.h_selection - math.log(m))
    err = max(err, abs(snap.h_batch - math.log(m)))

    onehot = np.zeros((6, 1, 3))
    onehot[:, :, 1] = 1.0
    snap = SelectionSnapshot([onehot])
    err = max(err, abs(snap.h_selection), abs(snap.h_batch))

    split = np.zeros((8, 1, 2))
    split[:4, :, 0] = 1.0
    split[4:, :, 1] = 1.0
    snap = SelectionSnapshot([split])
    err = max(err, abs(snap.h_selection), abs(snap.h_batch - math.log(2)))

    rng = np.random.default_rng(123)
    violations = 0
    for _ in range(1000):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 3)),
                 int(rng.integers(2, 5)))
        p = rng.random(shape) + 1e-12
        p /= p.sum(axis=-1, keepdims=True)
        snap = SelectionSnapshot([p])
        if snap.h_batch < snap.h_selection - 1e-12:
            violations += 1

    ok = err < 1e-9 and violations == 0
    verdict(9, ok,
            f"closed-form entropy cases off by {err:.1e} (< 1e-9); "
            f"batch entropy below mean selection entropy in {violations}/1000 "
            "random snapshots")


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_10_same_seed_runs_replay_byte_for_byte(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MODNET_RUNS", str(tmp_path))
    replay_bad = []
    resume_bad = []
    for name, stem in [
        ("toy_em_smoke.json", "toy-regression-em-s0"),
        ("two_regime_em_smoke.json", "two-regime-lm-em-s0"),
    ]:
        cfg_path = os.path.join(CONFIG_DIR, name)
        with open(cfg_path) as fh:
            iterations = json.load(fh)["trainer"]["iterations"]
        assert cli_main(["run", cfg_path]) == 0
        assert cli_main(["run", cfg_path]) == 0
        capsys.readouterr()
        first = os.path.join(str(tmp_path), stem)
        second = os.path.join(str(tmp_path), stem + "-1")
        full = read_bytes(os.path.join(first, "metrics.jsonl"))
        final_first = read_bytes(os.path.join(first, "checkpoints", "final.ckpt"))
        if (read_bytes(os.path.join(second, "metrics.jsonl")) != full
                or read_bytes(os.path.join(second, "checkpoints", "final.ckpt"))
                != final_first):
            replay_bad.append(name)

        # resume from the first interval checkpoint, k iterations in; the
        # resumed run must write exactly rows k+1..iterations, byte-equal to
        # the one-shot run's tail, and end on the same final checkpoint
        with open(os.path.join(first, "run_record.json")) as fh:
            mid = json.load(fh)["checkpoints"][0]
        found = re.fullmatch(r"step-(\d+)\.ckpt", os.path.basename(mid))
        assert found, f"first checkpoint {mid} is not an interval checkpoint"
        k = int(found[1])
        assert 0 < k < iterations
        assert cli_main(["resume", mid]) == 0
        capsys.readouterr()
        resumed = os.path.join(str(tmp_path), stem + "-resume")
        full_rows = full.splitlines(keepends=True)
        tail_rows = read_bytes(
            os.path.join(resumed, "metrics.jsonl")).splitlines(keepends=True)
        with open(os.path.join(resumed, "run_record.json")) as fh:
            resumed_from = json.load(fh)["resumed_from"]
        final_resumed = read_bytes(os.path.join(resumed, "checkpoints", "final.ckpt"))
        if ([json.loads(r)["iteration"] for r in full_rows]
                != list(range(1, iterations + 1))
                or [json.loads(r)["iteration"] for r in tail_rows]
                != list(range(k + 1, iterations + 1))
                or tail_rows != full_rows[k:]
                or resumed_from != k
                or final_resumed != final_first):
            resume_bad.append(name)

    ok = not replay_bad and not resume_bad
    verdict(10, ok,
            f"2/2 shipped configs byte-identical across same-seed reruns "
            f"incl. final checkpoint (mismatches: {replay_bad or 'none'}); "
            f"resume from the first interval checkpoint stitches "
            f"byte-identically incl. final checkpoint "
            f"(mismatches: {resume_bad or 'none'})")


def dot_flows(path: str):
    text = open(path).read()
    nodes = {f"l{m[0]}_m{m[1]}": int(m[2]) for m in
             re.findall(r'l(\d+)_m(\d+) \[label="[^"]* n=(\d+)"\]', text)}
    inflow = dict.fromkeys(nodes, 0)
    outflow = dict.fromkeys(nodes, 0)
    for src, dst, w in re.findall(r'(\S+) -> (\S+) \[label="(\d+)"\]', text):
        if src in outflow:
            outflow[src] += int(w)
        if dst in inflow:
            inflow[dst] += int(w)
    return nodes, inflow, outflow


def test_criterion_11_exported_traces_conserve_flow(tmp_path):
    cfg = from_dict({
        "task": {"kind": "toy-regression", "n": 128},
        "architecture": {"n_layers": 3, "n_modules": 3, "hidden": 4},
        "trainer": {"kind": "em", "iterations": 15, "n_samples": 2,
                    "m_steps": 2, "e_batch": 32, "batch": 32},
        "diagnostics": {"probe_size": 64, "interval": 5,
                        "export_images": True, "export_traces": True},
    })
    execute_run(cfg, str(tmp_path / "run"))
    exports = sorted(os.listdir(tmp_path / "run" / "exports"))
    dots = [f for f in exports if f.endswith(".dot")]
    assert len(dots) == 3
    bad = 0
    for name in dots:
        nodes, inflow, outflow = dot_flows(str(tmp_path / "run" / "exports" / name))
        for node, n in nodes.items():
            if inflow[node] != n or outflow[node] != n:
                bad += 1

    # multi-slot traces conserve flow too
    rng = np.random.default_rng(9)
    chosen = rng.integers(0, 3, size=(50, 4, 2))
    export_path_trace(chosen, 3, str(tmp_path / "multi.dot"))
    nodes, inflow, outflow = dot_flows(str(tmp_path / "multi.dot"))
    for node, n in nodes.items():
        if inflow[node] != n or outflow[node] != n:
            bad += 1

    # decision matrices survive the byte round trip pixel for pixel
    pix_bad = 0
    for i in range(50):
        p = rng.random((int(rng.integers(1, 20)), int(rng.integers(1, 3)), 4))
        p /= p.sum(axis=-1, keepdims=True)
        img = selection_image(p)
        f = str(tmp_path / f"probe{i}.pgm")
        write_pgm(img, f)
        back = read_pgm(f)
        if not (np.array_equal(back, img)
                and np.array_equal(back, np.round(p.reshape(-1, 4) * 255.0)
                                   .astype(np.uint8))):
            pix_bad += 1

    pgms = [f for f in exports if f.endswith(".pgm")]
    assert len(pgms) == 9  # three export points, one image per layer
    for name in pgms:
        read_pgm(str(tmp_path / "run" / "exports" / name))

    ok = bad == 0 and pix_bad == 0
    verdict(11, ok,
            f"{len(dots) + 1} trace graphs conserve flow at every node "
            f"({bad} violations); {50 - pix_bad}/50 decision matrices "
            "round-trip exactly")
