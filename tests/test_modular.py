import itertools
import math

import numpy as np
import pytest

from modnet.autodiff import ShapeError, Tape, Tensor, add, grad_check, mean_all
from modnet.modular import (
    Controller,
    Linear,
    ModularLayer,
    ModularNet,
    ModulePool,
    NoisyTopKGate,
    NoisyTopKLayer,
    NoisyTopKNet,
    OutputHead,
    enumerate_compositions,
    sample_rows,
)

RNG = np.random.default_rng(7)


def small_net(n_layers=1, n_modules=2, n_slots=1, dim=2, combine="sum",
              kind="linear", rng=None):
    rng = rng or np.random.default_rng(123)
    layers = []
    for l in range(n_layers):
        pool = ModulePool(rng, n_modules, dim, dim, kind=kind, name=f"L{l}")
        ctrl = Controller(rng, dim, n_modules, n_slots, name=f"C{l}")
        layers.append(ModularLayer(pool, ctrl, combine=combine))
        if combine == "concat":
            dim = dim * n_slots
    return ModularNet(layers, OutputHead())


def np_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def np_gauss_ll(y, mean):
    d = y.shape[-1]
    return -0.5 * ((y - mean) ** 2).sum(-1) - 0.5 * d * math.log(2 * math.pi)


def forward_per_example(layer, x, train=False, rng=None):
    """Noisy top-k reference path: loop rows, run only that row's survivors.

    Value-only.  Pass an rng in the same state as the batched call to
    reproduce its noise draw.
    """
    xv = np.asarray(x, dtype=np.float64)
    w, mask = layer.gate.weights(Tensor(xv), train=train, rng=rng)
    out = np.zeros((xv.shape[0], layer.pool.out_dim))
    for b in range(xv.shape[0]):
        row = Tensor(xv[b : b + 1])
        for j in np.nonzero(mask[b])[0]:
            out[b] += w.data[b, j] * layer.pool.apply(int(j), row).data[0]
    return out


# ---------------------------------------------------------------------------
# building blocks


def test_linear_init_ranges():
    rng = np.random.default_rng(0)
    lin = Linear(rng, 16, 4, "lin")
    bound = 1.0 / 4.0
    assert np.all(np.abs(lin.w.data) <= bound)
    assert np.array_equal(lin.b.data, np.zeros(4))


def test_pool_kinds():
    rng = np.random.default_rng(0)
    x = Tensor([[1.0, -1.0]])
    pool = ModulePool(rng, 2, 2, 2, kind="linear")
    raw = pool.apply(0, x).data
    pool2 = ModulePool(np.random.default_rng(0), 2, 2, 2, kind="linear-relu")
    clipped = pool2.apply(0, x).data
    assert np.array_equal(clipped, np.maximum(raw, 0.0))
    with pytest.raises(ValueError):
        ModulePool(rng, 2, 2, 2, kind="cubic")


def test_sample_rows_inverse_cdf():
    probs = np.array([[0.2, 0.5, 0.3]])
    # u below 0.2 -> 0; in [0.2, 0.7) -> 1; above -> 2
    assert sample_rows(probs, np.array([0.1]))[0] == 0
    assert sample_rows(probs, np.array([0.2]))[0] == 1
    assert sample_rows(probs, np.array([0.69]))[0] == 1
    assert sample_rows(probs, np.array([0.999]))[0] == 2


def test_sample_rows_distribution():
    probs = np.tile([[0.1, 0.6, 0.3]], (200_000, 1))
    draws = sample_rows(probs, np.random.default_rng(5).random(200_000))
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.allclose(freq, [0.1, 0.6, 0.3], atol=5e-3)


def test_controller_distribution_matches_numpy():
    rng = np.random.default_rng(11)
    ctrl = Controller(rng, 3, 4, 2)
    x = RNG.standard_normal((5, 3))
    dist = ctrl.distribution(x)
    assert dist.shape == (5, 2, 4)
    for k, head in enumerate(ctrl.heads):
        want = np_softmax(x @ head.w.data + head.b.data)
        assert np.allclose(dist[:, k], want, atol=1e-12)
    assert np.allclose(dist.sum(-1), 1.0, atol=1e-12)


def test_controller_log_prob_factorizes():
    rng = np.random.default_rng(12)
    ctrl = Controller(rng, 3, 3, 2)
    x = RNG.standard_normal((4, 3))
    sel = np.array([[0, 2], [1, 1], [2, 0], [0, 0]])
    lp = ctrl.log_prob(Tensor(x), sel).data
    dist = ctrl.distribution(x)
    rows = np.arange(4)
    want = np.log(dist[rows, 0, sel[:, 0]]) + np.log(dist[rows, 1, sel[:, 1]])
    assert np.allclose(lp, want, atol=1e-12)


def test_controller_distribution_never_recorded():
    rng = np.random.default_rng(13)
    ctrl = Controller(rng, 2, 2, 1)
    x = RNG.standard_normal((3, 2))
    with Tape() as tape:
        ctrl.distribution(x)
        assert len(tape) == 0


# ---------------------------------------------------------------------------
# modular layer


def test_forward_selected_sum_matches_numpy():
    rng = np.random.default_rng(21)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    ctrl = Controller(rng, 2, 3, 2)
    layer = ModularLayer(pool, ctrl, combine="sum")
    x = RNG.standard_normal((6, 2))
    sel = np.array([[0, 1], [2, 2], [1, 0], [0, 0], [1, 2], [2, 1]])
    out = layer.forward_selected(Tensor(x), sel).data
    want = np.zeros((6, 2))
    for b in range(6):
        for k in range(2):
            m = pool.modules[sel[b, k]]
            want[b] += x[b] @ m.w.data + m.b.data
    assert np.allclose(out, want, atol=1e-12)


def test_forward_selected_duplicate_slots_scale_by_multiplicity():
    rng = np.random.default_rng(22)
    pool = ModulePool(rng, 2, 2, 2, kind="linear")
    layer = ModularLayer(pool, Controller(rng, 2, 2, 3), combine="sum")
    x = RNG.standard_normal((1, 2))
    sel = np.array([[1, 1, 1]])
    out = layer.forward_selected(Tensor(x), sel).data
    single = pool.apply(1, Tensor(x)).data
    assert np.allclose(out, 3.0 * single, atol=1e-12)


def test_forward_selected_concat_order():
    rng = np.random.default_rng(23)
    pool = ModulePool(rng, 2, 2, 3, kind="linear")
    layer = ModularLayer(pool, Controller(rng, 2, 2, 2), combine="concat")
    x = RNG.standard_normal((2, 2))
    sel = np.array([[1, 0], [0, 0]])
    out = layer.forward_selected(Tensor(x), sel).data
    assert out.shape == (2, 6)
    xt = Tensor(x)
    assert np.allclose(out[0, :3], pool.apply(1, xt).data[0], atol=1e-12)
    assert np.allclose(out[0, 3:], pool.apply(0, xt).data[0], atol=1e-12)
    assert np.allclose(out[1, :3], pool.apply(0, xt).data[1], atol=1e-12)


def test_forward_selected_rejects_bad_selection():
    rng = np.random.default_rng(24)
    pool = ModulePool(rng, 2, 2, 2, kind="linear")
    ctrl = Controller(rng, 2, 2, 1)
    layer = ModularLayer(pool, ctrl)
    x = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        layer.forward_selected(Tensor(x), np.array([[0], [1]]))  # batch mismatch
    with pytest.raises(ShapeError):
        layer.forward_selected(Tensor(x), np.array([[0], [1], [2]]))  # index range


def test_layer_gradients_flow_only_through_selected():
    rng = np.random.default_rng(25)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    layer = ModularLayer(pool, Controller(rng, 2, 3, 1), combine="sum")
    x = RNG.standard_normal((4, 2))
    sel = np.array([[0], [0], [0], [0]])
    params = pool.parameters()
    with Tape() as tape:
        for p in params:
            tape.watch(p)
        loss = mean_all(layer.forward_selected(Tensor(x), sel))
    grads = tape.backward(loss)
    g0 = tape.grad(grads, pool.modules[0].w)
    g1 = tape.grad(grads, pool.modules[1].w)
    g2 = tape.grad(grads, pool.modules[2].w)
    assert np.any(g0 != 0)
    assert np.array_equal(g1, np.zeros_like(g1))
    assert np.array_equal(g2, np.zeros_like(g2))


# ---------------------------------------------------------------------------
# full net


def test_joint_log_prob_is_cond_plus_ctrl():
    net = small_net(n_layers=2, n_modules=3, n_slots=2)
    x = RNG.standard_normal((5, 2))
    y = RNG.standard_normal((5, 2))
    comps = np.stack(
        [RNG.integers(0, 3, size=(5, 2)), RNG.integers(0, 3, size=(5, 2))], axis=1
    ).astype(np.int64)
    joint = net.score(x, y, comps)
    cond, ctrl_ll = net.log_liks(x, y, comps, with_ctrl=True)
    assert net.log_liks(x, y, comps)[1] is None
    cond = cond.data
    ctrl = 0.0
    h = x
    for l, layer in enumerate(net.layers):
        dist = layer.controller.distribution(h)
        rows = np.arange(5)
        for k in range(layer.n_slots):
            ctrl = ctrl + np.log(dist[rows, k, comps[:, l, k]])
        h = layer.forward_selected(Tensor(h), comps[:, l]).data
    assert np.allclose(ctrl_ll.data, ctrl, atol=1e-10)
    assert np.allclose(joint, cond + ctrl, atol=1e-10)


def test_marginal_matches_independent_enumeration():
    net = small_net(n_layers=2, n_modules=2, n_slots=2)
    x = RNG.standard_normal((4, 2))
    y = RNG.standard_normal((4, 2))
    got = net.marginal_log_lik(x, y)

    # independent route: plain numpy over all (2^2)^2 = 16 compositions
    per_comp = []
    slots = list(itertools.product(range(2), repeat=2))
    for c0 in slots:
        for c1 in slots:
            h = x
            logp = np.zeros(4)
            for layer, sel in zip(net.layers, (c0, c1)):
                dist = np.stack(
                    [
                        np_softmax(h @ hd.w.data + hd.b.data)
                        for hd in layer.controller.heads
                    ],
                    axis=1,
                )
                out = np.zeros_like(h)
                for k, j in enumerate(sel):
                    logp += np.log(dist[:, k, j])
                    m = layer.pool.modules[j]
                    out += h @ m.w.data + m.b.data
                h = out
            per_comp.append(logp + np_gauss_ll(y, h))
    stacked = np.stack(per_comp)
    m = stacked.max(axis=0)
    want = m + np.log(np.exp(stacked - m).sum(axis=0))
    assert np.allclose(got, want, atol=1e-9)


def test_marginal_refuses_past_budget():
    net = small_net(n_layers=1, n_modules=4, n_slots=4)  # 256 comps
    x = np.zeros((1, 2))
    with pytest.raises(ValueError, match="budget"):
        net.marginal_log_lik(x, x, budget=100)


def test_marginal_upper_bounds_every_joint():
    net = small_net(n_layers=1, n_modules=3, n_slots=2)
    x = RNG.standard_normal((6, 2))
    y = RNG.standard_normal((6, 2))
    marg = net.marginal_log_lik(x, y)
    for slots in itertools.product(range(3), repeat=2):
        sel = np.broadcast_to(np.array(slots, dtype=np.int64), (6, 1, 2))
        joint = net.score(x, y, sel)
        assert np.all(marg >= joint - 1e-12)


def nested_layer_oracle(n_modules, layers, slots):
    """Per-layer slot spaces, then their product: the regression order."""
    spaces = [list(itertools.product(range(n_modules), repeat=slots))] * layers
    return np.array(list(itertools.product(*spaces)), dtype=np.int64)


def nested_step_oracle(n_modules, steps, slots):
    """One per-step slot space, repeated over steps: the sequence order."""
    step_space = list(itertools.product(range(n_modules), repeat=slots))
    return np.array(list(itertools.product(step_space, repeat=steps)), dtype=np.int64)


@pytest.mark.parametrize("oracle", [nested_layer_oracle, nested_step_oracle])
@pytest.mark.parametrize("n_modules,units,slots", [(3, 2, 2), (2, 3, 1), (1, 2, 3)])
def test_enumerator_order_matches_nested_product(oracle, n_modules, units, slots):
    got = enumerate_compositions(n_modules, units, slots, budget=10_000)
    want = oracle(n_modules, units, slots)
    assert got.shape == (n_modules ** (units * slots), units, slots)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_enumerator_refuses_past_budget():
    assert len(enumerate_compositions(3, 2, 2, budget=81)) == 81
    with pytest.raises(ValueError, match="81 compositions exceed enumeration budget 80"):
        enumerate_compositions(3, 2, 2, budget=80)


def test_net_rejects_layers_of_different_shape():
    rng = np.random.default_rng(27)
    layers = [
        ModularLayer(ModulePool(rng, 2, 2, 2), Controller(rng, 2, 2, 1)),
        ModularLayer(ModulePool(rng, 3, 2, 2), Controller(rng, 2, 3, 1)),
    ]
    with pytest.raises(ValueError, match="share one"):
        ModularNet(layers, OutputHead())
    net = small_net(n_layers=2)
    with pytest.raises(ShapeError, match="composition shape"):
        net.rollout(np.zeros((3, 2)), comps=np.zeros((2, 3, 1), dtype=np.int64))


def test_rollout_greedy_picks_argmax():
    net = small_net(n_layers=2, n_modules=3, n_slots=1)
    x = RNG.standard_normal((4, 2))
    res = net.rollout(x, greedy=True, collect_probs=True)
    assert res.comps.shape == (4, 2, 1)
    assert res.probs.shape == (4, 2, 1, 3)
    for l in range(2):
        assert np.array_equal(res.comps[:, l, 0], res.probs[:, l, 0].argmax(-1))


def test_rollout_sampling_needs_rng():
    net = small_net()
    with pytest.raises(ValueError, match="needs an rng"):
        net.rollout(np.zeros((1, 2)))


def trace_then_score(net, x, y, incumbent, n_samples, rng):
    """Oracle for ``propose_and_score``: the incumbent and ``n_samples``
    proposals walk the stack side by side, each on its own rows.  Every
    layer draws once, ``rng.random`` over all (n_samples + 1) * batch rows
    in candidate-major order, and the incumbent's rows discard their
    draws.  Each candidate is then scored in a walk of its own."""
    tile, batch = n_samples + 1, len(x)
    hs = [np.asarray(x, dtype=np.float64)] * tile
    chosen = []
    for l, layer in enumerate(net.layers):
        p = np.concatenate([layer.controller.distribution(h) for h in hs])
        sel = sample_rows(p, rng.random((tile * batch, layer.n_slots))).astype(np.int64)
        sel = sel.reshape(tile, batch, -1)
        sel[0] = incumbent[:, l]
        chosen.append(sel)
        hs = [layer.forward_selected(Tensor(h), s).data for h, s in zip(hs, sel)]
    cands = np.stack(chosen, axis=2)

    def score(comps):
        h, ctrl = Tensor(np.asarray(x, dtype=np.float64)), None
        for l, layer in enumerate(net.layers):
            term = layer.controller.log_prob(h, comps[:, l])
            ctrl = term if ctrl is None else add(ctrl, term)
            h = layer.forward_selected(h, comps[:, l])
        return add(net.head.log_prob(h, y), ctrl).data

    return cands, np.stack([score(c) for c in cands])


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("n_slots", [1, 2])
def test_propose_and_score_matches_trace_then_score(n_layers, n_slots):
    net = small_net(n_layers=n_layers, n_modules=3, n_slots=n_slots, kind="linear-relu")
    rng = np.random.default_rng(40 + 2 * n_layers + n_slots)
    x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    incumbent = rng.integers(0, 3, size=(6, n_layers, n_slots))
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    cands, scores = net.propose_and_score(x, y, incumbent, 10, got_rng)
    want_cands, want_scores = trace_then_score(net, x, y, incumbent, 10, want_rng)
    assert cands.shape == (11, 6, n_layers, n_slots)
    assert np.array_equal(cands, want_cands)
    assert np.array_equal(scores, want_scores)
    # the same draws, in the same order, and no more
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_each_proposal_and_evaluation_walks_the_stack_once(monkeypatch, n_layers):
    net = small_net(n_layers=n_layers)
    x, y = RNG.standard_normal((5, 2)), RNG.standard_normal((5, 2))
    incumbent = np.zeros((5, n_layers, 1), dtype=np.int64)
    calls = []
    true_forward = ModularLayer.forward_selected

    def spy(layer, h, selection):
        calls.append(layer)
        return true_forward(layer, h, selection)

    monkeypatch.setattr(ModularLayer, "forward_selected", spy)
    net.propose_and_score(x, y, incumbent, 10, np.random.default_rng(0))
    assert len(calls) == n_layers
    calls.clear()
    pred, ll = net.evaluate(x, y)
    assert len(calls) == n_layers
    assert pred.shape == (5, 2) and ll.shape == (5,)


def test_full_net_grad_check():
    net = small_net(n_layers=2, n_modules=2, n_slots=2, kind="linear-relu")
    x = RNG.standard_normal((3, 2))
    y = RNG.standard_normal((3, 2))
    comps = np.stack(
        [RNG.integers(0, 2, size=(3, 2)), RNG.integers(0, 2, size=(3, 2))], axis=1
    ).astype(np.int64)

    def fn():
        return mean_all(add(*net.log_liks(x, y, comps, with_ctrl=True)))

    assert grad_check(fn, net.parameters(), step=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# noisy top-k


def test_topk_eval_matches_sort_renormalize_oracle():
    rng = np.random.default_rng(41)
    gate = NoisyTopKGate(rng, 3, 6, 2)
    x = RNG.standard_normal((8, 3))
    w, mask = gate.weights(Tensor(x), train=False)

    # independent oracle: sort logits, keep top 2, softmax over survivors
    z = x @ gate.gate.w.data + gate.gate.b.data
    for b in range(8):
        keep = np.argsort(-z[b], kind="stable")[:2]
        e = np.exp(z[b][keep] - z[b][keep].max())
        want = e / e.sum()
        assert np.allclose(w.data[b][keep], want, atol=1e-9)
        dropped = np.setdiff1d(np.arange(6), keep)
        assert np.array_equal(w.data[b][dropped], np.zeros(4))
        assert np.array_equal(np.sort(np.nonzero(mask[b])[0]), np.sort(keep))


def test_topk_exactly_k_active_and_sum_one():
    rng = np.random.default_rng(42)
    gate = NoisyTopKGate(rng, 4, 7, 3)
    x = RNG.standard_normal((50, 4))
    for train in (False, True):
        w, mask = gate.weights(
            Tensor(x), train=train, rng=np.random.default_rng(1)
        )
        assert np.all(mask.sum(axis=1) == 3)
        assert np.all((w.data > 0).sum(axis=1) <= 3)
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(w.data * (1 - mask), 0.0, atol=0.0)


def test_topk_tie_prefers_lower_index():
    rng = np.random.default_rng(43)
    gate = NoisyTopKGate(rng, 2, 4, 2)
    # force all logits identical: zero weights, equal biases
    gate.gate.w.data[:] = 0.0
    gate.gate.b.data[:] = 1.0
    w, mask = gate.weights(Tensor(np.zeros((3, 2))), train=False)
    assert np.array_equal(mask, np.tile([1.0, 1.0, 0.0, 0.0], (3, 1)))
    assert np.allclose(w.data[:, :2], 0.5, atol=1e-12)


def test_topk_train_mode_uses_noise():
    rng = np.random.default_rng(44)
    gate = NoisyTopKGate(rng, 3, 5, 2)
    x = RNG.standard_normal((6, 3))
    w0, _ = gate.weights(Tensor(x), train=False)
    w1, _ = gate.weights(Tensor(x), train=True, rng=np.random.default_rng(9))
    assert not np.allclose(w0.data, w1.data)
    with pytest.raises(ValueError, match="rng"):
        gate.weights(Tensor(x), train=True)


def test_topk_dropped_modules_get_zero_gradient():
    rng = np.random.default_rng(45)
    pool = ModulePool(rng, 4, 2, 2, kind="linear")
    gate = NoisyTopKGate(rng, 2, 4, 1)
    layer = NoisyTopKLayer(pool, gate)
    # bias module 0 to always win
    gate.gate.b.data[:] = [100.0, 0.0, 0.0, 0.0]
    x = RNG.standard_normal((5, 2))
    with Tape() as tape:
        for p in layer.parameters():
            tape.watch(p)
        out, w, mask = layer.forward(Tensor(x), train=False)
        loss = mean_all(out)
    grads = tape.backward(loss)
    assert np.all(mask[:, 0] == 1.0)
    for j in (1, 2, 3):
        gw = tape.grad(grads, pool.modules[j].w)
        assert np.array_equal(gw, np.zeros_like(gw))
    g0 = tape.grad(grads, pool.modules[0].w)
    assert np.any(g0 != 0)


def test_topk_batched_equals_per_example_path():
    rng = np.random.default_rng(46)
    pool = ModulePool(rng, 5, 3, 2, kind="linear-relu")
    gate = NoisyTopKGate(rng, 3, 5, 2)
    layer = NoisyTopKLayer(pool, gate)
    x = RNG.standard_normal((9, 3))
    out, _, _ = layer.forward(Tensor(x), train=False)
    ref = forward_per_example(layer, x, train=False)
    assert np.allclose(out.data, ref, atol=1e-12)
    # train mode with twinned rng states
    out_t, _, _ = layer.forward(Tensor(x), train=True, rng=np.random.default_rng(3))
    ref_t = forward_per_example(layer, x, train=True, rng=np.random.default_rng(3))
    assert np.allclose(out_t.data, ref_t, atol=1e-12)


def test_topk_layer_grad_check():
    rng = np.random.default_rng(47)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    gate = NoisyTopKGate(rng, 2, 3, 2)
    layer = NoisyTopKLayer(pool, gate)
    x = RNG.standard_normal((4, 2))
    y = RNG.standard_normal((4, 2))
    head = OutputHead()

    def fn():
        out, _, _ = layer.forward(Tensor(x), train=False)
        return mean_all(head.log_prob(out, y))

    # top-k membership is locally constant away from logit ties, so the
    # masked softmax is differentiable where we probe
    assert grad_check(fn, layer.parameters(), step=1e-6) < 1e-4


def test_topk_net_stacks():
    rng = np.random.default_rng(48)
    layers = [
        NoisyTopKLayer(
            ModulePool(rng, 4, 2, 2, kind="linear-relu"),
            NoisyTopKGate(rng, 2, 4, 2),
        )
        for _ in range(2)
    ]
    net = NoisyTopKNet(layers, OutputHead())
    x = RNG.standard_normal((6, 2))
    h, weights, masks = net.forward(x)
    assert h.data.shape == (6, 2)
    assert len(weights) == 2 and len(masks) == 2
    for w, m in zip(weights, masks):
        assert np.all(m.sum(axis=1) == 2)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_gate_rejects_bad_k():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError):
        NoisyTopKGate(rng, 2, 4, 0)
    with pytest.raises(ValueError):
        NoisyTopKGate(rng, 2, 4, 5)
