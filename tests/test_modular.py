import itertools
import math
import os

import numpy as np
import pytest
from oracles import (
    np_softmax,
    oracle_distribution,
    oracle_log_prob_values,
    oracle_parts,
    oracle_sample_rows,
    oracle_slot_counts,
    oracle_softmax_parts,
    oracle_grads,
    pool_combine,
    pool_module,
    pool_modules,
    random_biases,
)

from modnet.autodiff import (
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    add,
    constant,
    gaussian_log_density,
    grad_check,
    mean_all,
    softmax_parts_first,
)
from modnet import modular
from modnet.config import load_config
from modnet.gru import ModularGruLM
from modnet.modular import (
    Controller,
    Linear,
    ModularLayer,
    ModularNet,
    ModulePool,
    NoisyTopKGate,
    NoisyTopKNet,
    OutputHead,
    choose,
    enumerate_compositions,
    sample_rows,
    slot_counts,
    top_k_mask,
)
from modnet.runner import build_dataset, build_model, build_task, build_trainer
from modnet.seeding import SeedStreams

RNG = np.random.default_rng(7)
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def small_net(n_layers=1, n_modules=2, n_slots=1, dim=2, kind="linear", rng=None):
    rng = rng or np.random.default_rng(123)
    layers = []
    for l in range(n_layers):
        pool = ModulePool(rng, n_modules, dim, dim, kind=kind, name=f"L{l}")
        ctrl = Controller(rng, dim, n_modules, n_slots, name=f"C{l}")
        layers.append(ModularLayer(pool, ctrl))
    return ModularNet(layers, OutputHead())


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
            out[b] += w.data[b, j] * pool_module(layer.pool, int(j), row).data[0]
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
    x = np.array([[1.0, -1.0]])
    pool = ModulePool(rng, 2, 2, 2, kind="linear")
    raw = pool.apply(x)
    pool2 = ModulePool(np.random.default_rng(0), 2, 2, 2, kind="linear-relu")
    clipped = pool2.apply(x)
    assert np.array_equal(clipped, np.maximum(raw, 0.0))
    with pytest.raises(ValueError):
        ModulePool(rng, 2, 2, 2, kind="cubic")


@pytest.mark.parametrize("kind", ModulePool.KINDS)
def test_array_paths_equal_tensor_paths(kind):
    # a plain array in gives a plain array out, bit for bit the Tensor
    # path's values, and is never recorded, even under a tape
    rng = np.random.default_rng(31)
    pool = ModulePool(rng, 3, 4, 5, kind=kind)
    random_biases(pool.parameters(), rng)
    x = rng.standard_normal((6, 4))
    paths = [pool_modules(pool)[0]] + [
        lambda v, j=j: pool_module(pool, j, v) for j in range(pool.n_modules)
    ]
    for path in paths:
        want = path(Tensor(x))
        with Tape() as tape:
            got = path(x)
        assert isinstance(got, np.ndarray) and isinstance(want, Tensor)
        assert np.array_equal(got, want.data) and len(tape) == 0
    if kind == "linear-relu":
        raw = pool_modules(pool)[0](x)
        assert (raw < 0).any() and (raw > 0).any()


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


@pytest.fixture
def cumsum_calls(monkeypatch):
    """The shapes handed to ``np.cumsum`` while the test runs."""
    calls, real = [], np.cumsum

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    return calls


@pytest.mark.parametrize("n_modules", [2, 3, 8])
@pytest.mark.parametrize("n_slots", [1, 2])
def test_draws_at_the_cdf_edges_keep_the_oracle_bits(n_modules, n_slots):
    rows = 50
    rng = np.random.default_rng(40 + n_modules + 2 * n_slots)
    block = rng.random((n_modules, n_slots, rows))
    block[rng.random(block.shape) < 0.3] = 0.0  # zero-probability modules
    block[0, :, ::3] = 0.0
    block[-1, block.sum(axis=0) == 0.0] = 1.0
    block /= block.sum(axis=0)
    block[:, :, 1::4] *= 1.0 - 1e-12
    probs = block.T  # the view Controller.distribution returns
    # totals below 1, as rounding leaves many softmax rows: a uniform just
    # below 1 passes every boundary there, and the oracle's clamp brings
    # it back to M - 1
    below_one = np.nextafter(1.0, 0.0)
    assert (np.cumsum(probs, axis=-1)[..., -1] < below_one).any()
    for u in (rng.random((rows, n_slots)), np.zeros((rows, n_slots)),
              np.full((rows, n_slots), below_one)):
        for p in (probs, np.ascontiguousarray(probs)):
            got = sample_rows(p, u)
            want = oracle_sample_rows(p, u)
            assert got.dtype == np.int64 and np.array_equal(got, want)


def shipped_task(name, *overrides):
    cfg = load_config(os.path.join(CONFIGS, f"{name}.json"), list(overrides))
    streams = SeedStreams(cfg.seed)
    data = build_dataset(cfg, streams)
    task = build_task(cfg, build_model(cfg, data, streams), data)
    return cfg, task, streams


@pytest.fixture
def draws(monkeypatch):
    """The (rows, slots) shapes ``choose`` drew with ``sample_rows``."""
    shapes = []

    def spy(probs, u):
        shapes.append(u.shape)
        return sample_rows(probs, u)

    monkeypatch.setattr(modular, "sample_rows", spy)
    return shapes


def test_shipped_reinforce_step_and_probe_draw_without_cumsum(draws, cumsum_calls):
    cfg, task, streams = shipped_task("two_regime_reinforce", "trainer.m_steps=1")
    trainer = build_trainer(cfg, task, streams)
    del cumsum_calls[:]  # the data set's cumulative rows, built once
    trainer.ascend()
    task.probe(np.arange(cfg.diagnostics.probe_size), np.random.default_rng(0))
    assert draws == [(64, 1)] * 20 + [(256, 1)] * 20
    assert cumsum_calls == []


def test_proposal_walk_of_704_rows_draws_without_cumsum(draws, cumsum_calls):
    cfg, task, _ = shipped_task("two_regime_em")
    idx = np.arange(cfg.trainer.e_batch)
    incumbent = np.zeros((len(idx), *task.unit_shape), dtype=np.int64)
    del cumsum_calls[:]
    task.propose_and_score(idx, incumbent, cfg.trainer.n_samples, np.random.default_rng(0))
    assert draws and all(shape[0] == 704 for shape in draws)
    assert cumsum_calls == []


def test_m32_draw_on_64_rows_takes_cumsum(cumsum_calls):
    rng = np.random.default_rng(32)
    ctrl = Controller(rng, 16, 32, 1)
    p = ctrl.distribution(rng.standard_normal((64, 16)))
    drawn = choose(p, rng=np.random.default_rng(0))
    assert cumsum_calls == [(31, 1, 64)]
    want = oracle_sample_rows(p, np.random.default_rng(0).random((64, 1)))
    assert np.array_equal(drawn, want)


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
# the module-major controller step against its row-major oracle


def special_logits(rng, rows, n_slots, n_modules):
    """(rows, slots, modules) logits: normal draws, small-integer rows full
    of ties, rows of signed zeros, and rows with +-inf and NaN."""
    x = rng.standard_normal((rows, n_slots, n_modules)) * 4.0
    flat = x.reshape(-1, n_modules)
    flat[::5] = rng.integers(-2, 2, size=flat[::5].shape)
    flat[1::7] = rng.choice([0.0, -0.0], size=flat[1::7].shape)
    flat[rng.random(flat.shape) < 0.05] *= -0.0
    flat[2::11, 0] = np.inf
    flat[3::13, -1] = -np.inf
    flat[4::17] = -np.inf
    flat[5::19, n_modules // 2] = np.nan
    flat[6::23] = np.nan
    flat[8::31] = np.inf
    return x


def assert_step_matches_oracle(ctrl, parts, want_parts, rng_seed, forced=None, mask=None):
    """Distribution, draw, greedy choice, log-probabilities and slot counts
    of a module-major step from ``parts``, each bit for bit against the
    oracle."""
    z, e, s = parts
    for k, (wz, we, ws) in enumerate(want_parts):
        assert z[:, k].T.tobytes() == wz.tobytes()
        assert e[:, k].T.tobytes() == we.tobytes()
        assert s[k].tobytes() == ws[:, 0].tobytes()
    p, want_p = ctrl.distribution(None, parts), oracle_distribution(want_parts)
    assert p.shape == want_p.shape and p.tobytes() == want_p.tobytes()
    n_modules = want_p.shape[-1]
    greedy = choose(p, greedy=True)
    assert np.array_equal(greedy, want_p.argmax(axis=-1))
    drawn = choose(p, forced, rng=np.random.default_rng(rng_seed), sample_mask=mask)
    u = np.random.default_rng(rng_seed).random(want_p.shape[:2])
    want = oracle_sample_rows(want_p, u)
    if mask is not None:
        want = np.where(mask[:, None], want, forced)
    assert drawn.dtype == np.int64 and np.array_equal(drawn, want)
    for sel in (greedy, drawn):
        got_lp = ctrl.log_prob_values(parts, sel)
        assert got_lp.tobytes() == oracle_log_prob_values(want_parts, sel).tobytes()
        counts = slot_counts(sel, n_modules)
        assert counts.tobytes() == oracle_slot_counts(sel, n_modules).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n_modules", [1, 2, 3, 7, 8, 9, 32])
@pytest.mark.parametrize("n_slots", [1, 2])
@pytest.mark.parametrize("rows", [1, 64, 704])
def test_module_major_step_keeps_the_row_major_bits(n_modules, n_slots, rows):
    # below 8 modules the sums run down the module axis, from 8 on over a
    # row-major copy; either way every value keeps the oracle's bits,
    # through ties, signed zeros, infinities and NaN
    rng = np.random.default_rng(1000 + 10 * n_modules + n_slots)
    logits = special_logits(rng, rows, n_slots, n_modules)
    parts = softmax_parts_first(np.ascontiguousarray(logits.T))
    want = [oracle_softmax_parts(logits[:, k]) for k in range(n_slots)]
    # the recurrent controller's input width: [h | x] at hidden 8, embed 8
    ctrl = Controller(rng, 16, n_modules, n_slots)
    assert_step_matches_oracle(ctrl, parts, want, rows)

    for h in ctrl.heads:
        h.b.data[...] = rng.integers(-1, 2, size=n_modules)
    x = rng.standard_normal((rows, 16))
    x[::3] = 0.0  # logits equal to the biases: ties
    parts, want = ctrl.parts(x), oracle_parts(ctrl, x)
    assert ctrl.distribution(x).tobytes() == oracle_distribution(want).tobytes()
    forced = rng.integers(0, n_modules, size=(rows, n_slots))
    mask = rng.random(rows) < 0.5
    assert_step_matches_oracle(ctrl, parts, want, rows + 1)
    assert_step_matches_oracle(ctrl, parts, want, rows + 2, forced, mask)


def test_slot_counts_keep_leading_axes_and_come_module_major():
    rng = np.random.default_rng(3)
    sel = rng.integers(0, 4, size=(5, 6, 3))
    got = slot_counts(sel, 4)
    assert got.shape == (5, 6, 4)
    assert got.tobytes() == oracle_slot_counts(sel, 4).tobytes()
    # one step's counts: the (modules, batch) block the unroll reads
    for n_slots in (1, 2):
        assert slot_counts(rng.integers(0, 4, size=(7, n_slots)), 4).T.flags.c_contiguous


# ---------------------------------------------------------------------------
# modular layer


def test_forward_selected_sum_matches_numpy():
    rng = np.random.default_rng(21)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    ctrl = Controller(rng, 2, 3, 2)
    layer = ModularLayer(pool, ctrl)
    x = RNG.standard_normal((6, 2))
    sel = np.array([[0, 1], [2, 2], [1, 0], [0, 0], [1, 2], [2, 1]])
    out = layer.forward_selected(Tensor(x), sel).data
    want = np.zeros((6, 2))
    for b in range(6):
        for k in range(2):
            want[b] += x[b] @ pool.weights[sel[b, k]] + pool.biases[sel[b, k]]
    assert np.allclose(out, want, atol=1e-12)


def test_forward_selected_duplicate_slots_scale_by_multiplicity():
    rng = np.random.default_rng(22)
    pool = ModulePool(rng, 2, 2, 2, kind="linear")
    layer = ModularLayer(pool, Controller(rng, 2, 2, 3))
    x = RNG.standard_normal((1, 2))
    sel = np.array([[1, 1, 1]])
    out = layer.forward_selected(Tensor(x), sel).data
    single = pool_module(pool, 1, Tensor(x)).data
    assert np.allclose(out, 3.0 * single, atol=1e-12)


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
    for bad in (np.full((3, 1), 0.5), np.zeros((3, 1)), np.zeros((3, 1), dtype=bool)):
        with pytest.raises(ShapeError, match="module indices must be integers"):
            layer.forward_selected(Tensor(x), bad)


def test_layer_gradients_flow_only_through_selected():
    rng = np.random.default_rng(25)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    layer = ModularLayer(pool, Controller(rng, 2, 3, 1))
    x = RNG.standard_normal((4, 2))
    sel = np.array([[0], [0], [0], [0]])
    params = pool.parameters()
    with Tape() as tape:
        for p in params:
            tape.watch(p)
        loss = mean_all(layer.forward_selected(Tensor(x), sel))
    grads = tape.backward(loss)
    g = tape.grad(grads, pool.param)
    assert np.any(g[0] != 0)
    assert np.array_equal(g[1:], np.zeros_like(g[1:]))


def taped_select(pool, x, weights):
    """``ModulePool.select`` as the taped oracle loop over the modules that
    some row weighs: one matmul, add and product per module, joined by
    adds."""
    w = weights.data if isinstance(weights, Tensor) else weights
    return pool_combine(pool, x, weights, np.flatnonzero(w.any(axis=0)))


@pytest.mark.parametrize("kind", ModulePool.KINDS)
@pytest.mark.parametrize("n_slots", [1, 2, 3])
@pytest.mark.parametrize("n_modules", [1, 2, 3, 8, 32])
def test_pool_combine_keeps_the_taped_bits(monkeypatch, n_modules, n_slots, kind):
    # the fused record against the taped loop: outputs, controller scores
    # and every gradient, the input's included, bit for bit; stacked
    # layers let each layer's input gradient join its controller's
    for n_layers, detach in itertools.product([1, 2, 3], [False, True]):
        rng = np.random.default_rng(1000 * n_modules + 10 * n_slots + n_layers)
        net = small_net(n_layers, n_modules, n_slots, dim=2, kind=kind, rng=rng)
        random_biases(net.parameters(), rng)
        x = Parameter(rng.standard_normal((6, 2)), "x")
        y = rng.standard_normal((6, 2))
        # module 1 unused from 3 modules on; row 0 picks its last module twice
        choices = [j for j in range(n_modules) if n_modules < 3 or j != 1]
        comps = rng.choice(choices, size=(6, n_layers, n_slots))
        comps[0, :, :2] = n_modules - 1
        results = []
        for select in (ModulePool.select, taped_select):
            monkeypatch.setattr(ModulePool, "select", select)
            with Tape() as tape:
                res = net.rollout(tape.watch(x), y, comps, with_ctrl=True,
                                  detach_ctrl_inputs=detach)
                cond, ctrl = res.cond_ll, res.ctrl_ll
                grads = tape.backward(mean_all(add(cond, ctrl)))
            pools = [l.pool for l in net.layers] if select is taped_select else []
            results.append([cond.data, ctrl.data]
                           + oracle_grads(tape, grads, [x] + net.parameters(), pools))
        monkeypatch.undo()
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        if n_modules >= 3:
            g = results[0][3 + net.parameters().index(net.layers[0].pool.param)]
            assert not g[1].any()


@pytest.mark.parametrize("kind", ModulePool.KINDS)
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("n_modules", [1, 2, 3, 8, 32])
def test_gated_select_keeps_the_taped_bits(monkeypatch, n_modules, train, kind):
    # the gated layer's record, which also returns the gate weights'
    # gradient, against the taped loop over the modules some row keeps:
    # outputs, weights and every gradient, the input's included, bit for
    # bit; stacked layers let each layer's input gradient join the pool's
    # term with both gate maps'
    for n_layers in (1, 2, 3):
        rng = np.random.default_rng(2000 * n_modules + 10 * n_layers + train)
        k = min(n_layers, n_modules)
        layers = [
            ModularLayer(
                ModulePool(rng, n_modules, 2, 2, kind=kind, name=f"L{l}"),
                NoisyTopKGate(rng, 2, n_modules, k, name=f"G{l}"),
            )
            for l in range(n_layers)
        ]
        net = NoisyTopKNet(layers, OutputHead())
        random_biases(net.parameters(), rng)
        x = Parameter(rng.standard_normal((6, 2)), "x")
        y = rng.standard_normal((6, 2))
        results = []
        for select in (ModulePool.select, taped_select):
            monkeypatch.setattr(ModulePool, "select", select)
            with Tape() as tape:
                res = net.rollout(tape.watch(x), y, train=train, rng=np.random.default_rng(5),
                                  collect_probs=True)
                grads = tape.backward(mean_all(res.cond_ll))
            pools = [l.pool for l in net.layers] if select is taped_select else []
            results.append([res.cond_ll.data, res.probs]
                           + oracle_grads(tape, grads, [x] + net.parameters(), pools))
        monkeypatch.undo()
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        kept = results[0][1][:, 0, 0] > 0
        g = results[0][3 + net.parameters().index(net.layers[0].pool.param)]
        for j in np.flatnonzero(~kept.any(axis=0)):
            assert not g[j].any()


@pytest.mark.parametrize("n_slots", [1, 3])
def test_one_pool_combine_record_per_forward_selected(n_slots):
    rng = np.random.default_rng(26)
    pool = ModulePool(rng, 4, 3, 2, kind="linear-relu")
    layer = ModularLayer(pool, Controller(rng, 3, 4, n_slots))
    x = Parameter(rng.standard_normal((5, 3)), "x")
    sel = rng.integers(0, 4, size=(5, n_slots))
    with Tape() as tape:
        out = layer.forward_selected(tape.watch(x), sel)
        assert [r.kind for r in tape._records] == ["pool-combine"]
    untaped = layer.forward_selected(x.data, sel)
    assert untaped.node is None and np.array_equal(untaped.data, out.data)


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
    res = net.rollout(x, y, comps=comps, with_ctrl=True)
    assert net.rollout(x, y, comps=comps).ctrl_ll is None
    cond, ctrl_ll = res.cond_ll.data, res.ctrl_ll
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
                    out += h @ layer.pool.weights[j] + layer.pool.biases[j]
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


def taped_joint(net, x, y, comps) -> np.ndarray:
    """The joint scores of a rollout under a tape, where each layer's
    controller scores its choice with the taped ``Controller.log_prob``."""
    with Tape():
        res = net.rollout(x, y, comps=comps, with_ctrl=True)
    return add(res.cond_ll, res.ctrl_ll).data


# from 8 modules softmax_parts_first sums a row-major copy
@pytest.mark.parametrize("n_modules", [2, 3, 8, 9, 16])
@pytest.mark.parametrize("n_slots", [1, 2, 3])
def test_off_tape_scores_keep_the_taped_bits(n_modules, n_slots):
    # off the tape the walk adds Controller.log_prob_values head by head
    for rows, scale in ((1, 1.0), (7, 1.0), (64, 1.0), (64, 1000.0)):
        rng = np.random.default_rng(100 * n_modules + 10 * n_slots + rows)
        net = small_net(n_layers=2, n_modules=n_modules, n_slots=n_slots, rng=rng)
        x, y = scale * rng.standard_normal((rows, 2)), rng.standard_normal((rows, 2))
        comps = rng.integers(0, n_modules, size=(rows, 2, n_slots))
        assert net.score(x, y, comps).tobytes() == taped_joint(net, x, y, comps).tobytes()
        cands, scores = net.propose_and_score(x, y, comps, 3, rng)
        tiled = [np.concatenate([a] * 4) for a in (x, y)]
        want = taped_joint(net, *tiled, cands.reshape(4 * rows, 2, n_slots))
        assert scores.reshape(-1).tobytes() == want.tobytes()


def test_both_controller_models_refuse_bad_compositions():
    net = small_net(n_layers=2, n_modules=3, n_slots=2)
    lm = ModularGruLM(np.random.default_rng(3), 5, 3, 4, 3, 2)
    for model, inputs in ((net, np.zeros((4, 2))), (lm, np.zeros((4, 2), dtype=np.int64))):
        for shape in ((4, 2, 1), (4, 3, 2), (3, 2, 2), (4, 2)):
            with pytest.raises(ShapeError, match="composition shape"):
                model.rollout(inputs, comps=np.zeros(shape, dtype=np.int64))
        for bad in (-1, 3):
            comps = np.zeros((4, 2, 2), dtype=np.int64)
            comps[1, 1, 1] = bad
            with pytest.raises(ShapeError, match=r"module index out of range \[0, 3\)"):
                model.rollout(inputs, comps=comps)
        # 0.5 would run no module and report module 0; integral floats are
        # refused too, as token ids are
        for comps, with_ctrl in itertools.product(
            (np.full((4, 2, 2), 0.5), np.zeros((4, 2, 2))), (False, True)
        ):
            with pytest.raises(ShapeError, match="module indices must be integers"):
                model.rollout(inputs, np.zeros_like(inputs), comps=comps, with_ctrl=with_ctrl)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_each_proposal_and_evaluation_walks_the_stack_once(monkeypatch, n_layers):
    net = small_net(n_layers=n_layers)
    x, y = RNG.standard_normal((5, 2)), RNG.standard_normal((5, 2))
    incumbent = np.zeros((5, n_layers, 1), dtype=np.int64)
    calls = []
    true_select = ModulePool.select

    def spy(pool, h, counts):
        calls.append(pool)
        return true_select(pool, h, counts)

    monkeypatch.setattr(ModulePool, "select", spy)
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
        res = net.rollout(x, y, comps=comps, with_ctrl=True)
        return mean_all(add(res.cond_ll, res.ctrl_ll))

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
    layer = ModularLayer(pool, gate)
    # bias module 0 to always win
    gate.gate.b.data[:] = [100.0, 0.0, 0.0, 0.0]
    x = RNG.standard_normal((5, 2))
    with Tape() as tape:
        for p in layer.parameters():
            tape.watch(p)
        out, w, mask = layer.forward_mixed(Tensor(x), train=False)
        loss = mean_all(out)
    grads = tape.backward(loss)
    assert np.all(mask[:, 0] == 1.0)
    g = tape.grad(grads, pool.param)
    assert np.array_equal(g[1:], np.zeros_like(g[1:]))
    assert np.any(g[0, : pool.in_dim] != 0)


def test_topk_batched_equals_per_example_path():
    rng = np.random.default_rng(46)
    pool = ModulePool(rng, 5, 3, 2, kind="linear-relu")
    gate = NoisyTopKGate(rng, 3, 5, 2)
    layer = ModularLayer(pool, gate)
    x = RNG.standard_normal((9, 3))
    out, _, _ = layer.forward_mixed(Tensor(x), train=False)
    ref = forward_per_example(layer, x, train=False)
    assert np.allclose(out.data, ref, atol=1e-12)
    # train mode with twinned rng states
    out_t, _, _ = layer.forward_mixed(Tensor(x), train=True, rng=np.random.default_rng(3))
    ref_t = forward_per_example(layer, x, train=True, rng=np.random.default_rng(3))
    assert np.allclose(out_t.data, ref_t, atol=1e-12)


def test_topk_layer_grad_check():
    rng = np.random.default_rng(47)
    pool = ModulePool(rng, 3, 2, 2, kind="linear")
    gate = NoisyTopKGate(rng, 2, 3, 2)
    layer = ModularLayer(pool, gate)
    x = RNG.standard_normal((4, 2))
    y = RNG.standard_normal((4, 2))
    head = OutputHead()

    def fn():
        out, _, _ = layer.forward_mixed(Tensor(x), train=False)
        return mean_all(head.log_prob(out, y))

    # top-k membership is locally constant away from logit ties, so the
    # masked softmax is differentiable where we probe
    assert grad_check(fn, layer.parameters(), step=1e-6) < 1e-4


def test_topk_net_stacks():
    rng = np.random.default_rng(48)
    layers = [
        ModularLayer(
            ModulePool(rng, 4, 2, 2, kind="linear-relu"),
            NoisyTopKGate(rng, 2, 4, 2),
        )
        for _ in range(2)
    ]
    net = NoisyTopKNet(layers, OutputHead())
    x = RNG.standard_normal((6, 2))
    res = net.rollout(x, collect_probs=True)
    assert res.outputs.shape == (6, 2) and res.probs.shape == (6, 2, 1, 4)
    h = x
    for l, layer in enumerate(net.layers):
        h, w, m = layer.forward_mixed(h)
        assert np.array_equal(w.data, res.probs[:, l, 0])
        assert np.all(m.sum(axis=1) == 2)
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-9)


def test_topk_net_protocol_matches_layer_walk_oracle():
    rng = np.random.default_rng(50)
    layers = [
        ModularLayer(ModulePool(rng, 4, 2, 2, kind="linear-relu"), NoisyTopKGate(rng, 2, 4, 2))
        for _ in range(3)
    ]
    net = NoisyTopKNet(layers, OutputHead())
    x = RNG.standard_normal((7, 2))
    y = RNG.standard_normal((7, 2))

    def oracle(train, seed=None):
        # walk the layers' mixtures, then score the last activations
        noise = None if seed is None else np.random.default_rng(seed)
        h, weights = Tensor(x), []
        for layer in net.layers:
            h, w, _ = layer.forward_mixed(h, train=train, rng=noise)
            weights.append(w.data)
        ll = gaussian_log_density(constant(y), h).data
        return h.data, ll, np.stack(weights, axis=1)[:, :, None]

    out, ll, probs = oracle(False)
    res = net.rollout(x, y, collect_probs=True)
    assert np.array_equal(res.outputs, out) and np.array_equal(res.probs, probs)
    assert np.array_equal(res.cond_ll.data, ll) and np.array_equal(res.pred_ll, ll)
    assert res.ctrl_ll is None and res.comps.shape == (7, 3, 0)
    assert np.array_equal(net.rollout(x, y).cond_ll.data, ll)
    pred, got_ll = net.evaluate(x, y)
    assert np.array_equal(pred, out) and np.array_equal(got_ll, ll)
    snap, paths = net.probe(x)
    assert paths.shape == (7, 3, 1) and np.array_equal(paths, probs.argmax(axis=-1))
    assert len(snap.probs) == 3
    for l in range(3):
        assert np.array_equal(snap.probs[l], probs[:, l])

    # train mode: twinned rngs draw the same noise
    out_t, ll_t, probs_t = oracle(True, seed=5)
    assert not np.array_equal(probs_t, probs)
    res = net.rollout(x, y, train=True, rng=np.random.default_rng(5), collect_probs=True)
    assert np.array_equal(res.outputs, out_t) and np.array_equal(res.probs, probs_t)
    assert np.array_equal(res.cond_ll.data, ll_t)
    got = net.rollout(x, y, train=True, rng=np.random.default_rng(5)).cond_ll
    assert np.array_equal(got.data, ll_t)
    with pytest.raises(ValueError, match="no compositions"):
        net.marginal_log_lik(x, y)


def test_gate_rejects_bad_k():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError):
        NoisyTopKGate(rng, 2, 4, 0)
    with pytest.raises(ValueError):
        NoisyTopKGate(rng, 2, 4, 5)
    # a layer refuses a router of another width
    pool = ModulePool(rng, 4, 2, 2)
    for router in (NoisyTopKGate(rng, 2, 3, 2), Controller(rng, 2, 3, 1)):
        with pytest.raises(ValueError, match="covers 3 modules, pool has 4"):
            ModularLayer(pool, router)


def argsort_topk_mask(z, k):
    """The top-k cut as the gate first wrote it: a stable argsort of the
    negated logits, so among equal logits the lower index wins."""
    order = np.argsort(-z, axis=-1, kind="stable")
    mask = np.zeros_like(z)
    np.put_along_axis(mask, order[:, :k], 1.0, axis=-1)
    return mask


@pytest.mark.parametrize("n_modules", [2, 4, 8])
def test_top_k_mask_matches_the_stable_argsort(n_modules):
    rng = np.random.default_rng(51)
    for k in range(1, n_modules + 1):
        for trial in range(20):
            if trial % 2:
                # heavily tied: a few distinct values, signed zeros and infinities
                z = rng.choice([-1.0, -0.0, 0.0, 2.0, np.inf, -np.inf], size=(40, n_modules))
            else:
                z = rng.standard_normal((40, n_modules))
                z[::5] = z[::5, :1]  # whole rows of one value
            got = top_k_mask(z, k)
            assert got.tobytes() == argsort_topk_mask(z, k).tobytes(), (k, trial)
            assert np.all(got.sum(axis=-1) == k)


def test_pool_pieces_are_views_of_its_one_parameter():
    rng = np.random.default_rng(52)
    pool = ModulePool(rng, 3, 4, 2, kind="linear")
    assert pool.parameters() == [pool.param] and pool.param.shape == (3, 5, 2)
    assert pool.weights.base is pool.param.data and pool.biases.base is pool.param.data
    # initial draws are per module, in order, as from separate Linears, and
    # the pieces run m0.w, m0.b, m1.w, ... through the buffer in storage order
    again = np.random.default_rng(52)
    flat = []
    for j in range(3):
        want = Linear(again, 4, 2, f"pool.m{j}")
        (w_name, w), (b_name, b) = pool.param.pieces[2 * j : 2 * j + 2]
        assert (w_name, b_name) == (want.w.name, want.b.name)
        assert np.array_equal(w, want.w.data) and np.array_equal(b, want.b.data)
        assert w.base is pool.param.data and b.base is pool.param.data
        flat += [w.reshape(-1), b]
    assert np.concatenate(flat).tobytes() == pool.param.data.tobytes()
    pool.param.pieces[2][1][...] += 1.0
    pool.param.pieces[5][1][...] = 7.0
    assert np.array_equal(pool.weights[1], pool.param.pieces[2][1])
    assert np.all(pool.biases[2] == 7.0)
    x = RNG.standard_normal((5, 4))
    stacked = pool.apply(x)
    for j in range(3):
        assert stacked[j].tobytes() == pool_module(pool, j, x).tobytes()
