import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from oracles import (
    categorical_log_prob,
    composed_topk_step,
    composed_topk_weights,
    composed_unroll,
    concat_last,
    np_sigmoid,
    np_softmax,
    oracle_grads,
    pool_modules,
    random_biases,
    reference_cell_step,
    reference_lm_rollout,
    stack_rows,
    strided_pullback,
)

import modnet.gru as gru_mod
from modnet.autodiff import (
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    add,
    constant,
    grad_check,
    mean_all,
    mul,
    sum_over_axis,
)
from modnet.gru import ModularGruCell, ModularGruLM, NoisyTopKGruLM
from modnet.modular import (
    Controller,
    ModularLayer,
    ModularNet,
    ModulePool,
    NoisyTopKGate,
    OutputHead,
    slot_counts,
)

RNG = np.random.default_rng(99)


def make_lm(vocab=5, embed=3, hidden=4, n_modules=2, n_slots=1, seed=200):
    return ModularGruLM(np.random.default_rng(seed), vocab, embed, hidden, n_modules, n_slots)


# ---------------------------------------------------------------------------
# cell equations


def forced(sels, n_modules):
    """``select`` for ``ModularGruCell.unroll`` from (steps, batch, slots)
    selections fixed in advance."""
    return lambda t, hx: (slot_counts(sels[t], n_modules), None)


def unroll_states(cell, h0, xs, sels):
    """States after each step of ``cell.unroll`` from ``h0`` over (steps,
    batch, in) inputs: an array (steps, batch, hidden)."""
    steps, batch = sels.shape[:2]
    n_modules = cell.pool.n_modules
    h_rows, _ = cell.unroll(xs.reshape(steps * batch, -1), steps, forced(sels, n_modules), h0)
    return h_rows.data.reshape(steps, batch, cell.hidden)


def test_cell_step_matches_reference():
    rng = np.random.default_rng(50)
    cell = ModularGruCell(rng, in_dim=3, hidden=4, n_modules=3, n_slots=2)
    h = RNG.standard_normal((5, 4))
    xs = RNG.standard_normal((3, 5, 3))
    sels = RNG.integers(0, 3, size=(3, 5, 2)).astype(np.int64)
    out = unroll_states(cell, h, xs, sels)
    for t in range(3):
        h = reference_cell_step(cell, h, xs[t], sels[t])
        assert np.allclose(out[t], h, atol=1e-12)


def test_cell_zero_update_gate_freezes_state():
    rng = np.random.default_rng(51)
    cell = ModularGruCell(rng, in_dim=2, hidden=3, n_modules=2, n_slots=1)
    cell.update.w.data[:] = 0.0
    cell.update.b.data[:] = -60.0  # sigmoid -> ~0, so h must pass through
    h = RNG.standard_normal((4, 3))
    xs = RNG.standard_normal((2, 4, 2))
    sels = np.zeros((2, 4, 1), dtype=np.int64)
    out = unroll_states(cell, h, xs, sels)
    assert np.allclose(out, h, atol=1e-12)


def test_cell_full_update_gate_emits_candidate():
    rng = np.random.default_rng(52)
    cell = ModularGruCell(rng, in_dim=2, hidden=3, n_modules=2, n_slots=1)
    cell.update.w.data[:] = 0.0
    cell.update.b.data[:] = 60.0  # sigmoid -> ~1
    h = RNG.standard_normal((4, 3))
    x = RNG.standard_normal((4, 2))
    sels = np.ones((1, 4, 1), dtype=np.int64)
    out = unroll_states(cell, h, x[None], sels)[0]
    r = np_sigmoid(
        np.concatenate([h, x], -1) @ cell.reset.w.data + cell.reset.b.data
    )
    px = np.concatenate([r * h, x], -1)
    want = np.maximum(px @ cell.pool.weights[1] + cell.pool.biases[1], 0.0)
    assert np.allclose(out, want, atol=1e-10)


def test_cell_candidate_rectified_after_sum():
    # two modules whose outputs cancel: sum is 0, relu(0)=0, so the state
    # interpolates straight toward zero instead of summing rectified halves
    rng = np.random.default_rng(53)
    cell = ModularGruCell(rng, in_dim=2, hidden=2, n_modules=2, n_slots=2)
    m0, m1 = pool_modules(cell.pool)
    m1.w.data[:] = -m0.w.data
    m1.b.data[:] = -m0.b.data
    cell.update.w.data[:] = 0.0
    cell.update.b.data[:] = 60.0
    h = RNG.standard_normal((3, 2))
    x = RNG.standard_normal((3, 2))
    sels = np.tile([0, 1], (1, 3, 1)).astype(np.int64)
    out = unroll_states(cell, h, x[None], sels)
    assert np.allclose(out, 0.0, atol=1e-12)


def unroll_grads(unroll_fn, cell, h0, xs, sels, weight, composed=False):
    """Rows [h_t | h_{t-1}, x_t] of ``unroll_fn`` and the gradients of
    sum(weight * rows) with respect to every step's inputs and every cell
    parameter; the fused unroll's two outputs are joined by
    ``concat_last``.  A ``composed`` unroll runs the pool's modules one by
    one, so the pool's gradient is its modules' (``oracle_grads``)."""
    x_params = [Parameter(x, f"x{t}") for t, x in enumerate(xs)]
    with Tape() as tape:
        x_steps = [tape.watch(p) for p in x_params]
        rows = unroll_fn(cell, h0, x_steps, sels)
        if isinstance(rows, tuple):
            rows = concat_last(*rows)
        loss = sum_over_axis(mul(rows, weight))
        n_records = len(tape)
    grads = tape.backward(loss)
    pools = [cell.pool] if composed else []
    return rows.data, oracle_grads(tape, grads, x_params + cell.parameters(), pools), n_records


def fused_unroll(cell, h0, x_steps, sels):
    n_modules = cell.pool.n_modules
    return cell.unroll(stack_rows(x_steps), len(x_steps), forced(sels, n_modules), h0)


@pytest.mark.parametrize(
    "n_slots, sel_rows",
    [
        (1, [[0], [2], [1], [2], [0], [1]]),
        # module 1 unused: its gradients must come out as exact zeros
        (1, [[0], [2], [0], [2], [2], [0]]),
        # row 0 picks module 1 in both slots, so its output counts twice
        (2, [[1, 1], [0, 2], [2, 0], [2, 2], [0, 1], [1, 0]]),
    ],
)
def test_unroll_matches_composed_steps(n_slots, sel_rows, monkeypatch):
    rng = np.random.default_rng(70 + n_slots)
    cell = ModularGruCell(rng, in_dim=3, hidden=4, n_modules=3, n_slots=n_slots)
    random_biases(cell.parameters(), rng)
    steps = 4
    h0 = rng.standard_normal((6, 4))
    xs = rng.standard_normal((steps, 6, 3))
    # every step permutes the rows' selections, so each row sees several modules
    sels = np.stack([np.roll(np.array(sel_rows, dtype=np.int64), t, axis=0) for t in range(steps)])
    weight = rng.standard_normal((steps * 6, 4 + 4 + 3))

    pre = []
    true_relu = gru_mod.relu

    def relu_spy(x):
        pre.append(x.copy())
        return true_relu(x)

    monkeypatch.setattr(gru_mod, "relu", relu_spy)
    got, got_g, fused_records = unroll_grads(fused_unroll, cell, h0, xs, sels, weight)
    monkeypatch.setattr(gru_mod, "relu", true_relu)
    pre = np.concatenate(pre)
    want, want_g, composed_records = unroll_grads(
        composed_unroll, cell, h0, xs, sels, weight, composed=True
    )
    assert np.array_equal(got, want)
    # input stack, one unroll record, the join of its two outputs, then
    # the loss's mul and sum
    assert fused_records == 5 and composed_records > 20 * steps

    # rows on both sides of the kink, so the relu mask is exercised
    assert (pre < 0).any() and (pre > 0).any()
    if not (sels == 1).any():
        assert not got_g[steps + cell.parameters().index(cell.pool.param)][1].any()

    for g, w in zip(got_g, want_g):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_topk_gate_record_matches_composed_weights(train):
    # one noisy-topk-gate record against the gate built op by op: same
    # arithmetic, so weights, mask and every gradient agree bit for bit
    rng = np.random.default_rng(90)
    gate = NoisyTopKGate(rng, 3, 5, 2)
    x = Parameter(rng.standard_normal((7, 3)), "x")
    weight = rng.standard_normal((7, 5))

    def run(weights):
        with Tape() as tape:
            w, mask = weights(tape.watch(x), train, np.random.default_rng(6))
            loss = sum_over_axis(mul(w, weight))
            n_records = len(tape)
        grads = tape.backward(loss)
        return w.data, mask, [tape.grad(grads, p) for p in [x] + gate.parameters()], n_records

    got_w, got_mask, got_g, n_records = run(gate.weights)
    want_w, want_mask, want_g, _ = run(lambda x, *a: composed_topk_weights(gate, x, *a))
    # the gate map (and the noise map in training), each a matmul and an
    # add, the gate's record, the product and the sum
    assert n_records == (7 if train else 5)
    assert np.array_equal(got_w, want_w) and np.array_equal(got_mask, want_mask)
    assert any(g.any() for g in got_g[3:]) == train
    for g, w in zip(got_g, want_g):
        assert np.array_equal(g, w)


def topk_unrolls(train, seed):
    """``unroll_fn``s for a gate-routed cell, fused and composed; each draws
    its noise from a fresh stream of one seed, and the composed one
    appends each step's survivor mask to the list passed in its place."""

    def fused(cell, h0, x_steps, _):
        rng = np.random.default_rng(seed)

        def select(t, hx):
            w, _, noise = cell.gate.forward(hx, train, rng)
            return w, noise

        return cell.unroll(stack_rows(x_steps), len(x_steps), select, h0)

    def composed(cell, h0, x_steps, masks):
        rng = np.random.default_rng(seed)
        h, rows = constant(h0), []
        for x in x_steps:
            hx = concat_last(h, x)
            h, mask = composed_topk_step(cell, h, x, train, rng, hx=hx)
            masks.append(mask)
            rows.append(concat_last(h, hx))
        return stack_rows(rows)

    return fused, composed


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("k", [1, 2])
def test_topk_unroll_matches_composed_steps(k, train, monkeypatch):
    rng = np.random.default_rng(80 + k)
    cell = ModularGruCell(rng, in_dim=3, hidden=4, n_modules=4, topk=k)
    random_biases(cell.parameters(), rng)
    steps, batch = 4, 3
    h0 = rng.standard_normal((batch, 4))
    xs = rng.standard_normal((steps, batch, 3))
    weight = rng.standard_normal((steps * batch, 4 + 4 + 3))
    fused, composed = topk_unrolls(train, seed=5)

    pre = []
    true_relu = gru_mod.relu

    def relu_spy(x):
        pre.append(x.copy())
        return true_relu(x)

    monkeypatch.setattr(gru_mod, "relu", relu_spy)
    got, got_g, fused_records = unroll_grads(fused, cell, h0, xs, None, weight)
    monkeypatch.setattr(gru_mod, "relu", true_relu)
    pre = np.concatenate(pre)
    masks = []
    want, want_g, _ = unroll_grads(composed, cell, h0, xs, masks, weight, composed=True)
    assert np.array_equal(got, want)
    assert fused_records == 5
    assert (pre < 0).any() and (pre > 0).any()
    # some module sits out a whole step, so the unroll skips it there
    assert not np.stack([m.any(axis=0) for m in masks]).all()

    gate_g = [got_g[steps + cell.parameters().index(p)] for p in cell.gate.parameters()]
    # top-1 weights are exactly 1, so only top-2 carries a gate gradient;
    # the noise scale has one only in training
    assert any(g.any() for g in gate_g[:2]) == (k > 1)
    assert any(g.any() for g in gate_g[2:]) == (k > 1 and train)
    for g, w in zip(got_g, want_g):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# language model rollout


def test_rollout_forced_comps_matches_reference():
    lm = make_lm()
    tokens = RNG.integers(0, 5, size=(6, 4))
    targets = RNG.integers(0, 5, size=(6, 4))
    comps = RNG.integers(0, 2, size=(6, 4, 1)).astype(np.int64)
    res = lm.rollout(tokens, targets, comps=comps, with_ctrl=True)
    cond, ctrl = reference_lm_rollout(lm, tokens, targets, comps)
    assert np.allclose(res.cond_ll.data, cond, atol=1e-10)
    assert np.allclose(res.ctrl_ll.data, ctrl, atol=1e-10)
    assert np.array_equal(res.comps, comps)
    assert np.allclose(res.pred_ll.sum(axis=1), cond, atol=1e-10)


def taped_and_untaped(lm, tokens, targets, **kwargs):
    rng_seed = kwargs.pop("rng_seed", None)

    def run():
        if rng_seed is not None:
            kwargs["rng"] = np.random.default_rng(rng_seed)
        return lm.rollout(tokens, targets, **kwargs)

    plain = run()
    with Tape() as tape:
        taped = run()
        n_records = len(tape)
    return plain, taped, n_records


@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_taped_rollout_scores_equal_untaped(detach, masked):
    # under a tape the head and controller score all steps in one batch;
    # the values must not differ by a single bit from step-by-step scoring
    lm = make_lm(n_modules=3, n_slots=2, seed=208)
    batch = 5
    counts = []
    for steps in (6, 12):
        tokens = RNG.integers(0, 5, size=(batch, steps))
        targets = RNG.integers(0, 5, size=(batch, steps))
        comps = RNG.integers(0, 3, size=(batch, steps, 2)).astype(np.int64)
        extra = {}
        if masked:
            extra = {"sample_mask": np.array([True, False, True, True, False]), "rng_seed": 9}
        plain, taped, n_records = taped_and_untaped(
            lm, tokens, targets, comps=comps, with_ctrl=True,
            detach_ctrl_inputs=detach, **extra,
        )
        assert np.array_equal(plain.comps, taped.comps)
        assert np.array_equal(plain.pred_ll, taped.pred_ll)
        assert np.array_equal(plain.cond_ll.data, taped.cond_ll.data)
        assert np.array_equal(plain.ctrl_ll.data, taped.ctrl_ll.data)
        counts.append(n_records)
    # one embedding lookup and one unroll for all steps; the head projects
    # the unroll's states, then scores and sums each window in one
    # categorical-head record; the controller projects the unroll's
    # [h, x] rows (detached or not) for each of its 2 heads, and scores and
    # sums both heads in one record
    assert counts == [4 + 3] * 2


def tensor_scored_rollout(lm, tokens, targets, comps):
    """Per-token, summed conditional and summed controller log-likelihoods
    along ``comps``: the states come from a kept unroll, and each step is
    scored on Tensors through ``categorical_log_prob`` and
    ``Controller.log_prob``, summed step by step as a rollout does."""
    batch, steps = tokens.shape
    hid = lm.cell.hidden
    x_rows = lm.embed.data[tokens.T.reshape(-1)]
    sels = comps.transpose(1, 0, 2)
    outputs = lm.cell.unroll(x_rows, steps, forced(sels, lm.n_modules), np.zeros((batch, hid)))
    pred, cond, ctrl = np.empty((batch, steps)), None, None
    for t in range(steps):
        h, hx = (np.ascontiguousarray(o.data[t * batch : (t + 1) * batch]) for o in outputs)
        ll = categorical_log_prob(lm.out(Tensor(h)), targets[:, t])
        term = lm.cell.controller.log_prob(Tensor(hx), sels[t])
        pred[:, t] = ll.data
        cond = ll if cond is None else add(cond, ll)
        ctrl = term if ctrl is None else add(ctrl, term)
    return pred, cond.data, ctrl.data


def test_untaped_rollout_scores_equal_tensor_scoring():
    # untaped steps are scored on plain arrays; proposals on tiled rows,
    # some forced and some drawn, must score bit for bit as on Tensors
    lm = make_lm(n_modules=3, n_slots=2, seed=211)
    batch, steps, tile = 4, 5, 3
    tokens, targets = (
        np.concatenate([RNG.integers(0, 5, size=(batch, steps))] * tile) for _ in range(2)
    )
    incumbent = np.concatenate([RNG.integers(0, 3, size=(batch, steps, 2))] * tile)
    mask = np.arange(tile * batch) >= batch
    res = lm.rollout(
        tokens, targets, comps=incumbent, sample_mask=mask,
        rng=np.random.default_rng(3), with_ctrl=True,
    )
    assert np.array_equal(res.comps[~mask], incumbent[~mask])
    assert not np.array_equal(res.comps[mask], incumbent[mask])
    pred, cond, ctrl = tensor_scored_rollout(lm, tokens, targets, res.comps)
    assert np.array_equal(res.pred_ll, pred)
    assert np.array_equal(res.cond_ll.data, cond)
    assert np.array_equal(res.ctrl_ll.data, ctrl)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_rollout_steps_build_no_tensors(taped, monkeypatch):
    # the unroll's steps, its BPTT and untaped scoring run on plain arrays:
    # the Tensors a rollout builds must not grow with its step count
    made, init = [], Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    lm = make_lm(n_modules=3, n_slots=2, seed=212)
    batch = 4

    def count(steps):
        tokens = RNG.integers(0, 5, size=(batch, steps))
        targets = RNG.integers(0, 5, size=(batch, steps))
        comps = RNG.integers(0, 3, size=(batch, steps, 2))
        rng = np.random.default_rng(5)
        made.clear()
        if taped:
            # sampled in the walk, as REINFORCE does, then backpropagated
            with Tape() as tape:
                res = lm.rollout(tokens, targets, rng=rng, with_ctrl=True)
                loss = sum_over_axis(add(res.cond_ll, res.ctrl_ll))
            tape.backward(loss)
        else:
            mask = np.arange(batch) % 2 == 1
            lm.rollout(tokens, targets, comps=comps, sample_mask=mask, rng=rng, with_ctrl=True)
        return len(made)

    assert count(4) == count(8) > 0


def test_untaped_evaluate_memory_does_not_grow_per_step():
    # evaluation unrolls every window at once, so an untaped unroll may keep
    # only its outputs per step: pred_ll and the chosen comps (one slot),
    # which from 20 to 40 steps grow by as many bytes as the 40-step
    # pred_ll holds.  A kept state or embedding per step and window would
    # add at least 20 * batch * 8 bytes more; 1 KiB covers interpreter objects.
    lm = make_lm(seed=210)
    batch = 400

    def peak(steps):
        tokens = RNG.integers(0, 5, size=(batch, steps))
        targets = RNG.integers(0, 5, size=(batch, steps))
        tracemalloc.start()
        try:
            _, pred_ll = lm.evaluate(tokens, targets)
            return tracemalloc.get_traced_memory()[1], pred_ll
        finally:
            tracemalloc.stop()

    peak(20)  # first-call allocations out of the way
    p20, _ = peak(20)
    p40, pred_ll = peak(40)
    assert pred_ll.shape == (batch, 40)
    assert p40 - p20 <= pred_ll.nbytes + 1024


def test_lm_grad_check_two_slots():
    lm = make_lm(vocab=4, embed=2, hidden=3, n_modules=3, n_slots=2, seed=209)
    tokens = np.array([[0, 1, 2], [3, 2, 1]])
    targets = np.array([[1, 2, 3], [0, 0, 2]])
    comps = np.array(
        [[[0, 0], [1, 2], [2, 1]], [[2, 2], [1, 0], [0, 1]]], dtype=np.int64
    )

    def fn():
        res = lm.rollout(tokens, targets, comps=comps, with_ctrl=True)
        return mean_all(add(res.cond_ll, res.ctrl_ll))

    assert grad_check(fn, lm.parameters(), step=1e-5) < 1e-4


def test_rollout_score_is_cond_plus_ctrl():
    lm = make_lm(seed=201)
    tokens = RNG.integers(0, 5, size=(3, 3))
    targets = RNG.integers(0, 5, size=(3, 3))
    comps = RNG.integers(0, 2, size=(3, 3, 1)).astype(np.int64)
    s = lm.score(tokens, targets, comps)
    cond, ctrl = reference_lm_rollout(lm, tokens, targets, comps)
    assert np.allclose(s, cond + ctrl, atol=1e-10)


def test_rollout_shape_rejection():
    lm = make_lm()
    with pytest.raises(ValueError):
        lm.rollout(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        lm.rollout(
            np.zeros((2, 3), dtype=np.int64),
            np.zeros((2, 3), dtype=np.int64),
            comps=np.zeros((2, 2, 1), dtype=np.int64),
        )
    with pytest.raises(ValueError, match="rng"):
        lm.rollout(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_rollout_greedy_selects_argmax_path():
    lm = make_lm(seed=202)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    res = lm.rollout(tokens, targets, greedy=True, collect_probs=True)
    assert np.array_equal(res.comps[..., 0], res.probs[..., 0, :].argmax(-1))


def test_sample_mask_keeps_forced_rows():
    lm = make_lm(seed=203)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    forced = RNG.integers(0, 2, size=(4, 3, 1)).astype(np.int64)
    mask = np.array([False, True, False, True])
    res = lm.rollout(
        tokens, targets, comps=forced, sample_mask=mask,
        rng=np.random.default_rng(4),
    )
    assert np.array_equal(res.comps[~mask], forced[~mask])


def count_head_calls(lm):
    """Route the output head through a counter; returns the call list."""
    head, calls = lm.out, []
    lm.out = lambda h: calls.append(1) or head(h)
    return calls


@pytest.mark.parametrize("forced", [False, True], ids=["sampled", "forced"])
def test_probe_skips_the_output_head(forced):
    lm = make_lm(n_modules=3, n_slots=2, seed=204)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    comps = RNG.integers(0, 3, size=(4, 3, 2)) if forced else None
    # oracle: the scored unroll a probe used to run
    want = lm.rollout(
        tokens, targets, comps=comps, rng=np.random.default_rng(8), collect_probs=True
    )
    calls = count_head_calls(lm)
    snap, paths = lm.probe(tokens, np.random.default_rng(8), comps)
    assert calls == []
    assert np.array_equal(paths, want.comps)
    assert len(snap.probs) == 1
    assert np.array_equal(snap.probs[0], want.probs.reshape(12, 2, 3))


def test_topk_probe_skips_the_output_head():
    lm = NoisyTopKGruLM(np.random.default_rng(63), vocab=5, embed_dim=3, hidden=4, n_modules=3, k=2)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    # oracle: the scored unroll a probe used to run
    weights = lm.rollout(tokens, targets, train=False, collect_probs=True).probs[:, :, 0]
    calls = count_head_calls(lm)
    snap, paths = lm.probe(tokens)
    assert calls == []
    flat = weights.reshape(12, 1, 3)
    assert np.array_equal(snap.probs[0], flat)
    assert np.array_equal(paths, weights.argmax(axis=-1)[:, :, None])
    res = lm.rollout(tokens)
    assert res.cond_ll is None and res.pred_ll is None


def test_sample_mask_requires_comps():
    lm = make_lm()
    rng = np.random.default_rng(0)
    layer = ModularLayer(ModulePool(rng, 2, 2, 2), Controller(rng, 2, 2, 1))
    net = ModularNet([layer], OutputHead())
    # one rule in modular.choose serves both models
    for model, inputs, targets in [
        (lm, np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)),
        (net, np.zeros((2, 2)), np.zeros((2, 2))),
    ]:
        with pytest.raises(ValueError, match="sample_mask requires forced comps"):
            model.rollout(inputs, targets, sample_mask=np.array([True, False]), rng=rng)


def test_propose_and_score_incumbent_first_and_consistent():
    lm = make_lm(seed=204)
    tokens = RNG.integers(0, 5, size=(5, 4))
    targets = RNG.integers(0, 5, size=(5, 4))
    incumbent = RNG.integers(0, 2, size=(5, 4, 1)).astype(np.int64)
    cands, scores = lm.propose_and_score(
        tokens, targets, incumbent, 3, np.random.default_rng(8)
    )
    assert cands.shape == (4, 5, 4, 1)
    assert scores.shape == (4, 5)
    assert np.array_equal(cands[0], incumbent)
    # every reported score must equal an independent re-scoring of its path
    for i in range(4):
        cond, ctrl = reference_lm_rollout(lm, tokens, targets, cands[i])
        assert np.allclose(scores[i], cond + ctrl, atol=1e-10)


def test_marginal_enumeration_matches_manual_logsumexp():
    lm = make_lm(vocab=4, embed=2, hidden=3, seed=205)
    tokens = RNG.integers(0, 4, size=(3, 3))
    targets = RNG.integers(0, 4, size=(3, 3))
    got = lm.marginal_log_lik(tokens, targets)
    scores = []
    for seq in itertools.product(range(2), repeat=3):
        comp = np.tile(np.array(seq, dtype=np.int64)[None, :, None], (3, 1, 1))
        cond, ctrl = reference_lm_rollout(lm, tokens, targets, comp)
        scores.append(cond + ctrl)
    stacked = np.stack(scores)
    m = stacked.max(axis=0)
    want = m + np.log(np.exp(stacked - m).sum(axis=0))
    assert np.allclose(got, want, atol=1e-9)
    with pytest.raises(ValueError, match="budget"):
        lm.marginal_log_lik(tokens, targets, budget=2)


def test_lm_grad_check_through_time():
    lm = make_lm(vocab=4, embed=2, hidden=3, n_modules=2, n_slots=1, seed=206)
    tokens = np.array([[0, 1, 2], [3, 2, 1]])
    targets = np.array([[1, 2, 3], [0, 0, 2]])
    comps = np.array([[[0], [1], [0]], [[1], [1], [0]]], dtype=np.int64)

    def fn():
        res = lm.rollout(tokens, targets, comps=comps, with_ctrl=True)
        return mean_all(add(res.cond_ll, res.ctrl_ll))

    assert grad_check(fn, lm.parameters(), step=1e-5) < 1e-4


def test_parameter_sharing_across_time():
    # gradient of a 2-step rollout equals the sum of per-step gradients
    # computed with the state frozen at its realized values
    lm = make_lm(vocab=3, embed=2, hidden=2, seed=207)
    tokens = np.array([[0, 1]])
    targets = np.array([[1, 2]])
    comps = np.zeros((1, 2, 1), dtype=np.int64)

    with Tape() as tape:
        res = lm.rollout(tokens, targets, comps=comps)
        loss = mean_all(res.cond_ll)
    grads = tape.backward(loss)
    g_full = tape.grad(grads, lm.out.w)

    # manual per-step: out.w only touches the logits at each step, so the
    # contributions add with the realized hidden states
    h = np.zeros((1, 2))
    total = np.zeros_like(lm.out.w.data)
    for t in range(2):
        x = lm.embed.data[tokens[:, t]]
        h = reference_cell_step(lm.cell, h, x, comps[:, t])
        logits = h @ lm.out.w.data + lm.out.b.data
        p = np_softmax(logits)
        onehot = np.zeros_like(p)
        onehot[0, targets[0, t]] = 1.0
        total += h.T @ (onehot - p)  # batch of one, so the mean is a no-op
    assert np.allclose(g_full, total, atol=1e-10)


# ---------------------------------------------------------------------------
# noisy top-k recurrent variant


def test_topk_cell_blends_survivors():
    rng = np.random.default_rng(60)
    cell = ModularGruCell(rng, in_dim=2, hidden=3, n_modules=4, topk=2)
    h = RNG.standard_normal((5, 3))
    x = RNG.standard_normal((5, 2))
    routed = []

    def select(t, hx):
        w, mask, noise = cell.gate.forward(hx)
        routed.append((w, mask))
        return w, noise

    out = cell.unroll(x, 1, select, h)[0].data
    (w, mask), = routed
    assert np.all(mask.sum(axis=1) == 2)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    hx = np.concatenate([h, x], -1)
    z = np_sigmoid(hx @ cell.update.w.data + cell.update.b.data)
    r = np_sigmoid(hx @ cell.reset.w.data + cell.reset.b.data)
    px = np.concatenate([r * h, x], -1)
    mix = np.zeros_like(h)
    for b in range(5):
        for j in np.nonzero(mask[b])[0]:
            mix[b] += w[b, j] * (px[b] @ cell.pool.weights[j] + cell.pool.biases[j])
    want = (1.0 - z) * h + z * np.maximum(mix, 0.0)
    assert np.allclose(out, want, atol=1e-10)


def test_topk_lm_rollout_scores_and_weights():
    rng = np.random.default_rng(61)
    lm = NoisyTopKGruLM(rng, vocab=5, embed_dim=3, hidden=4, n_modules=3, k=2)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    res = lm.rollout(tokens, targets, train=False, collect_probs=True)
    assert res.probs.shape == (4, 3, 1, 3)
    assert np.allclose(res.probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(res.pred_ll.sum(axis=1), res.cond_ll.data, atol=1e-10)
    assert res.ctrl_ll is None


def test_topk_lm_grad_check():
    rng = np.random.default_rng(62)
    lm = NoisyTopKGruLM(rng, vocab=4, embed_dim=2, hidden=3, n_modules=3, k=2)
    tokens = np.array([[0, 1], [2, 3]])
    targets = np.array([[1, 0], [3, 2]])

    for train in (False, True):
        def fn():
            # the same noise draws at every probe
            noise = np.random.default_rng(4)
            return mean_all(lm.rollout(tokens, targets, train=train, rng=noise).cond_ll)

        assert grad_check(fn, lm.parameters(), step=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# stacked dispatch


def random_biased_cell(rng, n_modules, router):
    """A cell of ``n_modules`` routed by a two-slot controller or a top-2
    (top-1 for one module) gate, with nonzero biases."""
    topk = None if router == "controller" else min(2, n_modules)
    n_slots = 2 if router == "controller" else 1
    cell = ModularGruCell(rng, in_dim=3, hidden=4, n_modules=n_modules, n_slots=n_slots, topk=topk)
    random_biases(cell.parameters(), rng)
    return cell


@pytest.mark.parametrize("router", ["controller", "gate"])
@pytest.mark.parametrize("n_modules", [1, 2, 8])
def test_fixed_weights_and_select_function_unroll_alike(n_modules, router):
    # the same per-step weights given as one array, returned step by step
    # by a function, or composed op by op: equal states, taped and untaped,
    # and equal gradients
    rng = np.random.default_rng(300 + n_modules)
    cell = random_biased_cell(rng, n_modules, router)
    steps, batch = 4, 5
    h0 = rng.standard_normal((batch, 4))
    xs = rng.standard_normal((steps, batch, 3))
    loss_w = rng.standard_normal((steps * batch, 4 + 4 + 3))
    if router == "controller":
        sels = rng.integers(0, n_modules, size=(steps, batch, 2))
        select, composed = forced(sels, n_modules), composed_unroll
        fixed = slot_counts(sels, n_modules)
    else:
        sels = None
        weights = []

        def select(t, hx):
            w, _, noise = cell.gate.forward(hx)
            weights.append(w)
            return w, noise

        cell.unroll(lambda t: xs[t], steps, select, h0)
        fixed = np.stack(weights)
        composed = topk_unrolls(False, seed=0)[1]

    def by_array(cell, h0, x_steps, _):
        return cell.unroll(stack_rows(x_steps), len(x_steps), fixed, h0)

    def by_function(cell, h0, x_steps, _):
        return cell.unroll(stack_rows(x_steps), len(x_steps), select, h0)

    got, got_g, _ = unroll_grads(by_array, cell, h0, xs, sels, loss_w)
    fn_rows, fn_g, _ = unroll_grads(by_function, cell, h0, xs, sels, loss_w)
    want, want_g, _ = unroll_grads(
        composed, cell, h0, xs, sels if sels is not None else [], loss_w, composed=True
    )
    assert got.tobytes() == fn_rows.tobytes()
    assert np.array_equal(got, want)
    for g, f, w in zip(got_g, fn_g, want_g):
        assert g.tobytes() == f.tobytes()
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=0.0)

    states = got[:, :4].reshape(steps, batch, 4)
    for sel in (fixed, select):
        seen = []
        assert cell.unroll(lambda t: xs[t], steps, sel, h0, lambda t, h: seen.append(h)) is None
        assert np.stack(seen).tobytes() == states.tobytes()


def test_unroll_refuses_misshapen_fixed_weights():
    cell = random_biased_cell(np.random.default_rng(310), 3, "controller")
    with pytest.raises(ShapeError, match="unroll weights"):
        cell.unroll(np.zeros((8, 3)), 4, np.zeros((4, 2, 2)), np.zeros((2, 4)))


@pytest.mark.parametrize("n_modules", [2, 8])
def test_one_pool_apply_call_per_gru_step(n_modules, monkeypatch):
    calls, apply = [], ModulePool.apply

    def counting_apply(self, x):
        calls.append(x.ndim)
        return apply(self, x)

    monkeypatch.setattr(ModulePool, "apply", counting_apply)
    batch, steps = 4, 6
    tokens = RNG.integers(0, 5, size=(batch, steps))
    targets = RNG.integers(0, 5, size=(batch, steps))
    comps = RNG.integers(0, n_modules, size=(batch, steps, 2))
    lm = make_lm(n_modules=n_modules, n_slots=2, seed=213)
    gated = NoisyTopKGruLM(np.random.default_rng(214), 5, 3, 4, n_modules, k=2)

    def taped(run):
        with Tape():
            run()

    runs = {
        "forced objective": lambda: taped(lambda: lm.rollout(tokens, targets, comps=comps, with_ctrl=True)),
        "sampled surrogate": lambda: taped(
            lambda: lm.rollout(tokens, targets, rng=np.random.default_rng(1), with_ctrl=True)
        ),
        "proposals": lambda: lm.propose_and_score(tokens, targets, comps, 3, np.random.default_rng(2)),
        "evaluate": lambda: lm.evaluate(tokens, targets),
        "gated training": lambda: taped(
            lambda: gated.rollout(tokens, targets, train=True, rng=np.random.default_rng(3))
        ),
        "gated probe": lambda: gated.probe(tokens),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls == [2] * steps, name


def test_each_head_hands_the_unroll_its_own_gradient(monkeypatch):
    # the LM head reads the unroll's states and the controller its [h, x]
    # rows: one backward runs BPTT once, on the gradient of each output
    # that the loss read, and None for an output it did not
    seen, true_record = [], gru_mod.record_joint

    def spy(kind, out, inputs, pullback):
        def watched(gs):
            seen.append(list(gs))
            return pullback(gs)

        return true_record(kind, out, inputs, watched)

    monkeypatch.setattr(gru_mod, "record_joint", spy)
    lm = make_lm(n_modules=3, n_slots=2, seed=215)
    tokens = RNG.integers(0, 5, size=(4, 5))
    targets = RNG.integers(0, 5, size=(4, 5))
    comps = RNG.integers(0, 3, size=(4, 5, 2))
    calls = {}
    for terms in ("cond", "ctrl", "both"):
        seen.clear()
        with Tape() as tape:
            res = lm.rollout(tokens, targets, comps=comps, with_ctrl=True)
            parts = {"cond": [res.cond_ll], "ctrl": [res.ctrl_ll]}
            parts["both"] = parts["cond"] + parts["ctrl"]
            loss = sum_over_axis(add(*parts[terms]) if terms == "both" else parts[terms][0])
        tape.backward(loss)
        (calls[terms],) = seen
    hid, n = lm.cell.hidden, 4 * 5
    (g_head, none_hx), (none_h, g_ctrl), (both_h, both_hx) = calls.values()
    assert none_hx is None and none_h is None
    assert g_head.shape == (n, hid) and g_head.any()
    assert g_ctrl.shape == (n, hid + lm.cell.in_dim) and g_ctrl.any()
    assert both_h.tobytes() == g_head.tobytes() and both_hx.tobytes() == g_ctrl.tobytes()


# ---------------------------------------------------------------------------
# backpropagation through time against the strided-operand oracle


@pytest.mark.parametrize("router", ["controller", "gate"])
@pytest.mark.parametrize("n_modules", [1, 2, 8])
@pytest.mark.parametrize("steps", [1, 3, 20])
@pytest.mark.parametrize("n_slots", [1, 2])
def test_bptt_keeps_the_strided_oracle_bits(router, n_modules, steps, n_slots, monkeypatch):
    # n_slots is the controller's slot count, or the gate's top-k width
    # (capped at the pool); the gate runs in training mode, with noise
    rng = np.random.default_rng(400 + 10 * n_modules + steps + n_slots)
    hid, in_dim, batch = 8, 3, 16
    topk = None if router == "controller" else min(n_slots, n_modules)
    cell = ModularGruCell(rng, in_dim, hid, n_modules, n_slots, topk=topk)
    random_biases(cell.parameters(), rng)
    if topk is None:
        sels = rng.integers(0, n_modules, size=(steps, batch, n_slots))
        select = forced(sels, n_modules)
    else:
        noise = np.random.default_rng(5)

        def select(t, hx):
            w, _, eps = cell.gate.forward(hx, True, noise)
            return w, eps

    caught, record = {}, ModularGruCell._record

    def spy(self, xs, saved, batch):
        caught["saved"] = saved
        return record(self, xs, saved, batch)

    monkeypatch.setattr(ModularGruCell, "_record", spy)
    monkeypatch.setattr(
        gru_mod, "record_joint", lambda kind, out, inputs, pullback: caught.update(pullback=pullback)
    )
    xs = rng.standard_normal((steps * batch, in_dim))
    cell.unroll(xs, steps, select, rng.standard_normal((batch, hid)))
    g = rng.standard_normal((steps * batch, 2 * hid + in_dim))
    g[rng.random(g.shape) < 0.1] = 0.0
    g_h, g_hx = g[:, :hid], g[:, hid:]
    # an output that no loss read hands BPTT None, which counts as zeros
    for gs in ([g_h, g_hx], [g_h, None], [None, g_hx]):
        dense = np.concatenate(
            [np.zeros_like(part) if x is None else x for x, part in zip(gs, (g_h, g_hx))], axis=1
        )
        got = caught["pullback"](gs)
        want = strided_pullback(cell, caught["saved"], batch)(dense)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [7, 5, -1])
@pytest.mark.parametrize("row", [0, 2])
def test_lm_refuses_targets_outside_the_vocabulary(bad, row):
    # untaped scoring reads one logit per target, so an id out of range
    # would read a neighbouring row's logit, or fail on the last row
    lm = make_lm(vocab=5)
    tokens = RNG.integers(0, 5, size=(3, 4))
    targets = RNG.integers(0, 5, size=(3, 4))
    targets[row, 1] = bad
    comps = np.zeros((3, 4, 1), dtype=np.int64)
    runs = {
        "evaluate": lambda: lm.evaluate(tokens, targets),
        "score": lambda: lm.score(tokens, targets, comps),
        "taped rollout": lambda: lm.rollout(tokens, targets, comps=comps),
    }
    for name, run in runs.items():
        with Tape() if name.startswith("taped") else contextlib.nullcontext():
            with pytest.raises(ShapeError, match=r"target id out of range \[0, 5\)"):
                run()
    with pytest.raises(ShapeError, match="target ids must be integers"):
        lm.evaluate(tokens, targets.astype(np.float64))
