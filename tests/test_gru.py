import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import stack_rows

import modnet.gru as gru_mod
from modnet.autodiff import (
    Parameter,
    Tape,
    Tensor,
    add,
    concat_last,
    constant,
    grad_check,
    mean_all,
    mul,
    relu,
    sigmoid,
    sum_over_axis,
)
from modnet.gru import (
    ModularGruCell,
    ModularGruLM,
    NoisyTopKGruCell,
    NoisyTopKGruLM,
)
from modnet.modular import Controller, ModularLayer, ModularNet, ModulePool, OutputHead, slot_counts

RNG = np.random.default_rng(99)


def np_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def np_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_cell_step(cell, h, x, sel):
    """Independent numpy transcription of the gated update."""
    hx = np.concatenate([h, x], axis=-1)
    z = np_sigmoid(hx @ cell.update.w.data + cell.update.b.data)
    r = np_sigmoid(hx @ cell.reset.w.data + cell.reset.b.data)
    px = np.concatenate([r * h, x], axis=-1)
    cand = np.zeros_like(h)
    for b in range(h.shape[0]):
        for k in range(sel.shape[1]):
            m = cell.pool.modules[sel[b, k]]
            cand[b] += px[b] @ m.w.data + m.b.data
    cand = np.maximum(cand, 0.0)
    return (1.0 - z) * h + z * cand


def composed_cell_step(cell, h, x, selection, hx=None):
    """The cell update built from generic primitives, one record per op.

    Reference for each step of ``modular-gru-unroll``: same arithmetic in
    the same order, so forward values must match bit for bit.
    """
    if hx is None:
        hx = concat_last(h, x)
    z = sigmoid(cell.update(hx))
    r = sigmoid(cell.reset(hx))
    layer = ModularLayer(cell.pool, cell.controller, combine="sum")
    cand = relu(layer.forward_selected(concat_last(mul(r, h), x), selection))
    keep = add(mul(z, -1.0), 1.0)
    return add(mul(keep, h), mul(z, cand))


def reference_lm_rollout(lm, tokens, targets, comps):
    """Full value-level reimplementation of the unroll in plain numpy."""
    batch, steps = tokens.shape
    h = np.zeros((batch, lm.cell.hidden))
    cond = np.zeros(batch)
    ctrl = np.zeros(batch)
    for t in range(steps):
        x = lm.embed.data[tokens[:, t]]
        hx = np.concatenate([h, x], axis=-1)
        for k, head in enumerate(lm.cell.controller.heads):
            p = np_softmax(hx @ head.w.data + head.b.data)
            ctrl += np.log(p[np.arange(batch), comps[:, t, k]])
        h = reference_cell_step(lm.cell, h, x, comps[:, t])
        logits = h @ lm.out.w.data + lm.out.b.data
        logp = np.log(np_softmax(logits))
        cond += logp[np.arange(batch), targets[:, t]]
    return cond, ctrl


def make_lm(vocab=5, embed=3, hidden=4, n_modules=2, n_slots=1, seed=200):
    return ModularGruLM(np.random.default_rng(seed), vocab, embed, hidden, n_modules, n_slots)


# ---------------------------------------------------------------------------
# cell equations


def forced(sels, n_modules):
    """``select`` for ``ModularGruCell.unroll`` from (steps, batch, slots)
    selections fixed in advance."""
    return lambda t, hx: (sels[t], slot_counts(sels[t], n_modules))


def unroll_states(cell, h0, xs, sels):
    """States after each step of ``cell.unroll`` from ``h0`` over (steps,
    batch, in) inputs: an array (steps, batch, hidden)."""
    steps, batch = sels.shape[:2]
    n_modules = cell.pool.n_modules
    rows = cell.unroll(xs.reshape(steps * batch, -1), steps, forced(sels, n_modules), h0)
    return rows.data[:, : cell.hidden].reshape(steps, batch, cell.hidden)


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
    m = cell.pool.modules[1]
    want = np.maximum(px @ m.w.data + m.b.data, 0.0)
    assert np.allclose(out, want, atol=1e-10)


def test_cell_candidate_rectified_after_sum():
    # two modules whose outputs cancel: sum is 0, relu(0)=0, so the state
    # interpolates straight toward zero instead of summing rectified halves
    rng = np.random.default_rng(53)
    cell = ModularGruCell(rng, in_dim=2, hidden=2, n_modules=2, n_slots=2)
    m0, m1 = cell.pool.modules
    m1.w.data[:] = -m0.w.data
    m1.b.data[:] = -m0.b.data
    cell.update.w.data[:] = 0.0
    cell.update.b.data[:] = 60.0
    h = RNG.standard_normal((3, 2))
    x = RNG.standard_normal((3, 2))
    sels = np.tile([0, 1], (1, 3, 1)).astype(np.int64)
    out = unroll_states(cell, h, x[None], sels)
    assert np.allclose(out, 0.0, atol=1e-12)


def composed_unroll(cell, h0, xs, sels):
    """``modular-gru-unroll`` rebuilt from ``composed_cell_step``: the
    stacked [h_t | hx_t] rows, time-major."""
    h, rows = constant(h0), []
    for t, x in enumerate(xs):
        hx = concat_last(h, x)
        h = composed_cell_step(cell, h, x, sels[t], hx=hx)
        rows.append(concat_last(h, hx))
    return stack_rows(rows)


def unroll_grads(unroll_fn, cell, h0, xs, sels, weight):
    """Rows of ``unroll_fn`` and the gradients of sum(weight * rows) with
    respect to every step's inputs and every cell parameter."""
    x_params = [Parameter(x, f"x{t}") for t, x in enumerate(xs)]
    with Tape() as tape:
        x_steps = [tape.watch(p) for p in x_params]
        rows = unroll_fn(cell, h0, x_steps, sels)
        loss = sum_over_axis(mul(rows, weight))
        n_records = len(tape)
    grads = tape.backward(loss)
    return rows.data, [tape.grad(grads, p) for p in x_params + cell.parameters()], n_records


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
    for p in cell.parameters():
        if p.name.endswith(".b"):
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    steps = 4
    h0 = rng.standard_normal((6, 4))
    xs = rng.standard_normal((steps, 6, 3))
    # every step permutes the rows' selections, so each row sees several modules
    sels = np.stack([np.roll(np.array(sel_rows, dtype=np.int64), t, axis=0) for t in range(steps)])
    weight = rng.standard_normal((steps * 6, 4 + 4 + 3))

    pre = []
    true_relu = gru_mod.relu

    def relu_spy(x):
        pre.append(x.data.copy())
        return true_relu(x)

    monkeypatch.setattr(gru_mod, "relu", relu_spy)
    got, got_g, fused_records = unroll_grads(fused_unroll, cell, h0, xs, sels, weight)
    monkeypatch.setattr(gru_mod, "relu", true_relu)
    pre = np.concatenate(pre)
    want, want_g, composed_records = unroll_grads(composed_unroll, cell, h0, xs, sels, weight)
    assert np.array_equal(got, want)
    # input stack, one unroll record, then the loss's mul and sum
    assert fused_records == 4 and composed_records > 20 * steps

    # rows on both sides of the kink, so the relu mask is exercised
    assert (pre < 0).any() and (pre > 0).any()
    if not (sels == 1).any():
        for p in cell.pool.modules[1].parameters():
            assert not got_g[steps + cell.parameters().index(p)].any()

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
    # one embedding lookup and one unroll for all steps; the head slices
    # out the states, projects (2), scores, reshapes and sums; the
    # controller slices out [h, x] (unless detached), then 2 heads joined
    # by one add, a reshape and a sum
    assert counts == [8 + (9 if detach else 10)] * 2


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
        return mean_all(res.cond_ll + res.ctrl_ll)

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
    assert len(snap.probs) == len(snap.chosen) == 1
    assert np.array_equal(snap.probs[0], want.probs.reshape(12, 2, 3))
    assert np.array_equal(snap.chosen[0], want.comps.reshape(12, 2))


def test_topk_probe_skips_the_output_head():
    lm = NoisyTopKGruLM(np.random.default_rng(63), vocab=5, embed_dim=3, hidden=4, n_modules=3, k=2)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    # oracle: the scored unroll a probe used to run
    weights = lm.rollout(tokens, targets, train=False, collect_weights=True).weights
    calls = count_head_calls(lm)
    snap, paths = lm.probe(tokens)
    assert calls == []
    flat = weights.reshape(12, 1, 3)
    assert np.array_equal(snap.probs[0], flat)
    assert np.array_equal(snap.chosen[0], flat.argmax(axis=-1))
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
        return mean_all(res.cond_ll + res.ctrl_ll)

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
    cell = NoisyTopKGruCell(rng, in_dim=2, hidden=3, n_modules=4, k=2)
    h = RNG.standard_normal((5, 3))
    x = RNG.standard_normal((5, 2))
    out, w, mask = cell.step(Tensor(h), Tensor(x), train=False, rng=None)
    assert np.all(mask.sum(axis=1) == 2)
    assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    hx = np.concatenate([h, x], -1)
    z = np_sigmoid(hx @ cell.update.w.data + cell.update.b.data)
    r = np_sigmoid(hx @ cell.reset.w.data + cell.reset.b.data)
    px = np.concatenate([r * h, x], -1)
    mix = np.zeros_like(h)
    for b in range(5):
        for j in np.nonzero(mask[b])[0]:
            m = cell.pool.modules[j]
            mix[b] += w.data[b, j] * (px[b] @ m.w.data + m.b.data)
    want = (1.0 - z) * h + z * np.maximum(mix, 0.0)
    assert np.allclose(out.data, want, atol=1e-10)


def test_topk_lm_rollout_scores_and_weights():
    rng = np.random.default_rng(61)
    lm = NoisyTopKGruLM(rng, vocab=5, embed_dim=3, hidden=4, n_modules=3, k=2)
    tokens = RNG.integers(0, 5, size=(4, 3))
    targets = RNG.integers(0, 5, size=(4, 3))
    res = lm.rollout(tokens, targets, train=False, collect_weights=True)
    assert res.weights.shape == (4, 3, 3)
    assert np.allclose(res.weights.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(res.pred_ll.sum(axis=1), res.cond_ll.data, atol=1e-10)
    assert res.ctrl_ll is None


def test_topk_lm_grad_check():
    rng = np.random.default_rng(62)
    lm = NoisyTopKGruLM(rng, vocab=4, embed_dim=2, hidden=3, n_modules=3, k=2)
    tokens = np.array([[0, 1], [2, 3]])
    targets = np.array([[1, 0], [3, 2]])

    def fn():
        return mean_all(lm.rollout(tokens, targets, train=False).cond_ll)

    assert grad_check(fn, lm.parameters(), step=1e-5) < 1e-4
