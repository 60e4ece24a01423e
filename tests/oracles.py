"""Reference implementations that the tests check the package against.

No training run executes anything here.  Three kinds of oracle:

- taped primitives that no run records (``sigmoid``, ``softplus``,
  ``row_softmax``, ``concat_last``, ``stack_rows``, a taped ``relu``,
  ``reshape``, ``sum_along`` one axis and one head's
  ``categorical_log_prob``), one record per op through the public
  ``record_joint``, with the record kinds and pullback arithmetic the
  composed oracles below are built on; ``composed_heads`` builds the
  ``categorical-head`` record's reference from them;
- the module pool's dispatch one module at a time (``pool_module``,
  ``pool_combine``), on per-module views of the pool's one parameter
  (``pool_modules``) whose gradients ``module_grads`` lays out as the
  pool's, and the recurrent cell and noisy top-k gate built op by op from
  those primitives (``composed_*``): the references of the
  ``pool-combine``, ``noisy-topk-gate`` and ``modular-gru-unroll`` records,
  same arithmetic in the same order;
- plain numpy transcriptions: the cell and the language model's rollout
  (``reference_*``), the controller step in row-major order
  (``oracle_*``), BPTT reading its operands in place
  (``strided_pullback``), and the two-regime chains drawn step by step
  through ``oracle_sample_rows`` (``reference_two_regime_sequences``)
  with the generating process's loss on them (``exact_bayes_nll``).
"""

import math
import weakref

import numpy as np

from modnet.autodiff import (
    NEG_MASK,
    Parameter,
    ShapeError,
    Tensor,
    add,
    constant,
    log_softmax_pick,
    matmul,
    mul,
    record_joint,
    slice_last,
    softmax_parts,
    stable_sigmoid,
)
from modnet.autodiff import relu as array_relu
from modnet.datasets import TwoRegimeData, noisy_permutation_table
from modnet.modular import Linear, slot_counts

# ---------------------------------------------------------------------------
# taped primitives


def relu(x) -> Tensor:
    """max(x, 0), taped, with subgradient 0 at the kink."""
    xd = constant(x).data
    mask = (xd > 0).astype(np.float64)
    return record_joint("relu", xd * mask, [x], lambda g: [g * mask])


def sigmoid(x) -> Tensor:
    out = stable_sigmoid(constant(x).data)
    return record_joint("sigmoid", out, [x], lambda g: [g * out * (1.0 - out)])


def softplus(x) -> Tensor:
    xd = constant(x).data
    return record_joint(
        "softplus", np.logaddexp(0.0, xd), [x], lambda g: [g * stable_sigmoid(xd)]
    )


def row_softmax(x) -> Tensor:
    """Stabilized softmax along the last axis."""
    xd = constant(x).data
    if xd.ndim < 1:
        raise ShapeError(f"row-softmax: needs at least 1 axis, got shape {xd.shape}")
    _, e, s = softmax_parts(xd)
    p = e / s
    return record_joint(
        "row-softmax", p, [x], lambda g: [p * (g - (g * p).sum(axis=-1, keepdims=True))]
    )


def reshape(x, shape) -> Tensor:
    xd = constant(x).data
    try:
        out = xd.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {xd.shape} to {tuple(shape)}") from None
    return record_joint("reshape", out, [x], lambda g: [g.reshape(xd.shape)])


def sum_along(x, axis: int) -> Tensor:
    """The sum along ``axis``, recorded as ``sum-over-axis``."""
    xd = constant(x).data
    shape = xd.shape
    ax = axis if axis >= 0 else xd.ndim + axis
    if not 0 <= ax < xd.ndim:
        raise ShapeError(f"sum-over-axis: axis {axis} invalid for shape {shape}")
    return record_joint(
        "sum-over-axis",
        xd.sum(axis=ax),
        [x],
        lambda g: [np.broadcast_to(np.expand_dims(g, ax), shape)],
    )


def categorical_log_prob(logits, targets) -> Tensor:
    """log softmax(logits)[target] along the last axis, stabilized."""
    xd = constant(logits).data
    idx = np.asarray(targets)
    if idx.dtype.kind not in "iu":
        raise ShapeError("categorical-log-prob: targets must be integers")
    if xd.ndim < 1 or idx.shape != xd.shape[:-1]:
        raise ShapeError(
            f"categorical-log-prob: targets shape {idx.shape} does not match "
            f"logits shape {xd.shape}"
        )
    n = xd.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(
            f"categorical-log-prob: target out of range [0, {n}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    z, _, s = softmax_parts(xd)

    def pull(g):
        # onehot - softmax, formed in place: 0 - p, then 1 added at the picks
        d = z - np.log(s)
        np.exp(d, out=d)
        np.subtract(0.0, d, out=d)
        d.reshape(-1)[np.arange(idx.size) * n + idx.reshape(-1)] += 1.0
        return [g[..., None] * d]

    return record_joint("categorical-log-prob", log_softmax_pick(xd, idx), [logits], pull)


def composed_heads(x, heads, targets):
    """``categorical_head`` over the ``Linear`` heads on x, built op by op,
    one record per op: each head's ``matmul`` and bias ``add``, its
    ``categorical_log_prob`` at ``targets[..., k]``, the heads joined by
    ``add`` in order and, for (steps, batch, heads) targets, a ``reshape``
    to (steps, batch) and a ``sum_over_axis`` over the steps.  Returns the
    last record and the per-row sums, as ``categorical_head`` does."""
    idx = np.asarray(targets)
    picks = idx.reshape(-1, idx.shape[-1])
    total = None
    for k, head in enumerate(heads):
        term = categorical_log_prob(add(matmul(x, head.w), head.b), picks[:, k])
        total = term if total is None else add(total, term)
    if idx.ndim == 2:
        return total, total.data
    steps = reshape(total, idx.shape[:-1])
    return sum_along(steps, 0), steps.data


def _join(kind: str, xs, axis: int) -> Tensor:
    """``xs`` joined along ``axis``, 0 or -1; every other axis must agree.
    Each input's gradient is its slice of the output's."""
    data = [constant(x).data for x in xs]
    if not data:
        raise ShapeError(f"{kind}: no inputs")
    if axis == 0:
        rest = [d.shape[1:] if d.ndim else None for d in data]
    else:
        rest = [d.shape[:-1] for d in data]
    if any(r is None or r != rest[0] for r in rest):
        raise ShapeError(f"{kind}: shapes differ off the joined axis: {[d.shape for d in data]}")
    bounds = np.cumsum([d.shape[axis] for d in data])[:-1]
    return record_joint(
        kind, np.concatenate(data, axis=axis), xs, lambda g: np.split(g, bounds, axis=axis)
    )


def concat_last(*xs) -> Tensor:
    return _join("concat-last-axis", xs, -1)


def stack_rows(xs) -> Tensor:
    """Join tensors along the first axis; trailing shapes must agree."""
    return _join("row-stack", xs, 0)


# ---------------------------------------------------------------------------
# the module pool, one module at a time


class PoolModule(Linear):
    """Module j of a pool as its own ``Linear``: its ``w`` and ``b`` are
    Parameters on views of the pool's one buffer, under the names of the
    pool's pieces, so writes reach the pool and the tape gives each of them
    a gradient of its own."""

    def __init__(self, pool, j):
        (w_name, w), (b_name, b) = pool.param.pieces[2 * j : 2 * j + 2]
        self.w, self.b = Parameter(w, w_name), Parameter(b, b_name)


# pool -> its PoolModules, dropped with the pool
_MODULES = weakref.WeakKeyDictionary()


def pool_modules(pool) -> list[PoolModule]:
    """The pool's modules, one ``PoolModule`` each; the same objects on
    every call, so an op-by-op oracle that runs a module at several steps
    accumulates one gradient per module weight and bias."""
    if pool not in _MODULES:
        _MODULES[pool] = [PoolModule(pool, j) for j in range(pool.n_modules)]
    return _MODULES[pool]


def module_grads(tape, grads, pool) -> np.ndarray:
    """The gradients of the pool's ``pool_modules`` on ``tape``, laid out
    as the pool's parameter: each module's weight and bias gradient in
    the slices ``[j, :in]`` and ``[j, in]`` that its piece occupies."""
    g = np.empty_like(pool.param.data)
    for j, m in enumerate(pool_modules(pool)):
        g[j, : pool.in_dim] = tape.grad(grads, m.w)
        g[j, pool.in_dim] = tape.grad(grads, m.b)
    return g


def oracle_grads(tape, grads, params, pools):
    """``tape.grad`` of each of ``params``, except that each of ``pools``'
    parameter gets ``module_grads``: what a run taped through the oracles,
    which record the modules' views, gives each parameter."""
    by_param = {id(pool.param): pool for pool in pools}
    return [
        module_grads(tape, grads, by_param[id(p)]) if id(p) in by_param else tape.grad(grads, p)
        for p in params
    ]


def random_biases(params, rng):
    """Draw every bias piece of ``params`` (a piece named ``*.b``) uniform
    in [-0.5, 0.5), in piece order: zero-init biases can park rows exactly
    on a kink."""
    for p in params:
        for name, view in p.pieces:
            if name.endswith(".b"):
                view[...] = rng.uniform(-0.5, 0.5, size=view.shape)


def pool_module(pool, j, x):
    """Module j of ``pool`` alone on x, rectified for ``linear-relu``, as
    ``Linear`` computes it on the module's views (``pool_modules``): a
    plain array in gives a plain array out, a ``Tensor`` in a ``Tensor``
    out.  The oracle of each slice of ``ModulePool.apply``'s stacked
    call."""
    h = pool_modules(pool)[j](x)
    if pool.kind != "linear-relu":
        return h
    return array_relu(h) if isinstance(h, np.ndarray) else relu(h)


def pool_combine(pool, x, weights, used):
    """Outputs on x of the modules ``used``, each scaled by its column of
    the (batch, modules) ``weights`` and summed, taped op by op: a
    ``matmul``, ``add``, ``elementwise-mul`` and slice per used module and
    an ``add`` to join each term.  Modules outside ``used`` are never run.
    The oracle of ``ModulePool.select``'s one ``pool-combine`` record; the
    tape gives the modules' views their gradients (``module_grads``)."""
    out = None
    for j in used:
        term = mul(pool_module(pool, int(j), x), slice_last(weights, int(j), int(j) + 1))
        out = term if out is None else add(out, term)
    return out


# ---------------------------------------------------------------------------
# the recurrent cell and the noisy top-k gate, op by op


def composed_cell_step(cell, h, x, selection, hx=None):
    """The cell update built from generic primitives, one record per op.

    Reference for each step of ``modular-gru-unroll``: same arithmetic in
    the same order, so forward values must match bit for bit.
    """
    if hx is None:
        hx = concat_last(h, x)
    z = sigmoid(cell.update(hx))
    r = sigmoid(cell.reset(hx))
    px = concat_last(mul(r, h), x)
    sel = np.asarray(selection)
    cand = relu(pool_combine(cell.pool, px, slot_counts(sel, cell.pool.n_modules), np.unique(sel)))
    keep = add(mul(z, -1.0), 1.0)
    return add(mul(keep, h), mul(z, cand))


def composed_unroll(cell, h0, xs, sels):
    """``modular-gru-unroll`` rebuilt from ``composed_cell_step``: the
    stacked [h_t | hx_t] rows, time-major."""
    h, rows = constant(h0), []
    for t, x in enumerate(xs):
        hx = concat_last(h, x)
        h = composed_cell_step(cell, h, x, sels[t], hx=hx)
        rows.append(concat_last(h, hx))
    return stack_rows(rows)


def composed_topk_weights(gate, x, train, rng):
    """The noisy top-k gate built from generic primitives, one record per
    op: the reference for ``NoisyTopKGate.forward`` and its pullback."""
    z = gate.gate(x)
    if train:
        eps = rng.standard_normal(z.shape)
        z = add(z, mul(constant(eps), softplus(gate.noise(x))))
    order = np.argsort(-z.data, axis=-1, kind="stable")
    mask = np.zeros_like(z.data)
    np.put_along_axis(mask, order[:, : gate.k], 1.0, axis=-1)
    return row_softmax(add(z, constant((1.0 - mask) * NEG_MASK))), mask


def composed_topk_step(cell, h, x, train, rng, hx=None):
    """One step of the gate-routed cell from generic primitives: the
    reference for ``modular-gru-unroll`` with a noisy top-k router, same
    arithmetic in the same order, noise drawn first."""
    if hx is None:
        hx = concat_last(h, x)
    w, mask = composed_topk_weights(cell.gate, hx, train, rng)
    z = sigmoid(cell.update(hx))
    r = sigmoid(cell.reset(hx))
    px = concat_last(mul(r, h), x)
    cand = relu(pool_combine(cell.pool, px, w, np.flatnonzero(mask.any(axis=0))))
    keep = add(mul(z, -1.0), 1.0)
    return add(mul(keep, h), mul(z, cand)), mask


# ---------------------------------------------------------------------------
# plain numpy transcriptions


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
            m = pool_modules(cell.pool)[sel[b, k]]
            cand[b] += px[b] @ m.w.data + m.b.data
    cand = np.maximum(cand, 0.0)
    return (1.0 - z) * h + z * cand


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


# ---------------------------------------------------------------------------
# the controller step, row-major


def oracle_softmax_parts(logits):
    """One head's row-major softmax pieces: z, exp(z) and its row sums."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def oracle_parts(ctrl, x):
    return [oracle_softmax_parts(x @ h.w.data + h.b.data) for h in ctrl.heads]


def oracle_distribution(parts):
    return np.stack([e / s for _, e, s in parts], axis=1)


def oracle_sample_rows(probs, u):
    cum = np.cumsum(probs, axis=-1)
    idx = (u[..., None] >= cum).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def oracle_slot_counts(selection, n_modules):
    picks = np.asarray(selection)[..., None] == np.arange(n_modules)
    return picks.sum(axis=-2).astype(np.float64)


def oracle_pick_log_prob(parts, idx):
    z, _, s = parts
    at = np.arange(idx.size) * z.shape[-1] + idx.reshape(-1)
    return (z.reshape(-1)[at] - np.log(s).reshape(-1)).reshape(idx.shape)


def oracle_log_prob_values(parts, selection):
    total = None
    for k, head in enumerate(parts):
        term = oracle_pick_log_prob(head, selection[:, k])
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# backpropagation through time, operands read in place


def strided_pullback(cell, saved, batch):
    """The unroll record's pullback as it read its operands in place,
    strided, step by step: the oracle for the contiguous copies."""
    out, gates, px_rows, cand_rows, weight_rows, mod_rows, noises = saved
    hid, pool, gate = cell.hidden, cell.pool, cell.gate
    n_mod, cat = pool.n_modules, pool.in_dim
    n, steps = out.shape[0], out.shape[0] // batch
    hx_maps = [cell.update, cell.reset] + ([] if gate is None else [gate.gate, gate.noise])
    hx_w = np.concatenate([m.w.data for m in hx_maps], axis=1)
    mod_w = np.concatenate(list(pool.weights), axis=1)
    n_hx = hx_w.shape[1]
    hx_wh_t = hx_w[:hid].T
    mod_wh_t = mod_w[:hid].T
    all_wx_t = np.concatenate([hx_w, mod_w], axis=1)[hid:].T

    def pullback(g):
        g_h, g_hx = g[:, :hid], g[:, hid:]
        g_pre = np.empty((n, n_hx + n_mod * hid))
        flip = 1.0 - gates
        z_live = gates[:, :hid] * (cand_rows > 0)
        carry = np.zeros((batch, hid))
        for t in reversed(range(steps)):
            rows = slice(t * batch, (t + 1) * batch)
            z, r = gates[rows, :hid], gates[rows, hid:]
            one_z, one_r = flip[rows, :hid], flip[rows, hid:]
            h_prev, cand, w = out[rows, hid : 2 * hid], cand_rows[rows], weight_rows[rows]
            gh = g_h[rows] + carry
            gcand = gh * z_live[rows]
            g_mod = (gcand[:, None, :] * w[:, :, None]).reshape(batch, -1)
            g_rh = g_mod @ mod_wh_t
            g_maps = [(gh * cand - gh * h_prev) * z * one_z, g_rh * h_prev * r * one_r]
            if gate is not None:
                g_weights = (mod_rows[rows] * gcand[:, None, :]).sum(axis=-1)
                g_maps += gate.pullback(w, noises[t], g_weights)
            g_hx_pre = np.concatenate(g_maps, axis=-1)
            g_pre[rows, :n_hx], g_pre[rows, n_hx:] = g_hx_pre, g_mod
            carry = gh * one_z + g_rh * r + g_hx_pre @ hx_wh_t + g_hx[rows, :hid]
        g_w = np.concatenate(
            [out[:, hid:].T @ g_pre[:, :n_hx], px_rows.T @ g_pre[:, n_hx:]], axis=1
        )
        g_b = g_pre.sum(axis=0)
        grads, lo = [g_hx[:, hid:] + g_pre @ all_wx_t], 0
        for m in hx_maps:
            grads += [g_w[:, lo : lo + m.out_dim], g_b[lo : lo + m.out_dim]]
            lo += m.out_dim
        g_pool = np.empty_like(pool.param.data)
        for j in range(n_mod):
            g_pool[j, :cat] = g_w[:, lo : lo + hid]
            g_pool[j, cat] = g_b[lo : lo + hid]
            lo += hid
        return grads + [g_pool]

    return pullback


# ---------------------------------------------------------------------------
# the two-regime process


def reference_two_regime_sequences(rng, n_windows, unroll, n_states=6, noise=0.1):
    """``gen_two_regime_sequences`` as one row-major inverse-CDF draw per
    step, each summing its rows afresh: the same generator calls in the
    same order."""
    table0 = noisy_permutation_table(rng, n_states, noise)
    table1 = noisy_permutation_table(rng, n_states, noise)
    while np.any(table0.argmax(axis=1) == table1.argmax(axis=1)):
        table1 = noisy_permutation_table(rng, n_states, noise)
    tables = np.stack([table0, table1])

    regimes = np.arange(n_windows, dtype=np.int64) % 2
    windows = np.empty((n_windows, unroll + 1), dtype=np.int64)
    windows[:, 0] = n_states + regimes
    state = rng.integers(0, n_states, size=n_windows)
    windows[:, 1] = state
    for t in range(2, unroll + 1):
        rows = tables[regimes, state]
        state = oracle_sample_rows(rows, rng.random(n_windows)).astype(np.int64)
        windows[:, t] = state
    tokens = windows[:, :-1].copy()
    targets = windows[:, 1:].copy()
    return TwoRegimeData(tokens, targets, regimes, tables, n_states, noise)


def exact_bayes_nll(
    tokens: np.ndarray,
    targets: np.ndarray,
    regimes: np.ndarray,
    tables: np.ndarray,
    n_states: int,
) -> float:
    """Mean per-token loss of the generating process on this exact data.

    The first prediction of each window is uniform over content symbols;
    later ones score the realized transition under the true table.  No
    model seeing only the window prefix can do better in expectation.
    """
    n, steps = tokens.shape
    total = n * math.log(n_states)
    for t in range(1, steps):
        rows = tables[regimes, tokens[:, t]]
        total += -np.log(rows[np.arange(n), targets[:, t]]).sum()
    return total / (n * steps)
