"""Gated recurrent cells whose candidate-state transform is modular.

One cell, two routers, one record.  ``ModularGruCell`` is the only GRU
cell: dense update and reset gates, and a candidate state that is a
rectified, per-row weighted sum of a pool of modules.  A router reads
[h, x] at every step and sets the weights: a controller's slot counts
(constants), or a noisy top-k gate's renormalised weights, which carry
gradients into the state and the gate.

Every rollout of either language model runs the one raw-numpy forward
loop ``ModularGruCell.unroll``, taped or not, on the embedding table
and the token ids.  Under a tape the unroll is a single
``modular-gru-unroll`` record whose pullback is hand-written
backpropagation through time, running the gate's own logit-level
pullback at each step; the table and the pool are each one input at any
size.  So a taped rollout records a fixed number of ops however many
steps it has: the unroll, whose two outputs are the stacked per-step
states and [h, x] rows, then the output head on the states (and
``ModularGruLM``'s controller heads on the [h, x] rows) scoring every
step at once: a ``matmul`` per head and one ``categorical-head`` record
that also sums each window's steps.  Untaped, each step is scored as it
goes, into a buffer summed as the head sums, and only the running state
and one step's embeddings are kept: evaluation unrolls every window at once.

No step builds a ``Tensor``: module dispatch, the candidate's rectifier,
the BPTT loop and an untaped rollout's per-step scoring (one log-softmax
gather per head, on logits normalised once per step) all run on plain
arrays, with the same float operations in the same order as the
``Tensor`` primitives, so values agree bit for bit.  A step costs a fixed
number of numpy calls whatever the pool size: the whole pool runs in one
stacked ``ModulePool.apply`` call, its weighted outputs are summed over
the module axis, and the gates are written in place into the kept rows.
Selections forced in advance reach the unroll as one array of slot
counts, with no per-step callback.

Per-step operands are laid out so that numpy's inner loop runs along the
long axis, not once per short row.  A controller step is module-major:
``Controller.parts`` keeps every head's logits in one (modules, slots,
rows) block, and the draw, the log-probabilities and the slot counts
read it along the rows; its sums over modules run down the module axis
below 8 modules and over a row-major copy from 8 on, where numpy would
sum each row pairwise.  BPTT first copies the strided halves of the kept
rows (z and r, the previous state, the state gradients) into contiguous
time-major (steps, batch, hidden) blocks.  Both keep every operation and
its order, so the bits are those of the row-major steps.

``_GruLM`` is the recurrent architecture of ``modular``'s model grid:
``ModularGruLM`` answers the controller protocol of
``modular.ModularModel``, whose ``propose_and_score`` scores the
incumbent and every proposal in one unroll over tiled rows, and
``NoisyTopKGruLM`` the mixture protocol of ``modular.MixtureModel``.
Each writes only its ``rollout``; ``ModularGruLM``'s takes one
``modular.Routing`` step per timestep, as the feedforward stack takes
one per layer, and under a tape scores the unroll's [h, x] rows with
the controller heads.  ``_GruLM.snapshot`` makes every timestep a
routing decision of its own.
"""

from __future__ import annotations

import math

import numpy as np

from modnet.autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    active_tape,
    categorical_head,
    constant,
    log_softmax_pick,
    matmul,
    needs_grad,
    paused,
    record_joint,
    relu,
    stable_sigmoid,
)
from modnet.diagnostics import SelectionSnapshot
from modnet.modular import (
    Controller,
    Linear,
    MixtureModel,
    ModularModel,
    ModulePool,
    NoisyTopKGate,
    RolloutResult,
    Routing,
    checked_ids,
    slot_counts,
)


class ModularGruCell:
    """GRU cell with a modular candidate-state transform.

    Gates read the joined state [h, x].  The candidate transform applies
    the pool's modules to [reset*h, x], sums them weighted per row, and
    rectifies.  The router also reads [h, x], so selections can react to
    both the running state and the current input.  It is a controller by
    default, whose slot choices weigh each module by its slot count; with
    ``topk`` it is a noisy top-k gate, whose renormalised weights are
    differentiable.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        hidden: int,
        n_modules: int,
        n_slots: int = 1,
        name: str = "cell",
        topk: int | None = None,
    ):
        cat = hidden + in_dim
        self.hidden = hidden
        self.in_dim = in_dim
        self.update = Linear(rng, cat, hidden, f"{name}.update")
        self.reset = Linear(rng, cat, hidden, f"{name}.reset")
        self.pool = ModulePool(rng, n_modules, cat, hidden, kind="linear", name=f"{name}.pool")
        # one router, drawn last; the other stays None
        self.controller = self.gate = None
        if topk is None:
            self.controller = Controller(rng, cat, n_modules, n_slots, name=f"{name}.ctrl")
        else:
            self.gate = NoisyTopKGate(rng, cat, n_modules, topk, name=f"{name}.gate")

    def parameters(self) -> list[Parameter]:
        return (
            self.update.parameters()
            + self.reset.parameters()
            + self.pool.parameters()
            + (self.gate or self.controller).parameters()
        )

    def unroll(self, table, tokens, select, h0: np.ndarray, visit=None):
        """Run the gated recurrence from state ``h0`` over a (batch, steps)
        block of integer ``tokens``, step t reading the rows
        ``table[tokens[:, t]]`` of the (ids, in_dim) ``table``; an id
        outside the table raises ``ShapeError``.

        ``select`` sets each step's (batch, modules) module weights: either
        an array (steps, batch, modules) of them fixed in advance, such as
        forced slot counts, or a function ``select(t, hx)`` returning step
        t's weights and the gate's noise terms (``NoisyTopKGate.forward``),
        None for a controller's slot counts or a noise-free gate.
        ``visit(t, h)``, if given, sees each new state.

        Each step runs the whole pool in one ``ModulePool.apply`` call and
        sums the weighted outputs over the module axis; a module weighted
        zero adds exact zeros.

        Under a tape every step's rows are gathered once, time-major (row
        ``t * batch + b``), every step's activations are kept, and the
        stacked states h_t and [h_{t-1}, x_t] rows are the two outputs of
        one ``modular-gru-unroll`` record, which reads the table.  Off the
        tape only the state and one step's rows and buffers are kept, and
        the result is None.
        """
        hid, pool, gated = self.hidden, self.pool, self.gate is not None
        batch, cat = h0.shape[0], hid + self.in_dim
        td, ids = constant(table).data, np.asarray(tokens)
        if ids.ndim != 2 or len(ids) != batch or td.ndim != 2 or td.shape[1] != self.in_dim:
            raise ShapeError(f"unroll tokens {ids.shape}, table {td.shape}, state {h0.shape}")
        steps = checked_ids(ids, len(td), "token").shape[1]
        gate_w = np.concatenate([self.update.w.data, self.reset.w.data], axis=1)
        gate_b = np.concatenate([self.update.b.data, self.reset.b.data])
        fixed = not callable(select)
        if fixed and np.shape(select) != (steps, batch, pool.n_modules):
            raise ShapeError(
                f"unroll weights {np.shape(select)}, expected {(steps, batch, pool.n_modules)}"
            )
        keep = active_tape() is not None
        if keep:
            # each step writes its [h, x] and [r*h, x] into these, x once;
            # all are time-major (steps, batch, .)
            rows = td[ids.T]
            out = np.empty((steps, batch, hid + cat))
            px_rows = np.empty((steps, batch, cat))
            out[..., 2 * hid :] = px_rows[..., hid:] = rows
            gates = np.empty((steps, batch, 2 * hid))
            cand_rows = np.empty((steps, batch, hid))
            weight_rows = select if fixed else np.empty((steps, batch, pool.n_modules))
            # gate weights take gradients: keep each module's output and the noise
            mod_rows = np.empty((steps, batch, pool.n_modules, hid)) if gated else None
            noises = []
        else:
            # one step's [h, x], gates and [r*h, x], rewritten every step
            hx_step, px_step = np.empty((batch, cat)), np.empty((batch, cat))
            zr_step = np.empty((batch, 2 * hid))
        h = h0
        with paused():
            for t in range(steps):
                if keep:
                    hx, zr, px = out[t, :, hid:], gates[t], px_rows[t]
                else:
                    hx, zr, px = hx_step, zr_step, px_step
                    hx[:, hid:] = px[:, hid:] = td[ids[:, t]]
                hx[:, :hid] = h
                weights, noise = (select[t], None) if fixed else select(t, hx)
                np.matmul(hx, gate_w, out=zr)
                zr += gate_b
                stable_sigmoid(zr, out=zr)
                z, r = zr[:, :hid], zr[:, hid:]
                np.multiply(r, h, out=px[:, :hid])
                terms = pool.apply(px)
                if keep and gated:
                    mod_rows[t] = terms.transpose(1, 0, 2)
                # a module picked by several slots of a row counts once per slot
                terms *= weights.T[:, :, None]
                cand = relu(terms.sum(axis=0))
                h = (1.0 - z) * h + z * cand
                if keep:
                    out[t, :, :hid] = h
                    cand_rows[t] = cand
                    if not fixed:
                        weight_rows[t] = weights
                    noises.append(noise)
                if visit is not None:
                    visit(t, h)
        if not keep:
            return None
        n = steps * batch
        saved = [a.reshape(n, *a.shape[2:]) for a in (out, gates, px_rows, cand_rows, weight_rows)]
        saved += [None if mod_rows is None else mod_rows.reshape(n, *mod_rows.shape[2:]), noises]
        return self._record(table, ids, rows, saved, batch)

    def _record(self, table, ids, rows, saved, batch):
        """One tape record for a kept unroll; its pullback is BPTT.

        Only the state recurrence runs step by step.  The parameter
        gradients of every map, a noisy top-k router's included, and the
        input gradients are each one matmul over all steps * batch rows.
        The pool is one input, ``ModulePool.param``, and so is the table:
        on the tape, it takes the gathered ``rows``' gradients, formed in
        their buffer and summed per run of equal ids.  Held for the
        pullback, that buffer keeps the heap's layout across gradient
        steps; freed after the forward loop, it let glibc return the heap's
        top at every step.  An output that no loss read counts as a
        gradient of zeros.
        """
        out, gates, px_rows, cand_rows, weight_rows, mod_rows, noises = saved
        hid, pool, gate = self.hidden, self.pool, self.gate
        n_mod, cat = pool.n_modules, pool.in_dim
        n, steps = out.shape[0], out.shape[0] // batch
        need_table, table_shape = needs_grad(table), constant(table).shape
        # the maps that read [h, x]: update and reset gates, then a gate
        # router's logits and noise-scale logits; the modules read [r*h, x]
        hx_maps = [self.update, self.reset] + ([] if gate is None else [gate.gate, gate.noise])
        hx_w = np.concatenate([m.w.data for m in hx_maps], axis=1)
        # (in, modules * hidden): module j's weights in columns j*hid:(j+1)*hid
        mod_w = pool.weights.transpose(1, 0, 2).reshape(cat, -1)
        n_hx = hx_w.shape[1]
        # the state part of [hx maps | modules] weights, and all of it for inputs
        hx_wh_t = hx_w[:hid].T
        mod_wh_t = mod_w[:hid].T
        all_wx_t = np.concatenate([hx_w, mod_w], axis=1)[hid:].T

        if need_table:
            # the rows of one id are summed by one segmented reduction over
            # the ids in sorted order, not scattered one at a time; each run
            # of equal sorted ids starts where the id changes
            flat = ids.T.reshape(-1)
            order = np.argsort(flat, kind="stable")
            ids_sorted = flat[order]
            run_start = np.empty(n, dtype=bool)
            run_start[:1] = True
            np.not_equal(ids_sorted[1:], ids_sorted[:-1], out=run_start[1:])
            starts = np.flatnonzero(run_start)

        def pullback(gs):
            g_h, g_hx = (np.zeros((n, w)) if g is None else g for g, w in zip(gs, (hid, cat)))
            # time-major contiguous (steps, batch, .) copies of the strided
            # operands, so that each step's ufuncs run one inner loop, not
            # one per row: z and 1 - z, r and 1 - r, the previous state,
            # the candidate, z where it is active, the mixing weights and
            # the two state gradients
            def by_step(a):
                return np.ascontiguousarray(a).reshape(steps, batch, -1)

            zs, rs = by_step(gates[:, :hid]), by_step(gates[:, hid:])
            one_zs, one_rs = 1.0 - zs, 1.0 - rs
            h_prevs, cands = by_step(out[:, hid : 2 * hid]), by_step(cand_rows)
            ws = by_step(weight_rows)
            z_lives = zs * (cands > 0)
            g_hs, g_states = by_step(g_h), by_step(g_hx[:, :hid])
            mods = None if gate is None else mod_rows.reshape(steps, batch, n_mod, hid)
            # per row: [d update-gate pre-activation | d reset | d router
            # logits, if a gate | d module output per module]; the first
            # block is built per step in g_hx_pres, the module block in the
            # reused g_mod and copied into g_pre
            g_pre = np.empty((n, n_hx + n_mod * hid))
            g_hx_pres = np.empty((steps, batch, n_hx))
            g_mod = np.empty((batch, n_mod, hid))
            g_mod_rows = g_mod.reshape(batch, -1)
            carry = np.zeros((batch, hid))
            for t in reversed(range(steps)):
                z, r, h_prev, w = zs[t], rs[t], h_prevs[t], ws[t]
                gh = g_hs[t] + carry
                gcand = gh * z_lives[t]
                np.multiply(gcand[:, None, :], w[:, :, None], out=g_mod)
                g_rh = g_mod_rows @ mod_wh_t
                g_maps = [
                    (gh * cands[t] - gh * h_prev) * z * one_zs[t], g_rh * h_prev * r * one_rs[t]
                ]
                if gate is not None:
                    g_weights = (mods[t] * gcand[:, None, :]).sum(axis=-1)
                    g_maps += gate.pullback(w, noises[t], g_weights)
                np.concatenate(g_maps, axis=-1, out=g_hx_pres[t])
                g_pre[t * batch : (t + 1) * batch, n_hx:] = g_mod_rows
                carry = gh * one_zs[t] + g_rh * r + g_hx_pres[t] @ hx_wh_t + g_states[t]
            g_pre[:, :n_hx] = g_hx_pres.reshape(n, n_hx)
            g_hx_w = out[:, hid:].T @ g_pre[:, :n_hx]
            g_b = g_pre.sum(axis=0)
            grads, lo = [None], 0
            if need_table:
                g_x = np.matmul(g_pre, all_wx_t, out=rows.reshape(n, -1))
                g_x += g_hx[:, hid:]
                grads[0] = np.zeros(table_shape)
                grads[0][ids_sorted[starts]] = np.add.reduceat(g_x[order], starts, axis=0)
            for m in hx_maps:
                grads += [g_hx_w[:, lo : lo + m.out_dim], g_b[lo : lo + m.out_dim]]
                lo += m.out_dim
            g_pool = np.empty_like(pool.param.data)
            g_mod_w = px_rows.T @ g_pre[:, n_hx:]
            g_pool[:, :cat] = g_mod_w.reshape(cat, n_mod, hid).transpose(1, 0, 2)
            g_pool[:, cat] = g_b[n_hx:].reshape(n_mod, hid)
            return grads + [g_pool]

        inputs = [table] + [p for m in hx_maps for p in m.parameters()] + [pool.param]
        return record_joint("modular-gru-unroll", (out[:, :hid], out[:, hid:]), inputs, pullback)


class _GruLM:
    """Embedding, one modular GRU cell and a vocabulary projection, shared
    by both recurrent models; ``n_slots`` and ``topk`` route the cell."""

    EMBED = "lm.embed"  # the embedding's parameter name, one row per token

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: int,
        embed_dim: int,
        hidden: int,
        n_modules: int,
        n_slots: int = 1,
        topk: int | None = None,
    ):
        bound = 1.0 / math.sqrt(embed_dim)
        self.embed = Parameter(rng.uniform(-bound, bound, size=(vocab, embed_dim)), self.EMBED)
        self.cell = ModularGruCell(rng, embed_dim, hidden, n_modules, n_slots, "lm.cell", topk)
        self.out = Linear(rng, hidden, vocab, "lm.out")
        self.vocab = vocab
        self.n_modules = n_modules
        self.n_slots = n_slots

    def parameters(self) -> list[Parameter]:
        return [self.embed] + self.cell.parameters() + self.out.parameters()

    def n_units(self, tokens) -> int:
        return np.shape(tokens)[1]

    @staticmethod
    def snapshot(probs: np.ndarray) -> SelectionSnapshot:
        """(batch, steps, slots, modules) distributions, with every timestep
        a routing decision of its own."""
        batch, steps, k, m = probs.shape
        return SelectionSnapshot([probs.reshape(batch * steps, k, m)])

    def _checked(self, tokens, targets):
        """Tokens and targets as arrays, refused unless they are equal 2-D
        shapes and the targets integer ids in the vocabulary."""
        tokens = np.asarray(tokens)
        targets = None if targets is None else np.asarray(targets)
        if tokens.ndim != 2 or (targets is not None and targets.shape != tokens.shape):
            raise ValueError(
                f"tokens {tokens.shape} and targets {np.shape(targets)} must be "
                "equal 2-D shapes"
            )
        if active_tape() is not None and targets is None:
            raise ValueError("a taped rollout needs targets")
        return tokens, None if targets is None else checked_ids(targets, self.vocab, "target")

    def _scored_unroll(self, tokens, targets, select):
        """Unroll the cell over a (batch, steps) token block with
        ``select``, scoring the next tokens when ``targets`` are given.

        Returns the summed log-likelihoods (batch,), the per-token ones
        (batch, steps), both None without targets, and under a tape the
        unroll's [h, x] rows (else None).  Both ways sum each window's
        time-major (steps, batch) values over the steps in order.
        """
        batch, steps = tokens.shape
        h0 = np.zeros((batch, self.cell.hidden))
        if active_tape() is None:
            ll = None if targets is None else np.empty((steps, batch))

            def visit(t, h):
                ll[t] = log_softmax_pick(self.out(h), targets[:, t])

            # one step's embeddings at a time: evaluation unrolls every window at once
            self.cell.unroll(self.embed, tokens, select, h0, None if ll is None else visit)
            if ll is None:
                return None, None, None
            return Tensor(ll.sum(axis=0)), ll.T.copy(), None

        # rows are time-major (t * batch + b), as the buffer above
        h_rows, hx_rows = self.cell.unroll(self.embed, tokens, select, h0)
        product = matmul(h_rows, self.out.w)
        cond, ll = categorical_head([product], [self.out.b], targets.T[..., None])
        return cond, ll.T.copy(), hx_rows


class ModularGruLM(_GruLM, ModularModel):
    """Character/word model: embedding, modular GRU, vocab projection."""

    # the count grows as (modules**slots)**steps
    ENUM_BUDGET = 4096

    def rollout(
        self,
        tokens: np.ndarray,
        targets: np.ndarray | None = None,
        comps: np.ndarray | None = None,
        sample_mask: np.ndarray | None = None,
        greedy: bool = False,
        rng: np.random.Generator | None = None,
        with_ctrl: bool = False,
        detach_ctrl_inputs: bool = False,
        collect_probs: bool = False,
    ) -> RolloutResult:
        """Unroll over a (batch, steps) token block, scoring next tokens.

        Selection source per timestep: ``comps[:, t]`` when given, else the
        controller (greedy or sampled).  With both ``comps`` and a boolean
        ``sample_mask``, masked rows resample while the rest stay forced;
        this lets one unroll score an incumbent and fresh proposals side
        by side on tiled rows.  Without ``targets`` an untaped unroll only
        chooses selections: ``cond_ll`` and ``pred_ll`` come back None.
        """
        tokens, targets = self._checked(tokens, targets)
        batch, steps = tokens.shape
        walk = Routing(
            self, batch, steps, comps, sample_mask, greedy, rng, with_ctrl, collect_probs
        )
        ctrl_model, n_mod = self.cell.controller, self.n_modules
        # fully forced selections: every step's slot counts at once, time-major
        # and contiguous, as the unroll keeps them for BPTT
        forced_counts = (
            np.ascontiguousarray(slot_counts(walk.comps.transpose(1, 0, 2), n_mod))
            if comps is not None and sample_mask is None
            else None
        )

        def select(t, hx):
            sel = walk.step(t, ctrl_model, hx)
            counts = slot_counts(sel, n_mod) if forced_counts is None else forced_counts[t]
            return counts, None

        if forced_counts is not None and not walk.need_parts:
            # nothing to compute per step: the unroll reads the counts directly
            walk.chosen[...] = walk.comps
            select = forced_counts
        cond, pred_ll, hx_rows = self._scored_unroll(tokens, targets, select)
        ctrl = None
        if walk.taped and with_ctrl:
            if detach_ctrl_inputs:
                hx_rows = constant(hx_rows)
            ctrl = ctrl_model.log_prob(hx_rows, walk.chosen.transpose(1, 0, 2))
        return walk.result(cond, ctrl, pred_ll)


class NoisyTopKGruLM(_GruLM, MixtureModel):
    """Same backbone as the modular model, its cell routed by a noisy
    top-k gate."""

    def rollout(
        self,
        tokens: np.ndarray,
        targets: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        collect_probs: bool = False,
    ) -> RolloutResult:
        """Unroll over a (batch, steps) token block, scoring next tokens.

        Without ``targets`` the output head is skipped and ``cond_ll`` and
        ``pred_ll`` come back None.
        """
        tokens, targets = self._checked(tokens, targets)
        batch, steps = tokens.shape
        gate = self.cell.gate
        probs = np.empty((batch, steps, 1, self.n_modules)) if collect_probs else None

        def select(t, hx):
            w, _, noise = gate.forward(hx, train, rng)
            if collect_probs:
                probs[:, t, 0] = w
            return w, noise

        cond, pred_ll, _ = self._scored_unroll(tokens, targets, select)
        chosen = np.empty((batch, steps, 0), dtype=np.int64)
        return RolloutResult(cond, None, chosen, pred_ll, probs)
