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
arrays.  Each map that reads [h, x] or [r*h, x] splits into a state half
and an input half; the input halves are projected once per unroll for
every table row, the pool's in one ``ModulePool.apply`` call, so a step
runs two products on its state whatever the pool size.  The values agree
with the op-by-op cell and the step-by-step BPTT of ``tests/oracles.py``
to rounding, within 1e-12 of each array's scale; taped and untaped
unrolls run the same arithmetic, so their scores agree bit for bit.
Selections forced in advance reach the unroll as one array of slot
counts, with no per-step callback.

Per-step operands are laid out so that numpy's inner loop runs along the
long axis, not once per short row.  A controller step is module-major:
``Controller.parts`` keeps every head's logits in one (modules, slots,
rows) block, and the draw, the log-probabilities and the slot counts
read it along the rows; its sums over modules run down the module axis
below 8 modules and over a row-major copy from 8 on, where numpy would
sum each row pairwise.  A step of the unroll and of BPTT is
feature-major: each operand is a contiguous (features, batch) block.

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
        forced slot counts, or a function ``select(t, a)`` returning step
        t's weights and the gate's noise terms (``NoisyTopKGate.mix``),
        None for a controller's slot counts or a noise-free gate.  ``a`` is
        the router's input: a controller's (batch, hidden + in_dim) [h, x]
        rows, or a gate's (batch, 2 * modules) logits of its gate map, then
        its noise map.  ``visit(t, h)``, if given, sees each new state.

        Every map that reads [h, x] or [r*h, x] splits into a state half
        and an input half.  The input halves, biases included, are
        projected once per unroll for every table row, as the maps and the
        pool (one ``ModulePool.apply`` call) on the rows [0 | table].  A
        step multiplies its state by the state halves, one product for the
        [h, x] maps and one for the pool, and adds its tokens' projected
        rows.  The gates are 0.5 * tanh(a / 2) + 0.5, on halved weights
        and projections: the halving is exact, and tanh cannot overflow;
        the candidate is the pool's outputs weighted per row, summed over
        the modules and rectified by ``np.maximum``; the new state is
        h + z * (cand - h).  A module weighted zero adds exact zeros.
        Against the op-by-op cell of ``tests/oracles.py`` the values agree
        to rounding, within 1e-12 of each array's scale.

        A step works feature-major: its state, gates, projections and
        module outputs are (features, batch) blocks, so that every
        elementwise call runs one inner loop along the batch.  Under a
        tape every step's blocks are kept time-major, and the states h_t
        and the [h_{t-1}, x_t] rows, assembled after the loop with rows
        ``t * batch + b``, are the two outputs of one ``modular-gru-unroll``
        record, which reads the table.  Off the tape only the state and
        one step's buffers are kept, each step gathers its own projected
        columns, and the result is None.
        """
        hid, pool, gate = self.hidden, self.pool, self.gate
        batch, n_mod = h0.shape[0], pool.n_modules
        td, ids = constant(table).data, np.asarray(tokens)
        if ids.ndim != 2 or len(ids) != batch or td.ndim != 2 or td.shape[1] != self.in_dim:
            raise ShapeError(f"unroll tokens {ids.shape}, table {td.shape}, state {h0.shape}")
        steps = checked_ids(ids, len(td), "token").shape[1]
        fixed = not callable(select)
        if fixed and np.shape(select) != (steps, batch, n_mod):
            raise ShapeError(f"unroll weights {np.shape(select)}, expected {(steps, batch, n_mod)}")
        # the maps that read [h, x]: update and reset gates, then a gate
        # router's gate and noise-scale maps; the pool's (cat, modules *
        # hidden) weights hold module j's in columns j*hid:(j+1)*hid
        hx_maps = [self.update, self.reset] + ([] if gate is None else [gate.gate, gate.noise])
        hx_w = np.concatenate([m.w.data for m in hx_maps], axis=1)
        mod_w = pool.weights.transpose(1, 0, 2).reshape(hx_w.shape[0], -1)
        n_hx = hx_w.shape[1]
        padded = np.zeros((len(td), hx_w.shape[0]))
        padded[:, hid:] = td
        # (n_hx + modules * hidden, ids): a column per table row
        proj = np.concatenate(
            [
                (padded @ hx_w + np.concatenate([m.b.data for m in hx_maps])).T,
                pool.apply(padded).transpose(0, 2, 1).reshape(-1, len(td)),
            ]
        )
        hx_wh_t, mod_wh_t = hx_w[:hid].T.copy(), mod_w[:hid].T.copy()
        hx_wh_t[: 2 * hid] *= 0.5
        proj[: 2 * hid] *= 0.5
        reads_hx = not fixed and gate is None
        keep = active_tape() is not None
        pre, mod = np.empty((n_hx, batch)), np.empty((n_mod, hid, batch))
        if keep:
            xs = td[ids.T]
            xps = np.ascontiguousarray(proj[:, ids.T].transpose(1, 0, 2))
            hs = np.empty((steps + 1, hid, batch))
            hs[0] = h0.T
            zrs = np.empty((steps, 2 * hid, batch))
            rhs, cands = np.empty((steps, hid, batch)), np.empty((steps, hid, batch))
            ws = np.empty((steps, n_mod, batch))
            if fixed:
                ws[...] = select.transpose(0, 2, 1)
            # gate weights take gradients: keep each module's output and the noise
            mods = np.empty((steps, n_mod, hid, batch)) if gate is not None else None
            noises = []
        else:
            # a step's gates overwrite their pre-activations, and its
            # candidate overwrites r*h once the pool has read it
            xp, rh = np.empty((len(proj), batch)), np.empty((hid, batch))
            zr, cand = pre[: 2 * hid], rh
        # a kept module output stays unweighted for the gate's gradient
        terms = np.empty((n_mod, hid, batch)) if keep and gate is not None else mod
        hx = np.empty((batch, hx_w.shape[0])) if reads_hx else None
        h = h0.T
        with paused():
            for t in range(steps):
                if keep:
                    xp, zr, rh, cand, h_next = xps[t], zrs[t], rhs[t], cands[t], hs[t + 1]
                    if mods is not None:
                        mod = mods[t]
                else:
                    # ids are checked: "clip" writes straight into the buffer
                    np.take(proj, ids[:, t], axis=1, out=xp, mode="clip")
                    h_next = np.empty((hid, batch))
                np.matmul(hx_wh_t, h, out=pre)
                pre += xp[:n_hx]
                np.tanh(pre[: 2 * hid], out=zr)
                zr *= 0.5
                zr += 0.5
                z, r = zr[:hid], zr[hid:]
                if fixed:
                    weights, noise = select[t], None
                elif reads_hx:
                    hx[:, :hid] = h.T
                    np.take(td, ids[:, t], axis=0, out=hx[:, hid:], mode="clip")
                    weights, noise = select(t, hx)
                else:
                    weights, noise = select(t, pre[2 * hid :].T)
                np.multiply(r, h, out=rh)
                np.matmul(mod_wh_t, rh, out=mod.reshape(-1, batch))
                mod += xp[n_hx:].reshape(n_mod, hid, batch)
                # a module picked by several slots of a row counts once per slot
                np.multiply(mod, weights.T[:, None, :], out=terms)
                np.sum(terms, axis=0, out=cand)
                np.maximum(cand, 0.0, out=cand)
                np.subtract(cand, h, out=h_next)
                h_next *= z
                h_next += h
                h = h_next
                if keep:
                    noises.append(noise)
                    if not fixed:
                        ws[t] = weights.T
                if visit is not None:
                    visit(t, h.T)
        if not keep:
            return None
        kept = (hs, zrs, rhs, cands, ws, mods, noises, xs)
        return self._record(table, ids, kept, (hx_maps, hx_w, mod_w))

    def _record(self, table, ids, kept, maps):
        """One tape record for a kept unroll; its pullback is BPTT.

        Only the state recurrence runs step by step, feature-major as the
        forward steps: the factors of the gate gradients that do not
        depend on the carried gradient, (cand - h_prev) * z * (1 - z) and
        h_prev * r * (1 - r), are formed for all steps before the loop.
        The parameter gradients of every map, a noisy top-k router's
        included, take one product over the steps for their state rows.
        For their table rows, every step's gradient is first summed per
        token id, by one segmented reduction over the ids in sorted order,
        so the products with the table, and the table's own gradient, run
        on one row per id.  The pool is one input, ``ModulePool.param``,
        and so is the table.  An output that no loss read counts as a
        gradient of zeros.
        """
        hs, zrs, rhs, cands, ws, mods, noises, xs = kept
        hx_maps, hx_w, mod_w = maps
        hid, pool, gate = self.hidden, self.pool, self.gate
        n_mod, cat = pool.n_modules, pool.in_dim
        steps, batch = xs.shape[:2]
        n, n_hx = steps * batch, hx_w.shape[1]
        hx_wh, mod_wh = hx_w[:hid], mod_w[:hid]
        all_wx_t = np.concatenate([hx_w, mod_w], axis=1)[hid:].T
        h_prevs = hs[:-1]
        h_rows = hs.transpose(0, 2, 1).reshape(-1, hid)
        x_rows = xs.reshape(n, -1)
        # each run of equal sorted ids starts where the id changes
        flat = ids.T.reshape(-1)
        order = np.argsort(flat, kind="stable")
        ids_sorted = flat[order]
        run_start = np.empty(n, dtype=bool)
        run_start[:1] = True
        np.not_equal(ids_sorted[1:], ids_sorted[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        present = ids_sorted[starts]
        step_of, row_of = np.divmod(order, batch)
        need_table, table_data = needs_grad(table), constant(table).data
        x_present = table_data[present]

        def pullback(gs):
            g_h, g_hx = gs
            # the state gradient each step starts from: its own output's,
            # plus the next step's [h, x] row's, whose h is this state
            g_base = np.zeros((steps, hid, batch))
            if g_h is not None:
                g_base += g_h.reshape(steps, batch, hid).transpose(0, 2, 1)
            if g_hx is not None:
                g_base[:-1] += g_hx[batch:, :hid].reshape(steps - 1, batch, hid).transpose(0, 2, 1)
            zs, rs = zrs[:, :hid], zrs[:, hid:]
            one_zs = 1.0 - zs
            f_z = (cands - h_prevs) * zs * one_zs
            f_r = h_prevs * rs * (1.0 - rs)
            z_lives = zs * (cands > 0)
            # per step: [d update-gate pre-activation | d reset | d router
            # logits, if a gate | d module output per module] by batch
            g_pre = np.empty((steps, n_hx + n_mod * hid, batch))
            g_mods = g_pre[:, n_hx:].reshape(steps, n_mod, hid, batch)
            carry = np.zeros((hid, batch))
            for t in reversed(range(steps)):
                gh = g_base[t] + carry
                gcand = gh * z_lives[t]
                np.multiply(gcand, ws[t][:, None, :], out=g_mods[t])
                g_rh = mod_wh @ g_pre[t, n_hx:]
                np.multiply(gh, f_z[t], out=g_pre[t, :hid])
                np.multiply(g_rh, f_r[t], out=g_pre[t, hid : 2 * hid])
                if gate is not None:
                    g_weights = (mods[t] * gcand).sum(axis=1)
                    g_logits = gate.pullback(ws[t].T, noises[t], g_weights.T)
                    g_pre[t, 2 * hid : n_hx] = np.concatenate(g_logits, axis=-1).T
                carry = gh * one_zs[t] + g_rh * rs[t] + hx_wh @ g_pre[t, :n_hx]
            g_ids = np.add.reduceat(g_pre[step_of, :, row_of], starts, axis=0)
            g_wx = x_present.T @ g_ids
            g_b = g_ids.sum(axis=0)
            g_wh = np.matmul(h_prevs, g_pre[:, :n_hx].transpose(0, 2, 1)).sum(axis=0)
            g_hx_w = np.concatenate([g_wh, g_wx[:, :n_hx]])
            grads, lo = [None], 0
            if need_table:
                g_x = g_ids @ all_wx_t
                if g_hx is not None:
                    g_x += np.add.reduceat(g_hx[order, hid:], starts, axis=0)
                grads[0] = np.zeros(table_data.shape)
                grads[0][present] = g_x
            for m in hx_maps:
                grads += [g_hx_w[:, lo : lo + m.out_dim], g_b[lo : lo + m.out_dim]]
                lo += m.out_dim
            g_rh_w = np.matmul(rhs, g_pre[:, n_hx:].transpose(0, 2, 1)).sum(axis=0)
            g_mod_w = np.concatenate([g_rh_w, g_wx[:, n_hx:]])
            g_pool = np.empty_like(pool.param.data)
            g_pool[:, :cat] = g_mod_w.reshape(cat, n_mod, hid).transpose(1, 0, 2)
            g_pool[:, cat] = g_b[n_hx:].reshape(n_mod, hid)
            return grads + [g_pool]

        outputs = (h_rows[batch:], np.concatenate([h_rows[:n], x_rows], axis=1))
        inputs = [table] + [p for m in hx_maps for p in m.parameters()] + [pool.param]
        return record_joint("modular-gru-unroll", outputs, inputs, pullback)


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
        forced_counts = (
            slot_counts(walk.comps.transpose(1, 0, 2), n_mod)
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

        def select(t, logits):
            z, pre = np.split(logits, 2, axis=1)
            w, _, noise = gate.mix(z, pre if train else None, rng)
            if collect_probs:
                probs[:, t, 0] = w
            return w, noise

        cond, pred_ll, _ = self._scored_unroll(tokens, targets, select)
        chosen = np.empty((batch, steps, 0), dtype=np.int64)
        return RolloutResult(cond, None, chosen, pred_ll, probs)
