"""Gated recurrent cells whose candidate-state transform is modular.

The update and reset gates are ordinary dense maps.  The candidate state
is produced by a pool of modules: a controller (or a noisy top-k gate)
decides per timestep which modules contribute.  Parameters are shared
across timesteps; the selection is free to change at every step.

``ModularGruLM`` answers the model protocol of ``modular.ModularModel``
through its one ``rollout``; the protocol methods themselves live in
that base, shared with the feedforward ``ModularNet``, and both
rollouts pick each unit's selection through ``modular.choose``.

Every modular-GRU rollout runs one raw-numpy forward loop
(``ModularGruCell.unroll``): the E-step, sampling, probes, evaluation and
the taped objectives alike.  Under a tape the whole unroll is a single
``modular-gru-unroll`` record whose pullback is hand-written
backpropagation through time, so a taped rollout records a fixed number
of ops however many steps it has: one embedding lookup over all steps,
the unroll, then the output head and the controller heads scoring all
steps at once on the stacked per-step rows.  Without a tape each step is
scored as it goes and only the running state and one step's embeddings
are kept; evaluation scores all windows in one unroll, so anything held
per step and window would grow with the whole dataset.
"""

from __future__ import annotations

import math

import numpy as np

from modnet.autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    active_tape,
    add,
    categorical_log_prob,
    concat_last,
    constant,
    embedding_lookup,
    mul,
    paused,
    record_joint,
    relu,
    reshape,
    sigmoid,
    slice_last,
    stable_sigmoid,
    sum_over_axis,
)
from modnet.diagnostics import SelectionSnapshot
from modnet.modular import (
    Controller,
    Linear,
    ModularModel,
    ModulePool,
    NoisyTopKGate,
    RolloutResult,
    choose,
)


class ModularGruCell:
    """GRU cell with a modular candidate-state transform.

    Gates read the joined state [h, x].  The candidate transform applies
    the selected modules to [reset*h, x], sums them, and rectifies.  The
    controller also reads [h, x], so selections can react to both the
    running state and the current input.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        hidden: int,
        n_modules: int,
        n_slots: int,
        name: str = "cell",
    ):
        cat = hidden + in_dim
        self.hidden = hidden
        self.in_dim = in_dim
        self.update = Linear(rng, cat, hidden, f"{name}.update")
        self.reset = Linear(rng, cat, hidden, f"{name}.reset")
        self.pool = ModulePool(rng, n_modules, cat, hidden, kind="linear", name=f"{name}.pool")
        self.controller = Controller(rng, cat, n_modules, n_slots, name=f"{name}.ctrl")
        self.name = name

    def parameters(self) -> list[Parameter]:
        return (
            self.update.parameters()
            + self.reset.parameters()
            + self.pool.parameters()
            + self.controller.parameters()
        )

    def unroll(self, xs, steps: int, select, h0: np.ndarray, visit=None) -> Tensor | None:
        """Run the gated recurrence for ``steps`` timesteps from state ``h0``.

        ``xs`` is either the inputs as time-major rows (row ``t * batch +
        b``, shape (steps * batch, in_dim)) or a function ``t -> (batch,
        in_dim)``.  ``select(t, hx)`` returns step t's (batch, slots)
        selection and its (batch, modules) slot counts; ``visit(t, h)``,
        if given, sees each new state.

        With rows, every step's activations are kept, and the stacked
        ``[h_t | hx_t]`` rows come back as one ``modular-gru-unroll``
        record (a plain tensor off the tape).  With a function only the
        running state is kept and the result is None.
        """
        hid, pool = self.hidden, self.pool
        batch = h0.shape[0]
        gate_w = np.concatenate([self.update.w.data, self.reset.w.data], axis=1)
        gate_b = np.concatenate([self.update.b.data, self.reset.b.data])
        cache = not callable(xs)
        if cache:
            xd = xs.data if isinstance(xs, (Tensor, Parameter)) else np.asarray(xs, dtype=np.float64)
            if xd.shape != (steps * batch, self.in_dim):
                raise ShapeError(
                    f"unroll inputs {xd.shape}, expected {(steps * batch, self.in_dim)}"
                )
            n = steps * batch
            out = np.empty((n, 2 * hid + self.in_dim))
            gates = np.empty((n, 2 * hid))
            px_rows = np.empty((n, hid + self.in_dim))
            cand_rows = np.empty((n, hid))
            count_rows = np.empty((n, pool.n_modules))
        h = h0
        with paused():
            for t in range(steps):
                rows = slice(t * batch, (t + 1) * batch)
                x = xd[rows] if cache else xs(t)
                hx = np.concatenate([h, x], axis=-1)
                sel, counts = select(t, hx)
                zr = stable_sigmoid(hx @ gate_w + gate_b)
                z, r = zr[:, :hid], zr[:, hid:]
                px = np.concatenate([r * h, x], axis=-1)
                pre = None
                # a module picked by several slots of a row counts once per slot
                for j in np.flatnonzero(counts.any(axis=0)):
                    term = pool.apply(int(j), px).data * counts[:, j : j + 1]
                    pre = term if pre is None else pre + term
                cand = relu(Tensor(pre)).data
                h_new = (z * -1.0 + 1.0) * h + z * cand
                if cache:
                    out[rows, :hid], out[rows, hid:] = h_new, hx
                    gates[rows], px_rows[rows] = zr, px
                    cand_rows[rows], count_rows[rows] = cand, counts
                h = h_new
                if visit is not None:
                    visit(t, h)
        if not cache:
            return None
        return self._record(xs, out, gates, px_rows, cand_rows, count_rows, gate_w, batch)

    def _record(self, xs, out, gates, px_rows, cand_rows, count_rows, gate_w, batch):
        """One tape record for a kept unroll; its pullback is BPTT.

        Only the state recurrence runs step by step.  The gate and module
        parameter gradients, and the input gradients, are each one matmul
        over all steps * batch rows.
        """
        hid, modules = self.hidden, self.pool.modules
        n_mod = len(modules)
        n, steps = out.shape[0], out.shape[0] // batch
        # the state part of [gates | modules] weights, and all of it for inputs
        mod_w = np.concatenate([m.w.data for m in modules], axis=1)
        gate_wh_t = gate_w[:hid].T
        mod_wh_t = mod_w[:hid].T
        all_wx_t = np.concatenate([gate_w, mod_w], axis=1)[hid:].T

        def pullback(g):
            g_h, g_hx = g[:, :hid], g[:, hid:]
            # per row: [d update-gate pre-activation | d reset | d module output per module]
            g_pre = np.empty((n, 2 * hid + n_mod * hid))
            carry = np.zeros((batch, hid))
            for t in reversed(range(steps)):
                rows = slice(t * batch, (t + 1) * batch)
                z, r = gates[rows, :hid], gates[rows, hid:]
                h_prev, cand = out[rows, hid : 2 * hid], cand_rows[rows]
                gh = g_h[rows] + carry
                gcand = gh * z * (cand > 0)
                g_mod = (gcand[:, None, :] * count_rows[rows][:, :, None]).reshape(batch, -1)
                g_rh = g_mod @ mod_wh_t
                g_gates = np.concatenate(
                    [(gh * cand - gh * h_prev) * z * (1.0 - z), g_rh * h_prev * r * (1.0 - r)],
                    axis=-1,
                )
                g_pre[rows, : 2 * hid], g_pre[rows, 2 * hid :] = g_gates, g_mod
                carry = gh * (z * -1.0 + 1.0) + g_rh * r + g_gates @ gate_wh_t + g_hx[rows, :hid]
            g_gate_w = out[:, hid:].T @ g_pre[:, : 2 * hid]
            g_gate_b = g_pre[:, : 2 * hid].sum(axis=0)
            g_mod_w = px_rows.T @ g_pre[:, 2 * hid :]
            g_mod_b = g_pre[:, 2 * hid :].sum(axis=0)
            grads = [
                g_hx[:, hid:] + g_pre @ all_wx_t,
                g_gate_w[:, :hid],
                g_gate_b[:hid],
                g_gate_w[:, hid:],
                g_gate_b[hid:],
            ]
            for j in range(n_mod):
                cols = slice(j * hid, (j + 1) * hid)
                grads += [g_mod_w[:, cols], g_mod_b[cols]]
            return grads

        inputs = [xs, *self.update.parameters(), *self.reset.parameters(), *self.pool.parameters()]
        return record_joint("modular-gru-unroll", out, inputs, pullback)


def slot_counts(selection: np.ndarray, n_modules: int) -> np.ndarray:
    """How many slots of each row pick each module: (..., slots) ints to
    (..., modules) floats."""
    picks = np.asarray(selection)[..., None] == np.arange(n_modules)
    return picks.sum(axis=-2).astype(np.float64)


class NoisyTopKGruCell:
    """GRU cell whose candidate transform is a sparse module mixture.

    The gate reads [h, x]; surviving modules' outputs on [reset*h, x] are
    blended by the renormalized top-k weights, then rectified.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        hidden: int,
        n_modules: int,
        k: int,
        name: str = "cell",
    ):
        cat = hidden + in_dim
        self.hidden = hidden
        self.in_dim = in_dim
        self.update = Linear(rng, cat, hidden, f"{name}.update")
        self.reset = Linear(rng, cat, hidden, f"{name}.reset")
        self.pool = ModulePool(rng, n_modules, cat, hidden, kind="linear", name=f"{name}.pool")
        self.gate = NoisyTopKGate(rng, cat, n_modules, k, name=f"{name}.gate")
        self.name = name

    def parameters(self) -> list[Parameter]:
        return (
            self.update.parameters()
            + self.reset.parameters()
            + self.pool.parameters()
            + self.gate.parameters()
        )

    def step(
        self,
        h: Tensor,
        x: Tensor,
        train: bool,
        rng: np.random.Generator | None,
        hx: Tensor | None = None,
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        if hx is None:
            hx = concat_last(h, x)
        w, mask = self.gate.weights(hx, train=train, rng=rng)
        z = sigmoid(self.update(hx))
        r = sigmoid(self.reset(hx))
        px = concat_last(mul(r, h), x)
        cand = relu(self.pool.mix(px, w, mask))
        keep = add(mul(z, -1.0), 1.0)
        return add(mul(keep, h), mul(z, cand)), w, mask


def _step_snapshot(probs: np.ndarray, comps: np.ndarray) -> SelectionSnapshot:
    """(batch, steps, slots, modules) distributions and (batch, steps,
    slots) choices, with every timestep a routing decision of its own."""
    batch, steps, k, m = probs.shape
    return SelectionSnapshot(
        [probs.reshape(batch * steps, k, m)], [comps.reshape(batch * steps, k)]
    )


class ModularGruLM(ModularModel):
    """Character/word model: embedding, modular GRU, vocab projection."""

    # the count grows as (modules**slots)**steps
    ENUM_BUDGET = 4096

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: int,
        embed_dim: int,
        hidden: int,
        n_modules: int,
        n_slots: int,
        name: str = "lm",
    ):
        bound = 1.0 / math.sqrt(embed_dim)
        self.embed = Parameter(
            rng.uniform(-bound, bound, size=(vocab, embed_dim)), f"{name}.embed"
        )
        self.cell = ModularGruCell(rng, embed_dim, hidden, n_modules, n_slots, f"{name}.cell")
        self.out = Linear(rng, hidden, vocab, f"{name}.out")
        self.vocab = vocab
        self.n_slots = n_slots
        self.n_modules = n_modules

    def parameters(self) -> list[Parameter]:
        return [self.embed] + self.cell.parameters() + self.out.parameters()

    def n_units(self, tokens) -> int:
        return np.shape(tokens)[1]

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
        tokens = np.asarray(tokens)
        targets = None if targets is None else np.asarray(targets)
        scored = targets is not None
        if tokens.ndim != 2 or (scored and targets.shape != tokens.shape):
            raise ValueError(
                f"tokens {tokens.shape} and targets {np.shape(targets)} must be "
                "equal 2-D shapes"
            )
        taped = active_tape() is not None
        if taped and not scored:
            raise ValueError("a taped rollout needs targets")
        batch, steps = tokens.shape
        if sample_mask is not None and comps is None:
            raise ValueError("sample_mask requires forced comps for unmasked rows")

        n_mod, hid = self.n_modules, self.cell.hidden
        if comps is not None:
            comps = np.asarray(comps)
            if comps.shape != (batch, steps, self.n_slots):
                raise ValueError(
                    f"comps shape {comps.shape}, expected "
                    f"{(batch, steps, self.n_slots)}"
                )
            if comps.size and (comps.min() < 0 or comps.max() >= n_mod):
                raise ShapeError(f"module index out of range [0, {n_mod})")
        if tokens.dtype.kind not in "iu":
            raise ShapeError("token ids must be integers")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab):
            raise ShapeError(
                f"token id out of range [0, {self.vocab}): "
                f"min={tokens.min()}, max={tokens.max()}"
            )

        ctrl_model = self.cell.controller
        chosen = np.empty((batch, steps, self.n_slots), dtype=np.int64)
        pred_ll = np.empty((batch, steps)) if scored else None
        probs_out = np.empty((batch, steps, self.n_slots, n_mod)) if collect_probs else None
        need_probs = collect_probs or comps is None or sample_mask is not None
        # fully forced selections: every step's slot counts at once, time-major
        forced_counts = (
            slot_counts(comps.transpose(1, 0, 2), n_mod)
            if comps is not None and sample_mask is None
            else None
        )
        # untaped sums of the per-step log-likelihoods (cond, ctrl)
        sums: list = [None, None]

        def select(t, hx):
            p = ctrl_model.distribution(hx) if need_probs else None
            sel = choose(p, None if comps is None else comps[:, t], greedy, rng, sample_mask)
            chosen[:, t] = sel
            if collect_probs:
                probs_out[:, t] = p
            if with_ctrl and not taped:
                term = ctrl_model.log_prob(hx, sel).data
                sums[1] = term if sums[1] is None else sums[1] + term
            counts = forced_counts[t] if forced_counts is not None else slot_counts(sel, n_mod)
            return sel, counts

        def visit(t, h):
            ll = categorical_log_prob(self.out(h), targets[:, t]).data
            pred_ll[:, t] = ll
            sums[0] = ll if sums[0] is None else sums[0] + ll

        h0 = np.zeros((batch, hid))
        if not taped:
            # one step's embeddings at a time: evaluation unrolls every window at once
            self.cell.unroll(
                lambda t: self.embed.data[tokens[:, t]], steps, select, h0,
                visit if scored else None,
            )
            cond, ctrl = (None if v is None else Tensor(v) for v in sums)
            return RolloutResult(cond, ctrl, chosen, pred_ll, probs_out)

        # rows are time-major (t * batch + b); summing the (steps, batch)
        # view over axis 0 adds the steps in the same order as above
        x_rows = embedding_lookup(self.embed, tokens.T.reshape(-1))
        rows = self.cell.unroll(x_rows, steps, select, h0)
        ll = categorical_log_prob(self.out(slice_last(rows, 0, hid)), targets.T.reshape(-1))
        pred_ll[...] = ll.data.reshape(steps, batch).T
        cond = sum_over_axis(reshape(ll, (steps, batch)), axis=0)
        ctrl = None
        if with_ctrl:
            if detach_ctrl_inputs:
                hx_rows = constant(rows.data[:, hid:])
            else:
                hx_rows = slice_last(rows, hid, rows.shape[1])
            sel_rows = chosen.transpose(1, 0, 2).reshape(-1, self.n_slots)
            term = ctrl_model.log_prob(hx_rows, sel_rows)
            ctrl = sum_over_axis(reshape(term, (steps, batch)), axis=0)
        return RolloutResult(cond, ctrl, chosen, pred_ll, probs_out)

    def probe(self, tokens, rng: np.random.Generator, comps=None):
        res = self.rollout(tokens, comps=comps, rng=rng, collect_probs=True)
        return _step_snapshot(res.probs, res.comps), res.comps

    def propose_and_score(
        self,
        tokens: np.ndarray,
        targets: np.ndarray,
        incumbent: np.ndarray,
        n_samples: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score the incumbent and fresh controller draws in one unroll.

        Returns (candidates, scores) of shapes (n_samples+1, batch, steps,
        slots) and (n_samples+1, batch); index 0 is the incumbent.
        """
        batch, steps = np.asarray(tokens).shape
        tile = n_samples + 1
        tok = np.tile(tokens, (tile, 1))
        tgt = np.tile(targets, (tile, 1))
        forced = np.tile(incumbent, (tile, 1, 1))
        mask = np.ones(tile * batch, dtype=bool)
        mask[:batch] = False
        res = self.rollout(
            tok, tgt, comps=forced, sample_mask=mask, rng=rng, with_ctrl=True
        )
        scores = add(res.cond_ll, res.ctrl_ll).data.reshape(tile, batch)
        cands = res.comps.reshape(tile, batch, steps, self.n_slots)
        return cands, scores


class NoisyTopKGruLM:
    """Same backbone as the modular model with gate-mixed candidates."""

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: int,
        embed_dim: int,
        hidden: int,
        n_modules: int,
        k: int,
        name: str = "lm",
    ):
        bound = 1.0 / math.sqrt(embed_dim)
        self.embed = Parameter(
            rng.uniform(-bound, bound, size=(vocab, embed_dim)), f"{name}.embed"
        )
        self.cell = NoisyTopKGruCell(rng, embed_dim, hidden, n_modules, k, f"{name}.cell")
        self.out = Linear(rng, hidden, vocab, f"{name}.out")
        self.vocab = vocab
        self.n_modules = n_modules

    def parameters(self) -> list[Parameter]:
        return [self.embed] + self.cell.parameters() + self.out.parameters()

    def rollout(
        self,
        tokens: np.ndarray,
        targets: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        collect_weights: bool = False,
    ) -> RolloutResult:
        """Unroll over a (batch, steps) token block, scoring next tokens.

        Without ``targets`` the output head is skipped and ``cond_ll`` and
        ``pred_ll`` come back None.
        """
        tokens = np.asarray(tokens)
        scored = targets is not None
        if tokens.ndim != 2 or (scored and np.shape(targets) != tokens.shape):
            raise ValueError(
                f"tokens {tokens.shape} and targets {np.shape(targets)} must be "
                "equal 2-D shapes"
            )
        batch, steps = tokens.shape
        h: Tensor = Tensor(np.zeros((batch, self.cell.hidden)))
        cond: Tensor | None = None
        pred_ll = np.empty((batch, steps)) if scored else None
        weights = np.empty((batch, steps, self.n_modules)) if collect_weights else None
        chosen = np.empty((batch, steps, 0), dtype=np.int64)
        for t in range(steps):
            x = embedding_lookup(self.embed, tokens[:, t])
            h, w, _ = self.cell.step(h, x, train=train, rng=rng)
            if collect_weights:
                weights[:, t] = w.data
            if scored:
                ll = categorical_log_prob(self.out(h), targets[:, t])
                pred_ll[:, t] = ll.data
                cond = ll if cond is None else add(cond, ll)
        return RolloutResult(cond, None, chosen, pred_ll, None, weights)

    def cond_log_lik(self, tokens, targets, train: bool = False, rng=None) -> Tensor:
        return self.rollout(tokens, targets, train=train, rng=rng).cond_ll

    def probe(self, tokens, rng=None, comps=None):
        """Noise-free gate weights as one-head distributions; the path is
        the heaviest module.  ``rng`` and ``comps`` are unused."""
        weights = self.rollout(tokens, collect_weights=True).weights[:, :, None]
        paths = weights.argmax(axis=-1)
        return _step_snapshot(weights, paths), paths

    def evaluate(self, tokens, targets, comps=None) -> tuple[None, np.ndarray]:
        return None, self.rollout(tokens, targets).pred_ll

    def marginal_log_lik(self, tokens, targets, budget: int = 0) -> np.ndarray:
        raise ValueError("mixture gating has no compositions to enumerate")
