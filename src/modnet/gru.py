"""Gated recurrent cells whose candidate-state transform is modular.

The update and reset gates are ordinary dense maps.  The candidate state
is produced by a pool of modules: a controller (or a noisy top-k gate)
decides per timestep which modules contribute.  Parameters are shared
across timesteps; the selection is free to change at every step.

A modular-GRU step is one tape record with a closed-form pullback, so a
taped unroll costs about three records per timestep (embedding, [h, x],
cell step).  Under a tape the output head and the controller heads then
score all steps at once on the stacked per-step rows: every step's
activations are kept for the backward sweep anyway, so stacking them
adds only one copy.  Without a tape (E-step, probe, evaluation) each
step is scored as it goes and only the running state is kept; batching
there would hold the states of every window and step at once (evaluation
scores all windows in one unroll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from modnet.autodiff import (
    Parameter,
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
    stable_sigmoid,
    stack_rows,
    sum_over_axis,
)
from modnet.modular import (
    Controller,
    Linear,
    ModularLayer,
    ModulePool,
    NoisyTopKGate,
    enumerate_compositions,
    log_sum_exp,
    sample_rows,
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
        pool = ModulePool(rng, n_modules, cat, hidden, kind="linear", name=f"{name}.pool")
        controller = Controller(rng, cat, n_modules, n_slots, name=f"{name}.ctrl")
        self.layer = ModularLayer(pool, controller, combine="sum")
        self.controller = controller
        self.name = name

    def parameters(self) -> list[Parameter]:
        return self.update.parameters() + self.reset.parameters() + self.layer.parameters()

    def step(self, h: Tensor, x: Tensor, selection: np.ndarray, hx: Tensor | None = None) -> Tensor:
        """One gated update, recorded as a single ``modular-gru-step``.

        The forward runs with the tape paused; the pullback returns the
        gradients of h, x, [h, x], both gates and every used module.
        """
        if hx is None:
            hx = concat_last(h, x)
        pool = self.layer.pool
        sel = self.layer._validate(selection, h.shape[0])
        used = [int(j) for j in np.unique(sel)]
        # a module picked by several slots of a row counts once per slot
        counts = [(sel == j).sum(axis=1).astype(np.float64)[:, None] for j in used]
        hd, xd, hxd = h.data, x.data, hx.data
        with paused():
            z = stable_sigmoid(self.update(hx).data)
            r = stable_sigmoid(self.reset(hx).data)
            px = np.concatenate([r * hd, xd], axis=-1)
            pre = None
            for j, c in zip(used, counts):
                term = pool.apply(j, px).data * c
                pre = term if pre is None else pre + term
            cand = relu(Tensor(pre)).data
        keep = z * -1.0 + 1.0
        out = keep * hd + z * cand
        modules = [pool.modules[j] for j in used]

        def pullback(g):
            gpre = g * z * (pre > 0)
            mod_grads = []
            gpx = None
            for m, c in zip(modules, counts):
                gt = gpre * c
                mod_grads += [px.T @ gt, gt.sum(axis=0)]
                term = gt @ m.w.data.T
                gpx = term if gpx is None else gpx + term
            grh = gpx[:, : self.hidden]
            gz = (g * cand - g * hd) * z * (1.0 - z)
            gr = grh * hd * r * (1.0 - r)
            return [
                g * keep + grh * r,
                gpx[:, self.hidden :],
                gz @ self.update.w.data.T + gr @ self.reset.w.data.T,
                hxd.T @ gz,
                gz.sum(axis=0),
                hxd.T @ gr,
                gr.sum(axis=0),
                *mod_grads,
            ]

        inputs = [h, x, hx, *self.update.parameters(), *self.reset.parameters()]
        inputs += [p for m in modules for p in m.parameters()]
        return record_joint("modular-gru-step", out, inputs, pullback)


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


@dataclass
class RolloutResult:
    cond_ll: Tensor | None
    ctrl_ll: Tensor | None
    comps: np.ndarray
    token_ll: np.ndarray | None
    probs: np.ndarray | None = None
    weights: np.ndarray | None = None


class ModularGruLM:
    """Character/word model: embedding, modular GRU, vocab projection."""

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
        chooses selections: ``cond_ll`` and ``token_ll`` come back None.
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
        needs_sampling = comps is None and not greedy
        if sample_mask is not None:
            if comps is None:
                raise ValueError("sample_mask requires forced comps for unmasked rows")
            needs_sampling = True
        if needs_sampling and rng is None:
            raise ValueError("sampling rollout needs an rng")
        if comps is not None:
            comps = np.asarray(comps)
            if comps.shape != (batch, steps, self.n_slots):
                raise ValueError(
                    f"comps shape {comps.shape}, expected "
                    f"{(batch, steps, self.n_slots)}"
                )

        h: Tensor = Tensor(np.zeros((batch, self.cell.hidden)))
        cond: Tensor | None = None
        ctrl: Tensor | None = None
        states: list[Tensor] = []
        ctrl_inputs: list[Tensor] = []
        chosen = np.empty((batch, steps, self.n_slots), dtype=np.int64)
        token_ll = np.empty((batch, steps)) if scored else None
        probs_out = (
            np.empty((batch, steps, self.n_slots, self.cell.controller.n_modules))
            if collect_probs
            else None
        )
        ctrl_model = self.cell.controller
        for t in range(steps):
            x = embedding_lookup(self.embed, tokens[:, t])
            hx = concat_last(h, x)
            need_probs = collect_probs or comps is None or sample_mask is not None
            p = ctrl_model.distribution(hx) if need_probs else None
            if comps is None:
                if greedy:
                    sel = p.argmax(axis=-1).astype(np.int64)
                else:
                    sel = sample_rows(p, rng.random(p.shape[:2])).astype(np.int64)
            else:
                sel = comps[:, t]
                if sample_mask is not None:
                    drawn = sample_rows(p, rng.random(p.shape[:2])).astype(np.int64)
                    sel = np.where(sample_mask[:, None], drawn, sel)
            chosen[:, t] = sel
            if collect_probs:
                probs_out[:, t] = p
            if with_ctrl:
                cin = constant(hx) if detach_ctrl_inputs else hx
                if taped:
                    ctrl_inputs.append(cin)
                else:
                    term = ctrl_model.log_prob(cin, sel)
                    ctrl = term if ctrl is None else add(ctrl, term)
            h = self.cell.step(h, x, sel, hx=hx)
            if taped:
                states.append(h)
            elif scored:
                ll = categorical_log_prob(self.out(h), targets[:, t])
                token_ll[:, t] = ll.data
                cond = ll if cond is None else add(cond, ll)
        if taped:
            # rows are time-major (t * batch + b); summing the (steps, batch)
            # view over axis 0 adds the steps in the same order as above
            ll = categorical_log_prob(self.out(stack_rows(states)), targets.T.reshape(-1))
            token_ll[...] = ll.data.reshape(steps, batch).T
            cond = sum_over_axis(reshape(ll, (steps, batch)), axis=0)
            if with_ctrl:
                sel_rows = chosen.transpose(1, 0, 2).reshape(-1, self.n_slots)
                term = ctrl_model.log_prob(stack_rows(ctrl_inputs), sel_rows)
                ctrl = sum_over_axis(reshape(term, (steps, batch)), axis=0)
        return RolloutResult(cond, ctrl, chosen, token_ll, probs_out)

    def score(self, tokens, targets, comps) -> np.ndarray:
        """Joint log p(targets, comps | tokens) per window, value only."""
        res = self.rollout(tokens, targets, comps=comps, with_ctrl=True)
        return (add(res.cond_ll, res.ctrl_ll)).data

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

    def marginal_log_lik(
        self, tokens, targets, budget: int = 4096
    ) -> np.ndarray:
        """Exact log p(targets | tokens): enumerate selection sequences.

        The count grows as (modules**slots)**steps; guarded by ``budget``.
        """
        tokens = np.asarray(tokens)
        batch, steps = tokens.shape
        space = enumerate_compositions(self.n_modules, steps, self.n_slots, budget)
        scores = [self.score(tokens, targets, np.broadcast_to(c, (batch, *c.shape))) for c in space]
        return log_sum_exp(np.stack(scores))


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
        targets: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        collect_weights: bool = False,
    ) -> RolloutResult:
        tokens = np.asarray(tokens)
        targets = np.asarray(targets)
        if tokens.shape != targets.shape or tokens.ndim != 2:
            raise ValueError(
                f"tokens {tokens.shape} and targets {targets.shape} must be "
                "equal 2-D shapes"
            )
        batch, steps = tokens.shape
        h: Tensor = Tensor(np.zeros((batch, self.cell.hidden)))
        cond: Tensor | None = None
        token_ll = np.empty((batch, steps))
        weights = np.empty((batch, steps, self.n_modules)) if collect_weights else None
        chosen = np.empty((batch, steps, 0), dtype=np.int64)
        for t in range(steps):
            x = embedding_lookup(self.embed, tokens[:, t])
            h, w, _ = self.cell.step(h, x, train=train, rng=rng)
            if collect_weights:
                weights[:, t] = w.data
            ll = categorical_log_prob(self.out(h), targets[:, t])
            token_ll[:, t] = ll.data
            cond = ll if cond is None else add(cond, ll)
        return RolloutResult(cond, None, chosen, token_ll, None, weights)
