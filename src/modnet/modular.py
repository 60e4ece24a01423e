"""Modular layers: pools of candidate transforms with per-input routing.

A layer holds a pool of interchangeable modules and one router: a
controller that, for each input, picks which modules fill the layer's
parallel slots, combined by summation or concatenation; or a noisy top-k
gate that mixes the pool's outputs with sparse weights.  The controller's
choice is a latent variable; training strategies live in ``em`` and
``baselines``.

The models form a grid: a feedforward stack (``_Stack``) or a GRU
language model (``gru._GruLM``), under the controller protocol
(``ModularModel``) or the mixture protocol (``MixtureModel``).  Each
concrete model writes only its ``rollout``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from modnet.autodiff import (
    NEG_MASK,
    Parameter,
    ShapeError,
    Tensor,
    add,
    categorical_log_prob,
    concat_last,
    constant,
    gaussian_log_density,
    matmul,
    mul,
    paused,
    record_joint,
    relu,
    slice_last,
    softmax_parts,
    softmax_parts_first,
    stable_sigmoid,
)
from modnet.diagnostics import SelectionSnapshot


class Linear:
    """Affine map with uniform +-1/sqrt(fan_in) weights and zero biases."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, name: str):
        bound = 1.0 / math.sqrt(in_dim)
        self.w = Parameter(rng.uniform(-bound, bound, size=(in_dim, out_dim)), f"{name}.w")
        self.b = Parameter(np.zeros(out_dim), f"{name}.b")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name

    def __call__(self, x):
        """``x @ w + b``.  A plain array in gives a plain array out, with no
        ``Tensor`` built; anything else gives a ``Tensor``, recorded under
        an active tape."""
        if isinstance(x, np.ndarray):
            return x @ self.w.data + self.b.data
        return add(matmul(x, self.w), self.b)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class ModulePool:
    """Candidate transforms sharing one input/output signature.

    The modules' weights live in one module-major (modules, in, out)
    buffer and their biases in one (modules, out) buffer; each module's
    ``Parameter.data`` is a view into them, so updates in place (an
    optimizer's ``p.data += ...``, a checkpoint load's ``p.data[...] =``)
    reach the stacked buffers too.  Names, order and initial draws stay
    per module.
    """

    KINDS = ("linear", "linear-relu")

    def __init__(
        self,
        rng: np.random.Generator,
        n_modules: int,
        in_dim: int,
        out_dim: int,
        kind: str = "linear-relu",
        name: str = "pool",
    ):
        if kind not in self.KINDS:
            raise ValueError(f"module kind must be one of {self.KINDS}, got {kind!r}")
        if n_modules < 1:
            raise ValueError("pool needs at least one module")
        self.kind = kind
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.modules = [
            Linear(rng, in_dim, out_dim, f"{name}.m{i}") for i in range(n_modules)
        ]
        self.weights = np.stack([m.w.data for m in self.modules])
        self.biases = np.stack([m.b.data for m in self.modules])
        for m, w, b in zip(self.modules, self.weights, self.biases):
            m.w.data, m.b.data = w, b
        self.name = name

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    def apply(self, index: int | None, x):
        """Module ``index`` on x, rectified for ``linear-relu``.  As with
        ``Linear``, a plain array in gives a plain array out and a
        ``Tensor`` in gives a ``Tensor`` out.

        With ``index`` None, every module on the plain (batch, in) array x
        at once, as a (modules, batch, out) array: one batched matmul runs
        each module's own product, so each slice has the bits of that
        module's single call.
        """
        if index is None:
            h = np.matmul(x, self.weights)
            h += self.biases[:, None, :]
        else:
            h = self.modules[index](x)
        return relu(h) if self.kind == "linear-relu" else h

    def combine(self, x, weights, used) -> Tensor:
        """Outputs on x of the modules ``used``, each scaled by its column
        of the (batch, modules) ``weights`` and summed.

        ``weights`` holds slot counts or gate weights.  Modules outside
        ``used`` are never evaluated; a row whose weight for a used module
        is zero gets exact zeros from it.
        """
        out = None
        for j in used:
            term = mul(self.apply(int(j), x), slice_last(weights, int(j), int(j) + 1))
            out = term if out is None else add(out, term)
        return out

    def parameters(self) -> list[Parameter]:
        return [p for m in self.modules for p in m.parameters()]


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw along the last axis; u has probs.shape[:-1].

    It runs down axis 0 of the module-first block ``probs.T``, in long
    contiguous runs, with each row's additions in the row's order.  The
    view ``Controller.distribution`` returns is read in place; anything
    else is copied into that layout first.
    """
    cum = np.cumsum(np.ascontiguousarray(probs.T), axis=0)
    idx = (u.T >= cum).sum(axis=0)
    return np.minimum(idx, len(cum) - 1).T


def slot_counts(selection: np.ndarray, n_modules: int) -> np.ndarray:
    """How many slots of each row pick each module: (..., slots) ints to
    (..., modules) floats.  One comparison against every module index and
    one sum over the slots fill a module-major block, returned as a view:
    for a (batch, slots) selection, ``counts.T`` is a contiguous (modules,
    batch) array."""
    sel = np.asarray(selection).T
    picks = sel == np.arange(n_modules).reshape(-1, *(1,) * sel.ndim)
    return picks.sum(axis=1, dtype=np.float64).T


def choose(probs, forced=None, greedy: bool = False, rng=None, sample_mask=None) -> np.ndarray:
    """One unit's (batch, slots) selection, a unit being a layer or a timestep.

    ``forced`` when given, except the rows flagged in the boolean
    ``sample_mask``, which draw afresh; without ``forced``, the argmax of
    the (batch, slots, modules) ``probs`` when ``greedy``, else a draw with
    ``rng``.  Under a mask every row draws, and forced rows discard theirs.

    ``probs`` is best the view of a module-major (modules, slots, batch)
    block that ``Controller.distribution`` returns: ``sample_rows`` then
    draws on the block in place.  The uniforms are one (batch, slots)
    draw whatever the layout.  The argmax is numpy's, which copies the
    module axis last in either layout.
    """
    if sample_mask is not None and forced is None:
        raise ValueError("sample_mask requires forced comps for unmasked rows")
    if forced is not None and sample_mask is None:
        return forced
    if greedy and forced is None:
        return probs.argmax(axis=-1).astype(np.int64)
    if rng is None:
        raise ValueError("sampling rollout needs an rng")
    drawn = sample_rows(probs, rng.random(probs.shape[:2])).astype(np.int64, copy=False)
    return drawn if forced is None else np.where(sample_mask[:, None], drawn, forced)


def enumerate_compositions(n_modules: int, units: int, slots: int, budget: int) -> np.ndarray:
    """Every composition shared by a whole batch, shape (N, units, slots).

    A unit is a layer or a timestep.  The order is lexicographic over the
    flattened (unit, slot) choices, unit-major; refuses past ``budget``.
    """
    n = n_modules ** (units * slots)
    if n > budget:
        raise ValueError(f"{n} compositions exceed enumeration budget {budget}")
    flat = list(itertools.product(range(n_modules), repeat=units * slots))
    return np.asarray(flat, dtype=np.int64).reshape(n, units, slots)


def log_sum_exp(scores: np.ndarray) -> np.ndarray:
    """Stable log of the sum of exp(scores) over axis 0."""
    m = scores.max(axis=0)
    return m + np.log(np.exp(scores - m).sum(axis=0))


class Controller:
    """Independent selection heads, each a linear-softmax over the pool.

    The joint selection probability factorizes across slots, so
    distributions and log-probabilities both decompose head by head.

    Off the tape a step works module-major: every head's logits,
    shifted logits and exponentials live in one C-contiguous (modules,
    slots, rows) block, so each numpy call runs along the long rows axis
    instead of once per short row of ``n_modules`` entries.  The values
    keep the row-major bits: each head's product ``x @ w`` is formed
    row-major before the bias is added module-major, and
    ``softmax_parts_first`` normalises the block, its sums over modules
    taking a row-major copy from 8 modules on, where numpy sums a row
    pairwise.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        n_modules: int,
        n_slots: int,
        name: str = "ctrl",
    ):
        if n_slots < 1:
            raise ValueError("controller needs at least one slot")
        self.in_dim = in_dim
        self.n_modules = n_modules
        self.n_slots = n_slots
        self.heads = [
            Linear(rng, in_dim, n_modules, f"{name}.h{k}") for k in range(n_slots)
        ]
        self.name = name

    def parameters(self) -> list[Parameter]:
        return [p for h in self.heads for p in h.parameters()]

    def parts(self, x) -> tuple:
        """The pieces of every head's stabilized softmax on x: the shifted
        logits ``z`` and ``exp(z)``, both (modules, slots, rows), and the
        sums of ``exp(z)`` over modules, (slots, rows).  ``distribution``
        and ``log_prob_values`` share them, so a step that draws and
        scores normalises its logits once."""
        xv = x.data if isinstance(x, (Tensor, Parameter)) else np.asarray(x, dtype=np.float64)
        logits = np.empty((self.n_modules, self.n_slots, len(xv)))
        for k, h in enumerate(self.heads):
            np.add((xv @ h.w.data).T, h.b.data[:, None], out=logits[:, k])
        return softmax_parts_first(logits)

    def distribution(self, x, parts: tuple | None = None) -> np.ndarray:
        """Per-slot selection probabilities, shape (batch, slots, modules),
        from the heads' ``parts`` on x when given: a view of a
        module-major block, which ``choose`` draws on in place.

        Value path: never recorded, even inside an active tape.
        """
        _, e, s = self.parts(x) if parts is None else parts
        return (e / s).T

    @staticmethod
    def log_prob_values(parts: tuple, selection: np.ndarray) -> np.ndarray:
        """The value of ``log_prob`` from the heads' ``parts``, on plain
        arrays: each head's picked shifted logit less the log of its sum,
        added head by head."""
        z, _, s = parts
        rows, log_s = np.arange(z.shape[-1]), np.log(s)
        total = None
        for k in range(z.shape[1]):
            term = z[selection[:, k], k, rows] - log_s[k]
            total = term if total is None else total + term
        return total

    def log_prob(self, x, selection: np.ndarray) -> Tensor:
        """log p(selection | x) as a differentiable (batch,) tensor."""
        sel = np.asarray(selection)
        if sel.ndim != 2 or sel.shape[1] != self.n_slots:
            raise ShapeError(
                f"selection shape {sel.shape} does not match {self.n_slots} slots"
            )
        total = None
        for k, head in enumerate(self.heads):
            term = categorical_log_prob(head(x), sel[:, k])
            total = term if total is None else add(total, term)
        return total


def top_k_mask(z: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask of the k largest entries of each row of z; among equal
    values the lower index wins, as in a stable descending argsort.

    Entry j of a row becomes the complex key ``-z_j + i*j``.  numpy sorts
    and compares complex numbers by real part, then imaginary part, so the
    keys are distinct and come in exactly that order; an entry survives
    iff its key is at most the row's k-th smallest key.  One value sort
    and one comparison replace the argsort and the scatter.  A row with a
    NaN logit may keep another set of modules than the argsort would;
    its weights are all NaN either way.
    """
    key = 1j * np.arange(z.shape[-1]) - z
    return (key <= np.sort(key, axis=-1)[..., k - 1 : k]).astype(np.float64)


class NoisyTopKGate:
    """Per-input mixture weights over a pool, sparsified to the top k.

    Training adds input-dependent Gaussian noise to the gate logits before
    the top-k cut; evaluation is noise-free.  Weights of dropped modules
    are exactly zero, as are their gradients.

    The math is written once, in raw numpy: ``forward`` computes the
    weights and ``pullback`` turns a gradient of the weights into
    gradients of the two sets of logits, gate and noise scale.  ``weights``
    records them as one ``noisy-topk-gate`` tape op for the feedforward
    layer; the recurrent cell calls them inside its own backpropagation
    through time.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        n_modules: int,
        k: int,
        name: str = "gate",
    ):
        if not 1 <= k <= n_modules:
            raise ValueError(f"top-k width {k} outside [1, {n_modules}]")
        self.k = k
        self.n_modules = n_modules
        self.gate = Linear(rng, in_dim, n_modules, f"{name}.gate")
        self.noise = Linear(rng, in_dim, n_modules, f"{name}.noise")
        self.name = name

    def parameters(self) -> list[Parameter]:
        return self.gate.parameters() + self.noise.parameters()

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None):
        """Mixture weights (batch, modules), the 0/1 survivor mask, and the
        noise terms ``pullback`` needs: the draws and the slope of the
        softplus noise scale, or None without noise."""
        z = x @ self.gate.w.data + self.gate.b.data
        noise = None
        if train:
            if rng is None:
                raise ValueError("training-mode gate needs an rng for noise")
            eps = rng.standard_normal(z.shape)
            pre = x @ self.noise.w.data + self.noise.b.data
            z = z + eps * np.logaddexp(0.0, pre)
            noise = (eps, stable_sigmoid(pre))
        mask = top_k_mask(z, self.k)
        z = z + (1.0 - mask) * NEG_MASK
        _, e, s = softmax_parts(z)
        return e / s, mask, noise

    @staticmethod
    def pullback(w: np.ndarray, noise, g_w: np.ndarray):
        """Gradients of the gate logits and of the noise-scale logits (zero
        without noise), given the weights ``w`` and their gradient ``g_w``."""
        g = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        return g, np.zeros_like(g) if noise is None else g * noise[0] * noise[1]

    def weights(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, np.ndarray]:
        """Mixture weights (batch, modules) as one tape record, and the 0/1
        survivor mask."""
        xd = x.data if isinstance(x, (Tensor, Parameter)) else np.asarray(x, dtype=np.float64)
        w, mask, noise = self.forward(xd, train, rng)
        gw, nw = self.gate.w.data, self.noise.w.data

        def pullback(g):
            g_gate, g_noise = self.pullback(w, noise, g)
            g_x = g_gate @ gw.T + g_noise @ nw.T
            return [g_x, xd.T @ g_gate, g_gate.sum(axis=0), xd.T @ g_noise, g_noise.sum(axis=0)]

        return record_joint("noisy-topk-gate", w, [x, *self.parameters()], pullback), mask


class ModularLayer:
    """One pool plus its router: a ``Controller``, whose slot choices
    ``forward_selected`` runs, or a ``NoisyTopKGate``, whose sparse mixture
    ``forward_mixed`` runs.  The layer sets ``controller`` or ``gate`` and
    leaves the other None; a gated layer sums, with one slot."""

    COMBINES = ("sum", "concat")

    def __init__(self, pool: ModulePool, router, combine: str = "sum"):
        if combine not in self.COMBINES:
            raise ValueError(f"combine must be one of {self.COMBINES}, got {combine!r}")
        if router.n_modules != pool.n_modules:
            raise ValueError(
                f"router covers {router.n_modules} modules, pool has {pool.n_modules}"
            )
        gated = isinstance(router, NoisyTopKGate)
        if gated and combine != "sum":
            raise ValueError("a noisy top-k gate sums its weighted module outputs")
        self.pool = pool
        self.controller, self.gate = (None, router) if gated else (router, None)
        self.combine = combine
        self.n_slots = 1 if gated else router.n_slots
        self.out_dim = pool.out_dim * (self.n_slots if combine == "concat" else 1)

    def parameters(self) -> list[Parameter]:
        return self.pool.parameters() + (self.gate or self.controller).parameters()

    def _validate(self, selection: np.ndarray, batch: int) -> np.ndarray:
        sel = np.asarray(selection)
        if sel.shape != (batch, self.n_slots):
            raise ShapeError(
                f"selection shape {sel.shape}, expected {(batch, self.n_slots)}"
            )
        if sel.size and (sel.min() < 0 or sel.max() >= self.pool.n_modules):
            raise ShapeError(
                f"module index out of range [0, {self.pool.n_modules})"
            )
        return sel

    def forward_selected(self, x, selection: np.ndarray) -> Tensor:
        """Evaluate the layer under a fixed selection, shape (batch, slots).

        Only modules that appear in the selection are run.  A module chosen
        by several slots of the same input counts once per slot: under sum
        combination its output is scaled by the multiplicity; under concat
        each slot is its own one-hot combination.
        """
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        sel = self._validate(selection, xt.shape[0])
        n = self.pool.n_modules
        if self.combine == "sum":
            return self.pool.combine(xt, slot_counts(sel, n), np.unique(sel))
        return concat_last(*(
            self.pool.combine(xt, slot_counts(sel[:, k : k + 1], n), np.unique(sel[:, k]))
            for k in range(self.n_slots)
        ))

    def forward_mixed(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """The gate's mixture of the pool on x: (output, weights, survivor
        mask).  Modules that no row keeps are never run."""
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        w, mask = self.gate.weights(xt, train=train, rng=rng)
        return self.pool.combine(xt, w, np.flatnonzero(mask.any(axis=0))), w, mask


class OutputHead:
    """Scores targets under a unit-variance normal centred on the activations."""

    def log_prob(self, h, y) -> Tensor:
        return gaussian_log_density(constant(np.asarray(y, dtype=np.float64)), h)


@dataclass
class RolloutResult:
    """One choose-and-score walk.  ``pred_ll`` holds the values evaluation
    reports: per token, (batch, steps), for a sequence model and per
    example, (batch,), for a net; ``outputs`` a net's final activations;
    ``probs`` the (batch, units, slots, modules) routing distributions
    along the walk: a controller's, or a mixture's gate weights as
    one-head distributions.  A mixture's ``comps`` have no slots."""

    cond_ll: Tensor | None
    ctrl_ll: Tensor | None
    comps: np.ndarray
    pred_ll: np.ndarray | None
    probs: np.ndarray | None = None
    outputs: np.ndarray | None = None


class ModularModel:
    """The controller protocol, shared by ``ModularNet`` and
    ``gru.ModularGruLM``.

    Inputs and targets are arrays; a composition is an integer array of
    shape (batch, units, slots), a unit being a layer or a timestep, and
    ``comps=None`` lets the controller choose.  Each model supplies
    ``rollout``, one walk that picks each unit's selection (forced, greedy
    or sampled) and scores it as it goes; its architecture supplies
    ``snapshot`` and ``n_units``.  Given both ``comps`` and a boolean ``sample_mask``
    over the rows, ``rollout`` keeps unmasked rows forced and lets masked
    rows draw afresh, so one walk scores fixed and proposed compositions
    side by side.  On ``rollout`` this base builds ``log_liks(inputs,
    targets, comps, with_ctrl, detach_ctrl_inputs, rng)`` (per-example
    conditional and controller log-likelihood tensors, the second None
    without ``with_ctrl``; with ``comps`` None the same walk draws the
    compositions with ``rng``), ``score`` (joint values),
    ``propose_and_score`` (the incumbent and fresh draws with joint
    scores, from one walk over tiled rows), ``sample`` (off any tape),
    ``probe(inputs, rng, comps=None)`` (a ``SelectionSnapshot`` along
    sampled or forced paths, and those paths), ``marginal_log_lik`` and
    ``evaluate(inputs, targets, comps=None)`` (predictions or None, and
    conditional log-likelihoods along the greedy or forced path).
    """

    # compositions an exhaustive sum may enumerate unless told otherwise
    ENUM_BUDGET = 100_000

    def log_liks(
        self, x, y, comps, with_ctrl: bool = False, detach_ctrl_inputs: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor | None]:
        res = self.rollout(
            x, y, comps=comps, rng=rng, with_ctrl=with_ctrl,
            detach_ctrl_inputs=detach_ctrl_inputs,
        )
        return res.cond_ll, res.ctrl_ll

    def score(self, x, y, comps) -> np.ndarray:
        """Joint log p(y, comps | x) per example, value only."""
        return add(*self.log_liks(x, y, comps, with_ctrl=True)).data

    def propose_and_score(self, x, y, incumbent, n_samples: int, rng: np.random.Generator):
        """The incumbent, then ``n_samples`` controller draws, all drawn and
        scored in one walk over the rows tiled ``n_samples + 1`` times.

        Returns (candidates, scores) of shapes (n_samples+1, batch, units,
        slots) and (n_samples+1, batch); index 0 is the incumbent.
        """
        batch, tile = len(incumbent), n_samples + 1
        x, y, forced = (np.concatenate([np.asarray(a)] * tile) for a in (x, y, incumbent))
        mask = np.arange(tile * batch) >= batch
        res = self.rollout(x, y, comps=forced, sample_mask=mask, rng=rng, with_ctrl=True)
        scores = add(res.cond_ll, res.ctrl_ll).data.reshape(tile, batch)
        return res.comps.reshape(tile, batch, *res.comps.shape[1:]), scores

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        # off any tape, and without targets the walk skips the output head
        with paused():
            return self.rollout(x, rng=rng).comps

    def probe(self, x, rng: np.random.Generator, comps=None):
        res = self.rollout(x, comps=comps, rng=rng, collect_probs=True)
        return self.snapshot(res.probs, res.comps), res.comps

    def evaluate(self, x, y, comps=None) -> tuple[np.ndarray | None, np.ndarray]:
        res = self.rollout(x, y, comps=comps, greedy=True)
        return res.outputs, res.pred_ll

    def enumerate_and_score(self, x, y, budget: int | None = None):
        """Every batch-shared composition, shape (N, batch, units, slots),
        and its joint scores (N, batch); refuses past ``budget``."""
        budget = self.ENUM_BUDGET if budget is None else budget
        space = enumerate_compositions(self.n_modules, self.n_units(x), self.n_slots, budget)
        shared = np.broadcast_to(space[:, None], (len(space), len(x), *space.shape[1:]))
        return shared, np.stack([self.score(x, y, c) for c in shared])

    def marginal_log_lik(self, x, y, budget: int | None = None) -> np.ndarray:
        """Exact log p(y | x) per example: the joint summed over every
        composition."""
        return log_sum_exp(self.enumerate_and_score(x, y, budget)[1])


class MixtureModel:
    """The mixture protocol, shared by ``NoisyTopKNet`` and
    ``gru.NoisyTopKGruLM``.  Each model supplies ``rollout(inputs,
    targets=None, train=False, rng=None, collect_probs=False)``, one walk
    that mixes each unit's modules by its gate (noisy with ``rng`` when
    ``train``); its ``probs`` hold the gate weights as one-head
    distributions.  On it this base builds ``cond_log_lik(inputs, targets,
    train, rng)``, ``probe`` and ``evaluate``; ``marginal_log_lik`` raises
    ValueError, as there are no compositions to enumerate."""

    def cond_log_lik(
        self, x, y, train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        return self.rollout(x, y, train=train, rng=rng).cond_ll

    def probe(self, x, rng=None, comps=None):
        """Noise-free gate weights as one-head distributions; the path is
        each unit's heaviest module.  ``rng`` and ``comps`` are unused."""
        probs = self.rollout(x, collect_probs=True).probs
        paths = probs.argmax(axis=-1)
        return self.snapshot(probs, paths), paths

    def evaluate(self, x, y, comps=None) -> tuple[np.ndarray | None, np.ndarray]:
        res = self.rollout(x, y)
        return res.outputs, res.pred_ll

    def marginal_log_lik(self, x, y, budget: int | None = None) -> np.ndarray:
        raise ValueError("mixture gating has no compositions to enumerate")


class _Stack:
    """Feedforward stack of modular layers with one output head, shared by
    both feedforward models.

    ``comps[b, l]`` holds the modules that example b runs at layer l.
    Every layer shares one pool size and one slot count.
    """

    def __init__(self, layers: list[ModularLayer], head: OutputHead):
        if not layers:
            raise ValueError("need at least one modular layer")
        shapes = {(layer.pool.n_modules, layer.n_slots) for layer in layers}
        if len(shapes) != 1:
            raise ValueError(f"layers must share one (n_modules, n_slots), got {sorted(shapes)}")
        ((self.n_modules, self.n_slots),) = shapes
        self.layers = layers
        self.head = head

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def n_units(self, x) -> int:
        return len(self.layers)

    @staticmethod
    def snapshot(probs: np.ndarray, comps: np.ndarray) -> SelectionSnapshot:
        """(batch, layers, slots, modules) distributions and (batch, layers,
        slots) choices, one snapshot entry per layer."""
        return SelectionSnapshot(
            list(probs.transpose(1, 0, 2, 3)), list(comps.transpose(1, 0, 2))
        )


class ModularNet(_Stack, ModularModel):
    """Feedforward stack whose layers are routed by controllers."""

    def rollout(
        self,
        x,
        y=None,
        comps: np.ndarray | None = None,
        sample_mask: np.ndarray | None = None,
        greedy: bool = False,
        rng: np.random.Generator | None = None,
        with_ctrl: bool = False,
        detach_ctrl_inputs: bool = False,
        collect_probs: bool = False,
    ) -> RolloutResult:
        """Walk the stack once, choosing and scoring each layer as it goes.

        Layer l runs ``comps[:, l]`` when given, else the controller's
        greedy or sampled choice on the layer's realized input; rows
        flagged in ``sample_mask`` draw afresh.  With ``with_ctrl`` the
        controller scores that choice on the same input;
        ``detach_ctrl_inputs`` blocks its gradient into earlier layers.
        The head scores ``y`` only when given.
        """
        n_layers = len(self.layers)
        if comps is not None:
            comps = np.asarray(comps)
            if comps.ndim != 3 or comps.shape[1] != n_layers:
                raise ShapeError(
                    f"composition shape {comps.shape}, expected (batch, {n_layers}, slots)"
                )
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        chosen = np.empty((h.shape[0], n_layers, self.n_slots), dtype=np.int64)
        probs = np.empty((*chosen.shape, self.n_modules)) if collect_probs else None
        ctrl_ll: Tensor | None = None
        for l, layer in enumerate(self.layers):
            forced = None if comps is None else comps[:, l]
            need_probs = collect_probs or forced is None or sample_mask is not None
            p = layer.controller.distribution(h) if need_probs else None
            sel = choose(p, forced, greedy, rng, sample_mask)
            if with_ctrl:
                inp = constant(h) if detach_ctrl_inputs else h
                term = layer.controller.log_prob(inp, sel)
                ctrl_ll = term if ctrl_ll is None else add(ctrl_ll, term)
            h = layer.forward_selected(h, sel)
            chosen[:, l] = sel
            if collect_probs:
                probs[:, l] = p
        cond = None if y is None else self.head.log_prob(h, y)
        pred_ll = None if cond is None else cond.data
        return RolloutResult(cond, ctrl_ll, chosen, pred_ll, probs, outputs=h.data)


class NoisyTopKNet(_Stack, MixtureModel):
    """Feedforward stack whose layers are sparse mixtures under noisy
    top-k gates."""

    def rollout(
        self,
        x,
        y=None,
        train: bool = False,
        rng: np.random.Generator | None = None,
        collect_probs: bool = False,
    ) -> RolloutResult:
        """Walk the stack once, mixing each layer by its gate; the head
        scores ``y`` only when given."""
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        batch, n_layers = h.shape[0], len(self.layers)
        probs = np.empty((batch, n_layers, 1, self.n_modules)) if collect_probs else None
        for l, layer in enumerate(self.layers):
            h, w, _ = layer.forward_mixed(h, train=train, rng=rng)
            if collect_probs:
                probs[:, l, 0] = w.data
        cond = None if y is None else self.head.log_prob(h, y)
        pred_ll = None if cond is None else cond.data
        chosen = np.empty((batch, n_layers, 0), dtype=np.int64)
        return RolloutResult(cond, None, chosen, pred_ll, probs, outputs=h.data)
