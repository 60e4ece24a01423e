"""Modular layers: pools of candidate transforms with per-input selection.

A layer holds a pool of interchangeable modules and a controller that, for
each input, picks which modules fill the layer's parallel slots.  Selected
outputs are combined by summation or concatenation.  The controller's
choice is a latent variable; training strategies live in ``em`` and
``baselines``.
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
    relu,
    row_softmax,
    slice_last,
    softplus,
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

    def __call__(self, x) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class ModulePool:
    """Candidate transforms sharing one input/output signature."""

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
        self.name = name

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    def apply(self, index: int, x) -> Tensor:
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
    """Inverse-CDF draw along the last axis; u has probs.shape[:-1]."""
    cum = np.cumsum(probs, axis=-1)
    idx = (u[..., None] >= cum).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def slot_counts(selection: np.ndarray, n_modules: int) -> np.ndarray:
    """How many slots of each row pick each module: (..., slots) ints to
    (..., modules) floats."""
    picks = np.asarray(selection)[..., None] == np.arange(n_modules)
    return picks.sum(axis=-2).astype(np.float64)


def choose(probs, forced=None, greedy: bool = False, rng=None, sample_mask=None) -> np.ndarray:
    """One unit's (batch, slots) selection, a unit being a layer or a timestep.

    ``forced`` when given, except the rows flagged in the boolean
    ``sample_mask``, which draw afresh; without ``forced``, the argmax of
    the (batch, slots, modules) ``probs`` when ``greedy``, else a draw with
    ``rng``.  Under a mask every row draws, and forced rows discard theirs.
    """
    if sample_mask is not None and forced is None:
        raise ValueError("sample_mask requires forced comps for unmasked rows")
    if forced is not None and sample_mask is None:
        return forced
    if greedy and forced is None:
        return probs.argmax(axis=-1).astype(np.int64)
    if rng is None:
        raise ValueError("sampling rollout needs an rng")
    drawn = sample_rows(probs, rng.random(probs.shape[:2])).astype(np.int64)
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

    def distribution(self, x) -> np.ndarray:
        """Per-slot selection probabilities, shape (batch, slots, modules).

        Value path: never recorded, even inside an active tape.
        """
        xv = x.data if isinstance(x, (Tensor, Parameter)) else np.asarray(x, dtype=np.float64)
        cols = []
        for h in self.heads:
            z = xv @ h.w.data + h.b.data
            z -= z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            cols.append(e / e.sum(axis=-1, keepdims=True))
        return np.stack(cols, axis=1)

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


class ModularLayer:
    """One pool plus the controller that routes inputs through it."""

    COMBINES = ("sum", "concat")

    def __init__(self, pool: ModulePool, controller: Controller, combine: str = "sum"):
        if combine not in self.COMBINES:
            raise ValueError(f"combine must be one of {self.COMBINES}, got {combine!r}")
        if controller.n_modules != pool.n_modules:
            raise ValueError(
                f"controller covers {controller.n_modules} modules, "
                f"pool has {pool.n_modules}"
            )
        self.pool = pool
        self.controller = controller
        self.combine = combine
        self.n_slots = controller.n_slots
        self.out_dim = pool.out_dim * (self.n_slots if combine == "concat" else 1)

    def parameters(self) -> list[Parameter]:
        return self.pool.parameters() + self.controller.parameters()

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
        combination its output is scaled by the multiplicity.
        """
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        sel = self._validate(selection, xt.shape[0])
        used = np.unique(sel)
        if self.combine == "sum":
            return self.pool.combine(xt, slot_counts(sel, self.pool.n_modules), used)
        outputs = {int(j): self.pool.apply(int(j), xt) for j in used}
        slots = []
        for k in range(self.n_slots):
            slot = None
            for j in np.unique(sel[:, k]):
                mask = (sel[:, k] == j).astype(np.float64)[:, None]
                term = mul(outputs[int(j)], constant(mask))
                slot = term if slot is None else add(slot, term)
            slots.append(slot)
        return concat_last(*slots)


class OutputHead:
    """Scores targets under a unit-variance normal centred on the activations."""

    def log_prob(self, h, y) -> Tensor:
        return gaussian_log_density(constant(np.asarray(y, dtype=np.float64)), h)


@dataclass
class RolloutResult:
    """One choose-and-score walk.  ``pred_ll`` holds the values evaluation
    reports: per token, (batch, steps), for a sequence model and per
    example, (batch,), for the net; ``outputs`` the net's final
    activations; ``probs`` the (batch, units, slots, modules) controller
    distributions along the walk; ``weights`` a mixture's gate weights."""

    cond_ll: Tensor | None
    ctrl_ll: Tensor | None
    comps: np.ndarray
    pred_ll: np.ndarray | None
    probs: np.ndarray | None = None
    weights: np.ndarray | None = None
    outputs: np.ndarray | None = None


class ModularModel:
    """The model protocol, shared by ``ModularNet`` and ``gru.ModularGruLM``.

    Inputs and targets are arrays; a composition is an integer array of
    shape (batch, units, slots), a unit being a layer or a timestep, and
    ``comps=None`` lets the controller choose.  Each model supplies
    ``rollout``, one walk that picks each unit's selection (forced, greedy
    or sampled) and scores it as it goes, and ``probe(inputs, rng,
    comps=None)`` (a ``SelectionSnapshot`` along sampled or forced paths,
    and those paths).  Given both ``comps`` and a boolean ``sample_mask``
    over the rows, ``rollout`` keeps unmasked rows forced and lets masked
    rows draw afresh, so one walk scores fixed and proposed compositions
    side by side.  On ``rollout`` this base builds ``log_liks(inputs,
    targets, comps, with_ctrl, detach_ctrl_inputs)`` (per-example
    conditional and controller log-likelihood tensors, the second None
    without ``with_ctrl``), ``score`` (joint values),
    ``propose_and_score`` (the incumbent and fresh draws with joint
    scores, from one walk over tiled rows), ``sample`` (off any tape),
    ``marginal_log_lik`` and ``evaluate(inputs, targets, comps=None)``
    (predictions or None, and conditional log-likelihoods along the
    greedy or forced path).

    The mixture models answer ``probe`` and ``evaluate`` too, and
    ``cond_log_lik(inputs, targets, train, rng)`` in place of ``log_liks``;
    their ``marginal_log_lik`` raises ValueError.
    """

    # compositions an exhaustive sum may enumerate unless told otherwise
    ENUM_BUDGET = 100_000

    def log_liks(
        self, x, y, comps, with_ctrl: bool = False, detach_ctrl_inputs: bool = False
    ) -> tuple[Tensor, Tensor | None]:
        res = self.rollout(
            x, y, comps=comps, with_ctrl=with_ctrl, detach_ctrl_inputs=detach_ctrl_inputs
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


class ModularNet(ModularModel):
    """Feedforward stack of modular layers with one output head.

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

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def n_units(self, x) -> int:
        return self.n_layers

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
        if comps is not None:
            comps = np.asarray(comps)
            if comps.ndim != 3 or comps.shape[1] != self.n_layers:
                raise ShapeError(
                    f"composition shape {comps.shape}, expected (batch, {self.n_layers}, slots)"
                )
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        chosen = np.empty((h.shape[0], self.n_layers, self.n_slots), dtype=np.int64)
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

    def probe(self, x, rng: np.random.Generator, comps=None):
        res = self.rollout(x, comps=comps, rng=rng, collect_probs=True)
        # one snapshot entry per layer
        probs, chosen = res.probs.transpose(1, 0, 2, 3), res.comps.transpose(1, 0, 2)
        return SelectionSnapshot(list(probs), list(chosen)), res.comps


class NoisyTopKGate:
    """Per-input mixture weights over a pool, sparsified to the top k.

    Training adds input-dependent Gaussian noise to the gate logits before
    the top-k cut; evaluation is noise-free.  Weights of dropped modules
    are exactly zero, as are their gradients.
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

    def weights(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, np.ndarray]:
        """Mixture weights (batch, modules) and the 0/1 survivor mask."""
        z = self.gate(x)
        if train:
            if rng is None:
                raise ValueError("training-mode gate needs an rng for noise")
            eps = rng.standard_normal(z.shape)
            z = add(z, mul(constant(eps), softplus(self.noise(x))))
        order = np.argsort(-z.data, axis=-1, kind="stable")  # ties: lower index wins
        mask = np.zeros_like(z.data)
        np.put_along_axis(mask, order[:, : self.k], 1.0, axis=-1)
        w = row_softmax(add(z, constant((1.0 - mask) * NEG_MASK)))
        return w, mask


class NoisyTopKLayer:
    """Sparse mixture layer: pool outputs blended by a noisy top-k gate."""

    def __init__(self, pool: ModulePool, gate: NoisyTopKGate):
        if gate.n_modules != pool.n_modules:
            raise ValueError(
                f"gate covers {gate.n_modules} modules, pool has {pool.n_modules}"
            )
        self.pool = pool
        self.gate = gate
        self.out_dim = pool.out_dim

    def parameters(self) -> list[Parameter]:
        return self.pool.parameters() + self.gate.parameters()

    def forward(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Returns (mixture output, weights, survivor mask)."""
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        w, mask = self.gate.weights(xt, train=train, rng=rng)
        return self.pool.combine(xt, w, np.flatnonzero(mask.any(axis=0))), w, mask


class NoisyTopKNet:
    """Feedforward stack of sparse mixture layers with one output head."""

    def __init__(self, layers: list[NoisyTopKLayer], head: OutputHead):
        if not layers:
            raise ValueError("need at least one layer")
        self.layers = layers
        self.head = head

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, list[np.ndarray], list[np.ndarray]]:
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        weights, masks = [], []
        for layer in self.layers:
            h, w, m = layer.forward(h, train=train, rng=rng)
            weights.append(w.data)
            masks.append(m)
        return h, weights, masks

    def cond_log_lik(
        self, x, y, train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        h, _, _ = self.forward(x, train=train, rng=rng)
        return self.head.log_prob(h, y)

    def probe(self, x, rng=None, comps=None):
        """Noise-free gate weights as one-head distributions; the path is
        each layer's heaviest module.  ``rng`` and ``comps`` are unused."""
        _, weights, _ = self.forward(x)
        probs = [w[:, None, :] for w in weights]
        paths = np.stack([w.argmax(axis=-1)[:, None] for w in weights], axis=1)
        return SelectionSnapshot(probs, list(paths.transpose(1, 0, 2))), paths

    def evaluate(self, x, y, comps=None) -> tuple[np.ndarray, np.ndarray]:
        h, _, _ = self.forward(x)
        return h.data, self.head.log_prob(h, y).data

    def marginal_log_lik(self, x, y, budget: int = 0) -> np.ndarray:
        raise ValueError("mixture gating has no compositions to enumerate")
