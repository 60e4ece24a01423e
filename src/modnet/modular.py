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
    softplus,
    sum_over_axis,
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

    def mix(self, x, w: Tensor, mask: np.ndarray) -> Tensor:
        """Outputs on x blended by the (batch, modules) weights ``w``.

        Modules outside every row's 0/1 ``mask`` are never evaluated; rows
        that dropped a run module contribute exact zeros through ``w``.
        """
        out = None
        for j in np.unique(np.nonzero(mask)[1]):
            onehot = np.zeros(self.n_modules)
            onehot[j] = 1.0
            wj = sum_over_axis(mul(w, constant(onehot)), axis=-1, keepdims=True)
            term = mul(self.apply(int(j), x), wj)
            out = term if out is None else add(out, term)
        return out

    def parameters(self) -> list[Parameter]:
        return [p for m in self.modules for p in m.parameters()]


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw along the last axis; u has probs.shape[:-1]."""
    cum = np.cumsum(probs, axis=-1)
    idx = (u[..., None] >= cum).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


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


def enumerate_and_score(model, x, y, units: int, budget: int):
    """Every batch-shared composition of ``model``, shape (N, batch, units,
    slots), and its joint scores (N, batch)."""
    space = enumerate_compositions(model.n_modules, units, model.n_slots, budget)
    shared = np.broadcast_to(space[:, None], (len(space), len(x), *space.shape[1:]))
    return shared, np.stack([model.score(x, y, c) for c in shared])


def log_sum_exp(scores: np.ndarray) -> np.ndarray:
    """Stable log of the sum of exp(scores) over axis 0."""
    m = scores.max(axis=0)
    return m + np.log(np.exp(scores - m).sum(axis=0))


class Controller:
    """Independent selection heads, each a linear-softmax over the pool.

    The joint selection probability factorizes across slots, so sampling,
    argmax, and log-probabilities all decompose head by head.
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

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        probs = self.distribution(x)
        u = rng.random(probs.shape[:2])
        return sample_rows(probs, u).astype(np.int64)

    def greedy(self, x) -> np.ndarray:
        return self.distribution(x).argmax(axis=-1).astype(np.int64)


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
            out = None
            for j in used:
                counts = (sel == j).sum(axis=1).astype(np.float64)[:, None]
                term = mul(self.pool.apply(int(j), xt), constant(counts))
                out = term if out is None else add(out, term)
            return out
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


class ModularNet:
    """Feedforward stack of modular layers with one output head.

    A composition is an integer array of shape (batch, layers, slots):
    ``comps[b, l]`` holds the modules that example b runs at layer l.
    Every layer shares one pool size and one slot count.

    Model protocol, shared with ``gru.ModularGruLM``; inputs and targets
    are arrays, and ``comps=None`` lets the controller choose:

    - ``log_liks(inputs, targets, comps, with_ctrl, detach_ctrl_inputs)``
      gives the per-example conditional and controller log-likelihood
      tensors, the second None without ``with_ctrl``;
    - ``score`` and ``propose_and_score`` give joint log-probabilities as
      values, ``sample`` draws compositions off any tape, and
      ``marginal_log_lik`` sums the joint over every composition;
    - ``probe(inputs, rng, comps=None)`` gives a ``SelectionSnapshot`` of
      the controller along sampled (or forced) paths, and those paths;
    - ``evaluate(inputs, targets, comps=None)`` gives (predictions or
      None, conditional log-likelihoods) along the greedy (or forced) path.

    The mixture models answer ``probe`` and ``evaluate`` too, and
    ``cond_log_lik(inputs, targets, train, rng)`` in place of ``log_liks``;
    their ``marginal_log_lik`` raises ValueError.
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

    def forward(
        self,
        x,
        comps,
        with_ctrl: bool = False,
        detach_ctrl_inputs: bool = False,
    ) -> tuple[Tensor, Tensor | None]:
        """Run the stack under a fixed composition.

        Returns the final activations and, when requested, the summed
        controller log-probability of the composition.  Each controller
        sees the layer's realized input.  ``detach_ctrl_inputs`` blocks
        gradient flow from controller scores back into earlier layers.
        """
        comps = np.asarray(comps)
        if comps.ndim != 3 or comps.shape[1] != self.n_layers:
            raise ShapeError(
                f"composition shape {comps.shape}, expected (batch, {self.n_layers}, slots)"
            )
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        ctrl_ll: Tensor | None = None
        for l, layer in enumerate(self.layers):
            if with_ctrl:
                inp = constant(h) if detach_ctrl_inputs else h
                term = layer.controller.log_prob(inp, comps[:, l])
                ctrl_ll = term if ctrl_ll is None else add(ctrl_ll, term)
            h = layer.forward_selected(h, comps[:, l])
        return h, ctrl_ll

    def log_liks(
        self, x, y, comps, with_ctrl: bool = False, detach_ctrl_inputs: bool = False
    ) -> tuple[Tensor, Tensor | None]:
        h, ctrl_ll = self.forward(x, comps, with_ctrl, detach_ctrl_inputs)
        return self.head.log_prob(h, y), ctrl_ll

    def score(self, x, y, comps) -> np.ndarray:
        """Joint log p(y, comps | x) per example, value only."""
        return add(*self.log_liks(x, y, comps, with_ctrl=True)).data

    def trace(
        self,
        x,
        rng: np.random.Generator | None = None,
        greedy: bool = False,
        comps: np.ndarray | None = None,
    ):
        """Walk the stack choosing selections on the fly, off any tape.

        Selections are ``comps[:, l]`` when forced, else greedy or sampled.
        Returns (comps, probs): the realized composition, shape (batch,
        layers, slots), and each controller's distribution along it, a
        list of (batch, slots, modules) arrays.
        """
        if comps is None and not greedy and rng is None:
            raise ValueError("sampling trace needs an rng")
        h = np.asarray(x, dtype=np.float64)
        chosen, probs = [], []
        with paused():
            for l, layer in enumerate(self.layers):
                p = layer.controller.distribution(h)
                if comps is not None:
                    sel = np.asarray(comps[:, l])
                elif greedy:
                    sel = p.argmax(axis=-1).astype(np.int64)
                else:
                    sel = sample_rows(p, rng.random(p.shape[:2])).astype(np.int64)
                chosen.append(sel)
                probs.append(p)
                h = layer.forward_selected(Tensor(h), sel).data
        return np.stack(chosen, axis=1), probs

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        return self.trace(x, rng=rng)[0]

    def propose_and_score(self, x, y, incumbent, n_samples: int, rng: np.random.Generator):
        """The incumbent, then ``n_samples`` controller draws, and their scores.

        Returns (candidates, scores) of shapes (n_samples+1, batch, layers,
        slots) and (n_samples+1, batch); index 0 is the incumbent.
        """
        cands = np.stack([np.asarray(incumbent)] + [self.sample(x, rng) for _ in range(n_samples)])
        return cands, np.stack([self.score(x, y, c) for c in cands])

    def probe(self, x, rng: np.random.Generator, comps=None):
        comps, probs = self.trace(x, rng=rng, comps=comps)
        return SelectionSnapshot(probs, list(comps.transpose(1, 0, 2))), comps

    def evaluate(self, x, y, comps=None) -> tuple[np.ndarray, np.ndarray]:
        if comps is None:
            comps = self.trace(x, greedy=True)[0]
        h, _ = self.forward(x, comps)
        return h.data, self.head.log_prob(h, y).data

    def marginal_log_lik(self, x, y, budget: int = 100_000) -> np.ndarray:
        """Exact log p(y | x) per example, summing the joint over every
        composition; refuses past ``budget`` compositions."""
        return log_sum_exp(enumerate_and_score(self, x, y, self.n_layers, budget)[1])


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
        return self.pool.mix(xt, w, mask), w, mask


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
