"""Modular layers: pools of candidate transforms with per-input routing.

A layer holds a pool of interchangeable modules and one router: a
controller that, for each input, picks which modules fill the layer's
parallel slots and sums their outputs; or a noisy top-k gate that mixes
the pool's outputs with sparse weights.  The controller's choice is a
latent variable; training strategies live in ``em`` and ``baselines``.

The models form a grid: a feedforward stack (``_Stack``) or a GRU
language model (``gru._GruLM``), under the controller protocol
(``ModularModel``) or the mixture protocol (``MixtureModel``).  Each
concrete model writes only its ``rollout``; both controller-routed ones
take the same ``Routing`` step at every unit, a layer or a timestep.
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
    active_tape,
    add,
    categorical_head,
    constant,
    gaussian_log_density,
    matmul,
    record_joint,
    relu,
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
        self.out_dim = out_dim

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
    """Candidate transforms sharing one input/output signature, stored as
    one ``Parameter``: a module-major (modules, in + 1, out) buffer, module
    i's weights in rows ``[i, :in]`` and its bias in row ``[i, in]``, of
    which ``weights`` and ``biases`` are views.  Flattened, it runs ``m0.w,
    m0.b, m1.w, ...``, its named pieces, so checkpoints and optimizer state
    keep one array per module weight and bias.  One draw, in module order,
    gives the weights each module's own ``Linear`` drew; biases start at 0.

    One rule dispatches the pool under either router: ``apply`` runs every
    module on a batch in one stacked call, and each row's outputs are
    weighted by one (batch, modules) array and summed.  The weights are a
    controller's slot counts or a gate's mixture weights; ``select`` records
    a feedforward layer's sum as one ``pool-combine`` tape op, and the
    recurrent step sums inside its own unroll.
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
        self.n_modules = n_modules
        bound = 1.0 / math.sqrt(in_dim)
        data = np.zeros((n_modules, in_dim + 1, out_dim))
        data[:, :in_dim] = rng.uniform(-bound, bound, size=(n_modules, in_dim, out_dim))
        parts = (("w", slice(in_dim)), ("b", in_dim))
        pieces = [(f"{name}.m{i}.{k}", (i, ix)) for i in range(n_modules) for k, ix in parts]
        self.param = Parameter(data, name, pieces)
        self.weights = self.param.data[:, :in_dim]
        self.biases = self.param.data[:, in_dim]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Every module on the plain (batch, in) array x at once, rectified
        for ``linear-relu``, as a (modules, batch, out) array: one batched
        matmul runs each module's own product, so each slice has the bits
        of ``x @ w + b`` for that module alone."""
        h = np.matmul(x, self.weights)
        h += self.biases[:, None, :]
        return relu(h) if self.kind == "linear-relu" else h

    def select(self, x, weights) -> Tensor:
        """The pool's outputs on x, weighted per row by the (batch, modules)
        ``weights`` and summed, as one ``pool-combine`` record.

        ``weights`` are constants, such as a controller's slot counts, as
        an array, or a gate's mixture weights as a ``Tensor``, whose
        gradient the record then returns too.  The weighted outputs are
        summed module by module, as a recurrent step does, and the pullback
        sums the x-gradients in reverse module order, as the tape's reverse
        sweep joins the terms of the op-by-op loop over the used modules
        that the tests keep as the oracle.  An unused module adds exact
        zeros and gets exact zero gradients, so the bits are the loop's
        when no later record reads x, as in every model here: a router
        reads its layer's input before the layer runs.
        """
        xd = x.data if isinstance(x, (Tensor, Parameter)) else np.asarray(x, dtype=np.float64)
        # a flag, not the Tensor: a pullback holding a Tensor holds its tape
        gated = isinstance(weights, Tensor)
        h = self.apply(xd)
        c = (weights.data if gated else weights).T[:, :, None]
        value = (h * c).sum(axis=0)
        tape = active_tape()
        if tape is None:
            return Tensor(value)
        need_x = isinstance(x, Parameter) or (
            isinstance(x, Tensor) and x.node is not None and x.tape is tape
        )

        def pullback(g):
            gw = (g * h).sum(axis=-1).T if gated else None
            gh = g * c
            if self.kind == "linear-relu":
                gh = gh * (h > 0)
            gx = None
            if need_x:
                gx = np.matmul(gh, self.weights.transpose(0, 2, 1))[::-1].sum(axis=0)
            g_pool = np.empty_like(self.param.data)
            g_pool[:, : self.in_dim] = np.matmul(xd.T, gh)
            g_pool[:, self.in_dim] = gh.sum(axis=1)
            return [gx, gw, g_pool]

        return record_joint("pool-combine", value, [x, weights, self.param], pullback)

    def parameters(self) -> list[Parameter]:
        return [self.param]


def sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw along the last axis as int64; u has probs.shape[:-1].

    Each uniform is compared with the M - 1 inner boundaries of the
    module-first block ``probs.T`` and the hits are counted.  Cumulative
    sums never decrease, so a uniform at or past the last inner boundary
    picks module M - 1, as it would against the full sum.  With one
    boundary (M = 2) the comparison is the index; otherwise the boundaries
    are ``cumsum(axis=0)`` down the module axis.  The view
    ``Controller.distribution`` returns is read in place.
    """
    p, ut = probs.T, u.T
    if len(p) == 2:
        return (ut >= p[0]).astype(np.int64).T
    return (ut >= np.cumsum(p[:-1], axis=0)).sum(axis=0).T


def module_indices(a: np.ndarray, n_modules: int) -> np.ndarray:
    """``a``, refused with ``ShapeError`` unless it holds integer module
    indices in [0, n_modules)."""
    if a.dtype.kind not in "iu":
        raise ShapeError(f"module indices must be integers, got {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= n_modules):
        raise ShapeError(f"module index out of range [0, {n_modules})")
    return a


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
    draws on the block in place and returns int64.  The uniforms are one
    (batch, slots) draw whatever the layout.  The argmax is numpy's, which
    copies the module axis last in either layout.
    """
    if sample_mask is not None and forced is None:
        raise ValueError("sample_mask requires forced comps for unmasked rows")
    if forced is not None and sample_mask is None:
        return forced
    if greedy and forced is None:
        return probs.argmax(axis=-1).astype(np.int64)
    if rng is None:
        raise ValueError("sampling rollout needs an rng")
    drawn = sample_rows(probs, rng.random(probs.shape[:2]))
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
        self.n_modules = n_modules
        self.n_slots = n_slots
        self.heads = [
            Linear(rng, in_dim, n_modules, f"{name}.h{k}") for k in range(n_slots)
        ]

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
        """log p(selection | x) as a differentiable tensor: one ``matmul``
        per head, then one ``categorical-head`` record.  A (rows, slots)
        selection gives (rows,); a (steps, batch, slots) one, whose rows
        are time-major in x, gives each window's sum over steps, (batch,)."""
        products = [matmul(x, h.w) for h in self.heads]
        return categorical_head(products, [h.b for h in self.heads], selection)[0]


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

    The rule starts from logits and is written once, in raw numpy: ``mix``
    turns the logits of the ``gate`` map and of the ``noise`` scale map
    into the weights, and ``pullback`` turns a gradient of the weights into
    gradients of both logits.  The recurrent cell runs them on plain arrays
    (``forward``) inside its own backpropagation through time.  The
    feedforward layer (``weights``) records the two maps as plain
    ``Linear`` calls and the rule as one ``noisy-topk-gate`` op on their
    logits.
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

    def parameters(self) -> list[Parameter]:
        return self.gate.parameters() + self.noise.parameters()

    def mix(self, z: np.ndarray, pre: np.ndarray | None, rng: np.random.Generator | None):
        """Mixture weights (batch, modules), the 0/1 survivor mask, and the
        noise terms ``pullback`` needs, from the gate logits ``z`` and, in
        training, the noise-scale logits ``pre`` (None in evaluation): the
        draws and the slope of the softplus noise scale, or None."""
        noise = None
        if pre is not None:
            if rng is None:
                raise ValueError("training-mode gate needs an rng for noise")
            eps = rng.standard_normal(z.shape)
            z = z + eps * np.logaddexp(0.0, pre)
            noise = (eps, stable_sigmoid(pre))
        mask = top_k_mask(z, self.k)
        z = z + (1.0 - mask) * NEG_MASK
        _, e, s = softmax_parts(z)
        return e / s, mask, noise

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None):
        """``mix`` on the maps' logits for the plain (batch, in) array x."""
        return self.mix(self.gate(x), self.noise(x) if train else None, rng)

    @staticmethod
    def pullback(w: np.ndarray, noise, g_w: np.ndarray):
        """Gradients of the gate logits and of the noise-scale logits (zero
        without noise), given the weights ``w`` and their gradient ``g_w``."""
        g = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        return g, np.zeros_like(g) if noise is None else g * noise[0] * noise[1]

    def weights(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, np.ndarray]:
        """Mixture weights (batch, modules) as a tape record, and the 0/1
        survivor mask, for a ``Tensor`` x.  The maps' logits are recorded
        as ``Linear`` calls, and ``mix`` on them as one ``noisy-topk-gate``
        op whose pullback is ``pullback``."""
        logits = [self.gate(x)] + ([self.noise(x)] if train else [])
        w, mask, noise = self.mix(logits[0].data, logits[1].data if train else None, rng)

        def pull(g):  # a noise-scale gradient only when training
            return self.pullback(w, noise, g)[: 1 + train]

        return record_joint("noisy-topk-gate", w, logits, pull), mask


class ModularLayer:
    """One pool plus its router: a ``Controller``, whose slot choices
    ``forward_selected`` runs, or a ``NoisyTopKGate``, whose sparse mixture
    ``forward_mixed`` runs.  Both weigh the pool's outputs through the one
    ``ModulePool.select`` record.  The layer sets ``controller`` or
    ``gate`` and leaves the other None; a gated layer has one slot."""

    def __init__(self, pool: ModulePool, router):
        if router.n_modules != pool.n_modules:
            raise ValueError(
                f"router covers {router.n_modules} modules, pool has {pool.n_modules}"
            )
        gated = isinstance(router, NoisyTopKGate)
        self.pool = pool
        self.controller, self.gate = (None, router) if gated else (router, None)
        self.n_slots = 1 if gated else router.n_slots

    def parameters(self) -> list[Parameter]:
        return self.pool.parameters() + (self.gate or self.controller).parameters()

    def _validate(self, selection: np.ndarray, batch: int) -> np.ndarray:
        sel = np.asarray(selection)
        if sel.shape != (batch, self.n_slots):
            raise ShapeError(
                f"selection shape {sel.shape}, expected {(batch, self.n_slots)}"
            )
        return module_indices(sel, self.pool.n_modules)

    def forward_selected(self, x, selection: np.ndarray) -> Tensor:
        """Evaluate the layer under a fixed selection, shape (batch, slots),
        as one ``pool-combine`` record (``ModulePool.select``).

        The slots' module outputs are summed.  A module chosen by several
        slots of the same input counts once per slot: its output is scaled
        by the multiplicity.  The selection is checked here; a rollout,
        whose ``Routing`` has checked it already, calls ``select`` itself.
        """
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        sel = self._validate(selection, xt.shape[0])
        return self.pool.select(xt, slot_counts(sel, self.pool.n_modules))

    def forward_mixed(
        self, x, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """The gate's mixture of the pool on x: (output, weights, survivor
        mask), the output being ``ModulePool.select`` under the weights."""
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        w, mask = self.gate.weights(xt, train=train, rng=rng)
        return self.pool.select(xt, w), w, mask


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


class Routing:
    """One rollout's controller step at every unit, a layer of ``ModularNet``
    or a timestep of ``gru.ModularGruLM``.  It checks forced ``comps`` once;
    each ``step`` forms the controller's ``parts`` only when needed, selects
    through ``choose`` and off the tape with ``with_ctrl`` adds to ``ctrl_sum``
    the ``Controller.log_prob_values``, with the taped ``log_prob``'s bits.
    Under a tape (``taped``) the model scores with ``log_prob`` itself."""

    def __init__(
        self, model, batch, units, comps, sample_mask, greedy, rng, with_ctrl, collect_probs
    ):
        shape = (batch, units, model.n_slots)
        if comps is not None:
            comps = np.asarray(comps)
            if comps.shape != shape:
                raise ShapeError(f"composition shape {comps.shape}, expected {shape}")
            module_indices(comps, model.n_modules)
        self.comps, self.sample_mask, self.greedy, self.rng = comps, sample_mask, greedy, rng
        self.chosen = np.empty(shape, dtype=np.int64)
        self.probs = np.empty((*shape, model.n_modules)) if collect_probs else None
        self.need_probs = collect_probs or comps is None or sample_mask is not None
        self.taped = active_tape() is not None
        self.score = with_ctrl and not self.taped
        self.need_parts = self.need_probs or self.score
        self.ctrl_sum = None

    def step(self, u: int, controller: Controller, x) -> np.ndarray:
        """Unit u's (batch, slots) selection on its input x."""
        parts = controller.parts(x) if self.need_parts else None
        p = controller.distribution(x, parts) if self.need_probs else None
        forced = None if self.comps is None else self.comps[:, u]
        sel = choose(p, forced, self.greedy, self.rng, self.sample_mask)
        self.chosen[:, u] = sel
        if self.probs is not None:
            self.probs[:, u] = p
        if self.score:
            term = controller.log_prob_values(parts, sel)
            self.ctrl_sum = term if self.ctrl_sum is None else self.ctrl_sum + term
        return sel

    def result(self, cond, taped_ctrl, pred_ll, outputs=None) -> RolloutResult:
        """The walk's ``RolloutResult``; its controller log-likelihood is
        ``taped_ctrl`` under a tape, else the off-tape sum."""
        ctrl = taped_ctrl if self.ctrl_sum is None else Tensor(self.ctrl_sum)
        return RolloutResult(cond, ctrl, self.chosen, pred_ll, self.probs, outputs)


class ModularModel:
    """The controller protocol, shared by ``ModularNet`` and
    ``gru.ModularGruLM``.

    A composition is an integer array (batch, units, slots), a unit being
    a layer or a timestep.  Each model supplies ``rollout``, one walk that
    takes a ``Routing`` step per unit (``comps`` forced, else greedy, else
    sampled with ``rng``) and scores as it goes: the targets when given,
    and with ``with_ctrl`` the controller, whose gradient
    ``detach_ctrl_inputs`` keeps out of earlier units.  With both
    ``comps`` and a boolean ``sample_mask`` masked rows draw afresh, so
    one walk scores fixed and proposed compositions side by side.  Its
    architecture supplies ``snapshot`` and ``n_units``.  On ``rollout``
    this base builds ``score`` (joint values), ``propose_and_score`` (the
    incumbent and fresh draws, scored in one walk over tiled rows),
    ``probe`` (a ``SelectionSnapshot`` along sampled or forced paths),
    ``evaluate`` (along the greedy or forced path) and
    ``marginal_log_lik``.
    """

    # compositions an exhaustive sum may enumerate unless told otherwise
    ENUM_BUDGET = 100_000

    def score(self, x, y, comps) -> np.ndarray:
        """Joint log p(y, comps | x) per example, value only."""
        res = self.rollout(x, y, comps=comps, with_ctrl=True)
        return add(res.cond_ll, res.ctrl_ll).data

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

    def probe(self, x, rng: np.random.Generator, comps=None):
        res = self.rollout(x, comps=comps, rng=rng, collect_probs=True)
        return self.snapshot(res.probs), res.comps

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
    ``train``) and scores the targets when given; its ``probs`` hold the
    gate weights as one-head distributions, and it has no controller
    log-likelihood.  On it this base builds ``probe`` and ``evaluate``;
    ``marginal_log_lik`` raises ValueError, as there are no compositions
    to enumerate."""

    def probe(self, x, rng=None, comps=None):
        """Noise-free gate weights as one-head distributions; the path is
        each unit's heaviest module.  ``rng`` and ``comps`` are unused."""
        probs = self.rollout(x, collect_probs=True).probs
        paths = probs.argmax(axis=-1)
        return self.snapshot(probs), paths

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
    def snapshot(probs: np.ndarray) -> SelectionSnapshot:
        """(batch, layers, slots, modules) distributions, one snapshot entry
        per layer."""
        return SelectionSnapshot(list(probs.transpose(1, 0, 2, 3)))


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
        h: Tensor = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        batch, n_layers = h.shape[0], len(self.layers)
        walk = Routing(
            self, batch, n_layers, comps, sample_mask, greedy, rng, with_ctrl, collect_probs
        )
        ctrl_ll: Tensor | None = None
        for l, layer in enumerate(self.layers):
            sel = walk.step(l, layer.controller, h)
            if with_ctrl and walk.taped:
                term = layer.controller.log_prob(constant(h) if detach_ctrl_inputs else h, sel)
                ctrl_ll = term if ctrl_ll is None else add(ctrl_ll, term)
            h = layer.pool.select(h, slot_counts(sel, self.n_modules))
        cond = None if y is None else self.head.log_prob(h, y)
        pred_ll = None if cond is None else cond.data
        return walk.result(cond, ctrl_ll, pred_ll, outputs=h.data)


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
