"""Gradient ascent with Adam moment estimates and optional norm clipping."""

from __future__ import annotations

import math

import numpy as np

from modnet.autodiff import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam ascent on a fixed parameter list, run on one flat gradient vector.

    The first and second moments each live in one flat float64 buffer laid
    out in parameter order, and within a parameter in the storage order of
    its named ``Parameter.pieces``.  ``flatten`` turns a complete gradient
    dict (zeros for untouched params, so the moments advance uniformly
    whichever branch a step exercised) into that layout, and ``step``
    updates the moments as whole-vector ops before adding each parameter's
    slice into its own ``p.data``.  Every op is elementwise, so the result
    is bit-identical to a per-piece loop.

    The clip norm sums the squares with one ``np.sum`` per piece and adds
    those sums in order; a single reduction over the whole vector, or one
    per parameter, would round differently.  ``state`` and ``restore``
    keep the moments as ``{piece name: array}``, one array per piece.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        clip_norm: float | None = None,
    ):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        size = sum(p.size for p in self.params)
        self._m_flat, self._v_flat, self._delta = np.zeros(size), np.zeros(size), np.zeros(size)
        # each parameter's step, and each piece's (name, shape, flat slice)
        self._delta_views, self._pieces, lo = [], [], 0
        for p in self.params:
            self._delta_views.append((p, self._delta[lo : lo + p.size].reshape(p.shape)))
            for name, view in p.pieces:
                self._pieces.append((name, view.shape, slice(lo, lo + view.size)))
                lo += view.size

    def flatten(self, grads: dict[Parameter, np.ndarray]) -> np.ndarray:
        """The gradients of every parameter, concatenated in parameter order."""
        missing = [p.name for p in self.params if p not in grads]
        if missing:
            raise KeyError(f"Adam.flatten: missing gradients for {missing}")
        parts = []
        for p in self.params:
            g = grads[p]
            if g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match "
                    f"parameter {p.name} shape {p.data.shape}"
                )
            parts.append(g.reshape(-1))
        return np.concatenate(parts)

    def step(self, flat: np.ndarray) -> None:
        """One ascent step on a gradient laid out as ``flatten`` returns it."""
        g = flat
        if self.clip_norm is not None:
            sq = flat * flat
            total = 0.0
            for _, _, s in self._pieces:
                total += float(np.sum(sq[s]))
            norm = math.sqrt(total)
            if norm > self.clip_norm:
                g = flat * (self.clip_norm / norm)
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        m = self._m_flat
        v = self._v_flat
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # ascent: objective is a log-likelihood
        np.divide(self.lr * (m / c1), np.sqrt(v / c2) + EPS, out=self._delta)
        for p, delta in self._delta_views:
            p.data += delta

    def state(self) -> dict:
        return {
            "t": self.t,
            "m": {name: self._m_flat[s].reshape(shape).copy() for name, shape, s in self._pieces},
            "v": {name: self._v_flat[s].reshape(shape).copy() for name, shape, s in self._pieces},
        }

    def restore(self, state: dict) -> None:
        self.t = state["t"]
        for name, _, s in self._pieces:
            self._m_flat[s] = state["m"][name].reshape(-1)
            self._v_flat[s] = state["v"][name].reshape(-1)
