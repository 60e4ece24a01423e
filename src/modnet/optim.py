"""Gradient ascent with Adam moment estimates and optional norm clipping."""

from __future__ import annotations

import math

import numpy as np

from modnet.autodiff import Parameter


class Adam:
    """Adam ascent on a fixed parameter list, run on one flat gradient vector.

    The first and second moments each live in one flat float64 buffer laid
    out in parameter order; ``_m[p]`` and ``_v[p]`` are reshaped views into
    them, so ``state`` and ``restore`` keep one array per parameter.
    ``flatten`` turns a complete gradient dict (zeros for untouched params,
    so the moments advance uniformly whichever branch a step exercised) into
    that layout, and ``step`` updates the moments as whole-vector ops before
    adding each parameter's slice into its own ``p.data``.  Every op is
    elementwise, so the result is bit-identical to a per-parameter loop.

    The clip norm sums the squares with one ``np.sum`` per parameter slice
    and adds those sums in parameter order; a single reduction over the
    whole vector would round differently.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = None,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._slices = []
        size = 0
        for p in self.params:
            self._slices.append(slice(size, size + p.data.size))
            size += p.data.size
        self._m_flat = np.zeros(size)
        self._v_flat = np.zeros(size)
        self._delta = np.zeros(size)
        self._m = self._views(self._m_flat)
        self._v = self._views(self._v_flat)
        self._delta_views = list(self._views(self._delta).items())

    def _views(self, flat: np.ndarray) -> dict[Parameter, np.ndarray]:
        return {p: flat[s].reshape(p.data.shape) for p, s in zip(self.params, self._slices)}

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
            for s in self._slices:
                total += float(np.sum(sq[s]))
            norm = math.sqrt(total)
            if norm > self.clip_norm:
                g = flat * (self.clip_norm / norm)
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        m = self._m_flat
        v = self._v_flat
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        # ascent: objective is a log-likelihood
        np.divide(self.lr * (m / c1), np.sqrt(v / c2) + self.eps, out=self._delta)
        for p, delta in self._delta_views:
            p.data += delta

    def state(self) -> dict:
        return {
            "t": self.t,
            "m": [self._m[p].copy() for p in self.params],
            "v": [self._v[p].copy() for p in self.params],
        }

    def restore(self, state: dict) -> None:
        ms = [np.asarray(m, dtype=np.float64) for m in state["m"]]
        vs = [np.asarray(v, dtype=np.float64) for v in state["v"]]
        for p, m, v in zip(self.params, ms, vs):
            for buf in (m, v):
                if buf.shape != p.data.shape:
                    raise ValueError(
                        f"optimizer state shape {buf.shape} does not match "
                        f"parameter {p.name} shape {p.data.shape}"
                    )
        self.t = int(state["t"])
        for p, m, v in zip(self.params, ms, vs):
            self._m[p][...] = m
            self._v[p][...] = v
