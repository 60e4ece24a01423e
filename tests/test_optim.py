import math
import re

import numpy as np
import pytest

from modnet.autodiff import Parameter
from modnet.optim import Adam
from modnet.serialize import check_like


class LoopAdam:
    """The per-piece Adam update, one array at a time, its clip norm one
    ``np.sum`` per piece: the oracle that the flat-vector ``Adam.step``
    must match bit for bit."""

    def __init__(self, datas, lr, clip_norm, beta1=0.9, beta2=0.999, eps=1e-8):
        self.datas = [d.copy() for d in datas]
        self.lr, self.clip_norm = lr, clip_norm
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(d) for d in self.datas]
        self.v = [np.zeros_like(d) for d in self.datas]

    def step(self, grads):
        scale = 1.0
        if self.clip_norm is not None:
            total = 0.0
            for g in grads:
                total += float(np.sum(g * g))
            norm = math.sqrt(total)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for data, m, v, grad in zip(self.datas, self.m, self.v, grads):
            g = grad * scale
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            data += self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


SHAPES = [(3, 4), (4,), (), (2, 3, 2), (1, 5)]


def make_params(rng):
    """One parameter per shape, then one stored as pieces, as a pool of 3
    modules with 3 inputs and 2 outputs is: module i's weights in rows
    ``[i, :3]`` and its bias in row ``[i, 3]``."""
    pool = Parameter(
        rng.normal(size=(3, 4, 2)),
        "pool",
        [(f"pool.m{i}.{part}", (i, ix)) for i in range(3) for part, ix in (("w", slice(3)), ("b", 3))],
    )
    return [Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(SHAPES)] + [pool]


def cut(p, a):
    """``a``, shaped as p, cut as p's pieces: consecutive runs of its flat
    values, in storage order."""
    out, lo = [], 0
    for _, view in p.pieces:
        out.append(a.reshape(-1)[lo : lo + view.size].reshape(view.shape))
        lo += view.size
    return out


def random_grads(rng, params, scale):
    return {p: scale * rng.normal(size=p.data.shape) for p in params}


@pytest.mark.parametrize(
    "clip_norm,grad_scale",
    [(None, 1.0), (100.0, 0.1), (0.5, 3.0)],
    ids=["no-clip", "clip-inactive", "clip-active"],
)
def test_flat_step_matches_the_per_parameter_loop(clip_norm, grad_scale):
    # the pieced parameter's moments, state and clip sums go piece by piece
    rng = np.random.default_rng(5)
    params = make_params(rng)
    opt = Adam(params, lr=0.01, clip_norm=clip_norm)
    oracle = LoopAdam([a for p in params for a in cut(p, p.data)], lr=0.01, clip_norm=clip_norm)
    clipped = []
    for _ in range(6):
        grads = random_grads(rng, params, grad_scale)
        if clip_norm is not None:
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            clipped.append(norm > clip_norm)
        opt.step(opt.flatten(grads))
        oracle.step([g for p in params for g in cut(p, grads[p])])
    if clip_norm is not None:
        assert all(clipped) if grad_scale > 1 else not any(clipped)
    state = opt.state()
    assert opt.t == oracle.t == state["t"] == 6
    names = [name for p in params for name, _ in p.pieces]
    assert list(state["m"]) == list(state["v"]) == names
    views = [view for p in params for _, view in p.pieces]
    assert len(views) == len(oracle.datas) == 11
    for view, data, m, v, sm, sv in zip(views, oracle.datas, oracle.m, oracle.v,
                                        state["m"].values(), state["v"].values()):
        assert np.array_equal(view, data)
        assert np.array_equal(sm, m) and np.array_equal(sv, v)


def test_missing_gradient_raises_key_error():
    params = make_params(np.random.default_rng(0))
    grads = {p: np.zeros_like(p.data) for p in params[1:]}
    with pytest.raises(KeyError, match="p0"):
        Adam(params).flatten(grads)


def test_wrongly_shaped_gradient_is_refused():
    params = make_params(np.random.default_rng(0))
    grads = {p: np.zeros_like(p.data) for p in params}
    grads[params[0]] = np.zeros(12)  # right size, wrong shape
    with pytest.raises(ValueError, match="p0"):
        Adam(params).flatten(grads)


def test_state_returns_copies_not_views():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    opt = Adam(params, lr=0.1)
    opt.step(opt.flatten(random_grads(rng, params, 1.0)))
    state = opt.state()
    before = [m.copy() for m in state["m"].values()] + [v.copy() for v in state["v"].values()]
    opt.step(opt.flatten(random_grads(rng, params, 1.0)))
    after = [*state["m"].values(), *state["v"].values()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    for m in state["m"].values():
        m[...] = 7.0
    assert not any(np.any(m == 7.0) for m in opt.state()["m"].values())


def test_saved_moment_of_another_shape_is_unlike_the_state():
    # a resume checks saved moments against the live state before restoring
    opt = Adam(make_params(np.random.default_rng(0)))
    state = opt.state()
    state["v"]["p3"] = np.zeros((3, 4))
    shapes = r"expected shape \(2, 3, 2\), got \(3, 4\)"
    with pytest.raises(ValueError, match=rf"^opt\.v\.p3: {shapes}$"):
        check_like(state, opt.state(), "opt")


@pytest.mark.parametrize("cut_m, cut_v", [(0, 0), (6, 11), (12, 12), (11, 0)])
def test_saved_moments_for_other_pieces_are_unlike_the_state(cut_m, cut_v):
    # each moment keeps its first cut pieces; a 12th is one the model lacks
    opt = Adam(make_params(np.random.default_rng(0)))
    state = opt.state()
    names = [*state["m"], "extra"]
    saved = {
        "t": 7,
        "m": {name: state["m"].get(name, np.zeros(())) for name in names[:cut_m]},
        "v": {name: state["v"].get(name, np.zeros(())) for name in names[:cut_v]},
    }
    key, cut = ("m", cut_m) if cut_m != 11 else ("v", cut_v)
    message = f"opt.{key}: missing {sorted(names[cut:11])}, unknown {names[11:cut]}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        check_like(saved, state, "opt")


def test_steps_after_restore_move_the_reported_moments():
    rng = np.random.default_rng(2)
    params = make_params(rng)
    a = Adam(params, lr=0.1)
    for _ in range(3):
        a.step(a.flatten(random_grads(rng, params, 1.0)))
    saved = a.state()
    # a twin with the same pieces and values
    twin = make_params(np.random.default_rng(0))
    for p, q in zip(params, twin):
        q.data[...] = p.data
    b = Adam(twin, lr=0.1)
    b.restore(saved)
    grads = random_grads(rng, params, 1.0)
    a.step(a.flatten(grads))
    b.step(b.flatten({q: grads[p] for p, q in zip(params, twin)}))
    sa, sb = a.state(), b.state()
    assert sb["t"] == 4
    moments = (saved["m"], sa["m"], sb["m"], sa["v"], sb["v"])
    for m0, ma, mb, va, vb in zip(*(m.values() for m in moments)):
        assert not np.array_equal(mb, m0)
        assert np.array_equal(ma, mb) and np.array_equal(va, vb)
    assert all(np.array_equal(p.data, q.data) for p, q in zip(params, twin))
