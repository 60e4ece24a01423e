"""Dense float64 tensors with tape-based reverse-mode differentiation.

The primitive set is intentionally small: enough to express modular layers,
gated recurrent cells, and the Gaussian / categorical output likelihoods.
A computation is recorded on a ``Tape`` (a context manager); tensors built
while no tape is active are plain values and cost no bookkeeping.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Logits pushed this far down vanish exactly under softmax in float64.
NEG_MASK = -1e30

# ``max_last`` reduces arrays of at least this many rows, each at most
# MAX_COLUMN_WIDTH wide, column by column
MAX_COLUMN_ROWS = 256
MAX_COLUMN_WIDTH = 16

# numpy sums a contiguous row of at least this many entries pairwise, in
# another order than one running sum down axis 0
PAIRWISE_WIDTH = 8


class ShapeError(ValueError):
    """Operands do not conform to a primitive's signature."""


_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "modnet_active_tape", default=None
)


def active_tape() -> "Tape | None":
    return _ACTIVE_TAPE.get()


@contextlib.contextmanager
def paused():
    """Suspend the active tape: primitives inside compute values only."""
    token = _ACTIVE_TAPE.set(None)
    try:
        yield
    finally:
        _ACTIVE_TAPE.reset(token)


class Parameter:
    """A named, persistent float64 array updated by an optimizer."""

    __slots__ = ("name", "data")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tensor:
    """A float64 array, optionally bound to a node of the active tape."""

    __slots__ = ("data", "node", "tape")

    def __init__(self, data, node: int | None = None, tape: "Tape | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self.node})"


class _Record:
    __slots__ = ("kind", "out", "pulls")

    def __init__(self, kind, out, pulls):
        self.kind = kind
        self.out = out
        # pulls: list of (input node id, fn(grad_out) -> grad contribution)
        self.pulls = pulls


class Tape:
    """Ordered record of primitive applications for one reverse sweep.

    Use as a context manager; primitives applied inside the ``with`` block
    whose inputs carry gradients are appended to the record.  ``backward``
    walks the record once, strictly in reverse.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._next_node = 0
        self._watched: dict[int, tuple[int, Parameter]] = {}
        self._token = None

    def __enter__(self):
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.reset(self._token)
        self._token = None
        return False

    def __len__(self):
        return len(self._records)

    def _new_node(self) -> int:
        node = self._next_node
        self._next_node += 1
        return node

    def watch(self, param: Parameter) -> Tensor:
        """Register a parameter as a leaf; repeated watches share one node."""
        entry = self._watched.get(id(param))
        if entry is None:
            node = self._new_node()
            self._watched[id(param)] = (node, param)
        else:
            node = entry[0]
        return Tensor(param.data, node, self)

    def record(self, kind: str, out_data, pulls) -> Tensor:
        node = self._new_node()
        self._records.append(_Record(kind, node, pulls))
        return Tensor(out_data, node, self)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss with respect to every watched leaf.

        Returns a map node-id -> gradient array.  Watched leaves that never
        fed the loss get exact zero gradients of their own shape.
        """
        if loss.tape is not self or loss.node is None:
            raise ValueError("backward: loss was not produced on this tape")
        if loss.data.ndim != 0:
            raise ValueError(
                f"backward: loss must be a scalar, got shape {loss.data.shape}"
            )
        grads: dict[int, np.ndarray] = {loss.node: np.ones((), dtype=np.float64)}
        for rec in reversed(self._records):
            g = grads.pop(rec.out, None)
            if g is None:
                continue
            g = _dense(g)
            for node, pull in rec.pulls:
                contrib = pull(g)
                prev = grads.get(node)
                grads[node] = contrib if prev is None else _accumulate(prev, contrib)
        out: dict[int, np.ndarray] = {}
        for node, param in self._watched.values():
            g = grads.get(node)
            out[node] = np.zeros_like(param.data) if g is None else np.asarray(_dense(g))
        # expose surviving non-leaf grads too (inputs watched as Tensors)
        for node, g in grads.items():
            out.setdefault(node, np.asarray(_dense(g)))
        return out

    def grad(self, grads: dict[int, np.ndarray], ref) -> np.ndarray:
        """Look up the gradient of a watched Parameter or a node-bound Tensor."""
        if isinstance(ref, Parameter):
            entry = self._watched.get(id(ref))
            g = None if entry is None else grads.get(entry[0])
        elif isinstance(ref, Tensor) and ref.node is not None:
            g = grads.get(ref.node)
        else:
            raise KeyError("grad: reference is not tracked on this tape")
        return np.zeros_like(ref.data) if g is None else g

    def parameter_grads(
        self, grads: dict[int, np.ndarray], params=None
    ) -> dict[Parameter, np.ndarray]:
        """Per-parameter gradient dict; zero-filled for unused params."""
        if params is None:
            return {p: grads[node] for node, p in self._watched.values()}
        return {p: self.grad(grads, p) for p in params}


class _Columns:
    """A gradient that is zero outside columns ``lo:hi`` of its last axis,
    as ``slice_last``'s pullback returns it.  The tape builds the dense
    array only when it must, so the gradients of two disjoint slices of
    one tensor fill one array."""

    __slots__ = ("shape", "lo", "hi", "g")

    def __init__(self, shape, lo: int, hi: int, g: np.ndarray):
        self.shape, self.lo, self.hi, self.g = shape, lo, hi, g

    def dense(self) -> np.ndarray:
        full = np.zeros(self.shape, dtype=np.float64)
        full[..., self.lo : self.hi] = self.g
        return full


def _dense(g):
    return g.dense() if isinstance(g, _Columns) else g


def _accumulate(prev, contrib):
    """``prev + contrib`` with column gradients made dense.  Two disjoint
    column blocks go into one zero array as ``g + 0.0`` each, the bits
    that adding their two dense arrays gives."""
    if (
        isinstance(prev, _Columns)
        and isinstance(contrib, _Columns)
        and (prev.hi <= contrib.lo or contrib.hi <= prev.lo)
    ):
        full = np.zeros(prev.shape, dtype=np.float64)
        for c in (prev, contrib):
            np.add(c.g, 0.0, out=full[..., c.lo : c.hi])
        return full
    return _dense(prev) + _dense(contrib)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        tape = active_tape()
        return tape.watch(x) if tape is not None else Tensor(x.data)
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    """Detach: a value-only tensor that blocks gradient flow."""
    if isinstance(x, Tensor):
        return Tensor(x.data)
    if isinstance(x, Parameter):
        return Tensor(x.data)
    return Tensor(np.asarray(x, dtype=np.float64))


def _emit(kind: str, out_data, inputs: list[Tensor], pull_fns) -> Tensor:
    """Record the op if a tape is active and any input is on it."""
    tape = active_tape()
    if tape is None:
        return Tensor(out_data)
    pulls = [
        (t.node, fn)
        for t, fn in zip(inputs, pull_fns)
        if t.node is not None and t.tape is tape and fn is not None
    ]
    if not pulls:
        return Tensor(out_data)
    return tape.record(kind, out_data, pulls)


def record_joint(kind: str, out_data, inputs, pullback) -> Tensor:
    """Record one op whose pullback yields every input's gradient at once.

    ``pullback(g)`` returns gradients aligned with ``inputs`` (Parameters
    are watched on the active tape).  It runs once per incoming gradient,
    however many of the inputs sit on the tape.
    """
    if active_tape() is None:
        return Tensor(out_data)
    ts = [_as_tensor(x) for x in inputs]
    memo = [None, None]

    def make_pull(i):
        def pull(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, pullback(g)
            return memo[1][i]

        return pull

    return _emit(kind, out_data, ts, [make_pull(i) for i in range(len(ts))])


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.data @ b.data
    ad, bd = a.data, b.data
    return _emit(
        "matmul",
        out,
        [a, b],
        [lambda g: g @ bd.T, lambda g: ad.T @ g],
    )


def _check_broadcast(kind: str, ash, bsh) -> None:
    if ash != bsh:
        try:
            np.broadcast_shapes(ash, bsh)
        except ValueError:
            raise ShapeError(f"{kind}: shapes {ash} and {bsh} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.shape, b.shape
    _check_broadcast("add", ash, bsh)
    return _emit(
        "add",
        a.data + b.data,
        [a, b],
        [lambda g: _unbroadcast(g, ash), lambda g: _unbroadcast(g, bsh)],
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("elementwise-mul", a.shape, b.shape)
    ad, bd = a.data, b.data
    return _emit(
        "elementwise-mul",
        ad * bd,
        [a, b],
        [
            lambda g: _unbroadcast(g * bd, ad.shape),
            lambda g: _unbroadcast(g * ad, bd.shape),
        ],
    )


def relu(x):
    """max(x, 0), with subgradient 0 at the kink.  A plain array in gives
    ``x * (x > 0)`` as a plain array, with no ``Tensor`` built."""
    if isinstance(x, np.ndarray):
        return x * (x > 0)
    x = _as_tensor(x)
    mask = (x.data > 0).astype(np.float64)  # subgradient at 0 is 0
    return _emit("relu", x.data * mask, [x], [lambda g: g * mask])


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|.  The
    numerator ``max(e, x >= 0)`` is 1 where x >= 0 and e elsewhere, since
    0 <= e <= 1.  ``out`` may be x itself."""
    e = np.exp(-np.abs(x))
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=out)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out = stable_sigmoid(x.data)
    return _emit("sigmoid", out, [x], [lambda g: g * out * (1.0 - out)])


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    return _emit(
        "softplus", np.logaddexp(0.0, xd), [x], [lambda g: g * stable_sigmoid(xd)]
    )


def row_softmax(x) -> Tensor:
    """Stabilized softmax along the last axis."""
    x = _as_tensor(x)
    if x.ndim < 1:
        raise ShapeError(f"row-softmax: needs at least 1 axis, got shape {x.shape}")
    _, e, s = softmax_parts(x.data)
    p = e / s
    return _emit(
        "row-softmax",
        p,
        [x],
        [lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))],
    )


def concat_last(*xs) -> Tensor:
    ts = [_as_tensor(x) for x in xs]
    if not ts:
        raise ShapeError("concat-last-axis: no inputs")
    lead = ts[0].shape[:-1]
    for t in ts[1:]:
        if t.shape[:-1] != lead:
            raise ShapeError(
                "concat-last-axis: leading shapes differ: "
                f"{[t.shape for t in ts]}"
            )
    out = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)

    def make_pull(i):
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: g[..., lo:hi]

    return _emit("concat-last-axis", out, ts, [make_pull(i) for i in range(len(ts))])


def slice_last(x, lo: int, hi: int) -> Tensor:
    """Columns ``lo:hi`` of the last axis (a view of the input's values)."""
    x = _as_tensor(x)
    width = x.shape[-1] if x.ndim else 0
    if not 0 <= lo < hi <= width:
        raise ShapeError(f"slice-last-axis: [{lo}, {hi}) is not a slice of shape {x.shape}")
    shape = x.shape
    return _emit(
        "slice-last-axis", x.data[..., lo:hi], [x], [lambda g: _Columns(shape, lo, hi, g)]
    )


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    src = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {src} to {tuple(shape)}") from None
    return _emit("reshape", out, [x], [lambda g: g.reshape(src)])


def sum_over_axis(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape
    if axis is None:
        out = x.data.sum()
        return _emit(
            "sum-over-axis", out, [x], [lambda g: np.full(shape, g, dtype=np.float64)]
        )
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= ax < x.ndim:
        raise ShapeError(f"sum-over-axis: axis {axis} invalid for shape {shape}")
    out = x.data.sum(axis=ax, keepdims=keepdims)

    def pull(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return np.broadcast_to(g, shape)

    return _emit("sum-over-axis", out, [x], [pull])


def embedding_lookup(table, ids) -> Tensor:
    table = _as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding-lookup: table must be 2-D, got {table.shape}")
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise ShapeError("embedding-lookup: ids must be integers")
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ShapeError(
            f"embedding-lookup: id out of range [0, {vocab}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = table.data[idx]
    tshape = table.shape
    # rows of one id are summed by one segmented reduction over the ids
    # in sorted order, not scattered one at a time; each run of equal
    # sorted ids starts where the id changes
    order = np.argsort(idx.reshape(-1), kind="stable")
    ids_sorted = idx.reshape(-1)[order]
    run_start = np.empty(ids_sorted.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(ids_sorted[1:], ids_sorted[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    present = ids_sorted[starts]

    def pull(g):
        dt = np.zeros(tshape, dtype=np.float64)
        if order.size:
            dt[present] = np.add.reduceat(g.reshape(-1, tshape[1])[order], starts, axis=0)
        return dt

    return _emit("embedding-lookup", out, [table], [pull])


def gaussian_log_density(y, mean) -> Tensor:
    """Row-wise log N(y; mean, I): -0.5*||y-mean||^2 - (d/2)*log(2*pi)."""
    y, mean = _as_tensor(y), _as_tensor(mean)
    if y.shape != mean.shape:
        raise ShapeError(
            f"gaussian-log-density: shapes {y.shape} and {mean.shape} differ"
        )
    if y.ndim < 1:
        raise ShapeError("gaussian-log-density: needs at least 1 axis")
    diff = y.data - mean.data
    d = y.shape[-1]
    out = -0.5 * (diff * diff).sum(axis=-1) - 0.5 * d * LOG_2PI
    return _emit(
        "gaussian-log-density",
        out,
        [y, mean],
        [
            lambda g: -g[..., None] * diff,
            lambda g: g[..., None] * diff,
        ],
    )


def max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, bit for bit.

    Row by row, numpy spends about 50 ns on each short row, so many short
    rows are reduced column-major instead, by ``max_first`` on a
    transposed copy: about 5x faster on (1280, 8).
    """
    width = x.shape[-1]
    if width > MAX_COLUMN_WIDTH or x.size < MAX_COLUMN_ROWS * width or not x.flags.c_contiguous:
        return x.max(axis=-1, keepdims=True)
    m = max_first(np.ascontiguousarray(x.reshape(-1, width).T))
    return m.reshape(x.shape[:-1] + (1,))


def max_first(cols: np.ndarray) -> np.ndarray:
    """``cols.max(axis=0)`` with the bits of the row-major maximum
    ``np.ascontiguousarray(cols.T).max(axis=-1).T``.

    On a C-contiguous block the reduction is one elementwise maximum per
    index of axis 0, over long contiguous runs.  The two orders may keep a
    different zero's sign or NaN, so an entry whose maximum is zero or NaN
    is redone row-major.
    """
    m = cols.max(axis=0)
    if m.size and not np.abs(m).min() > 0.0:
        redo = ~(np.abs(m) > 0.0)
        m[redo] = np.ascontiguousarray(cols[:, redo].T).max(axis=-1)
    return m


def softmax_parts(logits: np.ndarray):
    """The pieces of a stabilized softmax along the last axis: the shifted
    logits ``z``, ``exp(z)`` and its sums (kept as an axis), so that the
    probabilities are ``e / s`` and the log-probabilities ``z - log(s)``."""
    z = logits - max_last(logits)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def softmax_parts_first(logits: np.ndarray):
    """``softmax_parts`` along axis 0 of a C-contiguous block: each of the
    shifted logits, ``exp`` and sums (no kept axis) has the bits of the
    row-major parts of ``logits.T``, transposed back.

    Each call runs along the long trailing axes.  Down axis 0 numpy adds
    in a row sum's order only below ``PAIRWISE_WIDTH`` entries; from there
    on it sums a contiguous row pairwise, so wider blocks sum a row-major
    copy.
    """
    z = logits - max_first(logits)
    e = np.exp(z)
    if len(e) < PAIRWISE_WIDTH:
        return z, e, e.sum(axis=0)
    return z, e, np.ascontiguousarray(e.T).sum(axis=-1).T


def _log_softmax_at(logits: np.ndarray, idx: np.ndarray):
    """The stabilized log softmax of ``logits`` along the last axis, its
    entries at the integer ``idx`` (shape ``logits.shape[:-1]``), and their
    flat positions in it."""
    z, _, s = softmax_parts(logits)
    logp = z - np.log(s)
    at = np.arange(idx.size) * logp.shape[-1] + idx.reshape(-1)
    return logp, logp.reshape(-1)[at].reshape(idx.shape), at


def log_softmax_pick(logits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The value of ``categorical_log_prob`` on plain arrays: unchecked,
    never recorded, and no ``Tensor`` built."""
    return pick_log_prob(softmax_parts(logits), idx)


def pick_log_prob(parts, idx: np.ndarray) -> np.ndarray:
    """``log_softmax_pick`` from the logits' ``softmax_parts``: only the
    picked entries are formed, by the full log softmax's own operation."""
    z, _, s = parts
    at = np.arange(idx.size) * z.shape[-1] + idx.reshape(-1)
    return (z.reshape(-1)[at] - np.log(s).reshape(-1)).reshape(idx.shape)


def categorical_log_prob(logits, targets) -> Tensor:
    """log softmax(logits)[target] along the last axis, stabilized."""
    logits = _as_tensor(logits)
    idx = np.asarray(targets)
    if idx.dtype.kind not in "iu":
        raise ShapeError("categorical-log-prob: targets must be integers")
    if logits.ndim < 1 or idx.shape != logits.shape[:-1]:
        raise ShapeError(
            f"categorical-log-prob: targets shape {idx.shape} does not match "
            f"logits shape {logits.shape}"
        )
    n = logits.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(
            f"categorical-log-prob: target out of range [0, {n}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    logp, out, at = _log_softmax_at(logits.data, idx)

    def pull(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p)
        onehot.reshape(-1)[at] = 1.0
        return g[..., None] * (onehot - p)

    return _emit("categorical-log-prob", out, [logits], [pull])


def mean_all(x) -> Tensor:
    """Scalar mean of all elements (sum primitive scaled by a constant)."""
    x = _as_tensor(x)
    return mul(sum_over_axis(x), 1.0 / x.data.size)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn, params, step: float = 1e-5, skip=None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``fn`` is a zero-argument callable returning a scalar Tensor; it must
    reach every parameter in ``params`` through the recorded primitives.
    ``skip`` optionally maps a Parameter to a boolean mask of coordinates to
    exclude (e.g. relu inputs sitting exactly on the kink).

    Relative error per coordinate: |analytic - numeric| /
    max(|analytic|, |numeric|, 1e-8).
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    params = list(params)
    skip = skip or {}
    with Tape() as tape:
        loss = fn()
    grads = tape.backward(loss)
    analytic = {p: tape.grad(grads, p) for p in params}

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        a = analytic[p].reshape(-1)
        mask = skip.get(p)
        mask = None if mask is None else np.asarray(mask).reshape(-1)
        for i in range(flat.size):
            if mask is not None and mask[i]:
                continue
            orig = flat[i]
            flat[i] = orig + step
            hi = float(fn().data)
            flat[i] = orig - step
            lo = float(fn().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            if not (math.isfinite(numeric) and math.isfinite(a[i])):
                raise ArithmeticError(
                    f"grad_check: non-finite value at {p.name}[{i}]: "
                    f"analytic={a[i]}, numeric={numeric}"
                )
            err = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
