"""Dense float64 tensors with tape-based reverse-mode differentiation.

The package holds only the primitives that a run records: enough to
express modular layers, gated recurrent cells, the Gaussian output
likelihood and softmax heads, each head a ``matmul`` scored by one
``categorical-head`` record.  The taped references that the fused
records are checked against (sigmoid, softplus, softmax, concatenation,
slicing, a taped relu, reshape, a sum along one axis and one head's log
softmax) live with the tests' oracles.  A computation is recorded on
a ``Tape`` (a context manager); tensors built while no tape is active are
plain values and cost no bookkeeping.  Every op, generic or fused, goes
onto the tape one way, through ``record_joint``: a record keeps its
input nodes and one pullback that returns every input's gradient at
once.  A record may have several outputs, one node and one ``Tensor``
each, as the recurrent unroll hands its states and its [h, x] rows to
the heads that read them.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
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
    """A named, persistent float64 array updated by an optimizer; one tape
    leaf.  ``pieces`` are (name, view) pairs, made from (name, index) pairs,
    that tile ``data`` in storage order: by default the whole array under
    the parameter's name.  Checkpoints and the optimizer's moments and clip
    norm go piece by piece.  ``data`` is updated in place, never rebound."""

    __slots__ = ("name", "data", "pieces")

    def __init__(self, data, name: str = "", pieces=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.name = name
        self.pieces = [(n, self.data[ix]) for n, ix in pieces or [(name, ...)]]

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self.node})"


class Tape:
    """Ordered record of primitive applications for one reverse sweep.

    Use as a context manager; primitives applied inside the ``with`` block
    whose inputs carry gradients are appended to the record.  ``backward``
    walks the record once, strictly in reverse.
    """

    def __init__(self):
        # (kind, output node id or a tuple of them, (input node ids,
        # pullback)): an input off this tape has node None, and
        # pullback(grad_out) returns every input's gradient in input order;
        # with several outputs grad_out is the list of their gradients
        self._records: list[tuple] = []
        self._nodes = itertools.count()
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

    def watch(self, param: Parameter) -> Tensor:
        """Register a parameter as a leaf; repeated watches share one node."""
        entry = self._watched.get(id(param))
        if entry is None:
            entry = self._watched[id(param)] = (next(self._nodes), param)
        return Tensor(param.data, entry[0], self)

    def record(self, kind: str, out_data, pulls):
        """Append one op, as ``record_joint`` builds it: ``pulls`` is the
        pair (input node ids, pullback).  A tuple of output arrays makes one
        node and one Tensor per output, returned as a tuple."""
        if type(out_data) is tuple:
            nodes = tuple(next(self._nodes) for _ in out_data)
            self._records.append((kind, nodes, pulls))
            return tuple(Tensor(d, n, self) for d, n in zip(out_data, nodes))
        node = next(self._nodes)
        self._records.append((kind, node, pulls))
        return Tensor(out_data, node, self)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss with respect to every watched leaf.

        Returns a map node-id -> gradient array.  Watched leaves that never
        fed the loss get exact zero gradients of their own shape.
        """
        if loss.tape is not self or loss.node is None:
            raise ValueError("backward: loss was not produced on this tape")
        if loss.data.ndim != 0:
            raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {loss.node: np.ones((), dtype=np.float64)}
        for _, out, (nodes, pullback) in reversed(self._records):
            if type(out) is int:
                g = grads.pop(out, None)
                if g is None:
                    continue
            else:
                g = [grads.pop(node, None) for node in out]
                if all(x is None for x in g):
                    continue
            for node, contrib in zip(nodes, pullback(g), strict=True):
                if node is not None:
                    prev = grads.get(node)
                    grads[node] = contrib if prev is None else prev + contrib
        return {
            node: np.asarray(grads[node]) if node in grads else np.zeros_like(param.data)
            for node, param in self._watched.values()
        }

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

    def parameter_grads(self, grads: dict[int, np.ndarray], params) -> dict[Parameter, np.ndarray]:
        """The gradient of each of ``params``, keyed by parameter; zeros for
        a parameter the loss never reached."""
        return {p: self.grad(grads, p) for p in params}


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        tape = active_tape()
        return tape.watch(x) if tape is not None else Tensor(x.data)
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    """Detach: a value-only tensor that blocks gradient flow."""
    if isinstance(x, (Tensor, Parameter)):
        return Tensor(x.data)
    return Tensor(np.asarray(x, dtype=np.float64))


def record_joint(kind: str, out_data, inputs, pullback):
    """Record one op on the active tape: the only way onto it.

    ``pullback(g)`` returns every input's gradient, in the order of
    ``inputs`` (Parameters are watched on the active tape), and runs once
    per backward sweep that reaches the op.  An input off the tape has no
    node and its gradient is dropped.  With no input on the tape nothing is
    recorded.  With a tuple of output arrays the op has one Tensor per
    output, returned as a tuple, and ``g`` is the list of their gradients,
    None for an output that no loss read.
    """
    tape = active_tape()
    if tape is not None:
        nodes = [t.node if t.tape is tape else None for t in map(_as_tensor, inputs)]
        if nodes.count(None) < len(nodes):
            return tape.record(kind, out_data, (nodes, pullback))
    return tuple(map(Tensor, out_data)) if type(out_data) is tuple else Tensor(out_data)


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
    ad, bd = a.data, b.data
    return record_joint("matmul", ad @ bd, [a, b], lambda g: [g @ bd.T, ad.T @ g])


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
    return record_joint(
        "add", a.data + b.data, [a, b], lambda g: [_unbroadcast(g, ash), _unbroadcast(g, bsh)]
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("elementwise-mul", a.shape, b.shape)
    ad, bd = a.data, b.data
    return record_joint(
        "elementwise-mul",
        ad * bd,
        [a, b],
        lambda g: [_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)],
    )


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0) on a plain array, as ``x * (x > 0)``: never recorded.  The
    taped layers rectify inside their own fused records."""
    return x * (x > 0)


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|.  The
    numerator ``max(e, x >= 0)`` is 1 where x >= 0 and e elsewhere, since
    0 <= e <= 1.  ``out`` may be x itself."""
    e = np.exp(-np.abs(x))
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=out)


def sum_over_axis(x) -> Tensor:
    """The scalar sum of every element."""
    x = _as_tensor(x)
    shape = x.shape
    return record_joint("sum-over-axis", x.data.sum(), [x], lambda g: [np.full(shape, g)])


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

    def pullback(g):
        dt = np.zeros(tshape, dtype=np.float64)
        if order.size:
            dt[present] = np.add.reduceat(g.reshape(-1, tshape[1])[order], starts, axis=0)
        return [dt]

    return record_joint("embedding-lookup", out, [table], pullback)


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

    def pullback(g):
        g_mean = g[..., None] * diff
        return [-g_mean, g_mean]

    return record_joint("gaussian-log-density", out, [y, mean], pullback)


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


def log_softmax_pick(logits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """One head's log softmax at ``idx`` on plain arrays, with the bits of
    ``categorical_head``: only the picked entries are formed, by the full
    log softmax's own operation.  Unchecked, never recorded, and no
    ``Tensor`` built."""
    z, _, s = softmax_parts(logits)
    at = np.arange(idx.size) * z.shape[-1] + idx.reshape(-1)
    return (z.reshape(-1)[at] - np.log(s).reshape(-1)).reshape(idx.shape)


def categorical_head(products, biases, targets) -> tuple[Tensor, np.ndarray]:
    """Log-likelihood of the targets under softmax heads, as one
    ``categorical-head`` record, and its per-row values.

    Head k's logits are ``products[k] + biases[k]``, (rows, classes), and
    each row adds every head's log softmax at ``targets[..., k]`` in head
    order.  (rows, heads) targets give (rows,); (steps, batch, heads)
    targets, rows time-major, sum each window's steps to (batch,).  The
    values and gradients are bit for bit those of the op-by-op heads; the
    pullback keeps only each head's shifted logits and the logs of their sums.
    """
    products, biases = [_as_tensor(p) for p in products], [_as_tensor(b) for b in biases]
    idx = np.asarray(targets)
    if idx.dtype.kind not in "iu":
        raise ShapeError("categorical-head: targets must be integers")
    if idx.ndim not in (2, 3) or not 0 < idx.shape[-1] == len(products) == len(biases):
        raise ShapeError(
            f"categorical-head: targets shape {idx.shape} does not give "
            f"{len(products)} products and {len(biases)} biases one column each"
        )
    n_rows = idx.size // idx.shape[-1]
    picks = idx.reshape(n_rows, -1)
    kept, total = [], None
    for k, (p, b) in enumerate(zip(products, biases)):
        logits, ids = p.data + b.data, picks[:, k]
        n = logits.shape[-1]
        if logits.shape != (n_rows, n) or (ids.size and not 0 <= ids.min() <= ids.max() < n):
            raise ShapeError(
                f"categorical-head: head {k} logits {logits.shape} do not score "
                f"{n_rows} rows of targets in [0, {n})"
            )
        z, _, s = softmax_parts(logits)
        log_s, at = np.log(s), np.arange(n_rows) * n + ids
        term = z.reshape(-1)[at] - log_s.reshape(-1)
        kept.append((z, log_s, at))
        total = term if total is None else total + term
    per_row = total.reshape(idx.shape[:-1])
    out = per_row.sum(axis=0) if idx.ndim == 3 else per_row

    def pullback(g):
        g_rows = np.empty(per_row.shape)
        g_rows[...] = g  # a window's gradient at each of its steps
        g_rows = g_rows.reshape(n_rows, 1)
        g_logits = []
        for z, log_s, at in kept:
            # onehot - softmax, formed in place: 0 - p, then 1 added at the picks
            d = z - log_s
            np.exp(d, out=d)
            np.subtract(0.0, d, out=d)
            d.reshape(-1)[at] += 1.0
            g_logits.append(g_rows * d)
        return g_logits + [gl.sum(axis=0) for gl in g_logits]

    return record_joint("categorical-head", out, products + biases, pullback), per_row


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
