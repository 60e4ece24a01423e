import inspect
import math

import numpy as np
import pytest
from oracles import (
    categorical_log_prob,
    composed_heads,
    concat_last,
    embedding_lookup,
    relu,
    reshape,
    row_softmax,
    sigmoid,
    slice_last,
    softplus,
    stack_rows,
    sum_along,
)

from modnet.autodiff import (
    LOG_2PI,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    add,
    categorical_head,
    constant,
    gaussian_log_density,
    grad_check,
    log_softmax_pick,
    matmul,
    max_last,
    mean_all,
    mul,
    paused,
    record_joint,
    softmax_parts,
    stable_sigmoid,
    sum_over_axis,
)
from modnet.modular import Linear


def backward_wrt(loss_fn, *params):
    with Tape() as tape:
        loss = loss_fn()
    grads = tape.backward(loss)
    return [tape.grad(grads, p) for p in params]


# ---------------------------------------------------------------------------
# hand-worked values


def test_matmul_forward_hand():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    # worked by hand: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_backward_hand():
    a = Parameter([[1.0, 2.0], [3.0, 4.0]], "a")
    b = Parameter([[5.0, 6.0], [7.0, 8.0]], "b")
    ga, gb = backward_wrt(lambda: sum_over_axis(matmul(a, b)), a, b)
    # d sum(AB)/dA = ones @ B^T = [[11,15],[11,15]]; /dB = A^T @ ones
    assert np.array_equal(ga, [[11.0, 15.0], [11.0, 15.0]])
    assert np.array_equal(gb, [[4.0, 4.0], [6.0, 6.0]])


def test_square_sum_gradient_is_2x():
    x = Parameter([1.0, 2.0, 3.0], "x")
    (g,) = backward_wrt(lambda: sum_over_axis(mul(x, x)), x)
    assert np.array_equal(g, [2.0, 4.0, 6.0])


def test_pointwise_values_at_zero():
    z = np.zeros((1, 1))
    assert sigmoid(z).data[0, 0] == 0.5
    assert softplus(z).data[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert relu(z).data[0, 0] == 0.0


def test_pointwise_gradients_at_zero():
    p = Parameter(np.zeros(1), "p")
    for fn, want in [(sigmoid, 0.25), (softplus, 0.5)]:
        (g,) = backward_wrt(lambda fn=fn: sum_over_axis(fn(p)), p)
        assert g[0] == pytest.approx(want, abs=1e-15)


def test_relu_subgradient_at_kink_is_zero():
    p = Parameter([-1.0, 0.0, 2.0], "p")
    (g,) = backward_wrt(lambda: sum_over_axis(relu(p)), p)
    assert np.array_equal(g, [0.0, 0.0, 1.0])


def test_softmax_uniform_and_shift_invariance():
    out = row_softmax(np.zeros((1, 4)))
    assert np.allclose(out.data, 0.25, atol=1e-15)
    z = np.array([[1.0, -2.0, 0.5]])
    a = row_softmax(z).data
    b = row_softmax(z + 1000.0).data
    assert np.allclose(a, b, atol=1e-12)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_extreme_logits_stable():
    z = np.array([[1e30, 0.0, -1e30]])
    p = row_softmax(z).data
    assert np.array_equal(p, [[1.0, 0.0, 0.0]])


def test_categorical_log_prob_uniform():
    logits = np.zeros((2, 5))
    lp = categorical_log_prob(logits, np.array([0, 4]))
    assert np.allclose(lp.data, -math.log(5.0), atol=1e-15)


def test_categorical_backward_is_onehot_minus_probs():
    p = Parameter([[0.3, -1.1, 0.4]], "logits")
    y = np.array([2])
    (g,) = backward_wrt(lambda: sum_over_axis(categorical_log_prob(p, y)), p)
    z = p.data - p.data.max()
    probs = np.exp(z) / np.exp(z).sum()
    onehot = np.array([[0.0, 0.0, 1.0]])
    assert np.allclose(g, onehot - probs, atol=1e-12)


def categorical_oracle(logits, idx, g):
    """Value and logit gradient of categorical_log_prob, gathered and
    scattered along the last axis, given the output gradient ``g``."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    value = np.take_along_axis(logp, idx[..., None], axis=-1)[..., 0]
    onehot = np.zeros_like(logp)
    np.put_along_axis(onehot, idx[..., None], 1.0, axis=-1)
    return value, np.expand_dims(g, -1) * (onehot - np.exp(logp))


@pytest.mark.parametrize("lead", [(), (6,), (3, 4)], ids=["1-d", "2-d", "3-d"])
def test_categorical_log_prob_matches_along_axis_oracle(lead):
    rng = np.random.default_rng(41)
    logits = Parameter(rng.standard_normal((*lead, 5)) * 3.0, "logits")
    idx = rng.integers(0, 5, size=lead)
    g = rng.standard_normal(lead)
    with Tape() as tape:
        out = categorical_log_prob(logits, idx)
        loss = sum_over_axis(mul(out, constant(g)))
    grad = tape.grad(tape.backward(loss), logits)
    want_value, want_grad = categorical_oracle(logits.data, idx, g)
    assert out.shape == lead
    assert np.array_equal(out.data, want_value)
    assert np.array_equal(log_softmax_pick(logits.data, idx), want_value)
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("steps", [None, 3], ids=["rows", "steps"])
def test_categorical_head_matches_the_op_by_op_heads(n_heads, steps):
    # value, per-row values and every gradient bit for bit, the input's
    # joined from both heads in the tape's order; targets at both ends
    rng = np.random.default_rng(43)
    batch, classes = 4, 5
    lead = (batch,) if steps is None else (steps, batch)
    x = Parameter(rng.standard_normal((math.prod(lead), 3)) * 2.0, "x")
    heads = [Linear(rng, 3, classes, f"h{k}") for k in range(n_heads)]
    for h in heads:
        h.b.data[...] = rng.standard_normal(classes)
    targets = rng.integers(0, classes, size=(*lead, n_heads))
    targets.reshape(-1, n_heads)[:2] = [[0], [classes - 1]]
    g = constant(rng.standard_normal(batch))
    params = [x] + [p for h in heads for p in h.parameters()]

    def run(score):
        with Tape() as tape:
            out, per_row = score()
            loss = sum_over_axis(mul(out, g))
        grads = tape.backward(loss)
        return [out.data, per_row] + [tape.grad(grads, p) for p in params]

    fused = run(
        lambda: categorical_head(
            [matmul(x, h.w) for h in heads], [h.b for h in heads], targets
        )
    )
    oracle = run(lambda: composed_heads(x, heads, targets))
    assert fused[0].shape == (batch,) and fused[1].shape == lead
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in oracle]


def test_gaussian_log_density_hand():
    # d=2, diff=0: -log(2*pi); diff=(1,0): extra -1/2
    y = np.zeros((1, 2))
    assert gaussian_log_density(y, y).data[0] == pytest.approx(-LOG_2PI, abs=1e-15)
    m = np.array([[1.0, 0.0]])
    assert gaussian_log_density(y, m).data[0] == pytest.approx(
        -0.5 - LOG_2PI, abs=1e-15
    )


def test_embedding_lookup_accumulates_repeats():
    table = Parameter(np.arange(6.0).reshape(3, 2), "emb")
    ids = np.array([1, 1, 2])
    (g,) = backward_wrt(lambda: sum_over_axis(embedding_lookup(table, ids)), table)
    # row 1 hit twice, row 2 once, row 0 never
    assert np.array_equal(g, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_sum_over_axis_variants():
    x = np.arange(6.0).reshape(2, 3)
    assert sum_over_axis(x).data == 15.0
    assert np.array_equal(sum_along(x, 0).data, [3.0, 5.0, 7.0])
    assert np.array_equal(sum_along(x, -1).data, [3.0, 12.0])


def test_concat_last_forward_and_split_gradient():
    a = Parameter([[1.0, 2.0]], "a")
    b = Parameter([[3.0]], "b")
    out = concat_last(a, b)
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])
    ga, gb = backward_wrt(
        lambda: sum_over_axis(mul(concat_last(a, b), np.array([[1.0, 10.0, 100.0]]))),
        a,
        b,
    )
    assert np.array_equal(ga, [[1.0, 10.0]])
    assert np.array_equal(gb, [[100.0]])


def test_mean_all():
    assert mean_all(np.arange(4.0)).data == 1.5


# ---------------------------------------------------------------------------
# broadcasting


def test_add_broadcast_unbroadcast():
    w = Parameter(np.ones((2, 3)), "w")
    bias = Parameter(np.zeros(3), "b")
    gw, gb = backward_wrt(lambda: sum_over_axis(add(w, bias)), w, bias)
    assert np.array_equal(gw, np.ones((2, 3)))
    assert np.array_equal(gb, [2.0, 2.0, 2.0])  # summed over broadcast rows


def test_mul_broadcast_scalar():
    p = Parameter([1.0, 2.0], "p")
    (g,) = backward_wrt(lambda: sum_over_axis(mul(p, 3.0)), p)
    assert np.array_equal(g, [3.0, 3.0])


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar():
    p = Parameter([1.0, 2.0], "p")
    with Tape() as tape:
        out = mul(p, p)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(out)


def test_unused_watched_leaf_gets_exact_zero():
    used = Parameter([2.0], "used")
    unused = Parameter([[5.0, 5.0]], "unused")
    with Tape() as tape:
        tape.watch(unused)
        loss = sum_over_axis(mul(used, used))
    grads = tape.backward(loss)
    g = tape.grad(grads, unused)
    assert g.shape == (1, 2)
    assert np.array_equal(g, np.zeros((1, 2)))


def test_repeated_watch_shares_node():
    p = Parameter([1.0], "p")
    with Tape() as tape:
        t1 = tape.watch(p)
        t2 = tape.watch(p)
    assert t1.node == t2.node


def test_parameter_used_twice_accumulates():
    p = Parameter([3.0], "p")
    (g,) = backward_wrt(lambda: sum_over_axis(add(mul(p, p), p)), p)
    assert np.array_equal(g, [7.0])  # 2x + 1 at x=3


def test_constant_blocks_gradient():
    p = Parameter([1.5], "p")
    (g,) = backward_wrt(lambda: sum_over_axis(mul(constant(p), p)), p)
    # only the live branch contributes: d(c*x)/dx = c
    assert np.array_equal(g, [1.5])


def two_outputs(a, b):
    """a and b handed through as one record with two outputs."""
    return list(record_joint("two-outputs", (a.data, b.data), [a, b], lambda gs: gs))


def test_stale_tape_tensor_is_plain_value():
    p = Parameter([2.0], "p")
    with Tape() as t1:
        old = mul(p, p)
    with Tape() as t2:
        # a record with no input on the active tape, all constants or
        # stale, is not recorded: its outputs are plain values
        for inputs in ([constant(p), Tensor([3.0])], [old, old], [constant(p), old]):
            for outs in ([mul(*inputs)], two_outputs(*inputs)):
                assert len(t2) == 0 and all(t.node is None for t in outs)
        loss = sum_over_axis(mul(old, p))
    grads = t2.backward(loss)
    # `old` came from t1, so only the direct factor differentiates
    assert np.array_equal(t2.grad(grads, p), [4.0])


@pytest.mark.parametrize(
    "case",
    ["matmul, constant left", "matmul, array right", "mul, array", "mul, stale",
     "mean_all", "gaussian, constant y", "gaussian, array mean"],
)
def test_an_operand_off_the_tape_gets_no_gradient_formed(case):
    # matmul, mul and the Gaussian density form the gradient only of an
    # operand on the active tape: for a constant, an array or a tensor of
    # another tape the pullback returns None, and its product is never formed
    rng = np.random.default_rng(15)
    p = Parameter(rng.standard_normal((3, 3)), "p")
    c = rng.standard_normal((3, 3))
    with Tape():
        stale = mul(p, 2.0)
    build = {
        "matmul, constant left": lambda w: matmul(constant(c), w),
        "matmul, array right": lambda w: matmul(w, c),
        "mul, array": lambda w: mul(c, w),
        "mul, stale": lambda w: mul(w, stale),
        "mean_all": mean_all,  # the sum scaled by the constant 1/n
        "gaussian, constant y": lambda w: gaussian_log_density(constant(c), w),
        "gaussian, array mean": lambda w: gaussian_log_density(w, c),
    }[case]
    with Tape() as tape:
        out = build(tape.watch(p))
        _, _, (nodes, pullback) = tape._records[-1]
    grads = pullback(np.ones_like(out.data))
    assert nodes.count(None) == 1
    assert [g is None for g in grads] == [n is None for n in nodes]


def test_no_tape_is_value_only():
    out = mul(Tensor([1.0, 2.0]), 2.0)
    assert out.node is None
    assert np.array_equal(out.data, [2.0, 4.0])


def test_backward_linearity():
    p = Parameter([0.7, -1.2], "p")

    def lossA():
        return sum_over_axis(mul(p, p))

    def lossB():
        return sum_over_axis(sigmoid(p))

    (ga,) = backward_wrt(lossA, p)
    (gb,) = backward_wrt(lossB, p)
    (gab,) = backward_wrt(lambda: add(lossA(), lossB()), p)
    assert np.allclose(gab, ga + gb, atol=1e-15)


# ---------------------------------------------------------------------------
# rejection


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        matmul(np.ones(3), np.ones((3, 2)))


def test_add_rejects_non_broadcastable():
    with pytest.raises(ShapeError):
        add(np.ones((2, 3)), np.ones((2, 4)))


def test_mul_rejects_non_broadcastable():
    with pytest.raises(ShapeError, match="elementwise-mul"):
        mul(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ShapeError, match="elementwise-mul"):
        mul(np.ones(3), np.ones(4))


def test_embedding_rejects_out_of_range():
    table = np.ones((3, 2))
    with pytest.raises(ShapeError, match="out of range"):
        embedding_lookup(table, np.array([0, 3]))
    with pytest.raises(ShapeError, match="out of range"):
        embedding_lookup(table, np.array([-1]))
    with pytest.raises(ShapeError, match="integers"):
        embedding_lookup(table, np.array([0.5]))


def test_categorical_rejects_bad_targets():
    logits = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        categorical_log_prob(logits, np.array([0, 3]))
    with pytest.raises(ShapeError):
        categorical_log_prob(logits, np.array([0]))
    for bad in ([[0], [3]], [[0], [-1]], [[0.0], [1.0]], [0, 1], [[0, 1], [1, 0]], [[[0]]]):
        with pytest.raises(ShapeError, match="categorical-head"):
            categorical_head([logits], [np.zeros(3)], np.array(bad))


def test_gaussian_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        gaussian_log_density(np.ones((2, 3)), np.ones((2, 2)))


def test_row_stack_and_reshape_reject_bad_shapes():
    with pytest.raises(ShapeError, match="row-stack"):
        stack_rows([])
    with pytest.raises(ShapeError, match="row-stack"):
        stack_rows([np.ones((2, 3)), np.ones((2, 4))])
    with pytest.raises(ShapeError, match="reshape"):
        reshape(np.ones((2, 3)), (4, 2))


def masked_sigmoid(x):
    """The per-sign boolean-mask formula the stable helper replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_is_bit_identical_to_masked_formula():
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -745.2]
    x = np.concatenate([special, rng.standard_normal(200) * 30.0]).reshape(-1, 7)
    got, want = stable_sigmoid(x), masked_sigmoid(x)
    assert got.tobytes() == want.tobytes()
    assert sigmoid(x).data.tobytes() == want.tobytes()
    p = Parameter(x, "p")
    (g,) = backward_wrt(lambda: sum_over_axis(softplus(p)), p)
    assert g.tobytes() == want.tobytes()


def two_division_sigmoid(x):
    """The stable helper's former body: both quotients over every element."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def test_stable_sigmoid_divides_once_with_the_same_bits():
    rng = np.random.default_rng(6)
    tiny = np.nextafter(0.0, 1.0)  # 5e-324, the smallest subnormal
    special = [0.0, -0.0, tiny, -tiny, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
    # arbitrary bit patterns cover subnormals, huge magnitudes and NaN payloads
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    x = np.concatenate([special, bits, rng.standard_normal(50_000) * 40.0])
    with np.errstate(all="ignore"):
        got, want = stable_sigmoid(x), two_division_sigmoid(x)
    assert got.tobytes() == want.tobytes()


def test_paused_tape_records_nothing_and_resumes():
    p = Parameter(np.ones(3), "p")
    with Tape() as tape:
        with paused():
            inner = sum_over_axis(mul(p, p))
        assert len(tape) == 0 and inner.node is None
        outer = sum_over_axis(mul(p, p))
    assert len(tape) == 2 and outer.tape is tape


# ---------------------------------------------------------------------------
# finite differences over every primitive


FD_RNG = np.random.default_rng(20240817)


def _param(*shape, name="p", scale=1.0):
    return Parameter(FD_RNG.standard_normal(shape) * scale, name)


@pytest.mark.parametrize(
    "name",
    [
        "matmul",
        "add",
        "elementwise-mul",
        "relu",
        "sigmoid",
        "softplus",
        "row-softmax",
        "concat-last-axis",
        "row-stack",
        "reshape",
        "sum-over-axis",
        "embedding-lookup",
        "gaussian-log-density",
        "categorical-log-prob",
    ],
)
def test_fd_every_primitive(name):
    probe = _param(4, 3, name="probe")

    if name == "matmul":
        other = _param(3, 2, name="other")
        fn = lambda: mean_all(matmul(probe, other))
        params = [probe, other]
    elif name == "add":
        bias = _param(3, name="bias")
        fn = lambda: mean_all(sigmoid(add(probe, bias)))
        params = [probe, bias]
    elif name == "elementwise-mul":
        other = _param(4, 3, name="other")
        fn = lambda: mean_all(mul(probe, other))
        params = [probe, other]
    elif name == "relu":
        # keep every coordinate at least 10 fd-steps from the kink
        probe = Parameter(
            np.where(np.abs(probe.data) < 1e-3, 0.5, probe.data), "probe"
        )
        fn = lambda: mean_all(relu(probe))
        params = [probe]
    elif name in ("sigmoid", "softplus"):
        prim = {"sigmoid": sigmoid, "softplus": softplus}[name]
        fn = lambda: mean_all(prim(probe))
        params = [probe]
    elif name == "row-softmax":
        sel = FD_RNG.standard_normal((4, 3))
        fn = lambda: mean_all(mul(row_softmax(probe), sel))
        params = [probe]
    elif name == "concat-last-axis":
        other = _param(4, 2, name="other")
        sel = FD_RNG.standard_normal((4, 5))
        fn = lambda: mean_all(mul(concat_last(probe, other), sel))
        params = [probe, other]
    elif name == "row-stack":
        other = _param(2, 3, name="other")
        sel = FD_RNG.standard_normal((10, 3))
        fn = lambda: mean_all(mul(stack_rows([probe, other, probe]), sel))
        params = [probe, other]
    elif name == "reshape":
        sel = FD_RNG.standard_normal((2, 6))
        fn = lambda: mean_all(mul(reshape(probe, (2, 6)), sel))
        params = [probe]
    elif name == "sum-over-axis":
        fn = lambda: mean_all(mul(sum_along(probe, 0), np.array([1.0, -2.0, 0.5])))
        params = [probe]
    elif name == "embedding-lookup":
        ids = np.array([0, 2, 2, 1])
        sel = FD_RNG.standard_normal((4, 3))
        fn = lambda: mean_all(mul(embedding_lookup(probe, ids), sel))
        params = [probe]
    elif name == "gaussian-log-density":
        y = FD_RNG.standard_normal((4, 3))
        fn = lambda: mean_all(gaussian_log_density(y, probe))
        params = [probe]
    else:  # categorical-log-prob
        targets = np.array([0, 1, 2, 1])
        fn = lambda: mean_all(categorical_log_prob(probe, targets))
        params = [probe]

    assert grad_check(fn, params, step=1e-5) < 1e-4


def test_fd_composed_expression():
    w1 = _param(3, 4, name="w1", scale=0.7)
    w2 = _param(4, 2, name="w2", scale=0.7)
    x = FD_RNG.standard_normal((5, 3))
    y = FD_RNG.standard_normal((5, 2))

    def fn():
        h = sigmoid(matmul(x, w1))
        return mean_all(gaussian_log_density(y, matmul(h, w2)))

    assert grad_check(fn, [w1, w2], step=1e-5) < 1e-4


def test_grad_check_skip_mask():
    p = Parameter(np.array([0.0, 1.0]), "p")
    err = grad_check(
        lambda: sum_over_axis(relu(p)),
        [p],
        skip={p: np.array([True, False])},
    )
    assert err < 1e-10


def test_grad_check_rejects_bad_step():
    p = Parameter([1.0], "p")
    with pytest.raises(ValueError):
        grad_check(lambda: sum_over_axis(p * p), [p], step=0.0)


# ---------------------------------------------------------------------------
# exactness of the fast paths


@pytest.mark.parametrize("lead", [(300,), (20, 16), (4, 9, 10), (3,), (2, 5)])
def test_max_last_is_bit_equal_to_row_major_max(lead):
    # many short rows take the column-major path, few rows the row-major
    # one; both must give x.max(axis=-1, keepdims=True) to the bit,
    # through ties, signed zeros, infinities and NaN
    rng = np.random.default_rng(11)
    nan = np.float64(np.nan)
    for width in range(1, 65):
        x = rng.integers(-3, 3, size=(*lead, width)).astype(np.float64)
        flat = x.reshape(-1, width)
        flat[::2] = rng.standard_normal(flat[::2].shape)
        flat[rng.random(flat.shape) < 0.3] *= -0.0
        flat[1::5] = rng.choice([0.0, -0.0], size=flat[1::5].shape)
        flat[2::7, 0] = np.inf
        flat[3::11, -1] = -np.inf
        flat[4::9] = -np.inf
        flat[5::13, width // 2] = nan
        flat[6::17, :] = nan
        got, want = max_last(x), x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), width


def test_softmax_parts_keep_the_softmax_and_log_softmax_bits():
    rng = np.random.default_rng(12)
    for shape in [(5, 3), (700, 2), (300, 8)]:
        x = rng.standard_normal(shape) * 4.0
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        idx = rng.integers(0, shape[-1], size=shape[0])
        got_z, got_e, got_s = softmax_parts(x)
        assert got_z.tobytes() == z.tobytes() and got_s.tobytes() == s.tobytes()
        assert row_softmax(x).data.tobytes() == (e / s).tobytes()
        logp = z - np.log(s)
        assert log_softmax_pick(x, idx).tobytes() == logp[np.arange(shape[0]), idx].tobytes()


def unique_oracle_grad(vocab, ids, g):
    """The embedding gradient as the segmented sum over ``np.unique``'s
    runs of the sorted ids."""
    order = np.argsort(ids, kind="stable")
    present, starts = np.unique(ids[order], return_index=True)
    dt = np.zeros((vocab, g.shape[-1]))
    dt[present] = np.add.reduceat(g[order], starts, axis=0)
    return dt


@pytest.mark.parametrize(
    "ids",
    [[3, 1, 3, 3, 0, 1, 5, 3], [2], [4, 2, 0, 1, 5, 3], [1, 1, 1, 1]],
    ids=["repeated", "single", "distinct", "one-id"],
)
def test_embedding_gradient_runs_match_the_unique_oracle(ids):
    rng = np.random.default_rng(13)
    ids = np.array(ids)
    table = Parameter(rng.standard_normal((6, 3)), "emb")
    g = rng.standard_normal((len(ids), 3))
    (grad,) = backward_wrt(
        lambda: sum_over_axis(mul(embedding_lookup(table, ids), constant(g))), table
    )
    assert grad.tobytes() == unique_oracle_grad(6, ids, g).tobytes()
    scattered = np.zeros((6, 3))
    np.add.at(scattered, ids, g)
    np.testing.assert_allclose(grad, scattered, rtol=1e-15)


def test_two_slices_of_one_tensor_get_one_gradient():
    # both slices' gradients land in one array, with the bits of adding
    # the two dense zero-padded arrays as before
    rng = np.random.default_rng(14)
    x = Parameter(rng.standard_normal((7, 5)), "x")
    wa, wb = rng.standard_normal((7, 2)), rng.standard_normal((7, 3))
    wb[0] = -0.0
    (got,) = backward_wrt(
        lambda: add(
            sum_over_axis(mul(slice_last(x, 0, 2), constant(wa))),
            sum_over_axis(mul(slice_last(x, 2, 5), constant(wb))),
        ),
        x,
    )
    full_a, full_b = np.zeros((7, 5)), np.zeros((7, 5))
    full_a[:, :2], full_b[:, 2:] = wa, wb
    assert got.tobytes() == (full_b + full_a).tobytes()
    # overlapping slices, and a slice read twice, still add densely
    (got,) = backward_wrt(
        lambda: add(
            sum_over_axis(mul(slice_last(x, 0, 3), constant(wb))),
            sum_over_axis(mul(slice_last(x, 1, 4), constant(wb))),
        ),
        x,
    )
    want = np.zeros((7, 5))
    want[:, 0:3] += wb
    want[:, 1:4] += wb
    np.testing.assert_array_equal(got, want)
    (alone,) = backward_wrt(lambda: sum_over_axis(mul(slice_last(x, 1, 3), constant(wa))), x)
    want = np.zeros((7, 5))
    want[:, 1:3] = wa
    assert alone.tobytes() == want.tobytes()


def split_scaled(xs, c, seen):
    """The sum of ``xs`` times c as one record with two outputs, columns
    0:2 and 2:; its pull logs the gradients it receives and zero-pads the
    missing ones."""
    y = sum(constant(x).data for x in xs) * c

    def pull(gs):
        seen.append(gs)
        dense = np.zeros_like(y)
        for g, cols in zip(gs, (slice(0, 2), slice(2, None))):
            if g is not None:
                dense[:, cols] = g
        return [dense * c for _ in xs]

    return record_joint("split-scaled", (y[:, :2], y[:, 2:]), xs, pull)


@pytest.mark.parametrize(
    "read, n_inputs",
    [
        pytest.param(read, n, id=read if n == 1 else f"{read}, {n} inputs")
        for n in (1, 3)
        for read in ("first", "second", "both")
    ],
)
def test_a_record_with_two_outputs_pulls_each_gradient(read, n_inputs):
    rng = np.random.default_rng(15)
    x, q = (Parameter(rng.standard_normal((7, 5)), name) for name in "xq")
    c, wa, wb = rng.standard_normal((7, 5)), rng.standard_normal((7, 2)), rng.standard_normal((7, 3))
    # three inputs: a constant and a second parameter join x
    xs = [x, constant(rng.standard_normal((7, 5))), q][:n_inputs]

    def loss(a, b):
        terms = {"first": [(a, wa)], "second": [(b, wb)], "both": [(a, wa), (b, wb)]}[read]
        sums = [sum_over_axis(mul(t, constant(w))) for t, w in terms]
        return add(*sums) if len(sums) == 2 else sums[0]

    seen = []
    with Tape() as tape:
        a, b = split_scaled(xs, c, seen)
        assert len(tape) == 1 and a.node != b.node
        out = loss(a, b)
    grads = tape.backward(out)
    got = tape.grad(grads, x)
    # however many inputs sit on the tape, one backward pulls once
    (gs,) = seen
    want_gs = {"first": [wa, None], "second": [None, wb], "both": [wa, wb]}[read]
    assert [g is None for g in gs] == [w is None for w in want_gs]
    for g, w in zip(gs, want_gs):
        assert g is None or g.tobytes() == w.tobytes()
    if n_inputs == 3:
        assert tape.grad(grads, q).tobytes() == got.tobytes()

    # the same computation from one output and the slice oracle
    y = sum(constant(t).data for t in xs) * c

    def one_output():
        z = record_joint("scaled", y, xs, lambda g: [g * c for _ in xs])
        return loss(slice_last(z, 0, 2), slice_last(z, 2, 5))

    assert np.array_equal(a.data, y[:, :2]) and np.array_equal(b.data, y[:, 2:])
    (want,) = backward_wrt(one_output, x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_grads", [1, 3])
def test_a_pullback_with_the_wrong_number_of_gradients_raises(n_grads):
    x, y = Parameter(np.ones(2), "x"), Parameter(np.ones(2), "y")
    with Tape() as tape:
        z = record_joint("two-in", x.data + y.data, [x, y], lambda g: [g] * n_grads)
        loss = sum_over_axis(z)
    # no input's gradient may be dropped, nor one handed to no input
    with pytest.raises(ValueError, match="zip"):
        tape.backward(loss)


def test_tape_record_keeps_the_signature_the_benchmark_tracer_wraps():
    # perfbench/tracer.py::_wrap_record counts records by forwarding
    # exactly (tape, kind, out_data, pulls) to Tape.record
    params = inspect.signature(Tape.record).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("self", "kind", "out_data", "pulls")
    ]


def test_a_two_output_record_that_no_loss_reads_is_not_pulled():
    rng = np.random.default_rng(16)
    x = Parameter(rng.standard_normal((3, 4)), "x")
    seen = []
    with Tape() as tape:
        split_scaled([x], np.ones((3, 4)), seen)
        loss = sum_over_axis(x)
    assert tape.grad(tape.backward(loss), x).tobytes() == np.ones((3, 4)).tobytes()
    assert seen == []
    # off the tape the outputs are plain tensors, views of the values
    a, b = split_scaled([x], np.ones((3, 4)), seen)
    assert a.node is None and b.node is None and a.data.base is b.data.base
