import math

import numpy as np
import pytest
from conftest import read_pgm

from modnet.diagnostics import (
    SelectionSnapshot,
    batch_entropy,
    dist_entropy,
    export_path_trace,
    path_counts,
    selection_entropy,
    selection_image,
    write_pgm,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropies


def test_dist_entropy_analytic_cases():
    assert dist_entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert dist_entropy(np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-12)
    m = 7
    assert dist_entropy(np.full(m, 1.0 / m)) == pytest.approx(math.log(m), abs=1e-12)
    # 0 log 0 handled as 0
    assert dist_entropy(np.array([0.3, 0.7, 0.0])) == pytest.approx(
        -(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), abs=1e-12
    )


def test_selection_entropy_mean_of_individuals():
    probs = np.array(
        [
            [[1.0, 0.0], [0.5, 0.5]],
            [[0.5, 0.5], [1.0, 0.0]],
        ]
    )  # (batch=2, slots=2, modules=2)
    # individuals: 0, ln2, ln2, 0 -> mean = ln2/2
    assert selection_entropy(probs) == pytest.approx(LN2 / 2.0, abs=1e-12)


def test_batch_entropy_of_mean_distribution():
    probs = np.array(
        [
            [[1.0, 0.0]],
            [[0.0, 1.0]],
        ]
    )  # two confident opposite picks
    # mean distribution is (0.5, 0.5): batch entropy ln2, individuals 0
    assert batch_entropy(probs) == pytest.approx(LN2, abs=1e-12)
    assert selection_entropy(probs) == pytest.approx(0.0, abs=1e-15)


def test_collapse_signature_both_zero():
    probs = np.tile([[1.0, 0.0]], (16, 1))[:, None, :]
    assert selection_entropy(probs) == pytest.approx(0.0, abs=1e-15)
    assert batch_entropy(probs) == pytest.approx(0.0, abs=1e-15)


def test_batch_entropy_averages_heads_separately():
    # head 0 always module 0; head 1 split between modules
    probs = np.zeros((4, 2, 2))
    probs[:, 0, 0] = 1.0
    probs[:2, 1, 0] = 1.0
    probs[2:, 1, 1] = 1.0
    # per-head batch entropies: 0 and ln2 -> head average ln2/2
    assert batch_entropy(probs) == pytest.approx(LN2 / 2.0, abs=1e-12)


def test_batch_entropy_dominates_selection_entropy():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        shape = (rng.integers(1, 9), rng.integers(1, 4), rng.integers(2, 6))
        z = rng.standard_normal(shape) * rng.uniform(0.1, 5.0)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        assert batch_entropy(probs) >= selection_entropy(probs) - 1e-12


def test_snapshot_layer_averaging():
    layer0 = np.tile([[0.5, 0.5]], (8, 1))[:, None, :]  # entropy ln2
    layer1 = np.tile([[1.0, 0.0]], (8, 1))[:, None, :]  # entropy 0
    snap = SelectionSnapshot([layer0, layer1])
    assert snap.h_selection == pytest.approx(LN2 / 2.0, abs=1e-12)
    assert snap.h_batch == pytest.approx(LN2 / 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# decision matrix image


def test_selection_image_rounding():
    probs = np.array([[[0.0, 0.5, 1.0]], [[0.2, 0.3, 0.5]]])
    img = selection_image(probs)
    assert img.dtype == np.uint8
    assert img.shape == (2, 3)  # (batch*slots, modules)
    # np.round ties go to even: 127.5 -> 128, 76.5 -> 76
    assert np.array_equal(img[0], [0, 128, 255])
    assert np.array_equal(img[1], [51, 76, 128])


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    img = rng.integers(0, 256, size=(17, 9)).astype(np.uint8)
    path = tmp_path / "sel.pgm"
    write_pgm(img, str(path))
    back = read_pgm(str(path))
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


def test_pgm_reads_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes([1, 2, 3, 4, 5, 6])
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    img = read_pgm(str(path))
    assert img.shape == (2, 3)
    assert np.array_equal(img.reshape(-1), np.frombuffer(body, dtype=np.uint8))


def test_pgm_rejects_foreign_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(str(path))
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError):
        read_pgm(str(path))


# ---------------------------------------------------------------------------
# path traces


def test_path_counts_hand_case():
    chosen = np.array(
        [
            [[0], [1]],
            [[0], [1]],
            [[1], [0]],
        ],
        dtype=np.int64,
    )  # (batch=3, layers=2, slots=1)
    nodes, edges = path_counts(chosen, 2)
    assert np.array_equal(nodes, [[2, 1], [1, 2]])
    assert np.array_equal(edges[0], [[0, 2], [1, 0]])


def test_path_counts_multi_slot_lanes():
    chosen = np.array([[[0, 0], [1, 1]]], dtype=np.int64)  # one point, K=2
    nodes, edges = path_counts(chosen, 2)
    assert np.array_equal(nodes, [[2, 0], [0, 2]])
    # slot k feeds slot k: two lanes, both 0 -> 1
    assert np.array_equal(edges[0], [[0, 2], [0, 0]])
    # mixed slots keep lanes separate
    nodes, edges = path_counts(np.array([[[0, 1], [1, 0]]], dtype=np.int64), 2)
    assert np.array_equal(edges[0], [[0, 1], [1, 0]])


def test_export_path_trace_flow_conservation(tmp_path):
    rng = np.random.default_rng(41)
    chosen = rng.integers(0, 3, size=(50, 3, 2)).astype(np.int64)
    path = tmp_path / "trace.dot"
    export_path_trace(chosen, 3, str(path))
    text = path.read_text()
    assert text.startswith("digraph")

    # parse edges back out and check inflow == outflow at interior nodes
    import re

    edge_re = re.compile(
        r'(l\d+_m\d+|source|sink)\s*->\s*(l\d+_m\d+|sink|source)\s*\[label="(\d+)"\]'
    )
    inflow: dict = {}
    outflow: dict = {}
    for a, b, w in edge_re.findall(text):
        outflow[a] = outflow.get(a, 0) + int(w)
        inflow[b] = inflow.get(b, 0) + int(w)
    interior = [k for k in set(inflow) | set(outflow) if k.startswith("l")]
    assert interior
    for node in interior:
        assert inflow.get(node, 0) == outflow.get(node, 0), node
    # total source outflow equals total sink inflow
    assert outflow["source"] == inflow["sink"]

