import math

import numpy as np
import pytest
from oracles import exact_bayes_nll, reference_two_regime_sequences

from modnet.datasets import (
    char_vocab,
    encode_text,
    gen_toy_regression,
    gen_two_regime_sequences,
    load_text_data,
    noisy_permutation_table,
    random_rotation,
    text_windows,
    word_vocab,
)


def entropy_rate(table: np.ndarray) -> float:
    """Average next-state entropy under the uniform stationary law."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0, table * np.log(table), 0.0)
    return float(-terms.sum(axis=1).mean())


def bayes_nll(data) -> float:
    """The generating process's loss on generated two-regime data."""
    return exact_bayes_nll(data.tokens, data.targets, data.regimes, data.tables, data.n_states)


# ---------------------------------------------------------------------------
# toy regression


def test_rotation_is_special_orthogonal():
    for seed in range(20):
        r = random_rotation(np.random.default_rng(seed), 2)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    r5 = random_rotation(np.random.default_rng(0), 5)
    assert np.allclose(r5 @ r5.T, np.eye(5), atol=1e-12)
    assert np.linalg.det(r5) == pytest.approx(1.0, abs=1e-10)


def test_toy_cluster_geometry():
    data = gen_toy_regression(np.random.default_rng(3), n=4000)
    for c, sign in ((0, -1.0), (1, 1.0)):
        pts = data.x[data.cluster == c]
        assert abs(pts[:, 0].mean() - sign * 2.0) < 0.05
        assert abs(pts[:, 1].mean()) < 0.05
        assert abs(pts.std(axis=0) - 0.5).max() < 0.05
    # both clusters populated roughly evenly
    counts = np.bincount(data.cluster)
    assert abs(counts[0] - counts[1]) < 300


def test_toy_targets_follow_cluster_maps():
    data = gen_toy_regression(np.random.default_rng(4), n=500)
    a = data.cluster == 0
    assert np.allclose(data.y[a], data.x[a] @ data.rotation.T, atol=1e-12)
    assert np.allclose(data.y[~a], data.x[~a] @ data.scale.T, atol=1e-12)
    # rotation preserves norms; diagonal scale acts per coordinate
    assert np.allclose(
        np.linalg.norm(data.y[a], axis=1), np.linalg.norm(data.x[a], axis=1), atol=1e-12
    )
    d = np.diag(data.scale)
    assert np.allclose(data.y[~a], data.x[~a] * d, atol=1e-12)


def test_toy_scale_factors_within_range():
    data = gen_toy_regression(
        np.random.default_rng(5), n=10, scale_lo=0.5, scale_hi=2.0
    )
    diag = np.diag(data.scale)
    assert np.all((diag >= 0.5) & (diag <= 2.0))
    assert np.array_equal(data.scale, np.diag(diag))  # off-diagonal zero


def test_toy_respects_dim_and_n():
    data = gen_toy_regression(np.random.default_rng(6), n=123, dim=3)
    assert data.x.shape == (123, 3)
    assert data.y.shape == (123, 3)
    assert data.n == 123


# ---------------------------------------------------------------------------
# two-regime sequences


def test_permutation_table_structure():
    t = noisy_permutation_table(np.random.default_rng(7), 6, 0.1)
    assert t.shape == (6, 6)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
    # each row: one entry 0.9, five entries 0.02
    assert np.allclose(np.sort(t, axis=1)[:, -1], 0.9, atol=1e-12)
    assert np.allclose(np.sort(t, axis=1)[:, :-1], 0.1 / 5.0, atol=1e-12)
    # the favored entries form a permutation
    assert np.array_equal(np.sort(t.argmax(axis=1)), np.arange(6))


def test_entropy_rate_hand_values():
    # deterministic permutation: zero entropy
    t = noisy_permutation_table(np.random.default_rng(8), 4, 0.0)
    assert entropy_rate(t) == pytest.approx(0.0, abs=1e-15)
    # uniform rows: log(n)
    u = np.full((4, 4), 0.25)
    assert entropy_rate(u) == pytest.approx(math.log(4.0), abs=1e-12)
    # noisy permutation: H = -(1-e)ln(1-e) - e ln(e/(n-1)), same every row
    e = 0.1
    t = noisy_permutation_table(np.random.default_rng(9), 6, e)
    want = -(1 - e) * math.log(1 - e) - e * math.log(e / 5.0)
    assert entropy_rate(t) == pytest.approx(want, abs=1e-12)


def test_two_regime_layout():
    data = gen_two_regime_sequences(np.random.default_rng(10), 40, unroll=12)
    assert data.tokens.shape == (40, 12)
    assert data.targets.shape == (40, 12)
    assert data.vocab_size == 8
    # alternating regimes, marker token starts each window
    assert np.array_equal(data.regimes, np.arange(40) % 2)
    assert np.array_equal(data.tokens[:, 0], 6 + data.regimes)
    # shifted-by-one alignment
    assert np.array_equal(data.tokens[:, 1:], data.targets[:, :-1])
    # content symbols only after the marker
    assert data.tokens[:, 1:].max() < 6
    assert data.targets.max() < 6


def test_two_regime_tables_disagree_everywhere():
    for seed in range(10):
        data = gen_two_regime_sequences(np.random.default_rng(seed), 4, 6)
        p0 = data.tables[0].argmax(axis=1)
        p1 = data.tables[1].argmax(axis=1)
        assert np.all(p0 != p1)


def test_two_regime_transitions_match_tables():
    # with zero noise each transition must follow its regime's permutation
    data = gen_two_regime_sequences(
        np.random.default_rng(11), 30, unroll=10, noise=0.0
    )
    perms = data.tables.argmax(axis=2)
    for w in range(30):
        p = perms[data.regimes[w]]
        for t in range(1, 10):
            assert data.targets[w, t] == p[data.tokens[w, t]]


def test_two_regime_draws_match_the_reference_generator():
    # every array byte for byte against the per-step row-major draws
    # (12, 0.9): rows whose running total rounds below 1
    for n_states, noise in [(2, 0.0), (2, 0.3), (6, 0.1), (12, 0.9), (40, 0.2)]:
        for n_windows in (1, 7, 2000):
            for unroll in (1, 2, 20):
                for seed in (0, 29, 101):
                    args = (n_windows, unroll, n_states, noise)
                    got = gen_two_regime_sequences(np.random.default_rng(seed), *args)
                    want = reference_two_regime_sequences(np.random.default_rng(seed), *args)
                    for name in ("tokens", "targets", "regimes", "tables"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, args, seed)


def test_bayes_nll_hand_computed_tiny_case():
    # one window, 3 steps: marker -> s0 -> s1 -> s2
    # loss = [ln V + -ln T[s0,s1] + -ln T[s0->s1 row]] / 3 . Build by hand:
    tables = np.stack(
        [
            np.array([[0.9, 0.1], [0.1, 0.9]]),
            np.array([[0.1, 0.9], [0.9, 0.1]]),
        ]
    )
    tokens = np.array([[2, 0, 1]])  # marker=2 (n_states=2, regime 0)
    targets = np.array([[0, 1, 1]])
    regimes = np.array([0])
    got = exact_bayes_nll(tokens, targets, regimes, tables, 2)
    want = (math.log(2.0) - math.log(0.1) - math.log(0.9)) / 3.0
    assert got == pytest.approx(want, abs=1e-12)


def test_bayes_nll_close_to_entropy_rate_prediction():
    data = gen_two_regime_sequences(
        np.random.default_rng(12), 2000, unroll=20, n_states=6, noise=0.1
    )
    h = entropy_rate(data.tables[0])
    t = 20
    predicted = (math.log(6.0) + (t - 1) * h) / t
    # realized NLL concentrates around the entropy-rate value
    assert abs(bayes_nll(data) - predicted) < 0.02


def test_bayes_nll_is_the_first_guess_alone_without_noise():
    # every later transition has probability 1, so only the uniform first
    # prediction of each window costs: ln(n_states) spread over the window
    for n_states in (2, 3, 6, 40):
        for unroll in (1, 2, 7, 20):
            for seed in range(3):
                data = gen_two_regime_sequences(
                    np.random.default_rng(seed), 50, unroll, n_states, noise=0.0
                )
                want = math.log(n_states) / unroll
                assert bayes_nll(data) == pytest.approx(want, rel=1e-15, abs=0)


def test_bayes_nll_of_one_step_windows_is_ln_n_states():
    for n_states, noise in [(2, 0.3), (6, 0.1), (40, 0.2)]:
        for n_windows in (1, 7, 300):
            data = gen_two_regime_sequences(
                np.random.default_rng(n_windows), n_windows, 1, n_states, noise
            )
            assert bayes_nll(data) == pytest.approx(math.log(n_states), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# text


def test_char_vocab_frequency_then_codepoint():
    v = char_vocab("abbccc")
    assert v == {"c": 0, "b": 1, "a": 2}
    v2 = char_vocab("ba")  # tie: codepoint ascending
    assert v2 == {"a": 0, "b": 1}


def test_word_vocab_reserved_ids_and_cap():
    v = word_vocab("the cat the hat\nthe end")
    assert v["<unk>"] == 0 and v["<eos>"] == 1
    assert v["the"] == 2  # most frequent
    capped = word_vocab("a b c d e f", cap=4)
    assert len(capped) == 4  # two reserved + two kept


def test_encode_text_char_roundtrip():
    ids, vocab = encode_text("hello", "char")
    inv = {i: c for c, i in vocab.items()}
    assert "".join(inv[i] for i in ids) == "hello"


def test_encode_text_word_eos_and_unk():
    ids, vocab = encode_text("a b\nc", "word")
    # every line ends with <eos>=1
    assert list(ids).count(1) == 2
    ids2 = [vocab.get("zzz", 0)]
    assert ids2 == [0]
    with pytest.raises(ValueError):
        encode_text("x", "bytes")


def test_text_windows_shapes_and_alignment():
    ids = np.arange(23)
    tokens, targets = text_windows(ids, unroll=4)
    assert tokens.shape == (4, 4)  # 23 // 5 = 4 windows
    assert np.array_equal(targets, tokens + 1)
    with pytest.raises(ValueError):
        text_windows(np.arange(3), unroll=10)


def test_load_text_data(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("the quick brown fox jumps over the lazy dog " * 20)
    data = load_text_data(str(p), "char", unroll=10)
    assert data.tokens.shape[1] == 10
    assert data.vocab_size <= 30
    assert data.tokens.max() < data.vocab_size
