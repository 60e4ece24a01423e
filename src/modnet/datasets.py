"""Task data: two-cluster regression, two-regime symbol chains, text.

Everything synthetic is generated from a caller-supplied generator, so a
fixed master seed reproduces the same arrays byte for byte; nothing here
touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly random rotation (orthonormal, determinant +1)."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


@dataclass
class ToyRegression:
    """Inputs from two Gaussian clusters, each with its own linear map."""

    x: np.ndarray
    y: np.ndarray
    cluster: np.ndarray
    rotation: np.ndarray
    scale: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]


def gen_toy_regression(
    rng: np.random.Generator,
    n: int = 2000,
    dim: int = 2,
    center: float = 2.0,
    spread: float = 0.5,
    scale_lo: float = 0.5,
    scale_hi: float = 2.0,
) -> ToyRegression:
    """Cluster 0 sits at (-center, 0, ...) and is rotated; cluster 1 sits
    at (+center, 0, ...) and is axis-scaled.  Targets are noise-free, so a
    router plus two linear maps can drive the error to zero.
    """
    rotation = random_rotation(rng, dim)
    scale = np.diag(rng.uniform(scale_lo, scale_hi, size=dim))
    cluster = rng.integers(0, 2, size=n)
    mu = np.zeros((2, dim))
    mu[0, 0] = -center
    mu[1, 0] = center
    x = mu[cluster] + spread * rng.standard_normal((n, dim))
    y = np.where(cluster[:, None] == 0, x @ rotation.T, x @ scale.T)
    return ToyRegression(x, y, cluster, rotation, scale)


def noisy_permutation_table(
    rng: np.random.Generator, n_states: int, noise: float
) -> np.ndarray:
    """Transition table: a permutation followed with prob 1-noise, else a
    uniformly random wrong state.  Doubly stochastic, uniform stationary
    distribution."""
    perm = rng.permutation(n_states)
    table = np.full((n_states, n_states), noise / (n_states - 1))
    table[np.arange(n_states), perm] = 1.0 - noise
    return table


@dataclass
class TwoRegimeData:
    """Windows of symbol chains, each opened by its regime's marker token.

    Content symbols are 0..n_states-1; marker for regime r is n_states+r.
    Every window is one self-contained segment, so models may assume a
    zero initial state.
    """

    tokens: np.ndarray
    targets: np.ndarray
    regimes: np.ndarray
    tables: np.ndarray
    n_states: int
    noise: float

    @property
    def vocab_size(self) -> int:
        return self.n_states + 2

    @property
    def n(self) -> int:
        return self.tokens.shape[0]


def gen_two_regime_sequences(
    rng: np.random.Generator,
    n_windows: int,
    unroll: int,
    n_states: int = 6,
    noise: float = 0.1,
) -> TwoRegimeData:
    """Alternating windows from two regimes with distinct transition rules.

    The two permutations are redrawn until they disagree in every state,
    so the regimes never share a transition and a single averaged rule is
    maximally wrong.
    """
    table0 = noisy_permutation_table(rng, n_states, noise)
    table1 = noisy_permutation_table(rng, n_states, noise)
    while np.any(table0.argmax(axis=1) == table1.argmax(axis=1)):
        table1 = noisy_permutation_table(rng, n_states, noise)
    tables = np.stack([table0, table1])

    regimes = np.arange(n_windows, dtype=np.int64) % 2
    windows = np.empty((n_windows, unroll + 1), dtype=np.int64)
    windows[:, 0] = n_states + regimes
    state = rng.integers(0, n_states, size=n_windows)
    windows[:, 1] = state
    # Inverse-CDF draws against the n_states - 1 inner boundaries of
    # running sums built once, successor-first: column r * n_states + s
    # holds regime r's boundaries for state s.  A uniform past the last
    # boundary picks the last successor, whatever the rows' rounded total.
    cum = np.cumsum(tables[..., :-1], axis=-1).transpose(2, 0, 1).reshape(-1, 2 * n_states)
    offset = regimes * n_states
    for t in range(2, unroll + 1):
        state = (rng.random(n_windows) >= np.take(cum, offset + state, axis=1)).sum(axis=0)
        windows[:, t] = state
    tokens = windows[:, :-1].copy()
    targets = windows[:, 1:].copy()
    return TwoRegimeData(tokens, targets, regimes, tables, n_states, noise)


@dataclass
class TextData:
    tokens: np.ndarray
    targets: np.ndarray
    vocab: dict
    unroll: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def n(self) -> int:
        return self.tokens.shape[0]


def char_vocab(text: str) -> dict[str, int]:
    """Characters ranked by frequency (desc), then codepoint (asc)."""
    counts: dict[str, int] = {}
    for ch in text:
        counts[ch] = counts.get(ch, 0) + 1
    ranked = sorted(counts, key=lambda c: (-counts[c], c))
    return {ch: i for i, ch in enumerate(ranked)}


def word_vocab(text: str, cap: int = 10_000) -> dict[str, int]:
    """Whitespace words ranked by frequency then spelling; id 0 is the
    unknown-word bucket, id 1 ends a line."""
    counts: dict[str, int] = {}
    for line in text.splitlines():
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts, key=lambda w: (-counts[w], w))[: max(cap - 2, 0)]
    vocab = {"<unk>": 0, "<eos>": 1}
    for w in ranked:
        vocab[w] = len(vocab)
    return vocab


def encode_text(text: str, mode: str, cap: int = 10_000) -> tuple[np.ndarray, dict]:
    if mode == "char":
        vocab = char_vocab(text)
        ids = np.array([vocab[ch] for ch in text], dtype=np.int64)
        return ids, vocab
    if mode == "word":
        vocab = word_vocab(text, cap)
        ids = []
        for line in text.splitlines():
            for w in line.split():
                ids.append(vocab.get(w, 0))
            ids.append(1)
        return np.array(ids, dtype=np.int64), vocab
    raise ValueError(f"text mode must be 'char' or 'word', got {mode!r}")


def text_windows(ids: np.ndarray, unroll: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping windows; each yields unroll prediction targets."""
    width = unroll + 1
    n = len(ids) // width
    if n == 0:
        raise ValueError(
            f"corpus of {len(ids)} tokens is shorter than one window ({width})"
        )
    block = ids[: n * width].reshape(n, width)
    return block[:, :-1].copy(), block[:, 1:].copy()


def load_text_data(path: str, mode: str, unroll: int, cap: int = 10_000) -> TextData:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    ids, vocab = encode_text(text, mode, cap)
    tokens, targets = text_windows(ids, unroll)
    return TextData(tokens, targets, vocab, unroll)
