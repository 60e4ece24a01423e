"""Specialization and collapse probes for selection distributions.

Two entropies summarize a batch of controller distributions.  The mean
per-input entropy is low when each input commits to one choice; the
entropy of the batch-averaged distribution is high when different inputs
commit to different choices.  Decisive-and-diverse routing therefore
shows a low first number and a high second one; both low means collapse
onto a single module, both high means indecision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dist_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis; zero bins contribute zero."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def selection_entropy(probs: np.ndarray) -> float:
    """Mean entropy of the individual distributions (batch, heads, modules)."""
    return float(dist_entropy(probs).mean())


def batch_entropy(probs: np.ndarray) -> float:
    """Head-averaged entropy of the batch-mean distribution."""
    return float(dist_entropy(np.asarray(probs, dtype=np.float64).mean(axis=0)).mean())


@dataclass
class SelectionSnapshot:
    """Controller distributions on a probe batch; the realized choices are
    the paths that ``probe`` returns beside it.

    One entry per modular layer.  For recurrent models, flatten
    (window, timestep) into the batch axis first: every timestep is an
    independent routing decision.
    """

    probs: list[np.ndarray]

    @property
    def h_selection(self) -> float:
        return float(np.mean([selection_entropy(p) for p in self.probs]))

    @property
    def h_batch(self) -> float:
        return float(np.mean([batch_entropy(p) for p in self.probs]))


# ---------------------------------------------------------------------------
# heatmap export (binary greyscale, one row per routing decision)


def selection_image(probs: np.ndarray) -> np.ndarray:
    """(batch, heads, modules) probabilities to a (batch*heads, modules)
    greyscale byte image; 255 is certainty."""
    p = np.asarray(probs, dtype=np.float64)
    flat = p.reshape(-1, p.shape[-1])
    return np.round(flat * 255.0).astype(np.uint8)


def write_pgm(image: np.ndarray, path: str) -> None:
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    rows, cols = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# path tracing


def path_counts(chosen: np.ndarray, n_modules: int):
    """Node and edge flows for selections of shape (batch, layers, slots).

    Node count of (layer, module) is the number of (input, slot) picks.
    Each input's slot k runs as one lane through the stack, so the edge
    weight (l, m) -> (l+1, m') counts lanes that pick m then m'.  Every
    node's inflow and outflow then both equal its usage count exactly;
    with one slot the edges are simply datapoint transition counts.
    """
    sel = np.asarray(chosen)
    if sel.ndim != 3:
        raise ValueError(f"chosen must be (batch, layers, slots), got {sel.shape}")
    batch, layers, slots = sel.shape
    nodes = np.zeros((layers, n_modules), dtype=np.int64)
    for l in range(layers):
        nodes[l] = np.bincount(sel[:, l].reshape(-1), minlength=n_modules)
    edges = np.zeros((max(layers - 1, 0), n_modules, n_modules), dtype=np.int64)
    for l in range(layers - 1):
        pair = sel[:, l].reshape(-1) * n_modules + sel[:, l + 1].reshape(-1)
        edges[l] = np.bincount(pair, minlength=n_modules * n_modules).reshape(
            n_modules, n_modules
        )
    return nodes, edges


def export_path_trace(chosen: np.ndarray, n_modules: int, path: str) -> None:
    """Write the routing flow as a graphviz digraph.

    Layers run left to right between a source and a sink.  Edge labels
    carry integer flows; at every node the inflow and the outflow both
    equal the node's usage count.
    """
    sel = np.asarray(chosen)
    nodes, edges = path_counts(sel, n_modules)
    batch, layers, slots = sel.shape
    lines = ["digraph paths {", "  rankdir=LR;", '  source [shape=point];', '  sink [shape=point];']
    for l in range(layers):
        for j in range(n_modules):
            if nodes[l, j] > 0:
                lines.append(
                    f'  l{l}_m{j} [label="layer{l}/module{j} n={nodes[l, j]}"];'
                )
    for j in range(n_modules):
        if nodes[0, j] > 0:
            lines.append(f'  source -> l0_m{j} [label="{nodes[0, j]}"];')
    for l in range(layers - 1):
        for j in range(n_modules):
            for j2 in range(n_modules):
                w = edges[l, j, j2]
                if w > 0:
                    lines.append(
                        f'  l{l}_m{j} -> l{l + 1}_m{j2} [label="{w}"];'
                    )
    last = layers - 1
    for j in range(n_modules):
        if nodes[last, j] > 0:
            lines.append(f'  l{last}_m{j} -> sink [label="{nodes[last, j]}"];')
    lines.append("}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

