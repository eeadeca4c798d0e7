"""Generators for the tree families used in sweeps and exhaustive checks."""

from __future__ import annotations

import itertools

from .trees import EdgeType, MultiIndex, PlanarTree, mi_range, to_nonplanar


def _trees(n_edges: int, edges: tuple, leaf_edges: tuple, roots) -> list:
    """The trees with 0..n_edges edges, one tuple per edge count.

    The child words of each edge count run composition by composition: a
    part of size p is an edge from ``edges`` over a tree with p - 1 edges
    or, for p = 1, an edge from ``leaf_edges`` over a leaf. ``roots(words)``
    decorates the roots over one count's words, in its caller's order. The
    lists built here are the memo of this call alone.
    """
    trees, entries, compositions = [], [None], [((),)]
    for n in range(n_edges + 1):
        if n:
            heads = edges + leaf_edges if n == 1 else edges
            entries.append([(e, t) for e in heads for t in trees[n - 1]])
            compositions.append([(p,) + rest for p in range(1, n + 1)
                                 for rest in compositions[n - p]])
        words = [word for parts in compositions[n]
                 for word in itertools.product(*(entries[p] for p in parts))]
        trees.append(tuple(roots(words)))
    return trees


def _label_trees(n_edges: int, labels) -> list:
    """Vertex-labelled trees, the label the slowest-varying choice."""
    return _trees(n_edges, (None,), (), lambda words: [
        PlanarTree(dec, word) for dec in labels for word in words])


def _forests(n: int, labels) -> list:
    """The ordered forests with 0..n vertices, one tuple per vertex count."""
    trees, forests = _label_trees(n - 1, tuple(labels)), []
    for m in range(n + 1):
        forests.append(tuple((t,) + rest for first in range(1, m + 1)
                             for t in trees[first - 1] for rest in forests[m - first])
                       if m else ((),))
    return forests


def planar_trees(n: int, labels: tuple) -> tuple:
    """All planar rooted trees with n vertices, vertices decorated by labels."""
    return _last(_label_trees(n - 1, labels))


def planar_forests(n: int, labels: tuple) -> tuple:
    """All ordered forests with exactly n vertices."""
    return _last(_forests(n, labels))


def forests_up_to(n: int, labels) -> list:
    return [w for forests in _forests(n, labels) for w in forests]


def nonplanar_trees(n: int, labels: tuple) -> tuple:
    seen = {to_nonplanar(t) for t in planar_trees(n, labels)}
    return tuple(sorted(seen, key=lambda t: t.key()))


def _pb_trees(n_edges: int, n_labels: int) -> list:
    """Plain-mode trees by edge count, labels in {0..n_labels}, the root
    undecorated. Edges labelled >= 1 must end at leaves."""
    return _trees(n_edges, (0,), tuple(range(1, n_labels + 1)),
                  lambda words: [PlanarTree(None, word) for word in words])


def pb_trees(n_edges: int, n_labels: int) -> tuple:
    return _last(_pb_trees(n_edges, n_labels))


def pb_trees_up_to(n_edges: int, n_labels: int) -> list:
    return [t for trees in _pb_trees(n_edges, n_labels) for t in trees]


def _typed_trees(n_edges: int, d: int, max_dec: int, n_kernels: int,
                 n_noises: int, max_edge_dec: int) -> list:
    """Typed-mode trees by edge count, the decoration the fastest-varying
    choice.

    Vertex decorations range over N^d with components <= max_dec, kernel
    edges over kernels 1..n_kernels with indices <= max_edge_dec, noise edges
    over noises 1..n_noises; at most one noise edge per vertex and noise
    edges end at (bare) leaves.
    """
    decs = tuple(mi_range(MultiIndex((max_dec,) * d)))
    edecs = tuple(mi_range(MultiIndex((max_edge_dec,) * d)))

    def edge_types(kind: str, count: int) -> tuple:
        return tuple(EdgeType(kind, k, e) for k in range(1, count + 1) for e in edecs)

    return _trees(n_edges, edge_types("K", n_kernels), edge_types("X", n_noises),
                  lambda words: [PlanarTree(dec, word) for word in words
                                 if sum(e.is_noise for e, _ in word) <= 1 for dec in decs])


def typed_trees(n_edges: int, d: int, max_dec: int, n_kernels: int,
                n_noises: int, max_edge_dec: int) -> tuple:
    """Typed-mode trees with the given edge count (see ``_typed_trees``)."""
    return _last(_typed_trees(n_edges, d, max_dec, n_kernels, n_noises, max_edge_dec))


def typed_trees_up_to(n_edges: int, d: int = 1, max_dec: int = 1,
                      n_kernels: int = 1, n_noises: int = 1,
                      max_edge_dec: int = 1) -> list:
    return [t for trees in _typed_trees(n_edges, d, max_dec, n_kernels, n_noises,
                                        max_edge_dec) for t in trees]


def _last(sized: list) -> tuple:
    """The largest size of a sized enumeration; none below size 0."""
    return sized[-1] if sized else ()

