"""Generators for the tree families used in sweeps and exhaustive checks."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .trees import EdgeType, MultiIndex, PlanarTree, mi_range, to_nonplanar


@lru_cache(maxsize=None)
def planar_trees(n: int, labels: tuple) -> tuple:
    """All planar rooted trees with n vertices, vertices decorated by labels."""
    if n <= 0:
        return ()
    out = []
    for dec in labels:
        for parts in _compositions(n - 1):
            for combo in itertools.product(*(planar_trees(p, labels) for p in parts)):
                out.append(PlanarTree(dec, tuple((None, t) for t in combo)))
    return tuple(out)


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple:
    """Ordered compositions of n into positive parts (including the empty one)."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def planar_forests(n: int, labels: tuple) -> tuple:
    """All ordered forests with exactly n vertices."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for t in planar_trees(first, labels):
            for rest in planar_forests(n - first, labels):
                out.append((t,) + rest)
    return tuple(out)


def forests_up_to(n: int, labels) -> list:
    labels = tuple(labels)
    out = []
    for k in range(n + 1):
        out.extend(planar_forests(k, labels))
    return out


@lru_cache(maxsize=None)
def nonplanar_trees(n: int, labels: tuple) -> tuple:
    seen = {to_nonplanar(t) for t in planar_trees(n, labels)}
    return tuple(sorted(seen, key=lambda t: t.key()))


@lru_cache(maxsize=None)
def pb_trees(n_edges: int, n_labels: int) -> tuple:
    """Plain-mode trees with the given edge count, labels in {0..n_labels}.

    Edges labelled >= 1 must end at leaves.
    """
    if n_edges == 0:
        return (PlanarTree(),)
    out = []
    for parts in _compositions(n_edges):
        if not parts:
            continue
        child_opts = []
        for p in parts:
            opts = [(0, t) for t in pb_trees(p - 1, n_labels)]
            if p == 1:
                opts.extend((lab, PlanarTree()) for lab in range(1, n_labels + 1))
            child_opts.append(opts)
        for combo in itertools.product(*child_opts):
            out.append(PlanarTree(None, tuple(combo)))
    return tuple(out)


def pb_trees_up_to(n_edges: int, n_labels: int) -> list:
    out = []
    for k in range(n_edges + 1):
        out.extend(pb_trees(k, n_labels))
    return out


@lru_cache(maxsize=None)
def typed_trees(n_edges: int, d: int, max_dec: int, n_kernels: int,
                n_noises: int, max_edge_dec: int) -> tuple:
    """Typed-mode trees with the given edge count.

    Vertex decorations range over N^d with components <= max_dec, kernel
    edges over kernels 1..n_kernels with indices <= max_edge_dec, noise edges
    over noises 1..n_noises; at most one noise edge per vertex and noise
    edges end at (bare) leaves.
    """
    decs = tuple(mi_range(MultiIndex((max_dec,) * d)))
    edecs = tuple(mi_range(MultiIndex((max_edge_dec,) * d)))
    kernel_edges = tuple(EdgeType("K", k, e) for k in range(1, n_kernels + 1)
                         for e in edecs)
    noise_edges = tuple(EdgeType("X", i, e) for i in range(1, n_noises + 1)
                        for e in edecs)

    def shapes(edges: int) -> tuple:
        if edges == 0:
            return tuple(PlanarTree(dec) for dec in decs)
        out = []
        for parts in _compositions(edges):
            child_opts = []
            for p in parts:
                opts = [(e, t) for e in kernel_edges for t in shapes(p - 1)]
                if p == 1:
                    opts.extend((e, PlanarTree(dec)) for e in noise_edges
                                for dec in decs)
                child_opts.append(opts)
            for combo in itertools.product(*child_opts):
                n_noise = sum(1 for e, _ in combo if e.is_noise)
                if n_noise > 1:
                    continue
                for dec in decs:
                    out.append(PlanarTree(dec, tuple(combo)))
        return tuple(out)

    return shapes(n_edges)


def typed_trees_up_to(n_edges: int, d: int = 1, max_dec: int = 1,
                      n_kernels: int = 1, n_noises: int = 1,
                      max_edge_dec: int = 1) -> list:
    out = []
    for k in range(n_edges + 1):
        out.extend(typed_trees(k, d, max_dec, n_kernels, n_noises, max_edge_dec))
    return out


# ---------------------------------------------------------------------------
# random generators for property sweeps


def random_planar_tree(rng: random.Random, n: int, labels) -> PlanarTree:
    labels = tuple(labels)
    if n <= 1:
        return PlanarTree(rng.choice(labels))
    k = rng.randint(0, n - 1) if n > 1 else 0
    k = max(1, k)
    sizes = _random_composition(rng, n - 1, k)
    children = tuple((None, random_planar_tree(rng, s, labels)) for s in sizes)
    return PlanarTree(rng.choice(labels), children)


def _random_composition(rng: random.Random, total: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    prev, out = 0, []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def random_forest(rng: random.Random, n: int, labels) -> tuple:
    out = []
    left = n
    while left > 0:
        size = rng.randint(1, left)
        out.append(random_planar_tree(rng, size, labels))
        left -= size
    return tuple(out)


def random_typed_tree(rng: random.Random, n_edges: int, d: int = 1,
                      max_dec: int = 2, n_kernels: int = 1, n_noises: int = 1,
                      max_edge_dec: int = 2, allow_noise: bool = True,
                      root_noise: bool = True) -> PlanarTree:
    def rand_dec() -> MultiIndex:
        return MultiIndex(tuple(rng.randint(0, max_dec) for _ in range(d)))

    def rand_index() -> MultiIndex:
        return MultiIndex(tuple(rng.randint(0, max_edge_dec) for _ in range(d)))

    def build(edges: int, noise_ok: bool) -> PlanarTree:
        if edges == 0:
            return PlanarTree(rand_dec())
        k = rng.randint(1, edges)
        sizes = _random_composition(rng, edges, k)
        children = []
        used_noise = False
        for s in sizes:
            can_noise = noise_ok and allow_noise and s == 1 and not used_noise \
                and n_noises > 0
            if can_noise and rng.random() < 0.35:
                used_noise = True
                children.append((EdgeType("X", rng.randint(1, n_noises), rand_index()),
                                 PlanarTree(rand_dec())))
            else:
                children.append((EdgeType("K", rng.randint(1, n_kernels), rand_index()),
                                 build(s - 1, True)))
        return PlanarTree(rand_dec(), tuple(children))

    return build(n_edges, root_noise)


def random_planted(rng: random.Random, n_edges: int, **kw) -> PlanarTree:
    """A planted typed tree: zero root decoration, one kernel root edge."""
    d = kw.get("d", 1)
    sub = random_typed_tree(rng, n_edges - 1, **kw) if n_edges >= 1 \
        else PlanarTree(MultiIndex.zero(d))
    index = MultiIndex(tuple(rng.randint(0, kw.get("max_edge_dec", 2))
                             for _ in range(d)))
    edge = EdgeType("K", rng.randint(1, kw.get("n_kernels", 1)), index)
    return PlanarTree(MultiIndex.zero(d), ((edge, sub),))
