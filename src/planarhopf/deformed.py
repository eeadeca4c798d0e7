"""Deformed grafting on typed trees and the positive (recentering) structure.

Typed trees carry multi-index vertex decorations and kernel/noise typed
edges.  The basis of the enveloping algebra is the normal form "root
decoration m with planted branches": the tree itself.  Lie brackets expand
eagerly to commutators of the normal-form concatenation, whose defining
relation is that moving a polynomial factor past a branch costs a root-edge
decrement.

The recentering coproducts are the Kronecker duals of the deformed product:
a cut edge can raise its index by any amount matched by a decoration raise
on the trunk vertex it was cut from, weighted by the grafting coefficient,
and the left root decoration collects decoration drops of trunk vertices,
weighted by the distribution multinomial.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import floor

from .linalg import LinComb, Tensor, aslc, bilinear
from .postlie import shuffle_many, tree_cuts
from .trees import (EdgeType, InvalidTree, MultiIndex, PlanarTree,
                    RegularityConfig, mi_compositions, mi_multinomial, mi_range,
                    mi_range_norm, regularity, sequential_binom)


def unit_tree(d: int) -> PlanarTree:
    return PlanarTree(MultiIndex.zero(d))


def is_unit(t: PlanarTree) -> bool:
    return not t.children and isinstance(t.dec, MultiIndex) and t.dec.is_zero()


def tree_dim(t: PlanarTree) -> int:
    if isinstance(t.dec, MultiIndex):
        return len(t.dec)
    for edge, sub in t.children:
        return len(edge.index)
    raise InvalidTree("cannot infer dimension of an undecorated tree")


def planted(edge: EdgeType, sub: PlanarTree) -> PlanarTree:
    d = len(edge.index)
    return PlanarTree(MultiIndex.zero(d), ((edge, sub),))


def non_noise_paths(t: PlanarTree, include_root: bool = True):
    for p in t.paths():
        if not p and not include_root:
            continue
        if not t.has_incoming_noise(p):
            yield p


# ---------------------------------------------------------------------------
# raising and lowering operators


def up_vertex(t: PlanarTree, path, ell: MultiIndex) -> PlanarTree:
    node = t.subtree(path)
    return t.replace(path, node.with_dec(node.dec.add(ell)))


def up_all(t: PlanarTree, m: MultiIndex, include_root: bool = True) -> LinComb:
    """Distribute m over the non-noise vertices, weighted by the number of
    ways to add one unit at a time."""
    if m.is_zero():
        return LinComb.term(t)
    paths = list(non_noise_paths(t, include_root))
    out = LinComb()
    for parts in mi_compositions(m, len(paths)):
        new = t
        for path, delta in zip(paths, parts):
            if not delta.is_zero():
                new = up_vertex(new, path, delta)
        out.add_term(new, mi_multinomial(parts))
    return out


def down_root(x, m: MultiIndex) -> LinComb:
    """Distribute m as decrements over the root edges, one unit at a time.

    Terms where an edge index would go negative vanish; the weight is the
    multinomial count of unit orderings.
    """
    def per_basis(t: PlanarTree) -> LinComb:
        if m.is_zero():
            return LinComb.term(t)
        out = LinComb()
        for parts in mi_compositions(m, len(t.children)):
            kids = []
            for (edge, sub), mu in zip(t.children, parts):
                idx = edge.index.sub(mu)
                if idx is None:
                    kids = None
                    break
                kids.append((edge.with_index(idx), sub))
            if kids is not None:
                out.add_term(t.with_children(tuple(kids)), mi_multinomial(parts))
        return out

    return aslc(x).map_basis(per_basis)


# ---------------------------------------------------------------------------
# deformed grafting


@lru_cache(maxsize=None)
def _dgraft_into_subtree(branch, target: PlanarTree) -> LinComb:
    """Deformed-graft one branch onto every non-noise vertex of a subtree.

    The grafted edge arrives as the new leftmost child; the edge index and
    the target decoration drop together, weighted by the binomial of the
    target decoration over the drop.
    """
    edge, sub = branch
    out = LinComb()
    for path in non_noise_paths(target, include_root=True):
        node = target.subtree(path)
        for ell in mi_range(node.dec):
            idx = edge.index.sub(ell)
            if idx is None:
                continue
            coeff = node.dec.binom(ell)
            grown = PlanarTree(node.dec.sub(ell),
                               ((edge.with_index(idx), sub),) + node.children)
            out.add_term(target.replace(path, grown), coeff)
    return out


def dgraft_planted(p1: PlanarTree, p2: PlanarTree) -> LinComb:
    """Deformed grafting of one planted tree onto another."""
    if len(p1.children) != 1 or len(p2.children) != 1 or not is_unit(p1.with_children(())):
        raise InvalidTree("deformed grafting of planted trees needs planted arguments")
    edge2, sub2 = p2.children[0]
    if edge2.is_noise:
        return LinComb()
    grown = _dgraft_into_subtree(p1.children[0], sub2)
    return grown.map_basis(lambda s: planted(edge2, s))


# ---------------------------------------------------------------------------
# the extended action on normal forms

# a word is a tuple of primitives: MultiIndex units and (EdgeType, tree) branches


def tree_word(t: PlanarTree) -> tuple:
    d = tree_dim(t)
    units = []
    for j, c in enumerate(t.dec):
        units.extend([MultiIndex.unit(d, j)] * c)
    return tuple(units) + tuple(t.children)


@lru_cache(maxsize=None)
def _act_prim_on_tree(u, y: PlanarTree) -> LinComb:
    """One primitive acting on a tree: a derivation across the branches.

    A unit raises one non-noise vertex inside one branch; a branch
    deformed-grafts into one branch.  Nothing acts on the root (the root is
    reached by the concatenation part of the product instead).
    """
    out = LinComb()
    for j, (edge, sub) in enumerate(y.children):
        if edge.is_noise:
            continue  # noise targets are bare leaves; nothing lands there
        if isinstance(u, MultiIndex):
            hit = LinComb()
            for path in non_noise_paths(sub, include_root=True):
                hit.add_term(up_vertex(sub, path, u), 1)
        else:
            hit = _dgraft_into_subtree(u, sub)
        for new_sub, c in hit.items():
            kids = y.children[:j] + ((edge, new_sub),) + y.children[j + 1:]
            out.add_term(y.with_children(kids), c)
    return out


def _act_prim_on_prim(u, v) -> LinComb:
    """Base cases of the deformed product on primitives."""
    if isinstance(v, MultiIndex):
        return LinComb()
    edge, sub = v
    if edge.is_noise:
        return LinComb()
    if isinstance(u, MultiIndex):
        out = LinComb()
        for path in non_noise_paths(sub, include_root=True):
            out.add_term((edge, up_vertex(sub, path, u)), 1)
        return out
    return _dgraft_into_subtree(u, sub).map_basis(lambda s: (edge, s))


def _word_graft_one(u, word: tuple) -> LinComb:
    out = LinComb()
    for j, v in enumerate(word):
        for nv, c in _act_prim_on_prim(u, v).items():
            out.add_term(word[:j] + (nv,) + word[j + 1:], c)
    return out


@lru_cache(maxsize=None)
def go_act(word: tuple, y: PlanarTree) -> LinComb:
    """Extension of the deformed grafting action to words of primitives."""
    if not word:
        return LinComb.term(y)
    u, rest = word[0], word[1:]
    out = go_act(rest, y).map_basis(lambda t: _act_prim_on_tree(u, t))
    if rest:
        out.iadd_scaled(_word_graft_one(u, rest).map_basis(
            lambda w: go_act(w, y)), -1)
    return out


# ---------------------------------------------------------------------------
# normal-form concatenation and the deformed product


def tplus_concat(a: PlanarTree, b: PlanarTree) -> LinComb:
    """Product of normal forms: the left polynomial part passes through the
    left branches, each crossing costing a root-edge decrement."""
    d = tree_dim(a)
    out = LinComb()
    for r2 in mi_range(b.dec):
        r1 = b.dec.sub(r2)
        coeff = b.dec.binom(r2)
        dropped = down_root(a.with_dec(MultiIndex.zero(d)), r2)
        for t, c in dropped.items():
            merged = PlanarTree(a.dec.add(r1), t.children + b.children)
            out.add_term(merged, coeff * c)
    return out


def concat(x, y) -> LinComb:
    return bilinear(x, y, tplus_concat)


def concat_by_commutation(a: PlanarTree, b: PlanarTree) -> LinComb:
    """Oracle route for the concatenation: push single units left one at a
    time using branch X = X branch + (root-edge drop of the branch)."""
    d = tree_dim(a)

    def push_unit(t: PlanarTree, u: MultiIndex) -> LinComb:
        out = LinComb.term(t.with_dec(t.dec.add(u)))
        for j, (edge, sub) in enumerate(t.children):
            idx = edge.index.sub(u)
            if idx is None:
                continue
            kids = t.children[:j] + ((edge.with_index(idx), sub),) + t.children[j + 1:]
            out.add_term(t.with_children(kids), 1)
        return out

    acc = LinComb.term(a)
    for j, c in enumerate(b.dec):
        for _ in range(c):
            acc = acc.map_basis(lambda t: push_unit(t, MultiIndex.unit(d, j)))
    return acc.map_basis(lambda t: t.with_children(t.children + b.children))


def deshuffle_typed(t: PlanarTree) -> LinComb:
    """Coproduct dual to the concatenation: split the root polynomial with
    binomial weights and the branch word into complementary subsequences."""
    out = LinComb()
    n = len(t.children)
    for m1 in mi_range(t.dec):
        m2 = t.dec.sub(m1)
        coeff = t.dec.binom(m1)
        for mask in range(1 << n):
            left = tuple(t.children[i] for i in range(n) if mask >> i & 1)
            right = tuple(t.children[i] for i in range(n) if not mask >> i & 1)
            out.add_term(Tensor((PlanarTree(m1, left), PlanarTree(m2, right))),
                         coeff)
    return out


def star_plus(x, y) -> LinComb:
    """Deformed product: split the left factor, concatenate one half onto
    the root and act with the other half on the branches."""
    def per_basis(a: PlanarTree, b: PlanarTree) -> LinComb:
        out = LinComb()
        for (a1, a2), c in deshuffle_typed(a).items():
            acted = go_act(tree_word(a2), b)
            out.iadd_scaled(acted.map_basis(lambda t: tplus_concat(a1, t)), c)
        return out

    return bilinear(x, y, per_basis)


# ---------------------------------------------------------------------------
# V-space operations: brackets and the deformed post-Lie product


def bracket0(x, y) -> LinComb:
    """Commutator of the normal-form concatenation."""
    return concat(x, y) - concat(y, x)


def dgraft_v(x, y) -> LinComb:
    """Deformed grafting of an enveloping-algebra element on a tree."""
    def per_basis(a: PlanarTree, b: PlanarTree) -> LinComb:
        word = tree_word(a)
        # acting on a normal form: branches receive the action, the root is
        # never a target
        return go_act(word, b)

    return bilinear(x, y, per_basis)


def up_lc(x, m: MultiIndex, include_root: bool = True) -> LinComb:
    return aslc(x).map_basis(lambda t: up_all(t, m, include_root))


# ---------------------------------------------------------------------------
# recentering coproducts (Kronecker duals of the deformed product)


def _transfer_moves(t: PlanarTree, vertices, leaving):
    """Every decoration move of a vertex set and the edges leaving it.

    ``leaving`` lists (attachment vertex, range of raises) per edge.  Each
    non-noise vertex drops part of its decoration, the drops weighted by
    their multinomial; each raise of a leaving edge lands on its attachment
    vertex, weighted by the grafting binomial there.  Yields (new decoration
    of each vertex, raise per leaving edge, total drop, weight).
    """
    d = tree_dim(t)
    decs = {v: t.subtree(v).dec for v in vertices}
    droppable = [v for v in vertices if not t.has_incoming_noise(v)]
    drop_opts = [tuple(mi_range(decs[v])) for v in droppable]
    for raises in itertools.product(*(ells for _, ells in leaving)):
        raised_at = {}
        for (v, _), ell in zip(leaving, raises):
            raised_at.setdefault(v, []).append(ell)
        for drops in itertools.product(*drop_opts):
            drop_at = dict(zip(droppable, drops))
            new, total, weight = {}, MultiIndex.zero(d), mi_multinomial(drops)
            for v in vertices:
                dec = decs[v]
                if v in drop_at:
                    dec = dec.sub(drop_at[v])
                    total = total.add(drop_at[v])
                ells = raised_at.get(v)
                if ells:
                    for ell in ells:
                        dec = dec.add(ell)
                    weight *= sequential_binom(dec, ells)
                new[v] = dec
            yield new, raises, total, weight


@lru_cache(maxsize=None)
def _delta_plus_terms(t: PlanarTree, cfg: RegularityConfig | None,
                      cap: MultiIndex | None) -> LinComb:
    """Shared cut-and-increment enumeration behind both coproducts.

    Per cut, the trunk and its cut edges move decorations by
    ``_transfer_moves``.  With ``cfg`` the left tensor is projected onto
    positive grading (the unit always kept), which bounds the edge
    increments; with ``cap`` each increment is bounded componentwise
    instead and nothing is projected.  A tree with an extended decoration
    gives its left factors extended decoration zero at the root.
    Results are shared between calls and must not be mutated.
    """
    d = tree_dim(t)
    new_ext = Fraction(0) if t.ext is not None else None
    out = LinComb()
    for groups, trunk in tree_cuts(t):
        cut_edges = [(path, edge, sub) for path, branches in groups
                     for edge, sub in branches]
        trunk_paths = list(trunk.paths())
        if cap is None:
            # budget for increments when projecting onto positive grading
            budget = sum(trunk.subtree(p).dec.norm for p in trunk_paths)
            for _, edge, sub in cut_edges:
                budget += regularity(planted(edge, sub), cfg)
            ells = tuple(mi_range_norm(d, max(0, floor(budget))))
        else:
            ells = tuple(mi_range(cap))
        leaving = [(path, ells) for path, _, _ in cut_edges]
        for decs, raises, drop, weight in _transfer_moves(trunk, trunk_paths, leaving):
            new_trunk = trunk.with_decs(decs)
            # assemble the left tensor: per-vertex branch runs shuffled
            ell_iter = iter(raises)
            seqs = []
            for path, branches in groups:
                seq = []
                for edge, sub in branches:
                    ell = next(ell_iter)
                    seq.append((edge.with_index(edge.index.add(ell)), sub))
                seqs.append(tuple(seq))
            # the left root decoration collects the drops of trunk decorations
            lefts = shuffle_many(seqs).map_basis(
                lambda kids: PlanarTree._trusted(drop, kids, new_ext))
            for left, mult in lefts.items():
                if cap is None and not is_unit(left) and regularity(left, cfg) <= 0:
                    continue
                out.add_term(Tensor((left, new_trunk)), weight * mult)
    return out


def delta_plus(x, cfg: RegularityConfig) -> LinComb:
    """Recentering coproduct projected onto positive left factors."""
    return aslc(x).map_basis(lambda t: _delta_plus_terms(t, cfg, None))


def delta_plus_0(x, cap: MultiIndex) -> LinComb:
    """Unprojected recentering coproduct, increments capped componentwise."""
    return aslc(x).map_basis(lambda t: _delta_plus_terms(t, None, cap))


# ---------------------------------------------------------------------------
# recentering maps


class TreeCharacter:
    """Multiplicative functional determined by values on indecomposables.

    Keys are bare unit-decorated vertices (for the polynomial part) and
    planted trees; everything else multiplies out through the normal form.
    """

    def __init__(self, values: dict):
        self.values = {k: Fraction(v) for k, v in values.items()}

    def __call__(self, t: PlanarTree) -> Fraction:
        d = tree_dim(t)
        out = Fraction(1)
        for j, c in enumerate(t.dec):
            if c:
                out *= self.values.get(PlanarTree(MultiIndex.unit(d, j)),
                                       Fraction(0)) ** c
        for edge, sub in t.children:
            out *= self.values.get(planted(edge, sub), Fraction(0))
        return out


def gamma_g(g: TreeCharacter, x, cfg: RegularityConfig) -> LinComb:
    """Recentering map: evaluate the character on the left tensor slot."""
    out = LinComb()
    for t, c in aslc(x).items():
        for (left, right), c2 in delta_plus(t, cfg).items():
            out.add_term(right, c * c2 * g(left))
    return out


def gamma_compose(g: TreeCharacter, h: TreeCharacter, cfg: RegularityConfig):
    """The convolution character x -> sum h(x_(1)) g(x_(2)) over the
    positive-projected coproduct; composition law oracle for gamma maps."""
    def k(t: PlanarTree) -> Fraction:
        out = Fraction(0)
        for (a, b), c in delta_plus(t, cfg).items():
            if not is_unit(b) and regularity(b, cfg) <= 0:
                continue
            out += c * h(a) * g(b)
        return out

    return k


def gamma_k(kfun, x, cfg: RegularityConfig) -> LinComb:
    out = LinComb()
    for t, c in aslc(x).items():
        for (left, right), c2 in delta_plus(t, cfg).items():
            out.add_term(right, c * c2 * kfun(left))
    return out


# ---------------------------------------------------------------------------
# degeneration to the plain edge-labelled picture

# plain label 0 maps to kernel 0 with unit grading contribution; label i >= 1
# maps to noise i; all multi-indices zero


def pb_to_typed(t: PlanarTree, d: int = 1) -> PlanarTree:
    zero = MultiIndex.zero(d)
    kids = []
    for edge, sub in t.children:
        et = EdgeType("K", 0, zero) if edge == 0 else EdgeType("X", edge, zero)
        kids.append((et, pb_to_typed(sub, d)))
    return PlanarTree(zero, tuple(kids))


def typed_to_pb(t: PlanarTree) -> PlanarTree:
    """Inverse of the degeneration embedding; InvalidTree off the subspace."""
    if not (isinstance(t.dec, MultiIndex) and t.dec.is_zero()):
        raise InvalidTree("tree carries a vertex decoration")
    kids = []
    for edge, sub in t.children:
        if not edge.index.is_zero():
            raise InvalidTree("tree carries an edge multi-index")
        label = edge.which if edge.is_noise else 0
        if not edge.is_noise and edge.which != 0:
            raise InvalidTree("non-degenerate kernel kind")
        kids.append((label, typed_to_pb(sub)))
    return PlanarTree(None, tuple(kids))


def in_degenerate_subspace(t: PlanarTree) -> bool:
    try:
        typed_to_pb(t)
    except InvalidTree:
        return False
    return True


def degenerate_cfg(cfg: RegularityConfig) -> RegularityConfig:
    """The typed-mode config matching the plain grading: kernel 0 counts 1."""
    betas = dict(cfg.betas)
    betas[0] = Fraction(1)
    return RegularityConfig(cfg.d, cfg.alphas, betas, cfg.truncation)
