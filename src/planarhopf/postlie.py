"""Free post-Lie structure on vertex-decorated planar trees.

Left grafting and its extension to ordered forests, the planar
Grossman-Larson product, the Munthe-Kaas-Wright coproduct via left
admissible cuts, the antipode, and the non-planar Butcher-Connes-Kreimer
side with the sum-over-embeddings morphism.

Ordered forests are tuples of PlanarTree; the empty tuple is the unit.
Lie brackets are never stored as ASTs: a bracket expands eagerly to the
commutator of concatenations, so the extension rules hold by construction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import LinComb, Tensor, aslc, bilinear, tensor2
from .trees import (DecoratedRoot, ModeMismatch, NonplanarTree, PlanarTree,
                    first_noise, forest_mode, join_modes, np_forest)


def _check_same_mode(*things) -> None:
    modes = []
    for x in things:
        lc = aslc(x)
        for b in lc:
            modes.append(forest_mode(b) if isinstance(b, tuple) else b.mode)
    try:
        join_modes(*modes)
    except ModeMismatch:
        raise ModeMismatch("operands use different decoration modes")


# ---------------------------------------------------------------------------
# shuffles and deshuffles


@lru_cache(maxsize=None)
def _shuffle_words(a: tuple, b: tuple) -> LinComb:
    if not a:
        return LinComb.term(b)
    if not b:
        return LinComb.term(a)
    out = LinComb()
    out.iadd_scaled(_shuffle_words(a[1:], b).map_basis(lambda w: (a[0],) + w))
    out.iadd_scaled(_shuffle_words(a, b[1:]).map_basis(lambda w: (b[0],) + w))
    return out


def shuffle(x, y) -> LinComb:
    """Shuffle product of ordered forests, extended bilinearly."""
    _check_same_mode(x, y)
    return bilinear(x, y, _shuffle_words)


def shuffle_many(forests) -> LinComb:
    out = LinComb.term(())
    for f in forests:
        out = bilinear(out, LinComb.term(f), _shuffle_words)
    return out


def deshuffle(forest) -> LinComb:
    """Sum over ordered subsequences: (kept) tensor (complement)."""
    forest = tuple(forest)
    out = LinComb()
    n = len(forest)
    for mask in range(1 << n):
        left = tuple(forest[i] for i in range(n) if mask >> i & 1)
        right = tuple(forest[i] for i in range(n) if not mask >> i & 1)
        out.add_term(Tensor((left, right)), 1)
    return out


# ---------------------------------------------------------------------------
# grafting


def _graft_edge(mode: str):
    return 0 if mode == "plain" else None


def graft_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    """Left grafting: attach t1 as a new leftmost child of every vertex of t2."""
    _check_same_mode(t1, t2)
    edge = _graft_edge(join_modes(t1.mode, t2.mode))
    out = LinComb()
    for path in t2.paths():
        target = t2.subtree(path)
        grown = target.with_children(((edge, t1),) + target.children)
        out.add_term(t2.replace(path, grown), 1)
    return out


def graft(x, y) -> LinComb:
    """Bilinear left grafting of single trees."""
    return bilinear(x, y, graft_tree)


def _graft_tree_into_forest(t: PlanarTree, forest: tuple) -> LinComb:
    """Derivation rule: one tree grafts into each factor of the target forest."""
    out = LinComb()
    for j in range(len(forest)):
        for grown, c in graft_tree(t, forest[j]).items():
            out.add_term(forest[:j] + (grown,) + forest[j + 1:], c)
    return out


@lru_cache(maxsize=None)
def _go_word_on_tree(word: tuple, target: PlanarTree) -> LinComb:
    """Extension of left grafting of a forest word onto a single tree."""
    if not word:
        return LinComb.term(target)
    head, rest = word[0], word[1:]
    inner = _go_word_on_tree(rest, target)
    out = inner.map_basis(lambda t: graft_tree(head, t))
    if rest:
        moved = _graft_tree_into_forest(head, rest)
        out.iadd_scaled(moved.map_basis(lambda w: _go_word_on_tree(w, target)), -1)
    return out


def _go_word_on_forest(word: tuple, target: tuple) -> LinComb:
    """Split the word over the target factors via the deshuffle coproduct."""
    if not target:
        return LinComb.term(()) if not word else LinComb.zero()
    if len(target) == 1:
        return _go_word_on_tree(word, target[0]).map_basis(lambda t: (t,))
    head, rest = target[0], target[1:]
    out = LinComb()
    n = len(word)
    for mask in range(1 << n):
        part = tuple(word[i] for i in range(n) if mask >> i & 1)
        comp = tuple(word[i] for i in range(n) if not mask >> i & 1)
        left = _go_word_on_tree(part, head)
        right = _go_word_on_forest(comp, rest)
        out.iadd_scaled(bilinear(left, right, lambda t, w: (t,) + w))
    return out


def go_graft(x, y) -> LinComb:
    """Guin-Oudom extension of left grafting to ordered forests.

    Satisfies 1 -> w = w, w -> 1 = 0 for w without constant term, the
    associator recursion on concatenations, and the deshuffle splitting over
    target products; agrees with graft_tree on single trees.
    """
    _check_same_mode(x, y)
    return bilinear(x, y, _go_word_on_forest)


def gl_product(x, y) -> LinComb:
    """Planar Grossman-Larson product on ordered forests."""
    _check_same_mode(x, y)

    def per_basis(w1: tuple, w2: tuple) -> LinComb:
        out = LinComb()
        n = len(w1)
        for mask in range(1 << n):
            kept = tuple(w1[i] for i in range(n) if mask >> i & 1)
            grafted = tuple(w1[i] for i in range(n) if not mask >> i & 1)
            out.iadd_scaled(_go_word_on_forest(grafted, w2).map_basis(
                lambda w: kept + w))
        return out

    return bilinear(x, y, per_basis)


# ---------------------------------------------------------------------------
# the root-adding bijection


def b_plus(forest) -> PlanarTree:
    """Graft all forest trees onto a common undecorated root, keeping order.

    The trees must be label-mode (or bare) like the added edges; with that
    checked, the root is built without re-validating the trees."""
    forest = tuple(forest)
    join_modes("label", *(t.mode for t in forest))
    return PlanarTree._trusted(None, tuple((None, t) for t in forest))


def b_minus(tree: PlanarTree) -> tuple:
    if tree.dec is not None:
        raise DecoratedRoot(f"cannot remove decorated root {tree.dec!r}")
    return tuple(sub for _, sub in tree.children)


# ---------------------------------------------------------------------------
# left admissible cuts and the MKW coproduct


def left_cuts(kids: tuple, path=()):
    """All left admissible cuts below one vertex, given its child entries.

    Yields (groups, trunk children): each group is (trunk path of a vertex,
    the child entries cut there), in root-first discovery order, with the
    vertex itself at ``path``.  Cut edges at one vertex are a leftmost prefix
    of its children that stops before the first noise edge; nothing below a
    cut edge is cut again.  The cuts of a forest w are those below the root
    of B+(w).
    """
    for k in range(first_noise(kids) + 1):
        kept = kids[k:]
        head = ((path, kids[:k]),) if k else ()
        # the cuts of each kept subtree, with its trunk built once
        below = [[(groups, sub.with_children(trunk_kids))
                  for groups, trunk_kids in left_cuts(sub.children, path + (i,))]
                 for i, (_, sub) in enumerate(kept)]
        for combo in itertools.product(*below):
            groups = head
            trunk_children = []
            for (edge, _), (sub_groups, sub_trunk) in zip(kept, combo):
                groups += sub_groups
                trunk_children.append((edge, sub_trunk))
            yield groups, tuple(trunk_children)


def tree_cuts(t: PlanarTree):
    """The left admissible cuts of one tree, as (groups, trunk)."""
    for groups, kids in left_cuts(t.children):
        yield groups, t.with_children(kids)


@lru_cache(maxsize=512)
def _tree_cut_table(t: PlanarTree) -> tuple:
    """The left admissible cuts below the root of t, in ``left_cuts`` order:
    (pruned groups, each a forest, trunk)."""
    return tuple((tuple(tuple(sub for _, sub in cut) for _, cut in groups),
                  t.with_children(kids))
                 for groups, kids in left_cuts(t.children))


def forest_cuts(w: tuple):
    """The left admissible cuts of a forest w, in ``left_cuts`` order on B+(w).

    Yields (pruned groups, trunk forest): the groups are the forests cut at
    one vertex each, root-first.  For each k the first k trees are pruned
    whole and the rest are cut by the product of their tree tables.  The
    tables (tuples of (groups, trunk) per tree, in a bounded ``lru_cache``
    of 512 trees) are shared across calls, so the yielded tuples must not
    be mutated.
    """
    for k in range(len(w) + 1):
        head = (w[:k],) if k else ()
        for combo in itertools.product(*map(_tree_cut_table, w[k:])):
            groups = head
            for sub_groups, _ in combo:
                groups += sub_groups
            yield groups, tuple(trunk for _, trunk in combo)


def cut_pruned(groups):
    """The pruned parts of one cut as (forest, coefficient) pairs.

    Groups cut at different vertices are shuffled; a cut with one group or
    none has nothing to shuffle and gives that forest with coefficient 1.
    """
    if len(groups) < 2:
        return ((groups[0] if groups else (), 1),)
    return shuffle_many(groups).items()


def mkw_coproduct(x) -> LinComb:
    """MKW coproduct: sum of pruned-part tensor trunk over left admissible cuts.

    Pruned components cut from one vertex concatenate in planar order; parts
    from different vertices are shuffled.  The cuts come from
    ``forest_cuts``, whose per-tree tables (bounded at 512 trees) are shared
    across calls and must not be mutated.
    """
    def per_basis(w: tuple) -> LinComb:
        out = LinComb()
        for groups, trunk in forest_cuts(w):
            for p, c in cut_pruned(groups):
                out.add_term(Tensor((p, trunk)), c)
        return out

    return aslc(x).map_basis(per_basis)


@lru_cache(maxsize=None)
def _antipode_basis(w: tuple) -> LinComb:
    if not w:
        return LinComb.term(())
    out = LinComb.term(w, -1)
    for (p, t), c in mkw_coproduct(LinComb.term(w)).items():
        if not p or not t:
            continue
        # p and t are parts of one forest: no mode check needed
        out.iadd_scaled(bilinear(_antipode_basis(p), LinComb.term(t),
                                 _shuffle_words), -c)
    return out


def antipode(x) -> LinComb:
    """Antipode of the MKW Hopf algebra by the usual graded recursion."""
    return aslc(x).map_basis(_antipode_basis)


def counit(x) -> LinComb:
    return LinComb.term((), aslc(x).coefficient(()))


# ---------------------------------------------------------------------------
# non-planar side: embeddings, BCK coproduct


def _np_tree_embeddings(t: NonplanarTree) -> LinComb:
    """All plane orderings of a tree, one term per ordering choice.

    Equal children make distinct orderings coincide, so each planar tree in
    the support carries the automorphism count of its source; this is the
    normalization for which the map intertwines the two coproducts.
    """
    child_opts = [_np_tree_embeddings(c) for c in t.children]
    out = LinComb()
    for choice in itertools.product(*(opt.items() for opt in child_opts)):
        coeff = 1
        for _, c in choice:
            coeff *= c
        for perm in itertools.permutations([p for p, _ in choice]):
            out.add_term(PlanarTree(t.dec, tuple((None, p) for p in perm)),
                         coeff)
    return out


def omega_embed(x) -> LinComb:
    """Sum over all ways to endow a non-planar forest with a plane order."""
    def per_basis(forest) -> LinComb:
        if isinstance(forest, NonplanarTree):
            forest = (forest,)
        opts = [_np_tree_embeddings(t) for t in forest]
        out = LinComb()
        for choice in itertools.product(*(opt.items() for opt in opts)):
            coeff = 1
            for _, c in choice:
                coeff *= c
            for perm in itertools.permutations([p for p, _ in choice]):
                out.add_term(perm, coeff)
        return out

    return aslc(x).map_basis(per_basis)


def _np_tree_cuts(t: NonplanarTree):
    """Admissible cuts of one non-planar tree: (pruned multiset, trunk)."""
    options = []
    for c in t.children:
        sub = [((c,), None)] + [(p, tr) for p, tr in _np_tree_cuts(c)]
        options.append(sub)
    for combo in itertools.product(*options):
        pruned = ()
        trunk_children = []
        for p, tr in combo:
            pruned += p
            if tr is not None:
                trunk_children.append(tr)
        yield pruned, NonplanarTree(t.dec, tuple(trunk_children))


def ck_coproduct(x) -> LinComb:
    """Connes-Kreimer coproduct on non-planar forests via admissible cuts."""
    def per_basis(forest) -> LinComb:
        if isinstance(forest, NonplanarTree):
            forest = (forest,)
        out = LinComb()
        for combo in itertools.product(*(
                [((t,), None)] + list(_np_tree_cuts(t)) for t in forest)):
            pruned = ()
            trunks = []
            for p, tr in combo:
                pruned += p
                if tr is not None:
                    trunks.append(tr)
            out.add_term(Tensor((np_forest(pruned), np_forest(trunks))), 1)
        return out

    return aslc(x).map_basis(per_basis)


# ---------------------------------------------------------------------------
# helpers for property tests


def mkw_multiplicative_defect(x, y) -> LinComb:
    """Delta(x shuffle y) - Delta(x)(shuffle tensor shuffle)Delta(y)."""
    lhs = mkw_coproduct(shuffle(x, y))
    rhs = LinComb()
    for (p1, t1), c1 in mkw_coproduct(x).items():
        for (p2, t2), c2 in mkw_coproduct(y).items():
            rhs.iadd_scaled(tensor2(shuffle(LinComb.term(p1), LinComb.term(p2)),
                                    shuffle(LinComb.term(t1), LinComb.term(t2))),
                            c1 * c2)
    return lhs - rhs


def coassociativity_defect(coproduct, x) -> LinComb:
    """(Delta tensor id)Delta - (id tensor Delta)Delta as a 3-tensor sum."""
    first = coproduct(x)
    lhs, rhs = LinComb(), LinComb()
    for (a, b), c in first.items():
        for (a1, a2), c2 in coproduct(LinComb.term(a)).items():
            lhs.add_term(Tensor((a1, a2, b)), c * c2)
        for (b1, b2), c2 in coproduct(LinComb.term(b)).items():
            rhs.add_term(Tensor((a, b1, b2)), c * c2)
    return lhs - rhs


def is_primitive(x) -> bool:
    """Check Delta_deshuffle(x) = x tensor 1 + 1 tensor x on the stored terms."""
    x = aslc(x)
    delta = LinComb()
    for w, c in x.items():
        delta.iadd_scaled(deshuffle(w), c)
    for w, c in x.items():
        delta.add_term(Tensor((w, ())), -c)
        delta.add_term(Tensor(((), w)), -c)
    return delta.is_zero()
