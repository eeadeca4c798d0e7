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
import operator
from functools import lru_cache

from .linalg import LinComb, Tensor, aslc, bilinear
from .trees import (DecoratedRoot, ModeMismatch, NonplanarTree, PlanarTree,
                    as_forest, first_noise, is_noise_edge, join_modes,
                    np_forest)


def _check_same_mode(*things) -> None:
    """ModeMismatch unless the trees of all operands, each a basis element
    or a LinComb of trees or forests, share one mode; a bare vertex's mode
    "" goes with every mode."""
    modes = {t.mode
             for x in things for b in (x if isinstance(x, LinComb) else (x,))
             for t in (b if isinstance(b, tuple) else (b,))}
    modes.discard("")
    if len(modes) > 1:
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


def splits(word):
    """The (subsequence, complement) pairs of a word in binary-mask order,
    both halves of the word's type: each letter, from the last back, doubles
    the list, left out before kept, so the first letter varies fastest."""
    out = [((), ())]
    for v in reversed(word):
        out = [h for p, c in out for h in ((p, (v,) + c), ((v,) + p, c))]
    cls = type(word)
    return out if cls is tuple else [(cls(p), cls(c)) for p, c in out]


def deshuffle(forest) -> LinComb:
    """Sum over ordered subsequences: (kept) tensor (complement).  A tuple
    keeps its type in both halves, so a Multiset splits into two."""
    word = forest if isinstance(forest, tuple) else tuple(forest)
    return LinComb((Tensor(split), 1) for split in splits(word))


# ---------------------------------------------------------------------------
# the Guin-Oudom construction: a letter action (grafting, deformed grafting,
# insertion) extended to words, to products of targets, and to the product
# x * y = sum x_(1) (x_(2) > y) of the enveloping algebra


def act_on_letters(act_on_letter, u, word) -> LinComb:
    """u acting as a derivation: on one letter of the word at a time."""
    cls = type(word)
    out = LinComb()
    for j, v in enumerate(word):
        for nv, c in act_on_letter(u, v).items():
            out.add_term(cls(word[:j] + (nv,) + word[j + 1:]), c)
    return out


def guin_oudom(act, act_on_letter=None):
    """The extension of ``act(letter, target)`` to words by
    (u w) > y = u > (w > y) - (u > w) > y, where u > w is ``act_on_letter``
    (``act`` by default) on one letter of w at a time.  Words keep their
    type, so Multisets stay canonical.  Each extension memoises its results
    without bound; they are shared and must not be mutated."""
    if act_on_letter is None:
        act_on_letter = act

    @lru_cache(maxsize=None)
    def extended(word, target) -> LinComb:
        if not word:
            return LinComb.term(target)
        head, rest = word[0], type(word)(word[1:])
        out = extended(rest, target).map_basis(lambda t: act(head, t))
        if rest:
            moved = act_on_letters(act_on_letter, head, rest)
            out.iadd_scaled(moved.map_basis(lambda w: extended(w, target)), -1)
        return out

    return extended


def split_over(on_factor):
    """A word acting on a product of factors: each subsequence of the word
    acts on the first factor by ``on_factor(part, factor)`` and its
    complement on the rest.  Products are rebuilt with the target's type.
    Each instance memoises its results in a bounded table, typed so that a
    Multiset and a tuple with the same items stay apart; results are shared
    and must not be mutated."""

    @lru_cache(maxsize=512, typed=True)
    def over(word, target) -> LinComb:
        cls = type(target)
        if not target:
            return LinComb.term(target) if not word else LinComb()
        head, rest = target[0], cls(target[1:])
        if not rest:
            return on_factor(word, head).map_basis(lambda t: cls((t,)))
        out = LinComb()
        for part, comp in splits(word):
            out.iadd_scaled(bilinear(on_factor(part, head), over(comp, rest),
                                     lambda t, w: cls((t,) + w)))
        return out

    return over


def split_terms(word):
    """The terms of ``deshuffle(word)`` as (split, 1) pairs, no LinComb built."""
    return zip(splits(word), itertools.repeat(1))


def go_product(coproduct, act, concat):
    """The Guin-Oudom product of basis elements x, y: the sum of
    c concat(x_(1), act(x_(2), y)) over the pairs ((x_(1), x_(2)), c) that
    ``coproduct(x)`` yields, each term c2 z of the action adding
    concat(x_(1), z), a basis element or a LinComb, with c c2 in one loop."""
    def product(x, y) -> LinComb:
        out = LinComb()
        add, iadd = out.add_term, out.iadd_scaled
        for (x1, x2), c in coproduct(x):
            for z, c2 in act(x2, y).items():
                image = concat(x1, z)
                if isinstance(image, LinComb):
                    iadd(image, c * c2)
                else:
                    add(image, c * c2)
        return out

    return product


# ---------------------------------------------------------------------------
# grafting


def _graft_edge(mode: str):
    return 0 if mode == "plain" else None


def graft_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    """Left grafting: attach t1 as a new leftmost child of every vertex of t2."""
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


# extension of left grafting to a forest word acting on a single tree
_go_word_on_tree = guin_oudom(graft_tree)


# a forest word acting on a forest: the word split over the target's trees
_go_word_on_forest = split_over(_go_word_on_tree)


def go_graft(x, y) -> LinComb:
    """Guin-Oudom extension of left grafting to ordered forests.

    Satisfies 1 -> w = w, w -> 1 = 0 for w without constant term, the
    associator recursion on concatenations, and the deshuffle splitting over
    target products; agrees with graft_tree on single trees.
    """
    _check_same_mode(x, y)
    return bilinear(x, y, _go_word_on_forest)


_gl_loop = go_product(split_terms, _go_word_on_forest, operator.add)


def gl_product(x, y) -> LinComb:
    """Planar Grossman-Larson product on ordered forests; the unit laws
    1 * y = y and x * 1 = x skip the loop over the splits of x."""
    _check_same_mode(x, y)
    return bilinear(x, y, lambda u, v: _gl_loop(u, v) if u and v else u or v)


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
# blocks: connected vertex sets of a host tree, addressed by paths
#
# One enumerator per side.  Planar: a block grown at the root of t by
# ``grow_block`` is a left admissible cut (its trunk the block, the cut
# branches the edges leaving it); blocks grown anywhere are what Δ⁻ and the
# admissible partitions extract.  Non-planar: ``grow_subtree`` at the root
# of ``nonplanar_host`` gives the Connes-Kreimer cuts, and anywhere the
# blocks of ``rho_np``.  ``read_block`` reads a connected block of a planar
# host, ``read_nonplanar_block`` one of a non-planar tree.


def grow_block(t: PlanarTree, path):
    """All right-closed, noise-complete connected vertex sets rooted at path.

    The children kept below a vertex are a suffix of its children
    (right-closure) that starts no later than its first noise edge, whose
    endpoint is forced in (noise-completeness); every kept child reached by
    a non-noise edge grows the same way.
    """
    def grow(node, path):
        kids = node.children
        # each child's options once, shared by every suffix that keeps it
        opts = [(frozenset({path + (j,)}),) if is_noise_edge(edge)
                else tuple(grow(sub, path + (j,))) for j, (edge, sub) in enumerate(kids)]
        for start in range(first_noise(kids) + 1):
            for combo in itertools.product(*opts[start:]):
                yield frozenset({path}).union(*combo)

    return grow(t.subtree(path), path)


def grow_subtree(t: PlanarTree, path):
    """All connected vertex sets rooted at path: any subset of the children
    is kept below a vertex, and every kept child grows the same way."""
    def grow(node, path):
        opts = [(frozenset(),) + tuple(grow(sub, path + (j,)))
                for j, (_, sub) in enumerate(node.children)]
        for combo in itertools.product(*opts):
            yield frozenset({path}).union(*combo)

    return grow(t.subtree(path), path)


def read_block(host: PlanarTree, block) -> tuple:
    """A connected block of ``host`` and the edges leaving it, in one walk.

    Returns (the block as a tree, its leaving edges), each leaving edge as
    (host path of the vertex it leaves, child index, that vertex's path in
    the block tree, child entry), in the preorder of the host.  For a
    right-closed block the edges leaving a vertex are a prefix of its
    children: for a block grown at the root, the cut made there.
    """
    leaving = []

    def build(path, node, here) -> PlanarTree:
        kids = []
        for j, entry in enumerate(node.children):
            child = path + (j,)
            if child in block:
                kids.append((entry[0], build(child, entry[1], here + (len(kids),))))
            else:
                leaving.append((path, j, here, entry))
        return PlanarTree._trusted(node.dec, tuple(kids), node.ext)

    root = min(block)
    return build(root, host.subtree(root), ()), leaving


def nonplanar_host(forest) -> NonplanarTree:
    """The non-planar tree B+(w) of a non-planar forest w.  It stores its
    children in canonical order, so it is its own planar host: a vertex is
    addressed by its path, and the subtree there is a non-planar tree."""
    return NonplanarTree._trusted(None, np_forest(as_forest(forest)))


def read_nonplanar_block(host: NonplanarTree, block) -> tuple:
    """A connected block of a non-planar tree as a non-planar tree, and the
    host paths of the subtrees leaving it, in the preorder of the host.  A
    vertex whose whole subtree lies in the block is read as it stands."""
    leaving = []

    def build(path, node) -> NonplanarTree:
        kids, whole = [], True
        for j, (_, c) in enumerate(node.children):
            child = path + (j,)
            if child in block:
                kid = build(child, c)
                kids.append(kid)
                whole = whole and kid is c
            else:
                leaving.append(child)
                whole = False
        return node if whole else NonplanarTree._trusted(node.dec, np_forest(kids))

    root = min(block)
    return build(root, host.subtree(root)), leaving


# ---------------------------------------------------------------------------
# the MKW coproduct


@lru_cache(maxsize=1024)
def _tree_coproduct(t: PlanarTree) -> tuple:
    """Δ′(t): the left admissible cuts below the root of t, summed as
    ((pruned forest, trunk tree), c) pairs.  Each cut is a block grown at
    the root, read by ``read_block``: the trunk is the block, and the
    branches cut at one vertex (a prefix of its children) concatenate,
    while those cut at different vertices are shuffled, once per cut.  The
    table is bounded at 1024 trees (the forests with <= 5 vertices over a, b
    and over one letter hold 573) and its tuples are shared: read-only."""
    out = LinComb()
    for block in grow_block(t, ()):
        trunk, leaving = read_block(t, block)
        pruned = [tuple(sub for *_, (_, sub) in run)
                  for _, run in itertools.groupby(leaving, operator.itemgetter(0))]
        if len(pruned) < 2:
            out.add_term((pruned[0] if pruned else (), trunk), 1)
        else:
            for p, c in shuffle_many(pruned).items():
                out.add_term((p, trunk), c)
    return tuple(out.items())


def mkw_coproduct(x) -> LinComb:
    """MKW coproduct: sum of pruned-part tensor trunk over left admissible cuts.

    For a forest w = t_1 ... t_n, with * shuffling the pruned parts and
    concatenating the trunks, Delta(w) is the sum over k of
    (w[:k] (x) 1) * Delta'(t_{k+1}) * ... * Delta'(t_n): the first k trees
    are pruned whole, the rest are cut below their roots.  The suffix
    products are built right to left from the per-tree tables
    ``_tree_coproduct``, so each is computed once for every k.
    """
    def per_basis(w: tuple) -> LinComb:
        # the empty suffix: w pruned whole
        out = LinComb.term(Tensor((w, ())))
        suffix = {((), ()): 1}
        for k in range(len(w) - 1, -1, -1):
            grown = {}
            get = grown.get
            for (p1, t1), c1 in _tree_coproduct(w[k]):
                for (p2, t2), c2 in suffix.items():
                    trunk, c = (t1,) + t2, c1 * c2
                    pruned = (_shuffle_words(p1, p2).items() if p1 and p2
                              else ((p1 or p2, 1),))
                    for p, c3 in pruned:
                        key = (p, trunk)
                        grown[key] = get(key, 0) + c * c3
            suffix = grown
            head, get = w[:k], out.get
            for (p, trunk), c in suffix.items():
                pruned = (_shuffle_words(head, p).items() if head and p
                          else ((head or p, 1),))
                for q, c3 in pruned:
                    key = Tensor((q, trunk))
                    out[key] = get(key, 0) + c * c3
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


# ---------------------------------------------------------------------------
# non-planar side: embeddings, BCK coproduct


def _np_tree_embeddings(t: NonplanarTree) -> LinComb:
    """All plane orderings of a tree, one term per ordering choice.

    Equal children make distinct orderings coincide, so each planar tree in
    the support carries the automorphism count of its source; this is the
    normalization for which the map intertwines the two coproducts.
    """
    child_opts = [_np_tree_embeddings(c) for _, c in t.children]
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
    """Sum over all ways to endow a non-planar forest with a plane order:
    the plane orders of the tree B+(w), below its root."""
    return aslc(x).map_basis(lambda w: _np_tree_embeddings(
        NonplanarTree(None, as_forest(w))).map_basis(b_minus))


def ck_coproduct(x) -> LinComb:
    """Connes-Kreimer coproduct on non-planar forests: the subtrees grown at
    the root of B+(w), each read by ``read_nonplanar_block``, with the
    subtrees leaving it on the left and the trunk's children on the right."""
    def per_basis(w) -> LinComb:
        host = nonplanar_host(w)
        out = LinComb()
        for block in grow_subtree(host, ()):
            trunk, leaving = read_nonplanar_block(host, block)
            out.add_term(Tensor((np_forest(map(host.subtree, leaving)),
                                 b_minus(trunk))), 1)
        return out

    return aslc(x).map_basis(per_basis)


# ---------------------------------------------------------------------------
# helpers for property tests


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
    delta = x.map_basis(deshuffle)
    for w, c in x.items():
        delta.add_term(Tensor((w, ())), -c)
        delta.add_term(Tensor(((), w)), -c)
    return delta.is_zero()
