"""Insertion products, the negative Hopf algebra and the renormalisation
coaction on typed trees, with extended decorations and the compatibility
between renormalisation and recentering.

Insertion identifies the root of one tree with a vertex of another; the
vertex's outgoing edges re-graft onto the inserted tree (deformed, for the
deformed variant) and its decoration spreads over the inserted tree's
non-noise vertices with multinomial weights.  The renormalisation coaction
is the Kronecker dual of the multi-insertion action: contracted blocks are
connected, right-closed, noise-complete subtrees of negative grading.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from math import floor

from .coactions import block_families, compatibility_sides, contract
from .deformed import (_transfer_moves, delta_plus, delta_plus_0,
                       non_noise_paths, star_plus, tree_dim)
from .linalg import LinComb, Multiset, Tensor, aslc, bilinear
from .postlie import go_product, grow_block, read_block, split_over, split_terms
from .trees import (MultiIndex, NoiseAdjacentVertex, PlanarTree,
                    RegularityConfig, mi_compositions, mi_multinomial,
                    mi_range, mi_range_norm, regularity, sequential_binom)


def noise_adjacent(t: PlanarTree, path) -> bool:
    if t.has_incoming_noise(path):
        return True
    return any(edge.is_noise for edge, _ in t.subtree(path).children)


def insertable_vertices(t: PlanarTree) -> list:
    return [p for p in t.paths() if not noise_adjacent(t, p)]


# ---------------------------------------------------------------------------
# plain and deformed insertion


def _insert_core(t1: PlanarTree, path, t2: PlanarTree, deformed: bool) -> LinComb:
    """Insertion of t1 into the vertex of t2 at ``path``.

    The vertex's branches re-graft onto t1's non-noise vertices (as a
    leftmost block, order preserved at shared targets); with ``deformed``,
    edge indices and target decorations drop together, weighted by binomials
    of t1's original decorations.  The vertex's own decoration then spreads
    over t1's non-noise vertices with multinomial weights.
    """
    if noise_adjacent(t2, path):
        raise NoiseAdjacentVertex(f"cannot insert at {path}: vertex touches a noise edge")
    node = t2.subtree(path)
    branches = list(node.children)
    targets = list(non_noise_paths(t1, include_root=True))
    d = tree_dim(t2)
    out = LinComb()
    for assign in itertools.product(range(len(targets)), repeat=len(branches)):
        at = {p: [] for p in targets}
        for b_idx, t_idx in enumerate(assign):
            at[targets[t_idx]].append(b_idx)
        drop_opts = []
        for b_idx, t_idx in enumerate(assign):
            if deformed:
                drop_opts.append(tuple(mi_range(t1.subtree(targets[t_idx]).dec)))
            else:
                drop_opts.append((MultiIndex.zero(d),))
        for drops in itertools.product(*drop_opts):
            weight = 1
            for p in targets:
                here = [drops[b] for b in at[p]]
                if here:
                    weight *= sequential_binom(t1.subtree(p).dec, here)
                    if weight == 0:
                        break
            if weight == 0:
                continue
            new_edges = []
            ok = True
            for (edge, sub), drop in zip(branches, drops):
                idx = edge.index.sub(drop)
                if idx is None:
                    ok = False
                    break
                new_edges.append((edge.with_index(idx), sub))
            if not ok:
                continue
            for parts in mi_compositions(node.dec, len(targets)):
                decmap = {}
                for p, delta in zip(targets, parts):
                    dec = t1.subtree(p).dec.add(delta)
                    for b in at[p]:
                        dec = dec.sub(drops[b])
                    decmap[p] = dec
                built = _rebuild_inserted(t1, (), decmap, at, new_edges)
                out.add_term(t2.replace(path, built),
                             weight * mi_multinomial(parts))
    return out


def _rebuild_inserted(t1, path, decmap, at, new_edges) -> PlanarTree:
    node = t1.subtree(path)
    prefix = tuple(new_edges[b] for b in at.get(path, ()))
    kids = prefix + tuple(
        (edge, _rebuild_inserted(t1, path + (j,), decmap, at, new_edges))
        for j, (edge, _) in enumerate(node.children))
    return PlanarTree(decmap.get(path, node.dec), kids, node.ext)


def insert_v(t1: PlanarTree, path, t2: PlanarTree) -> LinComb:
    """Undeformed insertion of t1 into the vertex at ``path`` of t2."""
    return _insert_core(t1, path, t2, deformed=False)


def _insert_everywhere(t1: PlanarTree, t2: PlanarTree, deformed: bool) -> LinComb:
    """Sum of insertions over every vertex not adjacent to a noise edge."""
    out = LinComb()
    for p in insertable_vertices(t2):
        out.iadd_scaled(_insert_core(t1, p, t2, deformed))
    return out


def insert(t1, t2) -> LinComb:
    """Undeformed insertion summed over every insertable vertex."""
    return bilinear(t1, t2, partial(_insert_everywhere, deformed=False))


def dinsert_v(t1: PlanarTree, path, t2: PlanarTree) -> LinComb:
    """Deformed insertion at one vertex."""
    return _insert_core(t1, path, t2, deformed=True)


def dinsert_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    return _insert_everywhere(t1, t2, deformed=True)


def dinsert(t1, t2) -> LinComb:
    return bilinear(t1, t2, dinsert_tree)


# ---------------------------------------------------------------------------
# the subtree/stump decomposition and the product route


def P_v(t: PlanarTree, path) -> PlanarTree:
    """The full subtree rooted at the vertex, keeping its decoration."""
    return t.subtree(path)


def T_v(t: PlanarTree, path) -> PlanarTree:
    """Remove the branches at the vertex and zero its decoration."""
    node = t.subtree(path)
    d = tree_dim(t)
    return t.replace(path, PlanarTree(MultiIndex.zero(d), (), node.ext))


def dinsert_v_via_product(t1: PlanarTree, path, t2: PlanarTree) -> LinComb:
    """Insertion through the deformed product: act with the subtree at the
    vertex on the inserted tree, then plug the result back into the stump."""
    if noise_adjacent(t2, path):
        raise NoiseAdjacentVertex(f"cannot insert at {path}: vertex touches a noise edge")
    stump = T_v(t2, path)
    prod = star_plus(P_v(t2, path), t1)
    return prod.map_basis(lambda tr: stump.replace(path, tr))


# ---------------------------------------------------------------------------
# the negative product


def dinsert_multi(mono, t2) -> LinComb:
    """Insert each factor of the monomial at a distinct vertex.

    Zero when there are more factors than insertable vertices.
    """
    def per_basis(m: Multiset, b: PlanarTree) -> LinComb:
        spots = insertable_vertices(b)
        out = LinComb()
        for chosen in itertools.permutations(spots, len(m)):
            # insert deepest-first so the shallower replacements see the
            # already-inserted subtrees
            order = sorted(zip(chosen, m), key=lambda cv: len(cv[0]), reverse=True)
            acc = LinComb.term(b)
            for path, factor in order:
                acc = acc.map_basis(
                    lambda tr, p=path, f=factor: _insert_core(f, p, tr, True))
            out.iadd_scaled(acc)
        return out

    mono = mono if isinstance(mono, LinComb) else LinComb.term(mono)
    return bilinear(mono, t2, per_basis)


# the inserted factors split over the factors of the target monomial
_insert_into_monomial = split_over(dinsert_multi)


_star_minus_monomials = go_product(split_terms, _insert_into_monomial, Multiset.__mul__)


def star_minus(x, y) -> LinComb:
    """Product on monomials of negative trees: split the left monomial,
    keep one part and insert the other."""
    return bilinear(x, y, _star_minus_monomials)


# ---------------------------------------------------------------------------
# the renormalisation coaction


@lru_cache(maxsize=None)
def _delta_minus_terms(t: PlanarTree, cfg: RegularityConfig,
                       include_root_blocks: bool) -> LinComb:
    """Families of negative blocks tensor the contraction, Kronecker-dual
    weights.

    Per block, the block and its outgoing edges move decorations by
    ``_transfer_moves``: the drops pile onto the contracted vertex, the
    raised edges hang from it, and the modified block must stay negative.
    The moves are computed once per block shape and ``_shape_moves`` keeps
    them, so Δ⁻ and its non-root variant, and every tree holding a block of
    that shape, share them; a block with no move is left out of the
    families, since any family containing it contributes nothing.  Results
    are shared between calls and must not be mutated.
    """
    # a block root cannot hang from a noise edge
    blocks = [b for root in t.paths()
              if not t.has_incoming_noise(root) and (include_root_blocks or root)
              for b in grow_block(t, root)]
    moves = {b: _block_moves(t, b, cfg) for b in blocks}
    out = LinComb()
    for family in block_families(list(t.paths()), [b for b in blocks if moves[b]]):
        _family_terms(t, family, [moves[b] for b in family], cfg, out)
    return out


def _family_terms(t, family, per_block, cfg, out: LinComb) -> None:
    """Add to ``out`` all combinations of the blocks' moves for one family.

    The contracted vertex carries the piled-up drops and, on a tree with
    extended decorations, the modified block's grading as its extended
    decoration; its children are the outgoing edges with their raises.
    Each contraction's terms go into ``out`` one by one, scaled by the
    combination's weight, with no LinComb built per combination.
    """
    add = out.add_term
    for combo in itertools.product(*per_block):
        weight = 1
        edges = {}
        for _, _, raised, w in combo:
            weight *= w
            edges.update(raised)
        mods = tuple(mod_block for mod_block, _, _, _ in combo)
        exts = None if t.ext is None else tuple(regularity(m, cfg) for m in mods)
        contracted = contract(t, family, tuple(dec for _, dec, _, _ in combo),
                              exts, edges)
        left = Multiset(mods)
        for tr, c in contracted.items():
            add(Tensor((left, tr)), weight * c)


def _block_moves(t, block, cfg) -> tuple:
    """The decoration moves of one block of ``t`` that keep it negative.

    Returns tuples (modified block tree, contracted vertex decoration,
    {(vertex, child index): raised edge} for the raised outgoing edges,
    weight), read off ``_shape_moves`` of the block's shape: the block
    tree and its outgoing edges from ``read_block``, each edge at its
    attachment path in the block tree.
    """
    tree, leaving = read_block(t, block)
    outgoing = [(v, j) for v, j, _, _ in leaving]
    shape = tuple((here, edge) for _, _, here, (edge, _) in leaving)
    return tuple((mod, drop, {key: edge for key, edge in zip(outgoing, raised)
                              if edge is not None}, w)
                 for mod, drop, raised, w in _shape_moves(tree, shape, cfg))


@lru_cache(maxsize=1024)
def _shape_moves(block: PlanarTree, outgoing: tuple,
                 cfg: RegularityConfig) -> tuple:
    """The decoration moves that keep a block negative, per block shape.

    ``block`` is the block extracted as a tree, with its decorations,
    extended decorations and internal edges; ``outgoing`` lists its
    outgoing edges as (attachment path in ``block``, edge).  Returns tuples
    (modified block tree, contracted vertex decoration, raised edge or None
    per outgoing edge, weight).  A drop lowers the block's grading by its
    norm and a raise lifts it by its norm, so ``_transfer_moves`` builds
    only the moves whose raises minus drop stay below minus the block's
    grading, and a surviving raise has norm below the slack: minus the
    block's grading plus every droppable decoration.

    The shape leaves out the edge into the block's root, which would decide
    whether the root may drop its decoration; ``_delta_minus_terms`` never
    roots a block below a noise edge, so the root is droppable in the host
    as it is in ``block``.  Memoised in a bounded table: blocks of one shape
    recur across the trees of a sweep and between Δ⁻ and Δ⁻-non-root of one
    tree, and a table of every shape's moves would hold their modified
    block trees for the whole run.
    """
    vertices = list(block.paths())
    base = regularity(block, cfg)
    slack = -base + sum(block.subtree(v).dec.norm for v in vertices
                        if not block.has_incoming_noise(v))
    ells = tuple(mi_range_norm(tree_dim(block), max(0, floor(slack))))
    moves = []
    for decs, raises, drop, w in _transfer_moves(
            block, vertices, [(v, ells) for v, _ in outgoing], -base):
        raised = tuple(None if ell.is_zero()
                       else edge.with_index(edge.index.add(ell))
                       for (_, edge), ell in zip(outgoing, raises))
        moves.append((block.with_decs(decs), drop, raised, w))
    return tuple(moves)


def delta_minus(x, cfg: RegularityConfig) -> LinComb:
    """Renormalisation coaction on typed trees.  On a tree with extended
    decorations the contracted vertex records the grading of the block it
    replaced, so the extended grading is preserved."""
    return aslc(x).map_basis(lambda t: _delta_minus_terms(t, cfg, True))


def delta_minus_nonroot(x, cfg: RegularityConfig) -> LinComb:
    """Variant that never contracts a block containing the root."""
    return aslc(x).map_basis(lambda t: _delta_minus_terms(t, cfg, False))


# ---------------------------------------------------------------------------
# extended decorations


def to_ex(t: PlanarTree) -> PlanarTree:
    """Assign extended decoration zero everywhere."""
    return PlanarTree(t.dec, tuple((e, to_ex(s)) for e, s in t.children),
                      Fraction(0))


# ---------------------------------------------------------------------------
# cointeraction checks


def _edge_decs_within(t: PlanarTree, cap: MultiIndex) -> bool:
    for edge, sub in t.children:
        if not edge.index.leq(cap):
            return False
        if not _edge_decs_within(sub, cap):
            return False
    return True


def _cointeraction_sides(t: PlanarTree, cfg: RegularityConfig, dplus):
    """Both sides of the renormalisation/recentering compatibility, with
    ``dplus`` as the recentering coproduct: (id (x) dplus) Delta- t, then
    m^{1,3}(Delta- non-root (x) Delta-) dplus t."""
    return compatibility_sides(t, lambda y: delta_minus(y, cfg), dplus,
                               lambda x: delta_minus_nonroot(x, cfg))


def cointeraction_sides_trunc(t: PlanarTree, cfg: RegularityConfig,
                              cap: MultiIndex):
    """Both sides of the compatibility with the unprojected recentering
    coproduct, truncated consistently.

    The filter keeps exactly the triples whose middle tensor has all edge
    indices within the cap; running the inner coproducts with the same cap
    then makes the comparison exact on the kept triples.
    """
    lhs, rhs = _cointeraction_sides(t, cfg, lambda x: delta_plus_0(x, cap))
    keep = lambda trip: _edge_decs_within(trip[1], cap)
    lhs = LinComb((k, v) for k, v in lhs.items() if keep(k))
    rhs = LinComb((k, v) for k, v in rhs.items() if keep(k))
    return lhs, rhs


def cointeraction_check_trunc(t: PlanarTree, cfg: RegularityConfig,
                              cap: MultiIndex) -> bool:
    lhs, rhs = cointeraction_sides_trunc(t, cfg, cap)
    return lhs == rhs


def cointeraction_sides_ex(t: PlanarTree, cfg: RegularityConfig):
    """Both sides of the compatibility on ``to_ex(t)``; exact and finite
    thanks to the projection by the extended grading."""
    return _cointeraction_sides(to_ex(t), cfg, lambda x: delta_plus(x, cfg))


def cointeraction_check_ex(t: PlanarTree, cfg: RegularityConfig) -> bool:
    lhs, rhs = cointeraction_sides_ex(t, cfg)
    return lhs == rhs


def chu_vandermonde(total: MultiIndex, m: MultiIndex, parts) -> bool:
    """Sum over splittings ell_i = kappa_i + kappa_i' of the product of
    multinomials equals the single multinomial; the identity behind the
    truncated compatibility proof."""
    parts = list(parts)
    d = len(total)
    lhs = 0
    for kappas in itertools.product(*(mi_range(p) for p in parts)):
        rest = [p.sub(k) for p, k in zip(parts, kappas)]
        used = MultiIndex.zero(d)
        for k in kappas:
            used = used.add(k)
        if not used.leq(m):
            continue
        lhs += sequential_binom(m, kappas) * sequential_binom(total.sub(m), rest)
    return lhs == sequential_binom(total, parts)

