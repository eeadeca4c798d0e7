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
from functools import lru_cache
from math import floor

from .coactions import (block_families, compatibility_sides, contract,
                        extract_block, grow_block)
from .deformed import (_transfer_moves, delta_plus, delta_plus_0,
                       non_noise_paths, star_plus, tree_dim)
from .linalg import LinComb, Multiset, Tensor, aslc, bilinear
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


def insert(t1, t2) -> LinComb:
    """Sum of insertions over every vertex not adjacent to a noise edge."""
    def per_basis(a: PlanarTree, b: PlanarTree) -> LinComb:
        out = LinComb()
        for p in insertable_vertices(b):
            out.iadd_scaled(_insert_core(a, p, b, deformed=False))
        return out

    return bilinear(t1, t2, per_basis)


def dinsert_v(t1: PlanarTree, path, t2: PlanarTree) -> LinComb:
    """Deformed insertion at one vertex."""
    return _insert_core(t1, path, t2, deformed=True)


def dinsert_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    out = LinComb()
    for p in insertable_vertices(t2):
        out.iadd_scaled(_insert_core(t1, p, t2, deformed=True))
    return out


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


def _go_insert(mono: Multiset, target) -> LinComb:
    """Guin-Oudom extension of deformed insertion, defining route."""
    if not mono:
        return aslc(target)
    head, rest = mono[0], Multiset(mono[1:])
    out = _go_insert(rest, target).map_basis(lambda t: dinsert_tree(head, t))
    if rest:
        moved = LinComb()
        for j in range(len(rest)):
            hit = dinsert_tree(head, rest[j])
            for nt, c in hit.items():
                moved.add_term(Multiset(rest[:j] + rest[j + 1:] + (nt,)), c)
        out.iadd_scaled(moved.map_basis(lambda m: _go_insert(m, target)), -1)
    return out


def star_minus(x, y) -> LinComb:
    """Product on monomials of negative trees: split the left monomial,
    keep one part and insert the other."""
    def per_basis(m1: Multiset, m2: Multiset) -> LinComb:
        out = LinComb()
        n = len(m1)
        for mask in range(1 << n):
            kept = Multiset(m1[i] for i in range(n) if mask >> i & 1)
            used = Multiset(m1[i] for i in range(n) if not mask >> i & 1)
            inserted = _insert_into_monomial(used, m2)
            out.iadd_scaled(inserted.map_basis(lambda m: kept * m))
        return out

    return bilinear(x, y, per_basis)


def _insert_into_monomial(used: Multiset, m2: Multiset) -> LinComb:
    """Split the used factors over the factors of the target monomial."""
    if not m2:
        return LinComb.term(Multiset()) if not used else LinComb.zero()
    head, rest = m2[0], Multiset(m2[1:])
    out = LinComb()
    n = len(used)
    for mask in range(1 << n):
        part = Multiset(used[i] for i in range(n) if mask >> i & 1)
        comp = Multiset(used[i] for i in range(n) if not mask >> i & 1)
        left = dinsert_multi(part, head)
        right = _insert_into_monomial(comp, rest)
        out.iadd_scaled(bilinear(left, right,
                                 lambda t, m: Multiset((t,)) * m))
    return out


# ---------------------------------------------------------------------------
# the renormalisation coaction


def _block_outgoing(t: PlanarTree, block):
    """Edges leaving the block: (attachment path in block, child index)."""
    out = []
    for v in sorted(block):
        node = t.subtree(v)
        for j in range(len(node.children)):
            if v + (j,) not in block:
                out.append((v, j))
    return out


@lru_cache(maxsize=None)
def _delta_minus_terms(t: PlanarTree, cfg: RegularityConfig,
                       include_root_blocks: bool) -> LinComb:
    """Families of negative blocks tensor the contraction, Kronecker-dual
    weights.

    Per block, the block and its outgoing edges move decorations by
    ``_transfer_moves``: the drops pile onto the contracted vertex, the
    raised edges hang from it, and the modified block must stay negative.
    Each block's moves are computed once, and ``_block_moves`` keeps them,
    so Δ⁻ and its non-root variant on one tree share them; a block with no
    move is left out of the families, since any family containing it
    contributes nothing.  Results are shared between calls and must not be
    mutated.
    """
    # a block root cannot hang from a noise edge
    blocks = [b for root in t.paths()
              if not t.has_incoming_noise(root) and (include_root_blocks or root)
              for b in grow_block(t, root)]
    moves = {b: _block_moves(t, b, cfg) for b in blocks}
    out = LinComb()
    for family in block_families(list(t.paths()), [b for b in blocks if moves[b]]):
        out.iadd_scaled(_family_terms(t, family, [moves[b] for b in family], cfg))
    return out


def _family_terms(t, family, per_block, cfg) -> LinComb:
    """All combinations of the blocks' moves for one family.

    The contracted vertex carries the piled-up drops and, on a tree with
    extended decorations, the modified block's grading as its extended
    decoration; its children are the outgoing edges with their raises.
    """
    out = LinComb()
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
        out.iadd_scaled(contracted.map_basis(lambda tr: Tensor((left, tr))),
                        weight)
    return out


@lru_cache(maxsize=1024)
def _block_moves(t, block, cfg) -> tuple:
    """The decoration moves of one block that keep it negative.

    Returns tuples (modified block tree, contracted vertex decoration,
    {(vertex, child index): raised edge} for the raised outgoing edges,
    weight).  A drop lowers the block's grading by its norm and a raise
    lifts it by its norm, so a surviving raise has norm below the slack:
    minus the block's grading plus every droppable decoration.

    Memoised in a bounded table: the calls that repeat a block come close
    together (Δ⁻ of a tree, then Δ⁻-non-root of the same tree inside one
    cointeraction check), and a table of every block's moves would hold
    their modified block trees for the whole run.
    """
    vertices = sorted(block)
    outgoing = _block_outgoing(t, block)
    out_edges = [t.subtree(v).children[j][0] for v, j in outgoing]
    base = regularity(extract_block(t, block)[0], cfg)
    slack = -base + sum(t.subtree(v).dec.norm for v in vertices
                        if not t.has_incoming_noise(v))
    ells = tuple(mi_range_norm(tree_dim(t), max(0, floor(slack))))
    moves = []
    for decs, raises, drop, w in _transfer_moves(
            t, vertices, [(v, ells) for v, _ in outgoing]):
        if base - drop.norm + sum(ell.norm for ell in raises) >= 0:
            continue
        raised = {(v, j): edge.with_index(edge.index.add(ell))
                  for (v, j), edge, ell in zip(outgoing, out_edges, raises)
                  if not ell.is_zero()}
        moves.append((extract_block(t, block, decs)[0], drop, raised, w))
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

