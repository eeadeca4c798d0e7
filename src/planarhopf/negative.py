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

from .coactions import block_families, contract, grow_block
from .deformed import (_delta_plus_terms, delta_plus_0, non_noise_paths,
                       star_plus, tree_dim)
from .linalg import LinComb, Multiset, Tensor, aslc, bilinear
from .trees import (MultiIndex, NoiseAdjacentVertex, PlanarTree,
                    RegularityConfig, extended_regularity, mi_compositions,
                    mi_multinomial, mi_range, regularity, sequential_binom)


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


def _delta_minus_terms(t: PlanarTree, cfg: RegularityConfig,
                       include_root_blocks: bool = True,
                       extended: bool = False) -> LinComb:
    """Families of negative blocks tensor the contraction, Kronecker-dual
    weights.

    Per block: vertex decorations may drop (the drops pile onto the
    contracted vertex, multinomial weight) and each outgoing edge may raise
    its index in the contracted tree together with the block vertex it left,
    weighted by the grafting binomial; the modified block must stay negative.
    """
    d = tree_dim(t)
    grading = (lambda tr: extended_regularity(tr, cfg)) if extended \
        else (lambda tr: regularity(tr, cfg))
    # a block root cannot hang from a noise edge
    blocks = [b for root in t.paths()
              if not t.has_incoming_noise(root) and (include_root_blocks or root)
              for b in grow_block(t, root)]
    out = LinComb()
    for family in block_families(list(t.paths()), blocks):
        out.iadd_scaled(_family_terms(t, family, grading, extended, d))
    return out


def _family_terms(t, family, grading, extended, d) -> LinComb:
    """All decoration moves for one family of blocks.

    The contracted vertex carries the piled-up drops (and, with extended
    decorations, the modified block's extended grading); its children are
    the outgoing edges with their raises.
    """
    per_block = []
    for block in family:
        moves = _block_moves(t, min(block), block, grading, d)
        if not moves:
            return LinComb()
        per_block.append(moves)
    out = LinComb()
    for combo in itertools.product(*per_block):
        weight = 1
        edges = {}
        for _, _, raised, w in combo:
            weight *= w
            edges.update(raised)
        mods = tuple(mod_block for mod_block, _, _, _ in combo)
        if extended:
            exts = tuple(map(grading, mods))
        else:
            exts = (None if t.ext is None else Fraction(0),) * len(combo)
        contracted = contract(t, family, tuple(dec for _, dec, _, _ in combo),
                              exts, edges)
        left = Multiset(mods)
        out.iadd_scaled(contracted.map_basis(lambda tr: Tensor((left, tr))),
                        weight)
    return out


def _block_moves(t, root, block, grading, d):
    """Decoration drops and outgoing-edge raises for one block.

    Returns tuples (modified block tree, contracted vertex decoration,
    {(vertex, child index): raised edge} for the raised outgoing edges,
    weight); only moves keeping the block negative survive.  Drops are
    bounded by the available decorations, raises by the negativity slack
    plus whatever the drops free up.
    """
    non_noise = [v for v in sorted(block) if not t.has_incoming_noise(v)]
    outgoing = _block_outgoing(t, block)
    out_edges = [t.subtree(v).children[j][0] for v, j in outgoing]
    base = _extract_typed(t, root, block, {}, {}, d)
    slack = -grading(base) + sum(t.subtree(v).dec.norm for v in non_noise)
    bound = max(0, int(slack)) if slack > 0 else 0
    raise_opts = [tuple(mi_range(MultiIndex((bound,) * d))) for _ in outgoing]
    drop_opts = [tuple(mi_range(t.subtree(v).dec)) for v in non_noise]
    moves = []
    for raises in itertools.product(*raise_opts):
        raise_at = dict(zip(outgoing, raises))
        for drops in itertools.product(*drop_opts):
            drop_at = dict(zip(non_noise, drops))
            mod = _extract_typed(t, root, block, drop_at, raise_at, d)
            if mod is None or not grading(mod) < 0:
                continue
            w = mi_multinomial(drops)
            for v in non_noise:
                raised_here = [raise_at[(vv, j)] for vv, j in outgoing if vv == v]
                if raised_here:
                    ldec = t.subtree(v).dec.sub(drop_at[v])
                    for ell in raised_here:
                        ldec = ldec.add(ell)
                    w *= sequential_binom(ldec, raised_here)
                    if w == 0:
                        break
            if w == 0:
                continue
            total_drop = MultiIndex.zero(d)
            for drop in drops:
                total_drop = total_drop.add(drop)
            raised = {(v, j): edge.with_index(edge.index.add(ell))
                      for (v, j), edge, ell in zip(outgoing, out_edges, raises)
                      if not ell.is_zero()}
            moves.append((mod, total_drop, raised, w))
    return moves


def _extract_typed(t, root, block, drop_at, raise_at, d):
    """The block as a standalone tree with drops applied and raises added.

    Raises land on the block vertex an outgoing edge was attached to, drops
    are subtracted; None when a drop over-drains a decoration.
    """
    def build(v):
        node = t.subtree(v)
        dec = node.dec
        dec = dec.sub(drop_at.get(v, MultiIndex.zero(d)))
        if dec is None:
            return None
        for (vv, j), ell in raise_at.items():
            if vv == v:
                dec = dec.add(ell)
        kids = []
        for j, (edge, _) in enumerate(node.children):
            if v + (j,) in block:
                sub = build(v + (j,))
                if sub is None:
                    return None
                kids.append((edge, sub))
        return PlanarTree(dec, tuple(kids), node.ext)

    return build(root)


_DM_CACHE = {}


def _delta_minus_cached(t, cfg, include_root_blocks, extended) -> LinComb:
    # results are treated as immutable by every caller
    key = (t, cfg.key(), include_root_blocks, extended)
    out = _DM_CACHE.get(key)
    if out is None:
        out = _delta_minus_terms(t, cfg, include_root_blocks, extended)
        _DM_CACHE[key] = out
    return out


def delta_minus(x, cfg: RegularityConfig) -> LinComb:
    """Renormalisation coaction on typed trees."""
    return aslc(x).map_basis(lambda t: _delta_minus_cached(t, cfg, True, False))


def delta_minus_nonroot(x, cfg: RegularityConfig) -> LinComb:
    """Variant that never contracts a block containing the root."""
    return aslc(x).map_basis(lambda t: _delta_minus_cached(t, cfg, False, False))


# ---------------------------------------------------------------------------
# extended decorations


def to_ex(t: PlanarTree) -> PlanarTree:
    """Assign extended decoration zero everywhere."""
    return PlanarTree(t.dec, tuple((e, to_ex(s)) for e, s in t.children),
                      Fraction(0))


def reg_plus(t: PlanarTree, cfg: RegularityConfig) -> Fraction:
    return extended_regularity(t, cfg)


def delta_minus_ex(x, cfg: RegularityConfig) -> LinComb:
    """Renormalisation with extended decorations: the contracted vertex
    records the extended grading of the block it replaced."""
    return aslc(x).map_basis(lambda t: _delta_minus_cached(t, cfg, True, True))


def delta_minus_ex_nonroot(x, cfg: RegularityConfig) -> LinComb:
    return aslc(x).map_basis(lambda t: _delta_minus_cached(t, cfg, False, True))


_DPEX_CACHE = {}


def delta_plus_ex(x, cfg: RegularityConfig) -> LinComb:
    """Recentering with extended decorations: project by the extended
    grading; every vertex keeps its extended decoration."""
    def per_basis(t):
        key = (t, cfg.key())
        out = _DPEX_CACHE.get(key)
        if out is None:
            out = _delta_plus_terms(t, cfg, None,
                                    grading=lambda tr: extended_regularity(tr, cfg))
            _DPEX_CACHE[key] = out
        return out

    return aslc(x).map_basis(per_basis)


# ---------------------------------------------------------------------------
# cointeraction checks


def _m13_compose(left_pairs: LinComb, split_left, split_right) -> LinComb:
    out = LinComb()
    for (x, y), c in left_pairs.items():
        for (l1, mid), c1 in split_left(x).items():
            for (l2, right), c2 in split_right(y).items():
                out.add_term(Tensor((l1 * l2, mid, right)), c * c1 * c2)
    return out


def _edge_decs_within(t: PlanarTree, cap: MultiIndex) -> bool:
    for edge, sub in t.children:
        if not edge.index.leq(cap):
            return False
        if not _edge_decs_within(sub, cap):
            return False
    return True


def cointeraction_sides_trunc(t: PlanarTree, cfg: RegularityConfig,
                              cap: MultiIndex):
    """Both sides of the renormalisation/recentering compatibility with the
    unprojected recentering coproduct, truncated consistently.

    The filter keeps exactly the triples whose middle tensor has all edge
    indices within the cap; running the inner coproducts with the same cap
    then makes the comparison exact on the kept triples.
    """
    lhs = LinComb()
    for (mono, mid), c in delta_minus(t, cfg).items():
        for (x, y), c2 in delta_plus_0(mid, cap).items():
            lhs.add_term(Tensor((mono, x, y)), c * c2)
    rhs = _m13_compose(delta_plus_0(t, cap),
                       lambda x: delta_minus_nonroot(x, cfg),
                       lambda y: delta_minus(y, cfg))
    keep = lambda trip: _edge_decs_within(trip[1], cap)
    lhs = LinComb((k, v) for k, v in lhs.items() if keep(k))
    rhs = LinComb((k, v) for k, v in rhs.items() if keep(k))
    return lhs, rhs


def cointeraction_check_trunc(t: PlanarTree, cfg: RegularityConfig,
                              cap: MultiIndex) -> bool:
    lhs, rhs = cointeraction_sides_trunc(t, cfg, cap)
    return lhs == rhs


def cointeraction_sides_ex(t: PlanarTree, cfg: RegularityConfig):
    """Both sides of the extended-decoration compatibility; exact and finite
    thanks to the extended-grading projection."""
    tex = to_ex(t)
    lhs = LinComb()
    for (mono, mid), c in delta_minus_ex(tex, cfg).items():
        for (x, y), c2 in delta_plus_ex(mid, cfg).items():
            lhs.add_term(Tensor((mono, x, y)), c * c2)
    rhs = _m13_compose(delta_plus_ex(tex, cfg),
                       lambda x: delta_minus_ex_nonroot(x, cfg),
                       lambda y: delta_minus_ex(y, cfg))
    return lhs, rhs


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
        lhs += _multinom_from(m, kappas) * _multinom_from(total.sub(m), rest)
    return lhs == _multinom_from(total, parts)


def _multinom_from(total: MultiIndex, parts) -> int:
    """binom(total; p1, ..., pk) componentwise; zero when parts overflow."""
    out = 1
    rest = total
    for p in parts:
        out *= rest.binom(p)
        if out == 0:
            return 0
        rest = rest.sub(p)
        if rest is None:
            return 0
    return out
