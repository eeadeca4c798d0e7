"""Admissible partitions and the cosubstitution/cotranslation coactions.

A partition block is a set of vertices of an ordered forest whose induced
components are subtrees such that (i) the component roots are either all
forest roots or all children of one common vertex, consecutively placed in
the planar embedding, and (ii) whenever an edge lies in the block, every
edge to its right at the same vertex does too.

Left tensor factors live in the free symmetric algebra on pairs (Lie
polynomial, letter).  Since the symmetric algebra of a subspace sits inside
the symmetric algebra of the ambient span of forests, monomials are always
expanded multilinearly into multisets of (forest, letter) pairs, which gives
a canonical basis and makes equality checks exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import LinComb, Multiset, Tensor, aslc, bilinear
from .postlie import _shuffle_words, b_plus, mkw_coproduct
from .trees import (NonplanarTree, PlanarTree, first_noise, is_noise_edge,
                    np_forest)

# vertex addresses in a forest: (tree index, path within the tree)


def _forest_vertices(w: tuple) -> list:
    out = []
    for i, t in enumerate(w):
        out.extend((i, p) for p in t.paths())
    return out


def _parent(v):
    i, path = v
    return None if not path else (i, path[:-1])


def _is_valid_block(w: tuple, block: frozenset) -> bool:
    roots = []
    for v in block:
        p = _parent(v)
        if p is None or p not in block:
            roots.append(v)
        if p is not None and p in block:
            # right-closure: siblings to the right must be in the block too
            i, path = v
            parent_sub = w[i].subtree(path[:-1])
            for j in range(path[-1] + 1, len(parent_sub.children)):
                if (i, path[:-1] + (j,)) not in block:
                    return False
    root_parents = {_parent(v) for v in roots}
    if len(root_parents) != 1:
        return False
    parent = root_parents.pop()
    if parent is None:
        positions = sorted(v[0] for v in roots)
        if any(v[1] for v in roots):
            return False
    else:
        if parent in block:
            return False
        positions = sorted(v[1][-1] for v in roots)
    # adjacency: the roots occupy consecutive positions
    return positions == list(range(positions[0], positions[-1] + 1))


def validate_block(w: tuple, block) -> bool:
    """Independent re-check of both admissibility conditions (used by tests)."""
    block = frozenset(block)
    vertices = set(_forest_vertices(w))
    if not block or not block <= vertices:
        return False
    return _is_valid_block(w, block)


@dataclass(frozen=True)
class Partition:
    """Disjoint admissible blocks of a host forest, in deterministic order."""

    blocks: tuple
    spanning: bool


# ---------------------------------------------------------------------------
# the shared block machinery: growing, families, extraction, contraction
#
# These work on one host tree with vertices addressed by paths; a forest w
# is handled as the tree B+(w), where (tree index i, path) becomes (i,) + path.


def grow_block(t: PlanarTree, path):
    """All right-closed, noise-complete connected vertex sets rooted at path.

    The children kept below a vertex are a suffix of its children
    (right-closure) that starts no later than its first noise edge, whose
    endpoint is forced in (noise-completeness); every kept child reached by
    a non-noise edge grows the same way.
    """
    kids = t.subtree(path).children
    for start in range(first_noise(kids) + 1):
        opts = [(frozenset({path + (j,)}),) if is_noise_edge(kids[j][0])
                else tuple(grow_block(t, path + (j,))) for j in range(start, len(kids))]
        for combo in itertools.product(*opts):
            yield frozenset({path}).union(*combo)


def block_families(vertices: list, blocks, spanning: bool = False) -> list:
    """Every family of pairwise disjoint blocks, as tuples of blocks.

    Each family is visited once: at every vertex only blocks whose first
    vertex (in the order of ``vertices``) is that vertex may start, so
    skipped vertices stay uncovered; ``spanning`` forbids skipping.
    """
    order = {v: i for i, v in enumerate(vertices)}
    by_min = {}
    for b in blocks:
        by_min.setdefault(min(b, key=order.get), []).append(b)
    families = []

    def rec(idx: int, used: frozenset, chosen: tuple):
        if idx == len(vertices):
            families.append(chosen)
            return
        v = vertices[idx]
        if v in used:
            rec(idx + 1, used, chosen)
            return
        if not spanning:
            rec(idx + 1, used, chosen)
        for b in by_min.get(v, ()):
            if not b & used:
                rec(idx + 1, used | b, chosen + (b,))

    rec(0, frozenset(), ())
    return families


def _as_host(w, blocks) -> tuple:
    """A forest as the tree B+(w) with its blocks moved onto that tree; a
    single tree is its own host."""
    if isinstance(w, PlanarTree):
        return w, tuple(blocks)
    return b_plus(w), tuple(frozenset((i,) + p for i, p in b) for b in blocks)


def extract_block(w, block, decs=None) -> tuple:
    """The block as an ordered forest (components in planar order of roots);
    ``decs`` maps host paths to replacement decorations."""
    host, (block,) = _as_host(w, (block,))
    decs = decs or {}

    def build(path) -> PlanarTree:
        node = host.subtree(path)
        kids = tuple((edge, build(path + (j,)))
                     for j, (edge, _) in enumerate(node.children) if path + (j,) in block)
        return PlanarTree(decs.get(path, node.dec), kids, node.ext)

    return tuple(build(v) for v in sorted(block) if not v or v[:-1] not in block)


def contract(w, blocks, tags, exts=None, edges=None) -> LinComb:
    """Contract each block to one vertex decorated by the matching tag.

    ``w`` is an ordered forest with blocks of (tree index, path) vertices, or
    one tree with blocks of paths.  The contracted vertex inherits the planar
    position of the block's leftmost root and carries the block's entry of
    ``exts`` as extended decoration; children of block vertices that stay
    outside the block are shuffled across block vertices, keeping each
    vertex's own order.  ``edges`` maps (vertex, child index) to a
    replacement for that edge.
    """
    host, blocks = _as_host(w, blocks)
    exts = exts or (None,) * len(blocks)
    edges = edges or {}
    owner = {v: k for k, b in enumerate(blocks) for v in b}

    def assemble(path, node, own) -> LinComb:
        """The children of one vertex outside its block ``own``, in planar
        order; consecutive roots of one block become one contracted child."""
        out = LinComb.term(())
        j, n = 0, len(node.children)
        while j < n:
            k = owner.get(path + (j,))
            if k is not None and k == own:
                j += 1
                continue
            edge = edges.get((path, j), node.children[j][0])
            if k is None:
                part = rebuild(path + (j,))
            else:
                part = contract_block(k)
                while j + 1 < n and owner.get(path + (j + 1,)) == k:
                    j += 1
            out = bilinear(out, part, lambda a, t, e=edge: a + ((e, t),))
            j += 1
        return out

    def rebuild(path) -> LinComb:
        node = host.subtree(path)
        return assemble(path, node, None).map_basis(
            lambda ks: PlanarTree(node.dec, ks, node.ext))

    def contract_block(k) -> LinComb:
        seqs = LinComb.term(())
        for v in sorted(blocks[k]):
            seqs = bilinear(seqs, assemble(v, host.subtree(v), k), _shuffle_words)
        return seqs.map_basis(lambda ks: PlanarTree(tags[k], ks, exts[k]))

    if host is not w:  # a forest: the children of the added root
        return assemble((), host, None).map_basis(lambda ks: tuple(t for _, t in ks))
    root = owner.get(())
    return rebuild(()) if root is None else contract_block(root)


# ---------------------------------------------------------------------------
# admissible partitions


def _admissible_blocks(w: tuple) -> list:
    """Every admissible block: a run of consecutive siblings (or forest
    roots), each with a right-closed subtree grown below it."""
    host = b_plus(w)
    grown = {p: tuple(grow_block(host, p)) for p in host.paths() if p}
    out = []
    for parent in host.paths():
        n = len(host.subtree(parent).children)
        for a in range(n):
            for b in range(a + 1, n + 1):
                options = (grown[parent + (j,)] for j in range(a, b))
                for combo in itertools.product(*options):
                    out.append(frozenset((p[0], p[1:]) for comp in combo for p in comp))
    return out


def admissible_partitions(w: tuple, spanning: bool) -> list:
    """All (spanning) admissible partitions, deterministically ordered."""
    vertices = _forest_vertices(w)
    out = []
    for chosen in block_families(vertices, _admissible_blocks(w), spanning):
        ordered = tuple(sorted(chosen, key=lambda b: sorted(b)))
        covered = sum(len(b) for b in chosen)
        out.append(Partition(ordered, spanning=covered == len(vertices)))
    out.sort(key=lambda p: (len(p.blocks), [sorted(b) for b in p.blocks]))
    return out


# ---------------------------------------------------------------------------
# projection onto Lie polynomials


@lru_cache(maxsize=None)
def _eulerian_basis(w: tuple) -> LinComb:
    """First Eulerian idempotent: the convolution logarithm of the identity.

    e = sum_k (-1)^(k+1)/k m^(k) J^(tensor k) Delta_deshuffle^(k-1) with J
    the augmentation-complement projection; evaluated by colouring the tree
    positions of w with k colours, all colours used.
    """
    n = len(w)
    if n == 0:
        return LinComb()
    out = LinComb()
    for k in range(1, n + 1):
        coeff = Fraction((-1) ** (k + 1), k)
        for colours in itertools.product(range(k), repeat=n):
            if len(set(colours)) != k:
                continue
            parts = []
            for colour in range(k):
                parts.append(tuple(w[i] for i in range(n) if colours[i] == colour))
            merged = tuple(itertools.chain.from_iterable(parts))
            out.add_term(merged, coeff)
    return out


@lru_cache(maxsize=None)
def _leftbracket_basis(w: tuple) -> LinComb:
    """pi(t1...tk) = [t1, pi(t2...tk)], pi(t) = t, brackets as commutators."""
    if not w:
        return LinComb()
    if len(w) == 1:
        return LinComb.term(w)
    inner = _leftbracket_basis(w[1:])
    out = LinComb()
    for rest, c in inner.items():
        out.add_term((w[0],) + rest, c)
        out.add_term(rest + (w[0],), -c)
    return out


def lie_project(x, normalization: str = "eulerian") -> LinComb:
    """Projection of ordered forests onto Lie polynomials.

    'eulerian' is the idempotent projection onto primitives and is the
    normalization under which the cotranslation compatibility holds in
    general; 'leftbracket' iterates the commutator, reproduces coefficient 1
    on displays where a block has several components, and first diverges
    from the compatibility on 5-vertex hosts (e.g. the forest {o o[o] o[o]}).
    """
    if normalization == "eulerian":
        return aslc(x).map_basis(_eulerian_basis)
    if normalization == "leftbracket":
        return aslc(x).map_basis(_leftbracket_basis)
    raise ValueError(f"unknown normalization {normalization!r}")


# ---------------------------------------------------------------------------
# the coactions


def _as_forest(x):
    if isinstance(x, PlanarTree):
        return (x,)
    return tuple(x)


def rho(w, alphabet, spanning: bool, normalization: str = "eulerian",
        tagged: bool = True, fixed_tag=None) -> LinComb:
    """Common core of the coactions.

    Returns a LinComb over (Multiset of left factors, contracted forest)
    where left factors are (forest, letter) pairs when ``tagged``, bare
    forests otherwise.  ``fixed_tag`` forces one contraction letter instead
    of summing over the alphabet.
    """
    w = _as_forest(w)
    alphabet = tuple(alphabet)
    out = LinComb()
    for part in admissible_partitions(w, spanning):
        blocks = part.blocks
        projected = [lie_project(LinComb.term(extract_block(w, b)), normalization)
                     for b in blocks]
        tags_iter = [(fixed_tag,) * len(blocks)] if fixed_tag is not None \
            else itertools.product(alphabet, repeat=len(blocks))
        for tags in tags_iter:
            right = contract(w, blocks, tags)
            left = LinComb.term(Multiset())
            for lc_i, tag in zip(projected, tags):
                items = lc_i.map_basis(lambda f, t=tag: Multiset([(f, t)]) if tagged
                                       else Multiset([f]))
                left = bilinear(left, items, lambda m1, m2: m1 * m2)
            out.iadd_scaled(bilinear(left, right, lambda m, f: Tensor((m, f))))
    return out


def rho_S(w, alphabet, normalization: str = "eulerian") -> LinComb:
    """Cosubstitution: spanning admissible partitions, tagged left factors."""
    return rho(w, alphabet, spanning=True, normalization=normalization)


def rho_T(w, alphabet, normalization: str = "eulerian") -> LinComb:
    """Cotranslation: all admissible partitions, tagged left factors."""
    return rho(w, alphabet, spanning=False, normalization=normalization)


def rho_T0(w, normalization: str = "eulerian") -> LinComb:
    """Time-cotranslation: contraction letter fixed to the time letter 0."""
    return rho(w, ("0",), spanning=False, normalization=normalization,
               tagged=False, fixed_tag="0")


# ---------------------------------------------------------------------------
# non-planar coactions


def _np_vertices(t: NonplanarTree, prefix=()):
    yield prefix
    for j, c in enumerate(t.children):
        yield from _np_vertices(c, prefix + (j,))


def _np_subtree(t: NonplanarTree, path):
    for j in path:
        t = t.children[j]
    return t


def _np_connected_subsets(t: NonplanarTree, root_path=()):
    """All vertex sets inducing a connected subtree rooted at root_path."""
    sub = _np_subtree(t, root_path)
    child_sets = []
    for j in range(len(sub.children)):
        opts = [frozenset()]
        opts.extend(_np_connected_subsets(t, root_path + (j,)))
        child_sets.append(opts)
    for combo in itertools.product(*child_sets):
        yield frozenset({root_path}).union(*combo)


def rho_np(forest, alphabet, spanning: bool) -> LinComb:
    """Non-planar coactions: blocks are arbitrary disjoint subtrees.

    Left factors are the subtrees themselves (no Lie projection needed);
    contraction glues outside children onto the new vertex as a multiset.
    """
    if isinstance(forest, NonplanarTree):
        forest = (forest,)
    forest = tuple(forest)
    alphabet = tuple(alphabet)
    subtrees = [frozenset((i, p) for p in s) for i, t in enumerate(forest)
                for path in _np_vertices(t) for s in _np_connected_subsets(t, path)]
    vertices = [(i, p) for i, t in enumerate(forest) for p in _np_vertices(t)]
    out = LinComb()
    for blocks in block_families(vertices, subtrees, spanning):
        blocks = tuple(sorted(blocks, key=lambda b: sorted(b)))
        extracted = [_np_extract(forest, b) for b in blocks]
        for tags in itertools.product(alphabet, repeat=len(blocks)):
            left = Multiset((sub, tag) for sub, tag in zip(extracted, tags))
            right = _np_contract(forest, blocks, tags)
            out.add_term(Tensor((left, right)), 1)
    return out


def _np_extract(forest, block) -> NonplanarTree:
    root = min(block, key=lambda v: len(v[1]))

    def build(v):
        i, path = v
        sub = _np_subtree(forest[i], path)
        kids = [build((i, path + (j,))) for j in range(len(sub.children))
                if (i, path + (j,)) in block]
        return NonplanarTree(sub.dec, tuple(kids))

    return build(root)


def _np_contract(forest, blocks, tags) -> tuple:
    vmap = {}
    for b, tag in zip(blocks, tags):
        for v in b:
            vmap[v] = (b, tag)

    def rebuild(v):
        i, path = v
        if v in vmap:
            b, tag = vmap[v]
            if any(len(u[1]) < len(path) and u[1] == path[:len(u[1])] for u in b
                   if u != v):
                return None  # interior block vertex; handled at the block root
            kids = []
            for u in sorted(b):
                ui, upath = u
                sub = _np_subtree(forest[ui], upath)
                for j in range(len(sub.children)):
                    cv = (ui, upath + (j,))
                    if cv not in b:
                        kids.append(rebuild(cv))
            return NonplanarTree(tag, tuple(kids))
        sub = _np_subtree(forest[i], path)
        kids = [rebuild((i, path + (j,))) for j in range(len(sub.children))]
        return NonplanarTree(sub.dec, tuple(kids))

    return np_forest(rebuild((i, ())) for i in range(len(forest)))


# ---------------------------------------------------------------------------
# cointeraction


def m13(quad: LinComb) -> LinComb:
    """m^{1,3}(a (x) b (x) c (x) d) = ac (x) b (x) d on multiset left slots."""
    out = LinComb()
    for (a, b, c, d), coeff in quad.items():
        out.add_term(Tensor((a * c, b, d)), coeff)
    return out


def cointeraction_sides(w, normalization: str = "eulerian"):
    """Both sides of the compatibility between time-cotranslation and the
    MKW coproduct, as 3-tensor sums over (multiset, forest, forest)."""
    w = _as_forest(w)
    quad = LinComb()
    for (p, t), c in mkw_coproduct(LinComb.term(w)).items():
        rp = rho_T0(p, normalization)
        rt = rho_T0(t, normalization)
        for (m1, f1), c1 in rp.items():
            for (m2, f2), c2 in rt.items():
                quad.add_term(Tensor((m1, f1, m2, f2)), c * c1 * c2)
    lhs = m13(quad)
    rhs = LinComb()
    for (m, f), c in rho_T0(w, normalization).items():
        for (p, t), c2 in mkw_coproduct(LinComb.term(f)).items():
            rhs.add_term(Tensor((m, p, t)), c * c2)
    return lhs, rhs


def cointeraction_check(w, normalization: str = "eulerian") -> bool:
    lhs, rhs = cointeraction_sides(w, normalization)
    return lhs == rhs


def counit_check(w, alphabet) -> bool:
    """(eps (x) id) rho_T = id where eps keeps only the empty partition."""
    w = _as_forest(w)
    kept = LinComb()
    for (m, f), c in rho_T(w, alphabet).items():
        if not m:
            kept.add_term(f, c)
    return kept == LinComb.term(w)
