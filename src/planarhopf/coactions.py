"""Admissible partitions and the cosubstitution/cotranslation coactions.

A partition block is a set of vertices of an ordered forest w whose induced
components are subtrees such that (i) the component roots are children of
one common vertex of B+(w), consecutively placed in the planar embedding,
and (ii) whenever an edge lies in the block, every edge to its right at the
same vertex does too.  The forest roots are the children of the root of
B+(w), which is no vertex of w.

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
from functools import cache, lru_cache
from math import comb
from operator import itemgetter

from .linalg import LinComb, Multiset, Tensor, aslc, basis_key, exact
from .postlie import (_shuffle_words, b_minus, b_plus, grow_block,
                      grow_subtree, mkw_coproduct, nonplanar_host, read_block,
                      read_nonplanar_block)
from .trees import NonplanarTree, PlanarTree, as_forest, np_forest

# A vertex of a forest w is addressed by its path in B+(w): the vertex at
# path p of the i-th tree is (i,) + p.  The added root () is no vertex of w,
# so the forest roots are the children of one common vertex like any others.


def validate_block(w: tuple, block) -> bool:
    """Independent re-check of both admissibility conditions on a block of
    paths in B+(w), each path walked down w itself: the oracle of the tests,
    of planar-sweep's cotranslation op and of the
    ``coactions.partition_validator`` check."""
    block = frozenset(block)
    if not block or () in block:
        return False
    arity = {v: _arity(w, v) for v in block}
    if None in arity.values():
        return False
    for v in block:
        # right-closure: siblings to the right of a kept child are kept too
        parent = v[:-1]
        if parent in block and any(parent + (j,) not in block
                                   for j in range(v[-1] + 1, arity[parent])):
            return False
    roots = [v for v in block if v[:-1] not in block]
    if len({v[:-1] for v in roots}) != 1:
        return False
    # adjacency: the roots occupy consecutive positions below their parent
    positions = sorted(v[-1] for v in roots)
    return positions == list(range(positions[0], positions[-1] + 1))


def _arity(w: tuple, path):
    """The number of children of the vertex at ``path`` in B+(w), or None
    when no vertex lies there: the first index picks a tree of w, the rest
    walk down it, every step a child index within range."""
    i, *rest = path
    if not 0 <= i < len(w):
        return None
    node = w[i]
    for j in rest:
        if not 0 <= j < len(node.children):
            return None
        node = node.children[j][1]
    return len(node.children)


@dataclass(frozen=True)
class Partition:
    """Disjoint admissible blocks of a host forest, in deterministic order."""

    blocks: tuple


# ---------------------------------------------------------------------------
# the shared block machinery: families and contraction (the blocks are
# grown by ``postlie.grow_block`` and read by ``postlie.read_block``; a
# block of ``rho`` may be several sibling subtrees, read one at a time)
#
# These work on one host tree with vertices addressed by paths; a forest w
# is handled as the tree B+(w).  ``block_families`` can carry a state along
# each prefix of blocks, which is how ``rho`` builds each left monomial once
# per prefix; ``contract`` rebuilds only the vertices it touches.


def block_families(vertices: list, blocks, spanning: bool = False,
                   step=None, start=None) -> list:
    """Every family of pairwise disjoint blocks, as tuples of blocks.

    Each family is visited once: at every vertex only blocks whose first
    vertex (in the order of ``vertices``) is that vertex may start, so
    skipped vertices stay uncovered; ``spanning`` forbids skipping.

    With ``step``, states are carried along each prefix of blocks, and each
    family comes as (family, its states).  The empty prefix holds the one
    state ``start``; a prefix extended by a block b holds every state that
    step(s, b) yields for each state s of the prefix, computed once and
    shared by every family that extends it.  A prefix left with no state is
    pruned, and with it every family that extends it.
    """
    order = {v: i for i, v in enumerate(vertices)}
    by_min = {}
    for b in blocks:
        by_min.setdefault(min(b, key=order.get), []).append(b)
    families = []

    def rec(idx: int, used: frozenset, chosen: tuple, states: list):
        if idx == len(vertices):
            families.append(chosen if step is None else (chosen, states))
            return
        v = vertices[idx]
        if v in used:
            rec(idx + 1, used, chosen, states)
            return
        if not spanning:
            rec(idx + 1, used, chosen, states)
        for b in by_min.get(v, ()):
            if b & used:
                continue
            nxt = states if step is None else [n for s in states for n in step(s, b)]
            if nxt:
                rec(idx + 1, used | b, chosen + (b,), nxt)

    rec(0, frozenset(), (), [start])
    return families


def _shuffled(x, y) -> list:
    """The shuffle products of two lists of (word, coefficient), summed."""
    out = {}
    for a, c in x:
        for b, d in y:
            for word, e in _shuffle_words(a, b).items():
                out[word] = out.get(word, 0) + c * d * e
    return list(out.items())


def contract(host: PlanarTree, blocks, tags) -> LinComb:
    """Contract each block of ``host`` to one vertex decorated by the
    matching tag.

    The contracted vertex inherits the planar position of the block's
    leftmost root; children of block vertices that stay outside the block
    are shuffled across block vertices, keeping each vertex's own order.

    Only the vertices above a block vertex are rebuilt; every other subtree
    is handed back as the tree it already is.  Each vertex's child
    sequences are plain (tuple, coefficient) pairs, the coefficients
    shuffle multiplicities, and one LinComb is built at the end.
    """
    owner = {v: k for k, b in enumerate(blocks) for v in b}
    # the vertices to rebuild: those above a block vertex
    touched = {v[:i] for v in owner for i in range(len(v))}

    def assemble(path, node, own) -> list:
        """The children of one vertex outside its block ``own``, in planar
        order; consecutive roots of one block become one contracted child."""
        out = [((), 1)]
        kids = node.children
        j, n = 0, len(kids)
        while j < n:
            child = path + (j,)
            k = owner.get(child)
            edge, sub = kids[j]
            if k is None:
                parts = rebuild(child, sub) if child in touched else ((sub, 1),)
            elif k == own:
                j += 1
                continue
            else:
                parts = contract_block(k)
                while j + 1 < n and owner.get(path + (j + 1,)) == k:
                    j += 1
            out = [(seq + ((edge, t),), c * d) for seq, c in out for t, d in parts]
            j += 1
        return out

    def rebuild(path, node) -> list:
        return [(PlanarTree._trusted(node.dec, ks, node.ext), c)
                for ks, c in assemble(path, node, None)]

    def contract_block(k) -> list:
        seqs = [((), 1)]
        for v in sorted(blocks[k]):
            kids = assemble(v, host.subtree(v), k)
            if kids[0][0]:  # v keeps children outside the block
                seqs = _shuffled(seqs, kids) if seqs[0][0] else kids
        return [(PlanarTree._trusted(tags[k], ks), c) for ks, c in seqs]

    root = owner.get(())
    if root is not None:
        return LinComb(contract_block(root))
    return LinComb(rebuild((), host) if () in touched else ((host, 1),))


# ---------------------------------------------------------------------------
# admissible partitions


def _admissible_blocks(host: PlanarTree) -> list:
    """Every admissible block of w, as paths in ``host`` = B+(w): a run of
    consecutive siblings (or forest roots), each with a right-closed subtree
    grown below it."""
    grown = {p: tuple(grow_block(host, p)) for p in host.paths() if p}
    out = []
    for parent in host.paths():
        n = len(host.subtree(parent).children)
        for a in range(n):
            for b in range(a + 1, n + 1):
                options = (grown[parent + (j,)] for j in range(a, b))
                for combo in itertools.product(*options):
                    out.append(frozenset().union(*combo))
    return out


def _block_forest(host: PlanarTree, block) -> tuple:
    """An admissible block as an ordered forest: each component, rooted at
    a vertex whose parent lies outside the block, read by ``read_block``,
    in sorted order of roots."""
    return tuple(read_block(host, {v for v in block if v[:len(r)] == r})[0]
                 for r in sorted(v for v in block if v[:-1] not in block))


def admissible_partitions(w: tuple, spanning: bool) -> list:
    """All (spanning) admissible partitions, deterministically ordered, with
    blocks of paths in B+(w)."""
    host = b_plus(w)
    vertices = list(host.paths())[1:]
    blocks = _admissible_blocks(host)
    key = {b: sorted(b) for b in blocks}  # each block sorted once, for both sorts
    families = [tuple(sorted(chosen, key=key.get))
                for chosen in block_families(vertices, blocks, spanning)]
    families.sort(key=lambda bs: (len(bs), [key[b] for b in bs]))
    return [Partition(blocks) for blocks in families]


# ---------------------------------------------------------------------------
# projection onto Lie polynomials


@lru_cache(maxsize=None)
def _projection(normalization: str, n: int) -> tuple:
    """The projection at word length n as an element of Q[S_n]: pairs
    (positions, coefficient), a word w mapping to the sum of coefficient
    times ``tuple(w[i] for i in positions)``.

    'eulerian' is the first Eulerian idempotent, the convolution logarithm
    of the identity for (concatenation, deshuffle); positions with d
    descents weigh (-1)^d / (n C(n-1, d)).  'leftbracket' is the iterated
    commutator [w0, [w1, ... [w(n-2), w(n-1)]]] expanded on positions.
    """
    if n == 0:
        return ()
    if normalization == "eulerian":
        return tuple((p, exact(Fraction((-1) ** d, n * comb(n - 1, d))))
                     for p in itertools.permutations(range(n))
                     for d in [sum(a > b for a, b in zip(p, p[1:]))])
    terms = (((n - 1,), 1),)
    for i in range(n - 2, -1, -1):
        terms = tuple(term for p, c in terms for term in (((i,) + p, c), (p + (i,), -c)))
    return terms


def lie_project(x, normalization: str = "eulerian") -> LinComb:
    """Projection of ordered forests onto Lie polynomials.

    'eulerian' is Reutenauer's first Eulerian idempotent, a projection onto
    the Lie polynomials.  Under it the time-cotranslation compatibility
    (``cointeraction_check``) holds on all 65 one-letter forests with at
    most 5 vertices and fails on 8 of the 132 with 6 vertices (e.g.
    {0 0 0[0] 0[0]}).  The projection is at fault: it does not annihilate
    shuffles of total length 4 or more (pi((a a) sh (a b)) =
    -1/6 [a,[a,[a,b]]]), while the left factors of the MKW coproduct are
    shuffles of pruned forests.  By Ree's theorem the projection the
    identity needs is the orthogonal one onto Lie polynomials, whose kernel
    is the span of the non-trivial shuffles; up to length 3 the Eulerian
    idempotent already is that projection.  'leftbracket' iterates the
    commutator, reproduces coefficient 1 on displays where a block has
    several components, and first diverges from the compatibility on
    5-vertex hosts (e.g. the forest {o o[o] o[o]}).
    """
    if normalization not in ("eulerian", "leftbracket"):
        raise ValueError(f"unknown normalization {normalization!r}")
    return aslc(x).map_basis(lambda w: LinComb(
        (tuple(map(w.__getitem__, p)), c) for p, c in _projection(normalization, len(w))))


# ---------------------------------------------------------------------------
# the coactions
#
# Inside a call, a left monomial is kept keyed: its items paired with their
# basis_key, computed once per call, and sorted on the keys.  A product then
# merges sorted runs, where ``Multiset`` re-sorts on keys it rebuilds.


def _keyed(items) -> tuple:
    """Items already in canonical order, paired with their keys."""
    return tuple((basis_key(item), item) for item in items)


def _keyed_product(*monomials) -> tuple:
    """The product of keyed monomials: their pairs merged on the keys,
    stably, so in the order of the product of their Multisets."""
    return tuple(sorted(itertools.chain(*monomials), key=itemgetter(0)))


def _monomial(keyed) -> Multiset:
    return Multiset._trusted(item for _, item in keyed)


def rho(w, alphabet, spanning: bool, normalization: str = "eulerian",
        tagged: bool = True) -> LinComb:
    """Common core of the coactions.

    Returns a LinComb over (Multiset of left factors, contracted forest)
    where left factors are (forest, letter) pairs when ``tagged``, bare
    forests otherwise.  The result comes from the table ``_rho`` and is
    shared: callers must not mutate it.
    """
    return _rho(as_forest(w), tuple(alphabet), spanning, normalization, tagged)


@lru_cache(maxsize=256)
def _rho(w: tuple, letters: tuple, spanning: bool, normalization: str,
         tagged: bool) -> LinComb:
    """``rho`` on a normalised key, one entry per (forest, alphabet, flags).

    One walk of ``block_families`` over the admissible blocks: each prefix
    of blocks carries one state per tag tuple, its left monomial, so a
    monomial is multiplied out once and shared by every family extending
    the prefix.  Each block is projected and tagged once per call, each of
    its tagged items keyed once, and a block projected to 0 prunes every
    family holding it; a monomial stays keyed until it becomes a Multiset,
    once per call.  Each family and tag tuple is then contracted by
    ``contract``, which rebuilds only the vertices on the way to a block.

    Results are shared: callers must not mutate them.  A sweep asks for the
    coactions of the sub-forests of its forests over and over, which sets
    the bound: a planar-sweep pass makes 544 calls over 65 distinct forests
    (479 hits); the one-letter cointeraction sweep over forests with at
    most 6 vertices makes 2,429 calls over its 197 forests, which all fit
    (2,232 hits), and the one over the 626 forests with at most 7 vertices
    still hits 10,309 of its 11,159 calls.
    """
    host = b_plus(w)
    factors = {}  # block -> [(tag, [(keyed one-item monomial, coefficient)])], [] if 0

    def step(state, b):
        # the left monomial times each tagged factor of b; a product of
        # nonzero polynomials is nonzero, so only a zero factor prunes
        if b not in factors:
            lie = lie_project(LinComb.term(_block_forest(host, b)), normalization)
            factors[b] = [(tag, [(_keyed([(f, tag) if tagged else f]), c)
                                 for f, c in lie.items()])
                          for tag in letters] if lie else []
        tags, left = state
        for tag, factor in factors[b]:
            product = LinComb()
            for m, c in left.items():
                for one, d in factor:
                    product.add_term(_keyed_product(m, one), c * d)
            yield tags + (tag,), product

    out = LinComb()
    add = out.add_term
    monomial = cache(_monomial)
    for blocks, states in block_families(list(host.paths())[1:], _admissible_blocks(host),
                                         spanning, step, ((), LinComb.term(()))):
        for tags, left in states:
            right = [(b_minus(t), c) for t, c in contract(host, blocks, tags).items()]
            for m, c in left.items():
                m = monomial(m)
                for f, d in right:
                    add(Tensor((m, f)), c * d)
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
               tagged=False)


# ---------------------------------------------------------------------------
# non-planar coactions


def rho_np(forest, alphabet, spanning: bool) -> LinComb:
    """Non-planar coactions: blocks are arbitrary disjoint subtrees.

    Left factors are the subtrees themselves (no Lie projection needed);
    contraction hangs the subtrees leaving a block from the new vertex, as
    a multiset.  The forest is handled as its ``postlie.nonplanar_host``,
    the non-planar tree B+(w), whose subtrees ``grow_subtree`` grows and
    ``read_nonplanar_block`` reads, each block once per call with its left
    items keyed once per tag.

    A family's contractions are built vertex by vertex over its tag tuples:
    a subtree holding no block root is the host's; a block root becomes one
    tagged head per tag over its leaving subtrees' contractions, sorted
    once for every tag; a vertex above a block root is rebuilt once per
    contraction of its children.  So a contraction below a vertex is built
    once for every choice of tags elsewhere.
    """
    host = nonplanar_host(forest)
    vertices = list(host.paths())[1:]
    subtrees = [s for v in vertices for s in grow_subtree(host, v)]
    read = {}  # block -> (its root, its leaving paths, per tag (tag, (key, left item)))

    def contractions(paths, heads, above) -> list:
        # every contraction of the subtrees at paths, as (keyed items, trees)
        out = [((), ())]
        for p in paths:
            if p in heads:
                leaving, tagged = heads[p]
                sub = []
                for items, kids in contractions(leaving, heads, above):
                    kids = np_forest(kids)
                    sub.extend((items + (keyed,), NonplanarTree._trusted(tag, kids))
                               for tag, keyed in tagged)
            elif p in above:
                node = host.subtree(p)
                sub = [(items, NonplanarTree._trusted(node.dec, np_forest(kids)))
                       for items, kids in contractions(
                           [p + (j,) for j in range(len(node.children))], heads, above)]
            else:
                sub = (((), host.subtree(p)),)
            out = [(i1 + i2, t1 + (t,)) for i1, t1 in out for i2, t in sub]
        return out

    out = LinComb()
    get = out.get
    roots = [(i,) for i in range(len(host.children))]
    for blocks in block_families(vertices, subtrees, spanning):
        heads = {}
        for b in blocks:
            if b not in read:
                tree, leaving = read_nonplanar_block(host, b)
                read[b] = (min(b), leaving, [(tag, (basis_key((tree, tag)), (tree, tag)))
                                             for tag in alphabet])
            root, leaving, tagged = read[b]
            heads[root] = (leaving, tagged)
        above = {r[:i] for r in heads for i in range(1, len(r))}
        for items, trees in contractions(roots, heads, above):
            left = _monomial(_keyed_product(items))
            term = Tensor((left, np_forest(trees)))
            out[term] = get(term, 0) + 1
    return out


# ---------------------------------------------------------------------------
# cointeraction


def compatibility_sides(x, coaction, coproduct, coaction_left=None):
    """Both sides of the compatibility of a coaction with a coproduct, as
    3-tensor sums over (multiset, forest, forest):

        (id (x) coproduct) coaction(x)  and
        m^{1,3} (coaction_left (x) coaction) coproduct(x),

    where m^{1,3}(a (x) b (x) c (x) d) = ac (x) b (x) d multiplies the two
    multiset slots; ``coaction_left`` defaults to ``coaction``.  Each map
    takes one basis element and is evaluated once per distinct argument,
    through tables that live for this call; so is each product m1 m2, from
    keys computed once per distinct monomial.
    """
    coaction, coproduct = cache(coaction), cache(coproduct)
    coaction_left = coaction if coaction_left is None else cache(coaction_left)
    first = LinComb()
    for (m, mid), c in coaction(x).items():
        for (a, b), c2 in coproduct(mid).items():
            first.add_term(Tensor((m, a, b)), c * c2)

    keyed = cache(_keyed)

    @cache
    def times(m1: Multiset, m2: Multiset) -> Multiset:
        if not (m1 and m2):  # an empty factor: no keys needed
            return m1 or m2
        return _monomial(_keyed_product(keyed(m1), keyed(m2)))

    second = LinComb()
    for (a, b), c in coproduct(x).items():
        right = coaction(b)
        for (m1, mid), c1 in coaction_left(a).items():
            for (m2, rest), c2 in right.items():
                second.add_term(Tensor((times(m1, m2), mid, rest)), c * c1 * c2)
    return first, second


def cointeraction_sides(w, normalization: str = "eulerian"):
    """Both sides of the compatibility between time-cotranslation and the
    MKW coproduct, as 3-tensor sums over (multiset, forest, forest):
    m^{1,3}(rho_T0 (x) rho_T0) Delta w, then (id (x) Delta) rho_T0 w."""
    rhs, lhs = compatibility_sides(as_forest(w), lambda f: rho_T0(f, normalization),
                                   lambda f: mkw_coproduct(LinComb.term(f)))
    return lhs, rhs


def cointeraction_check(w, normalization: str = "eulerian") -> bool:
    lhs, rhs = cointeraction_sides(w, normalization)
    return lhs == rhs

