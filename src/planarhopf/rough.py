"""Edge-decorated planar trees, the rough-path bridge and the exact model.

Plain-mode trees carry integer edge labels 0..n where 0 renders as an
undecorated edge; labels >= 1 sit on edges adjacent to leaves.  The
vertex-decorated picture maps onto this one by replacing every vertex with a
non-zero label i by two vertices joined by a rightmost edge labelled i.

The rough-path provider is the one-parameter exponential character
exp_*((t-s) L) for a primitive L normalised to have coefficient 1 on the
single time vertex; Chen's identity and the character property then hold
exactly and every model value is a rational polynomial in t-s.
"""

from __future__ import annotations

from fractions import Fraction

from .coactions import (block_families, contract, extract_block, grow_block,
                        rho_T0)
from .linalg import LinComb, Multiset, Tensor, aslc, bilinear
from .postlie import (_shuffle_words, cut_pruned, forest_cuts, is_primitive,
                      mkw_coproduct, shuffle_many, tree_cuts)
from .trees import (DecoratedRoot, NotInImage, NotPrimitive, PlanarTree,
                    RegularityConfig, TruncationExceeded, regularity,
                    vertex_count)

PB_LEAF = PlanarTree()
TIME_TREE = PlanarTree("0")


# ---------------------------------------------------------------------------
# the vertex-to-edge isomorphism


def phi_tree(t: PlanarTree) -> PlanarTree:
    """Replace each non-zero vertex label by a rightmost edge of that label."""
    children = tuple((0, phi_tree(sub)) for _, sub in t.children)
    if t.dec not in (None, "0"):
        if not (isinstance(t.dec, str) and t.dec.isdigit()):
            raise NotInImage(f"vertex label {t.dec!r} is not in 0..n")
        children += ((int(t.dec), PB_LEAF),)
    return PlanarTree(None, children)


def phi(x) -> LinComb:
    """Shuffle-morphism extension of the isomorphism to ordered forests."""
    def per_basis(b):
        if isinstance(b, PlanarTree):
            return phi_tree(b)
        return tuple(phi_tree(t) for t in b)

    return aslc(x).map_basis(per_basis)


def phi_inv_tree(t: PlanarTree) -> PlanarTree:
    """Inverse of phi_tree; NotInImage when a decorated edge is misplaced."""
    children = t.children
    dec = "0"
    if children and isinstance(children[-1][0], int) and children[-1][0] != 0:
        label, leaf = children[-1]
        if leaf.children:
            raise NotInImage("decorated edge not adjacent to a leaf")
        dec = str(label)
        children = children[:-1]
    kids = []
    for edge, sub in children:
        if edge != 0:
            raise NotInImage("decorated edge is not the rightmost at its vertex")
        kids.append((None, phi_inv_tree(sub)))
    return PlanarTree(dec, tuple(kids))


def phi_inv(x) -> LinComb:
    def per_basis(b):
        if isinstance(b, PlanarTree):
            return phi_inv_tree(b)
        return tuple(phi_inv_tree(t) for t in b)

    return aslc(x).map_basis(per_basis)


def in_phi_image(t: PlanarTree) -> bool:
    """Whether every decorated edge is rightmost at its vertex (and unique).

    These are exactly the plain trees on which the vertex-decorated picture
    exists; the model and both coproducts are closed on them.
    """
    try:
        phi_inv_tree(t)
    except NotInImage:
        return False
    return True


# ---------------------------------------------------------------------------
# tree product and the root-adding map


def tree_product_pb(x, y) -> LinComb:
    """Join roots and shuffle the two branch sequences."""
    def per_basis(t1: PlanarTree, t2: PlanarTree) -> LinComb:
        return _shuffle_words(t1.children, t2.children).map_basis(
            lambda kids: PlanarTree(None, kids))

    return bilinear(x, y, per_basis)


def b_plus_pb(forest) -> PlanarTree:
    """Graft all trees of the word onto a new root by undecorated edges."""
    return PlanarTree(None, tuple((0, t) for t in forest))


def b_minus_pb(t: PlanarTree) -> tuple:
    out = []
    for edge, sub in t.children:
        if edge != 0:
            raise DecoratedRoot("root has a decorated edge; not in the image of the root-adding map")
        out.append(sub)
    return tuple(out)


# ---------------------------------------------------------------------------
# the recentering coproduct on plain trees


def delta_plus_pb(x) -> LinComb:
    """Recentering coproduct: prune along left admissible cuts, which stop at
    decorated (noise) edges, shuffle pruned parts across vertices and graft
    them onto a new root."""
    def per_basis(t: PlanarTree) -> LinComb:
        out = LinComb()
        for groups, trunk in tree_cuts(t):
            pruned = (tuple(sub for _, sub in cut) for _, cut in groups)
            out.iadd_scaled(shuffle_many(pruned).map_basis(
                lambda p: Tensor((b_plus_pb(p), trunk))))
        return out

    return aslc(x).map_basis(per_basis)


def delta_plus_pb_via_mkw(t: PlanarTree) -> LinComb:
    """Oracle route through the vertex-decorated coproduct.

    Trees with no decorated root edge transport directly; other trees go
    through the root-adding correction formula.
    """
    if all(edge == 0 for edge, _ in t.children):
        w = tuple(phi_inv_tree(sub) for sub in b_minus_pb(t))
        out = LinComb()
        for (p, trunk), c in mkw_coproduct(LinComb.term(w)).items():
            left = b_plus_pb(tuple(phi_tree(s) for s in p))
            right = b_plus_pb(tuple(phi_tree(s) for s in trunk))
            out.add_term(Tensor((left, right)), c)
        return out
    lifted = delta_plus_pb_via_mkw(b_plus_pb((t,)))
    lifted.add_term(Tensor((b_plus_pb((t,)), PB_LEAF)), -1)
    out = LinComb()
    for (left, right), c in lifted.items():
        parts = b_minus_pb(right)
        if len(parts) != 1:
            raise NotInImage("correction formula produced a non-tree trunk")
        out.add_term(Tensor((left, parts[0])), c)
    return out


# ---------------------------------------------------------------------------
# negative renormalisation on plain trees


def pb_minus_partitions(t: PlanarTree, cfg: RegularityConfig) -> list:
    """All families of disjoint negative admissible subtrees, the empty one
    included, as tuples of (vertex set, subtree); deterministic order.

    The subtrees are connected, right-closed and noise-complete."""
    negative = {}
    for root in t.paths():
        for block in grow_block(t, root):
            sub, = extract_block(t, block)
            if regularity(sub, cfg) < 0:
                negative[block] = sub
    families = block_families(list(t.paths()), negative)
    families.sort(key=lambda fam: (len(fam), [sorted(b) for b in fam]))
    return [tuple((b, negative[b]) for b in fam) for fam in families]


def delta_minus_pb(x, cfg: RegularityConfig) -> LinComb:
    """Renormalisation coaction: negative admissible families tensor the
    contraction to undecorated vertices, left factors multiplied in the free
    symmetric algebra."""
    def per_basis(t: PlanarTree) -> LinComb:
        out = LinComb()
        for family in pb_minus_partitions(t, cfg):
            left = Multiset(sub for _, sub in family)
            blocks = tuple(b for b, _ in family)
            out.iadd_scaled(contract(t, blocks, (None,) * len(blocks)).map_basis(
                lambda tr: Tensor((left, tr))))
        return out

    return aslc(x).map_basis(per_basis)


def delta_minus_pb_via_rho(t: PlanarTree, cfg: RegularityConfig) -> LinComb:
    """Oracle route: time-cotranslation, negative-tree projection, transport.

    Multi-component blocks die under the projection (their Lie projections
    have no single-tree terms), so both lie_project normalizations agree.
    """
    src = phi_inv_tree(t)
    out = LinComb()
    for (mono, forest), c in rho_T0((src,)).items():
        trees = []
        ok = True
        for f in mono:
            if len(f) != 1 or regularity(f, cfg) >= 0:
                ok = False
                break
            trees.append(phi_tree(f[0]))
        if not ok:
            continue
        if len(forest) != 1:
            continue
        out.add_term(Tensor((Multiset(trees), phi_tree(forest[0]))), c)
    return out


# ---------------------------------------------------------------------------
# exact rough-path provider


class RoughPathProvider:
    """Exponential character family: pairing(s, t, w) = <exp_*((t-s)L), w>.

    L must be primitive for the deshuffle coproduct and have coefficient 1
    on the single vertex labelled 0, which makes the family time-augmented.
    Coefficients are computed per forest on demand, so a truncation costs
    nothing up front.
    """

    def __init__(self, generator: LinComb, truncation: int):
        if not is_primitive(generator):
            raise NotPrimitive("the generator must be a Lie element")
        if generator.coefficient((TIME_TREE,)) != 1:
            raise NotPrimitive("the generator needs coefficient 1 on the time vertex")
        if truncation < 0:
            raise TruncationExceeded(f"truncation must not be negative, got {truncation}")
        self.generator = generator
        self.truncation = truncation
        self._coefficients = {(): {0: Fraction(1)}}  # forest -> coefficients

    def coefficients(self, w) -> dict:
        """{k: <L^{*k}, w> / k!} over the powers k with a non-zero value.

        By GL/MKW duality <L^{*k}, w> is the sum of <L^{*(k-1)}, w'> <L, w''>
        over the terms w' (x) w'' of Delta w, so only sub-forests of w are
        visited.  Each cut's trunk is read first, and its pruned groups are
        shuffled only when the trunk lies in L's support.  Each result is
        kept for the provider's lifetime and handed to every caller, who
        must not mutate it.
        """
        if isinstance(w, PlanarTree):
            w = (w,)
        if vertex_count(w) > self.truncation:
            raise TruncationExceeded(
                f"forest has {vertex_count(w)} vertices, truncation is {self.truncation}")
        got = self._coefficients.get(w)
        if got is None:
            sums = {}
            for groups, trunk in forest_cuts(w):
                g = self.generator.coefficient(trunk)
                if not g:
                    continue
                for pruned, c in cut_pruned(groups):
                    for k, v in self.coefficients(pruned).items():
                        sums[k + 1] = sums.get(k + 1, 0) + c * g * v
            got = self._coefficients[w] = {k: Fraction(v, k) for k, v in sums.items() if v}
        return got

    def pairing(self, s, t, w) -> Fraction:
        """<X_st, w> as an exact rational, s and t rational."""
        u = Fraction(t) - Fraction(s)
        return sum((c * u ** k for k, c in self.coefficients(w).items()), Fraction(0))

    def pairing_lc(self, s, t, x: LinComb) -> Fraction:
        out = Fraction(0)
        for w, c in x.items():
            out += c * self.pairing(s, t, w)
        return out

    def derivative_pairing(self, s, t, w) -> Fraction:
        """d/dt <X_st, w>, computed exactly as <X_st * L, w>."""
        u = Fraction(t) - Fraction(s)
        return sum((c * k * u ** (k - 1) for k, c in self.coefficients(w).items() if k),
                   Fraction(0))


def edges_are_integration_report(provider: RoughPathProvider, forests) -> list:
    """Check <X * L, w -> time> = d/dt-side against <X, w> coefficientwise.

    Returns the list of offending forests; empty means the integration
    property holds on the supplied family.
    """
    from .postlie import go_graft

    bad = []
    for w in forests:
        if vertex_count(w) + 1 > provider.truncation:
            continue
        grafted = go_graft(LinComb.term(w), LinComb.term((TIME_TREE,)))
        lhs = {}
        for v, c in grafted.items():
            for k, coeff in provider.coefficients(v).items():
                lhs[k] = lhs.get(k, Fraction(0)) + c * coeff
        rhs = provider.coefficients(w)
        # d/dt sum_k lhs_k u^k = sum_k rhs_k u^k  <=>  (k+1) lhs_{k+1} = rhs_k
        ok = all(lhs.get(k + 1, Fraction(0)) * (k + 1) == rhs.get(k, Fraction(0))
                 for k in range(provider.truncation + 1)) and \
            lhs.get(0, Fraction(0)) == 0
        if not ok:
            bad.append(w)
    return bad


# ---------------------------------------------------------------------------
# the model


def _phi_inv_forest_of(t: PlanarTree) -> tuple:
    return tuple(phi_inv_tree(sub) for sub in b_minus_pb(t))


class Model:
    """The exact model induced by a provider and an optional renormalising
    character on negative trees."""

    def __init__(self, provider: RoughPathProvider, cfg: RegularityConfig = None,
                 ell: dict = None):
        self.provider = provider
        self.cfg = cfg
        self.ell = {k: Fraction(v) for k, v in (ell or {}).items()}

    # -- renormalisation --------------------------------------------------

    def ell_value(self, mono: Multiset) -> Fraction:
        out = Fraction(1)
        for tree in mono:
            out *= self.ell.get(tree, Fraction(0))
        return out

    def renormalise(self, x) -> LinComb:
        """M_ell = (ell tensor id) applied to the renormalisation coaction."""
        if not self.ell:
            return aslc(x)
        if self.cfg is None:
            raise TruncationExceeded("renormalisation needs a regularity config")
        out = LinComb()
        for t, c in aslc(x).items():
            for (mono, trunk), c2 in delta_minus_pb(t, self.cfg).items():
                out.add_term(trunk, c * c2 * self.ell_value(mono))
        return out

    # -- Pi ---------------------------------------------------------------

    def pi_plain(self, s, t, tree: PlanarTree) -> Fraction:
        if all(edge == 0 for edge, _ in tree.children):
            return self.provider.pairing(s, t, _phi_inv_forest_of(tree))
        # decorated edge at the root: differentiate the root-added value,
        # exact for the exponential provider since d/dt X_st = X_st * L
        return self.provider.derivative_pairing(s, t, (phi_inv_tree(tree),))

    def pi(self, s, t, x) -> Fraction:
        out = Fraction(0)
        for tree, c in aslc(self.renormalise(x)).items():
            out += c * self.pi_plain(s, t, tree)
        return out

    # -- Gamma ------------------------------------------------------------

    def gamma_char(self, s, t, left: PlanarTree) -> Fraction:
        """Character value of the recentering functional on a left factor."""
        renormed = self.renormalise(left)
        out = Fraction(0)
        for tree, c in renormed.items():
            out += c * self.provider.pairing(s, t, _phi_inv_forest_of(tree))
        return out

    def gamma(self, s, t, x) -> LinComb:
        """Gamma_st = (gamma_ts tensor id) applied to the recentering coproduct."""
        out = LinComb()
        for tree, c in aslc(x).items():
            for (left, right), c2 in delta_plus_pb(tree).items():
                out.add_term(right, c * c2 * self.gamma_char(t, s, left))
        return out
