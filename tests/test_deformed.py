import itertools
from fractions import Fraction
from math import comb, floor

import pytest

from conftest import K, T, X, delta_plus_reference, mi, suite_check, typed_cfg
from planarhopf.deformed import (TreeCharacter, _star_plus_splits, bracket0,
                                 concat, concat_by_commutation, delta_plus,
                                 delta_plus_0, deshuffle_typed, dgraft_planted,
                                 dgraft_v, down_root, gamma_compose, gamma_g,
                                 in_degenerate_subspace, is_unit, pb_to_typed,
                                 planted, star_plus, tplus_concat, tree_word,
                                 typed_to_pb, unit_tree, up_all)
from planarhopf.enumeration import typed_trees, typed_trees_up_to
from planarhopf.linalg import LinComb, Tensor
from planarhopf.negative import to_ex
from planarhopf.suites import deformed_duality_forward, deformed_duality_reverse
from planarhopf.trees import (InvalidTree, MultiIndex, PlanarTree,
                              RegularityConfig, regularity)

U = mi(1)


def test_up_square_example():
    r = suite_check("golden.decoration_raising")
    assert r.ok, r.line()


def test_up_zero_is_identity():
    t = T(1, (K(0), T(0)))
    assert up_all(t, mi(0)) == LinComb.term(t)


def test_up_skips_noise_vertices():
    t = T(0, (X(0), T(0)))
    got = up_all(t, U)
    assert got == LinComb.term(T(1, (X(0), T(0))))


def test_down_root_examples():
    p = planted(K(0), T(0))
    assert down_root(p, U).is_zero()
    p2 = planted(K(2), T(1))
    assert down_root(p2, U) == LinComb.term(planted(K(1), T(1)))
    two = T(0, (K(1), T(0)), (K(1), T(0)))
    got = down_root(two, U)
    assert got == LinComb(((T(0, (K(0), T(0)), (K(1), T(0))), 1),
                           (T(0, (K(1), T(0)), (K(0), T(0))), 1)))


def test_dgraft_planted_example():
    p1 = planted(K(2), T(0))
    p2 = planted(K(0), T(1))
    got = dgraft_planted(p1, p2)
    want = LinComb()
    want.add_term(planted(K(0), T(1, (K(2), T(0)))), 1)
    want.add_term(planted(K(0), T(0, (K(1), T(0)))), 1)
    assert got == want


def test_dgraft_zero_target_undeformed():
    p1 = planted(K(1), T(0))
    p2 = planted(K(0), T(0))
    got = dgraft_planted(p1, p2)
    assert got == LinComb.term(planted(K(0), T(0, (K(1), T(0)))))


def test_no_grafting_on_noise_leaves():
    p1 = planted(K(0), T(0))
    noisy = planted(X(0), T(0))
    assert dgraft_planted(p1, noisy).is_zero()


def test_unit_vector_acts_by_raising():
    # a polynomial unit grafted onto a planted tree raises each non-noise
    # vertex of the subtree once
    p = planted(K(0), T(0, (X(0), T(0))))
    got = dgraft_v(T(1), p)
    want = LinComb.term(planted(K(0), T(1, (X(0), T(0)))))
    assert got == want
    # nothing lands on polynomial vectors
    assert dgraft_v(p, T(1)).is_zero()
    assert dgraft_v(T(1), T(1)).is_zero()


def test_bracket_examples():
    assert bracket0(T(1), T(1)).is_zero()
    b = bracket0(planted(K(2), T(0)), T(1))
    assert b == LinComb.term(planted(K(1), T(0)))
    p, q = planted(K(1), T(0)), planted(K(0), T(1))
    assert bracket0(p, q) == concat(p, q) - concat(q, p)


def test_almost_derivation_lemma():
    r = suite_check("deformed.almost_derivation")
    assert r.ok, r.line()


def test_postlie_axioms_deformed():
    r = suite_check("postlie.deformed_axioms")
    assert r.ok, r.line()


def test_commutation_lemma_two_routes():
    r = suite_check("deformed.polynomial_commutation")
    assert r.ok, r.line()


def test_star_plus_unit_and_x_example():
    one = unit_tree(1)
    y = T(1, (K(1), T(0)))
    assert star_plus(one, y) == LinComb.term(y)
    assert star_plus(y, one) == LinComb.term(y)
    p = planted(K(0), T(0))
    assert star_plus(p, T(1)) == LinComb.term(T(1, (K(0), T(0))))


def test_star_plus_rejects_two_noise_edges_on_one_root():
    # concatenating the root words of 0[X1#0:0] with itself would give one
    # vertex two noise edges
    noisy = T(0, (X(0), T(0)))
    with pytest.raises(InvalidTree, match="at most one outgoing noise edge"):
        star_plus(noisy, noisy)


def _root_noise(t) -> bool:
    return any(edge.is_noise for edge, _ in t.children)


@pytest.mark.parametrize("lefts, rights", [
    # every tree with <= 2 edges (edge decorations <= 2) times every planted
    # right factor with root decoration <= 2: drops of 2 split over two edges
    (typed_trees_up_to(2, max_edge_dec=2), typed_trees_up_to(1, max_dec=2)),
    (typed_trees_up_to(2, d=2)[::31], typed_trees_up_to(1, d=2, max_dec=2)[::11]),
], ids=["d1", "d2"])
def test_normal_form_product_matches_the_commutation_route(lefts, rights):
    rights = [b for b in rights if b.children]
    for a in lefts:
        for b in rights:
            if _root_noise(a) and _root_noise(b):
                # the oracle assembles its products unchecked
                with pytest.raises(InvalidTree):
                    tplus_concat(a, b)
            else:
                assert tplus_concat(a, b) == concat_by_commutation(a, b), \
                    (a.key(), b.key())


def test_star_plus_associative_exhaustive_small():
    pool = typed_trees_up_to(1, max_dec=1, max_edge_dec=1)
    tplus = [t for t in pool if not any(e.is_noise for e, _ in t.children)]
    for a in tplus:
        for b in tplus:
            ab = star_plus(a, b)
            for c in pool:
                lhs = star_plus(ab, LinComb.term(c))
                rhs = star_plus(LinComb.term(a), star_plus(b, c))
                assert lhs == rhs


def test_delta_plus_projected_example():
    cfg = RegularityConfig(d=1, alphas={1: "-1/2"}, betas={1: "3/2"},
                           truncation=6)
    tau = planted(K(0), T(0))
    got = delta_plus(tau, cfg)
    want = LinComb()
    want.add_term(Tensor((unit_tree(1), tau)), 1)
    want.add_term(Tensor((tau, unit_tree(1))), 1)
    want.add_term(Tensor((planted(K(1), T(0)), T(1))), 1)
    assert got == want


def test_delta_plus_polynomial_case():
    cfg = RegularityConfig(d=1, alphas={}, betas={}, truncation=6)
    got = delta_plus(T(2), cfg)
    want = LinComb()
    for n in range(3):
        want.add_term(Tensor((T(n), T(2 - n))), 1)
    assert got == want


# the deformed suite sweeps every d = 1 tree <= 2 edges under cap 2
@pytest.mark.parametrize("d, cap, stride", [(1, mi(3), 4), (2, mi(1, 1), 40)],
                         ids=["d1", "d2"])
def test_duality_forward(d, cap, stride):
    deformed_duality_forward(
        typed_trees_up_to(2, d=d, max_dec=1, max_edge_dec=1)[::stride], cap)


@pytest.mark.parametrize("d, n_edges, stride", [(1, 2, 4), (2, 1, 1)],
                         ids=["d1", "d2"])
def test_projection_is_the_positive_part_of_the_capped_coproduct(d, n_edges, stride):
    # a cap at least every cut's budget: all decoration norms plus every
    # positive planted grading
    cfg = typed_cfg(d)
    for z in typed_trees_up_to(n_edges, d=d, max_dec=1, max_edge_dec=1)[::stride]:
        budget = sum(z.subtree(p).dec.norm for p in z.paths())
        for p in z.paths():
            for edge, sub in z.subtree(p).children:
                budget += max(0, regularity(planted(edge, sub), cfg))
        cap = MultiIndex((floor(budget),) * d)
        want = LinComb((xy, c) for xy, c in delta_plus_0(z, cap).items()
                       if is_unit(xy[0]) or regularity(xy[0], cfg) > 0)
        assert delta_plus(z, cfg) == want


def test_duality_reverse():
    # two-edge left factors; the deformed suite sweeps the one-edge ones
    pool = typed_trees_up_to(1, max_dec=1, max_edge_dec=1)
    xs = [t for t in typed_trees(2, 1, 1, 1, 1, 1)
          if not any(e.is_noise for e, _ in t.children)]
    deformed_duality_reverse(list(itertools.product(xs[::12], pool[::2])), mi(3))


def test_worked_two_branch_product():
    def multinom2(n, l1, l2):
        if l1 + l2 > n:
            return 0
        return comb(n, l1) * comb(n - l1, l2)

    def four_family(delta, beta, gamma, omega, alpha, b, c, a):
        out = LinComb()
        for d1 in range(delta + 1):
            d2 = delta - d1
            w = comb(delta, d1)
            for l1 in range(b + 1):
                for l2 in range(c + 1):
                    co = multinom2(omega, l1, l2)
                    if co and omega + d1 - l1 - l2 >= 0:
                        out.add_term(T(omega + d1 - l1 - l2,
                                       (K(b - l1), T(beta)),
                                       (K(c - l2), T(gamma)),
                                       (K(a), T(alpha + d2))), w * co)
                    co = comb(omega, l1) * comb(alpha, l2)
                    if co and omega + d1 - l1 >= 0 and alpha + d2 - l2 >= 0:
                        out.add_term(T(omega + d1 - l1,
                                       (K(b - l1), T(beta)),
                                       (K(a), T(alpha + d2 - l2,
                                                (K(c - l2), T(gamma))))),
                                     w * co)
                    co = comb(omega, l2) * comb(alpha, l1)
                    if co and omega + d1 - l2 >= 0 and alpha + d2 - l1 >= 0:
                        out.add_term(T(omega + d1 - l2,
                                       (K(c - l2), T(gamma)),
                                       (K(a), T(alpha + d2 - l1,
                                                (K(b - l1), T(beta))))),
                                     w * co)
                    co = multinom2(alpha, l1, l2)
                    if co and alpha + d2 - l1 - l2 >= 0:
                        out.add_term(T(omega + d1,
                                       (K(a), T(alpha + d2 - l1 - l2,
                                                (K(b - l1), T(beta)),
                                                (K(c - l2), T(gamma))))),
                                     w * co)
        return out

    for vals in itertools.product(range(2), repeat=8):
        delta, beta, gamma, omega, alpha, b, c, a = vals
        x = T(delta, (K(b), T(beta)), (K(c), T(gamma)))
        y = T(omega, (K(a), T(alpha)))
        assert star_plus(x, y) == four_family(*vals)


def test_deshuffle_is_morphism_for_star_plus():
    # Delta(x *+ y) = Delta(x) (*+ tensor *+) Delta(y) on the positive side
    pool = typed_trees_up_to(1, max_dec=1, max_edge_dec=1)
    tplus = [t for t in pool if not any(e.is_noise for e, _ in t.children)]
    for x, y in itertools.product(tplus, repeat=2):
        lhs = LinComb()
        for z, c in star_plus(x, y).items():
            lhs.iadd_scaled(deshuffle_typed(z), c)
        rhs = LinComb()
        for (x1, x2), cx in deshuffle_typed(x).items():
            for (y1, y2), cy in deshuffle_typed(y).items():
                left = star_plus(x1, y1)
                right = star_plus(x2, y2)
                for a, ca in left.items():
                    for b, cb in right.items():
                        rhs.add_term(Tensor((a, b)), cx * cy * ca * cb)
        assert lhs == rhs


@pytest.mark.parametrize("d", [1, 2])
def test_star_plus_splits_are_the_deshuffle_through_tree_word(d):
    # the star+ coproduct hands go_act the right half's word, never its tree
    for t in typed_trees_up_to(2, d=d):
        got = LinComb()
        for (left, word), c in _star_plus_splits(t):
            got.add_term(Tensor((left, word)), c)
        want = LinComb((Tensor((left, tree_word(right))), c)
                       for (left, right), c in deshuffle_typed(t).items())
        assert got == want, t.key()


@pytest.mark.parametrize("d, stride, lift", [
    (1, 1, None), (2, 11, None), (1, 2, to_ex)], ids=["d1", "d2", "d1-ex"])
def test_projected_delta_plus_matches_the_probe_filter(d, stride, lift):
    # the projection bounds each cut's moves inside the enumeration; the
    # reference builds every move and grades a probe left tree
    cfg = typed_cfg(d)
    trees = typed_trees_up_to(3 if d == 1 else 2, d=d, max_dec=1, max_edge_dec=1)
    for t in trees[::stride]:
        t = lift(t) if lift else t
        assert delta_plus(t, cfg) == delta_plus_reference(t, cfg), t.key()


def test_deshuffle_typed_counit():
    t = T(2, (K(1), T(0)), (X(0), T(1)))
    ds = deshuffle_typed(t)
    left_unit = LinComb()
    for (a, b), c in ds.items():
        if is_unit(a):
            left_unit.add_term(b, c)
    assert left_unit == LinComb.term(t)


def test_gamma_counit_is_identity(cfg_typed):
    g = TreeCharacter({})
    for w in typed_trees_up_to(2, max_dec=1, max_edge_dec=1)[::9]:
        assert gamma_g(g, w, cfg_typed) == LinComb.term(w)


def test_gamma_grading_drop():
    r = suite_check("deformed.grading_drop")
    assert r.ok, r.line()


def test_gamma_composition(cfg_typed):
    g = TreeCharacter({T(1): Fraction(2, 3), planted(K(0), T(0)): Fraction(1, 5)})
    h = TreeCharacter({T(1): Fraction(1, 2), planted(K(0), T(0)): Fraction(7)})
    # an odd stride: each size lists root decorations 0 and 1 alternately,
    # so an even stride would miss the X^k root part that T(1) acts on
    trees = typed_trees_up_to(2, max_dec=1, max_edge_dec=1)[::11]
    assert any(any(w.dec) for w in trees)
    for w in trees:
        route1 = gamma_g(g, gamma_g(h, w, cfg_typed), cfg_typed)
        route2 = gamma_g(gamma_compose(g, h, cfg_typed), w, cfg_typed)
        assert route1 == route2


def test_degeneration_subspace_roundtrip():
    pb = PlanarTree(None, ((0, PlanarTree()), (2, PlanarTree())))
    z = pb_to_typed(pb)
    assert in_degenerate_subspace(z)
    assert typed_to_pb(z) == pb
    with pytest.raises(InvalidTree):
        typed_to_pb(T(1))
