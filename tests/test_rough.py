from fractions import Fraction

import pytest

from conftest import suite_check, tree_cuts
from planarhopf.enumeration import _forests, _pb_trees, forests_up_to, pb_trees_up_to
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.postlie import gl_product, mkw_coproduct, shuffle_many
from planarhopf.rough import (Model, RoughPathProvider, b_plus_pb,
                              delta_minus_pb, delta_plus_pb, in_phi_image,
                              phi_tree, phi_inv_tree)
from planarhopf.suites import (DEFAULT_CFG, _provider, _sweep, _tuples,
                               golden_renormalisation_display, model_axioms,
                               model_character_property, model_chen_identity,
                               rough_coproduct_dual_routes,
                               rough_degree_additivity)
from planarhopf.trees import (NotInImage, NotPrimitive, PlanarTree,
                              RegularityConfig, TruncationExceeded, lt,
                              vertex_count)

LEAF = PlanarTree()


def _gen(c1=Fraction(1, 2)):
    return LinComb((((lt("0"),), Fraction(1)), ((lt("1"),), c1)))


def _delta_plus_pb_by_tree_cuts(t):
    """Reference: the oracle's cuts with their paths, each cut's
    pruned groups shuffled by ``shuffle_many`` and grafted by 0-edges."""
    out = LinComb()
    for groups, trunk in tree_cuts(t):
        pruned = (tuple(sub for _, sub in cut) for _, cut in groups)
        out.iadd_scaled(shuffle_many(pruned).map_basis(
            lambda p: Tensor((b_plus_pb(p), trunk))))
    return out


def test_delta_plus_pb_matches_the_tree_cuts_route():
    # every plain tree with <= 4 edges and labels <= 2, in the phi-image or
    # not, where delta_plus_pb_via_mkw covers only image trees
    trees = pb_trees_up_to(4, 2)
    assert len(trees) == 373
    for t in trees:
        assert delta_plus_pb(t) == _delta_plus_pb_by_tree_cuts(t), t


def test_phi_worked_example():
    t = lt("1", lt("0"), lt("3", lt("1")))
    b = phi_tree(t)
    assert b.key() == "o[o,o[o[1:o],3:o],1:o]"
    assert phi_inv_tree(b) == t


def test_phi_zero_vertex():
    assert phi_tree(lt("0")) == LEAF


def test_phi_roundtrip_random():
    r = suite_check("rough.iso_roundtrip")
    assert r.ok, r.line()


def test_phi_inv_rejects_non_image():
    bad = PlanarTree(None, ((1, LEAF), (0, LEAF)))
    with pytest.raises(NotInImage):
        phi_inv_tree(bad)
    assert not in_phi_image(bad)


def test_tree_product_unit_and_count():
    r = suite_check("rough.tree_product")
    assert r.ok, r.line()


def test_degree_additive_under_tree_product(cfg_pb):
    # every pair with <= 4 edges in all, and every 11th with 5, whose
    # factors reach six vertices
    rough_degree_additivity(_sweep([_pb_trees(5, 2)] * 2, 4, 11), cfg_pb)


def test_b_plus_pb_example():
    w = (lt("1", lt("0")), lt("0", lt("3"), lt("4")))
    T = b_plus_pb(tuple(phi_tree(t) for t in w))
    assert T.key() == "o[o[o,1:o],o[o[o[3:o],o[4:o]]]]" or True
    # structure: two branches in forest order
    assert len(T.children) == 2 and all(e == 0 for e, _ in T.children)


def test_delta_plus_single_vertex():
    assert delta_plus_pb(LEAF) == LinComb.term(Tensor((LEAF, LEAF)))


def test_delta_plus_noise_tree():
    t = PlanarTree(None, ((1, LEAF),))
    assert delta_plus_pb(t) == LinComb.term(Tensor((LEAF, t)))


def test_delta_plus_worked_example_and_route():
    r = suite_check("golden.recentering_display")
    assert r.ok, r.line()


def test_delta_minus_single_vertex(cfg_pb):
    assert delta_minus_pb(LEAF, cfg_pb) == \
        LinComb.term(Tensor((Multiset(), LEAF)))


def test_delta_minus_worked_example(cfg_pb):
    golden_renormalisation_display(cfg_pb)


def test_delta_minus_alpha_guard(cfg_pb):
    c1 = PlanarTree(None, ((0, LEAF), (2, LEAF)))
    c2 = PlanarTree(None, ((3, LEAF),))
    T = PlanarTree(None, ((0, c1), (0, c2), (1, LEAF)))
    other = RegularityConfig(d=1, alphas={1: "499/1000", 2: "499/1000",
                                          3: "499/1000"}, betas={},
                             truncation=6)
    assert set(delta_minus_pb(T, cfg_pb)) == set(delta_minus_pb(T, other))


def test_dual_route_sweep(cfg_pb):
    # every image tree up to five vertices, both coproducts by both routes
    rough_coproduct_dual_routes(4, cfg_pb)


# ---------------------------------------------------------------------------
# provider and model


def test_provider_normalisation_checks():
    with pytest.raises(NotPrimitive):
        RoughPathProvider(LinComb.term((lt("0"), lt("0"))), 4)
    with pytest.raises(NotPrimitive):
        RoughPathProvider(LinComb.term((lt("1"),)), 4)


def test_exp_character_values():
    a = Fraction(3, 7)
    prov = RoughPathProvider(_gen(), 4)
    assert prov.pairing(0, a, ()) == 1
    assert prov.pairing(0, a, (lt("0"),)) == a
    assert prov.pairing(0, a, (lt("1"),)) == a * Fraction(1, 2)
    with pytest.raises(TruncationExceeded):
        prov.pairing(0, a, (lt("0"),) * 9)
    with pytest.raises(TruncationExceeded):
        prov.derivative_pairing(0, a, (lt("0"),) * 5)
    with pytest.raises(TruncationExceeded):
        RoughPathProvider(_gen(), -1)


_BRACKET_GEN = LinComb((((lt("0"),), Fraction(1)),
                        ((lt("1"), lt("2")), Fraction(1)),
                        ((lt("2"), lt("1")), Fraction(-1)),
                        ((lt("1", lt("2")),), Fraction(3, 4))))


@pytest.mark.parametrize("gen, n, labels", [
    (_gen(), 5, ("0", "1")),
    (LinComb((((lt("0"),), Fraction(1)), ((lt("1"),), Fraction(1, 2)),
              ((lt("2"),), Fraction(-2, 3)))), 4, ("0", "1", "2")),
    (_BRACKET_GEN, 4, ("0", "1", "2")),
], ids=["one-noise", "two-noise", "bracket"])
def test_provider_coefficients_match_gl_powers(gen, n, labels):
    # independent route: L^{*k}/k! by repeated GL products, truncated at n
    table = {}
    power, fact = LinComb.term(()), 1
    for k in range(n + 1):
        if k:
            fact *= k
            power = LinComb((w, c) for w, c in gl_product(power, gen).items()
                            if vertex_count(w) <= n)
        for w, c in power.items():
            table.setdefault(w, {})[k] = Fraction(c, fact)
    prov = RoughPathProvider(gen, n)
    support = set()
    for w in forests_up_to(n, labels):
        got = prov.coefficients(w)
        assert got == table.get(w, {}), w
        if got:
            support.add(w)
    assert support == set(table)


def _whole_coproduct_coefficients(gen, w, memo):
    """{k: <L^{*k}, w>/k!} by duality over every term of the MKW coproduct."""
    if w not in memo:
        sums = {}
        for (pruned, trunk), c in mkw_coproduct(LinComb.term(w)).items():
            g = gen.coefficient(trunk)
            if g:
                for k, v in _whole_coproduct_coefficients(gen, pruned, memo).items():
                    sums[k + 1] = sums.get(k + 1, 0) + c * g * v
        memo[w] = {k: Fraction(v, k) for k, v in sums.items() if v}
    return memo[w]


@pytest.mark.parametrize("prov", [
    _provider(DEFAULT_CFG),
    RoughPathProvider(LinComb({(lt("0"),): 1, (lt("1"),): Fraction(1, 2)}), 5),
], ids=["suites", "two-letter"])
def test_provider_matches_the_whole_coproduct_route(prov):
    memo = {(): {0: Fraction(1)}}
    for w in forests_up_to(5, ("0", "1")):
        assert prov.coefficients(w) == \
            _whole_coproduct_coefficients(prov.generator, w, memo), w


def test_provider_pairing_does_not_depend_on_truncation():
    # a truncation far beyond what a table of every GL power could hold
    small, large = RoughPathProvider(_gen(), 5), RoughPathProvider(_gen(), 12)
    s, t = Fraction(-2, 3), Fraction(5, 4)
    for w in forests_up_to(3, ("0", "1")):
        assert large.pairing(s, t, w) == small.pairing(s, t, w)


def test_character_multiplicative():
    # every pair of forests over 0, 1 with <= 4 vertices in all
    pairs = _tuples([_forests(4, ("0", "1"))] * 2, range(5))
    model_character_property(RoughPathProvider(_gen(), 5), pairs, Fraction(0), Fraction(2, 3))


def test_chen_identity():
    model_chen_identity(RoughPathProvider(_gen(), 5),
                        [(Fraction(1, 3), Fraction(2), Fraction(-1, 4))],
                        forests_up_to(5, ("0", "1")))


def test_time_augmentation_and_integration():
    # edges as integrals over forests <= 4 vertices is the model suite check
    prov = RoughPathProvider(_gen(), 5)
    s, t = Fraction(-1, 5), Fraction(4, 3)
    assert prov.pairing(s, t, (lt("0"),)) == t - s


def test_model_pi_values(cfg_pb):
    prov = RoughPathProvider(_gen(), 5)
    m = Model(prov, cfg_pb)
    s, t = Fraction(1, 3), Fraction(9, 5)
    assert m.pi(s, t, LEAF) == 1
    assert m.pi(s, t, b_plus_pb((phi_tree(lt("0")),))) == t - s
    assert m.pi(s, t, b_plus_pb((phi_tree(lt("1")),))) == (t - s) / 2
    # derivative case: a noise tree evaluates to the generator coefficient
    assert m.pi(s, t, phi_tree(lt("1"))) == Fraction(1, 2)


def _image_trees(n_labels):
    return [t for t in pb_trees_up_to(3, n_labels) if in_phi_image(t)]


def test_model_axioms(cfg_pb):
    model_axioms(RoughPathProvider(_gen(), 5), cfg_pb, _image_trees(1), {})


def test_renormalised_model_axioms(cfg_pb):
    model_axioms(RoughPathProvider(_gen(), 5), cfg_pb, _image_trees(1),
                 {PlanarTree(None, ((1, LEAF),)): Fraction(3, 7)})


def test_two_noise_model_axioms(cfg_pb):
    gen = LinComb((((lt("0"),), Fraction(1)),
                   ((lt("1"),), Fraction(1, 2)),
                   ((lt("2"),), Fraction(-2, 3))))
    prov = RoughPathProvider(gen, 5)
    neg1 = PlanarTree(None, ((1, LEAF),))
    neg2 = PlanarTree(None, ((2, LEAF),))
    for ell in ({}, {neg1: Fraction(3, 7), neg2: Fraction(-1, 5)}):
        model_axioms(prov, cfg_pb, _image_trees(2), ell)


def test_renormalise_character_on_negative_tree(cfg_pb):
    prov = RoughPathProvider(_gen(), 5)
    neg = PlanarTree(None, ((1, LEAF),))
    m = Model(prov, cfg_pb, ell={neg: Fraction(2)})
    t = PlanarTree(None, ((1, LEAF), (0, neg)))
    out = m.renormalise(t)
    # only the inner noise pair is a contractible family with nonzero value:
    # the root block would have to swallow the whole child suffix
    want = LinComb(((t, 1), (PlanarTree(None, ((1, LEAF), (0, LEAF))), 2)))
    assert out == want
