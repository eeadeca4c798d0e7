import itertools
import operator
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (left_cuts, nonplanar_forests, np_tree_cuts, over_trees,
                      suite_check, tree_cuts, typed_cfg)
from planarhopf.enumeration import (forests_up_to, pb_trees_up_to,
                                    planar_trees, typed_trees_up_to)
from planarhopf.deformed import (_dgraft_word, deshuffle_typed, go_act,
                                 star_plus, tplus_concat)
from planarhopf.linalg import LinComb, Multiset, Tensor, bilinear
from planarhopf.negative import _insert_into_monomial, dinsert_multi, star_minus
from planarhopf.postlie import (_go_word_on_forest, _go_word_on_tree,
                                _tree_coproduct, antipode,
                                b_minus, b_plus, ck_coproduct, deshuffle,
                                gl_product, go_graft, go_product, graft_tree,
                                grow_block, guin_oudom, is_primitive,
                                mkw_coproduct, read_block,
                                omega_embed, shuffle, shuffle_many, split_over,
                                split_terms, splits)
from planarhopf.trees import (DecoratedRoot, InvalidTree, ModeMismatch,
                              NonplanarTree, PlanarTree, lt, np_forest, nt,
                              regularity, vertex_count)


def F(*trees):
    return LinComb.term(tuple(trees))


def test_graft_worked_example():
    r = suite_check("golden.left_grafting")
    assert r.ok, r.line()


def test_graft_single_vertex_target():
    assert graft_tree(lt("a"), lt("b")) == LinComb.term(lt("b", lt("a")))


def test_graft_two_vertex_target():
    got = graft_tree(lt("a"), lt("a", lt("a")))
    want = LinComb()
    want.add_term(lt("a", lt("a"), lt("a")), 1)
    want.add_term(lt("a", lt("a", lt("a"))), 1)
    assert got == want


def test_go_graft_unit_rules():
    w = F(lt("a"), lt("b"))
    assert go_graft(F(), w) == w
    assert go_graft(w, F()).is_zero()


def test_go_graft_two_letter_word():
    got = go_graft(F(lt("a"), lt("b")), F(lt("c")))
    assert got == F(lt("c", lt("a"), lt("b")))


def test_deshuffle():
    a, b = lt("a"), lt("b")
    assert deshuffle(()) == LinComb.term(Tensor(((), ())))
    got = deshuffle((a, b))
    want = LinComb()
    for pair_ in (((a, b), ()), ((a,), (b,)), ((b,), (a,)), ((), (a, b))):
        want.add_term(Tensor(pair_), 1)
    assert got == want


def test_splits_run_in_mask_order_and_keep_the_word_type():
    a, b = lt("a"), lt("b")
    assert list(splits((a, b))) == [((), (a, b)), ((a,), (b,)), ((b,), (a,)),
                                    ((a, b), ())]
    for part, comp in splits(Multiset((b, a, a))):
        assert type(part) is Multiset and type(comp) is Multiset
    # against the per-mask loop, on words up to five letters
    for n in range(6):
        word = tuple(lt(x) for x in "abcab"[:n])
        assert splits(word) == [
            (tuple(word[i] for i in range(n) if mask >> i & 1),
             tuple(word[i] for i in range(n) if not mask >> i & 1))
            for mask in range(1 << n)]


def test_the_three_extensions_are_one_guin_oudom_body():
    body = guin_oudom(graft_tree).__wrapped__.__code__
    for extension in (_go_word_on_tree, go_act):
        assert extension.__wrapped__.__code__ is body


def test_gl_product_unit_and_example():
    w = F(lt("a"), lt("b", lt("c")))
    assert gl_product(F(), w) == w
    got = gl_product(F(lt("a")), F(lt("b")))
    want = LinComb()
    want.add_term((lt("a"), lt("b")), 1)
    want.add_term((lt("b", lt("a")),), 1)
    assert got == want


def test_shuffle_example():
    got = shuffle(F(lt("a")), F(lt("c"), lt("d")))
    want = LinComb()
    for w in ((lt("a"), lt("c"), lt("d")), (lt("c"), lt("a"), lt("d")),
              (lt("c"), lt("d"), lt("a"))):
        want.add_term(w, 1)
    assert got == want


def test_b_plus_minus_inverse():
    for w in forests_up_to(4, ("a", "b"))[::11]:
        assert b_minus(b_plus(w)) == w
    with pytest.raises(DecoratedRoot):
        b_minus(lt("a"))


def test_mkw_single_vertex():
    got = mkw_coproduct(F(lt("a")))
    want = LinComb()
    want.add_term(Tensor((((lt("a"),), ()))), 1)
    want.add_term(Tensor((((), (lt("a"),)))), 1)
    assert got == want


def _root_block_cuts(t):
    """The cuts of t read as the blocks grown at its root, in the oracle's
    form: (groups, trunk), each group (trunk path, cut child entries)."""
    for block in grow_block(t, ()):
        trunk, leaving = read_block(t, block)
        groups = tuple((here, tuple(entry for *_, entry in run))
                       for here, run in itertools.groupby(
                           leaving, operator.itemgetter(2)))
        yield groups, trunk


def test_read_block_of_a_block_that_is_not_right_closed():
    # a connected block may keep any children of a vertex: c is kept and b
    # is not, e is kept and d is not; the leaving edges come in the preorder
    # of the host, each with its vertex's path in the host and in the block
    t = lt("a", lt("b"), lt("c", lt("d"), lt("e")), lt("f"))
    tree, leaving = read_block(t, frozenset({(), (1,), (1, 1)}))
    assert tree == lt("a", lt("c", lt("e")))
    assert [(v, j, here, sub) for v, j, here, (_, sub) in leaving] == [
        ((), 0, (), lt("b")), ((1,), 0, (0,), lt("d")), ((), 2, (), lt("f"))]


CUT_POOLS = {
    "label-6": lambda: [t for n in range(1, 7) for t in planar_trees(n, ("a", "b"))],
    "b_plus-5": lambda: [b_plus(w) for w in forests_up_to(5, ("a", "b"))],
    "plain-4": lambda: pb_trees_up_to(4, 2),
    "typed-d1": lambda: typed_trees_up_to(3, d=1, max_dec=1, max_edge_dec=1),
    "typed-d2": lambda: typed_trees_up_to(2, d=2, max_dec=1, max_edge_dec=1)[::2],
}


@pytest.mark.parametrize("pool", CUT_POOLS)
def test_root_blocks_are_the_left_admissible_cuts(pool):
    # the one block grower against the cut recursion of the oracle: equal
    # cuts, trunk paths and cut entries, in the same order
    for t in CUT_POOLS[pool]():
        assert list(_root_block_cuts(t)) == list(tree_cuts(t)), t


def _mkw_reference(w: tuple) -> LinComb:
    """The MKW coproduct straight from the oracle's cuts of B+(w), every
    cut's pruned groups shuffled."""
    out = LinComb()
    for groups, kids in left_cuts(tuple((None, t) for t in w)):
        pruned = (tuple(sub for _, sub in cut) for _, cut in groups)
        rest = tuple(sub for _, sub in kids)
        for p, c in shuffle_many(pruned).items():
            out.add_term(Tensor((p, rest)), c)
    return out


def _assert_mkw_matches_reference(w: tuple):
    # equal values; the suffix products insert the terms in another order
    assert mkw_coproduct(LinComb.term(w)) == _mkw_reference(w), w


@pytest.mark.parametrize("labels,n", [(("a", "b"), 5), (("a", "b", "c"), 4),
                                      (("a",), 6)])
def test_mkw_matches_the_cut_reference_term_for_term(labels, n):
    for w in forests_up_to(n, labels):
        _assert_mkw_matches_reference(w)


def test_mkw_of_one_tree_is_the_tree_table_plus_the_whole_tree():
    # mkw((t,)) = (t,) (x) () + the terms of Delta'(t), trunk t' read as (t',)
    for n in range(1, 6):
        for t in planar_trees(n, ("a", "b")):
            want = LinComb.term(Tensor(((t,), ())))
            for (p, trunk), c in _tree_coproduct(t):
                want.add_term(Tensor((p, (trunk,))), c)
            assert mkw_coproduct(F(t)) == want, t


def test_tree_coproduct_is_bounded():
    assert _tree_coproduct.cache_info().maxsize is not None


@st.composite
def _trees(draw, n, mode):
    """A planar tree with n vertices: plain mode (undecorated vertices, leaf
    edges labelled 0..2) or label mode (vertices labelled a or b)."""
    kids, rest = [], n - 1
    while rest:
        size = draw(st.integers(1, rest))
        sub = draw(_trees(size, mode))
        edge = None
        if mode == "plain":
            edge = draw(st.integers(0, 2)) if size == 1 else 0
        kids.append((edge, sub))
        rest -= size
    dec = None if mode == "plain" else draw(st.sampled_from("ab"))
    return PlanarTree(dec, tuple(kids))


@st.composite
def _forests(draw, mode):
    trees, budget = [], draw(st.integers(0, 7))
    while budget:
        size = draw(st.integers(1, budget))
        trees.append(draw(_trees(size, mode)))
        budget -= size
    return tuple(trees)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(("plain", "label")).flatmap(_forests))
def test_mkw_matches_the_cut_reference_on_random_forests(w):
    _assert_mkw_matches_reference(w)


def test_mkw_multiplicative_over_shuffle():
    r = suite_check("hopf.mkw_shuffle_morphism")
    assert r.ok, r.line()


def test_antipode_examples():
    # the convolution identity is the hopf.antipode suite check
    assert antipode(F()) == F()
    assert antipode(F(lt("a"))) == LinComb.term((lt("a"),), -1)


def test_omega_example():
    r = suite_check("golden.embedding_sum")
    assert r.ok, r.line()


def test_omega_symmetric_tree_carries_automorphism_count():
    got = omega_embed(LinComb.term((nt("a", nt("a"), nt("a")),)))
    assert got == LinComb.term((lt("a", lt("a"), lt("a")),), 2)


def test_forest_embeddings_are_the_shuffle_of_tree_embeddings():
    for w in nonplanar_forests(4, ("a", "b")):
        want = over_trees(w, lambda t: omega_embed(F(t)), shuffle, ())
        assert omega_embed(LinComb.term(w)) == want, w


def test_forest_ck_coproduct_is_the_product_of_tree_coproducts():
    def mul(x, y):
        return Tensor((np_forest(x[0] + y[0]), np_forest(x[1] + y[1])))

    for w in nonplanar_forests(4, ("a", "b")):
        want = over_trees(w, lambda t: ck_coproduct(F(t)), mul, Tensor(((), ())))
        assert ck_coproduct(LinComb.term(w)) == want, w


def test_ck_coproduct_matches_the_cut_recursion():
    # the subtrees grown at the root of the planar host against the oracle's
    # own recursion over the cuts of B+(w)
    for w in ((),) + nonplanar_forests(5, ("a", "b")):
        want = LinComb()
        for pruned, trunk in np_tree_cuts(NonplanarTree(None, w)):
            want.add_term(Tensor((np_forest(pruned),
                                  tuple(c for _, c in trunk.children))), 1)
        assert ck_coproduct(LinComb.term(w)) == want, w


def test_ck_example():
    got = ck_coproduct(LinComb.term((nt("a", nt("b")),)))
    want = LinComb()
    want.add_term(Tensor(((), (nt("a", nt("b")),))), 1)
    want.add_term(Tensor((((nt("a", nt("b")),), ()))), 1)
    want.add_term(Tensor((((nt("b"),), (nt("a"),)))), 1)
    assert got == want


def test_mode_mismatch_rejected():
    plain = LinComb.term((lt(None, lt(None)),))
    from planarhopf.trees import PlanarTree
    pb = LinComb.term((PlanarTree(None, ((1, PlanarTree()),)),))
    with pytest.raises(ModeMismatch):
        shuffle(LinComb.term((lt("a"),)), pb)


def test_an_operand_mixing_modes_across_its_terms_is_rejected():
    label = (lt("a", lt("b")),)
    mixed = LinComb({label: 1, (PlanarTree(None, ((1, PlanarTree()),)),): 2})
    for product in (gl_product, shuffle, go_graft):
        for x, y in ((mixed, label), (label, mixed), (mixed, mixed)):
            with pytest.raises(ModeMismatch):
                product(x, y)


def test_graft_mode_mismatch_rejected():
    pb = PlanarTree(None, ((1, PlanarTree()),))
    with pytest.raises(ModeMismatch):
        graft_tree(lt("a", lt("b")), pb)
    with pytest.raises(ModeMismatch):
        graft_tree(pb, lt("a"))


def test_primitivity_predicate():
    a, b = lt("a"), lt("b")
    assert is_primitive(LinComb.term((a,)))
    bracket = LinComb((((a, b), 1), ((b, a), -1)))
    assert is_primitive(bracket)
    assert not is_primitive(LinComb.term((a, b)))


# ---------------------------------------------------------------------------
# the memoised split_over against its unmemoised recursion


def split_over_reference(on_factor, word, target):
    cls = type(target)
    if not target:
        return LinComb.term(target) if not word else LinComb()
    head, rest = target[0], cls(target[1:])
    if not rest:
        return on_factor(word, head).map_basis(lambda t: cls((t,)))
    out = LinComb()
    for part, comp in splits(word):
        out.iadd_scaled(bilinear(on_factor(part, head),
                                 split_over_reference(on_factor, comp, rest),
                                 lambda t, w: cls((t,) + w)))
    return out


def assert_same_terms(got, want):
    assert list(got.items()) == list(want.items())


def test_memoised_split_over_matches_the_recursion_on_small_forests():
    reference = partial(split_over_reference, _go_word_on_tree)
    forests = [F(*w) for w in forests_up_to(3, ("a", "b"))]
    for x in forests:
        for y in forests:
            assert_same_terms(go_graft(x, y), bilinear(x, y, reference))
            assert_same_terms(
                gl_product(x, y),
                bilinear(x, y, go_product(split_terms, reference, operator.add)))


def test_memoised_split_over_matches_the_recursion_on_star_minus(cfg_typed):
    reference = partial(split_over_reference, dinsert_multi)
    negatives = [t for t in typed_trees_up_to(1, max_dec=1, max_edge_dec=1)
                 if regularity(t, cfg_typed) < 0]
    monomials = [Multiset(m) for k in range(3)
                 for m in itertools.combinations_with_replacement(negatives, k)]
    assert len(negatives) >= 3
    for x in monomials:
        for y in monomials:
            assert_same_terms(
                star_minus(x, y),
                bilinear(x, y, go_product(split_terms, reference,
                                          Multiset.__mul__)))


# the fused Guin-Oudom loop against the product built one term at a time


def unfused_go_product(x, y, coproduct, act, concat) -> LinComb:
    """Sum c act(x_(2), y).map_basis(concat(x_(1), .)) over the coproduct
    terms c x_(1) (x) x_(2), one intermediate LinComb per term."""
    def per_basis(a, b):
        out = LinComb()
        for (a1, a2), c in coproduct(a).items():
            out.iadd_scaled(act(a2, b).map_basis(lambda z: concat(a1, z)), c)
        return out

    return bilinear(x, y, per_basis)


def test_fused_gl_product_matches_the_unfused_sum():
    # label forests, pairs with <= 4 vertices in all
    forests = forests_up_to(4, ("a", "b"))
    for x in forests:
        for y in forests:
            if vertex_count(x + y) > 4:
                continue
            assert gl_product(F(*x), F(*y)) == unfused_go_product(
                F(*x), F(*y), deshuffle, _go_word_on_forest, operator.add)


@pytest.mark.parametrize("d", [1, 2])
def test_fused_star_plus_matches_the_unfused_sum(d):
    # tplus_concat returns a LinComb, added with iadd_scaled
    trees = typed_trees_up_to(1, d=d)
    for a in trees:
        for b in trees:
            try:
                want = unfused_go_product(a, b, deshuffle_typed, _dgraft_word,
                                          tplus_concat)
            except InvalidTree:
                with pytest.raises(InvalidTree):
                    star_plus(a, b)
                continue
            assert star_plus(a, b) == want, (a.key(), b.key())


@pytest.mark.parametrize("d, stride", [(1, 1), (2, 4)])
def test_fused_star_minus_matches_the_unfused_sum(d, stride):
    # Multiset.__mul__ returns a basis element, added with add_term; at
    # d = 2 every 4th of the 49 negative trees keeps the monomial pairs few
    cfg = typed_cfg(d)
    negatives = [t for t in typed_trees_up_to(1, d=d)
                 if regularity(t, cfg) < 0][::stride]
    monomials = [Multiset(m) for k in range(3)
                 for m in itertools.combinations_with_replacement(negatives, k)]
    assert len(negatives) >= 3
    for x in monomials:
        for y in monomials:
            assert star_minus(x, y) == unfused_go_product(
                x, y, deshuffle, _insert_into_monomial, Multiset.__mul__)


def test_split_over_keeps_a_multiset_apart_from_an_equal_tuple():
    word = (lt("c"),)
    trees = Multiset((lt("a"), lt("b")))
    for first in (tuple, Multiset), (Multiset, tuple):
        over = split_over(_go_word_on_tree)
        got = {cls: over(word, cls(trees)) for cls in first}
        assert got[tuple] == got[Multiset]      # tuple equality on the keys
        for cls, lc in got.items():
            assert lc and all(type(b) is cls for b in lc)


def test_the_three_products_are_one_go_product_body():
    from planarhopf.deformed import _star_plus_trees
    from planarhopf.negative import _star_minus_monomials
    from planarhopf.postlie import _gl_loop
    body = go_product(split_terms, _go_word_on_forest, operator.add).__code__
    for product in (_gl_loop, _star_plus_trees, _star_minus_monomials):
        assert product.__code__ is body


# ---------------------------------------------------------------------------
# the GL unit laws and the stored form


def assert_stored_form(lc):
    for b, c in lc.items():
        assert type(c) is int and c != 0 \
            or type(c) is Fraction and c.denominator != 1, (b, c)


def test_gl_unit_laws_on_every_forest_up_to_five_vertices():
    # 1 * w = w = w * 1, also by the unfused sum over all splits of the left
    # factor, and never the operand itself
    one = F()
    for w in [()] + forests_up_to(5, ("a", "b")):
        x = F(*w)
        for got, (left, right) in ((gl_product(one, x), (one, x)),
                                   (gl_product(x, one), (x, one)),
                                   (gl_product((), w), (one, x)),
                                   (gl_product(w, ()), (x, one))):
            assert got == x and got is not x and got is not one
            assert got == unfused_go_product(left, right, deshuffle,
                                             _go_word_on_forest, operator.add)
            assert_stored_form(got)


def test_gl_product_of_cancelling_operands_keeps_the_stored_form():
    a = lt("a")
    half = Fraction(1, 2)
    # (1/2 + 1/2 (a)) * (2 (a) - 2) = (a)(a) - 1: the (a) terms cancel, and
    # the products 1/2 * 2 are stored as ints
    x = LinComb([((), half), ((a,), half)])
    y = LinComb([((a,), 2), ((), -2)])
    got = gl_product(x, y)
    want = LinComb([((a, a), 1), ((lt("a", a),), 1), ((), -1)])
    assert got == want
    assert got == unfused_go_product(x, y, deshuffle, _go_word_on_forest,
                                     operator.add)
    assert_stored_form(got)
    # operands whose products cancel altogether: (a) * 1 - 1 * (a)
    assert gl_product(LinComb([((a,), 1), ((), -1)]),
                      LinComb([((), 1), ((a,), 1)])) == LinComb(
        [((a,), 1), ((a, a), 1), ((lt("a", a),), 1), ((a,), -1), ((), -1)])
    assert gl_product(F(a), F()) - gl_product(F(), F(a)) == {}


# ---------------------------------------------------------------------------
# one-term results are new LinCombs, never a shared table entry


def test_one_term_results_can_be_mutated_without_touching_the_tables():
    from planarhopf.deformed import delta_plus
    a, b = lt("a"), lt("b", lt("a"))
    w = (a, b, lt("a", lt("b"), a))
    cfg = typed_cfg(1)
    t = max(typed_trees_up_to(2, max_dec=1, max_edge_dec=1),
            key=lambda z: len(delta_plus(z, cfg)))
    calls = {
        "gl_product": lambda: gl_product((a,), (b,)),
        "gl_product unit": lambda: gl_product(F(), F(*w)),
        "shuffle": lambda: shuffle((a, b), (b,)),
        "antipode": lambda: antipode(F(*w)),
        "mkw_coproduct": lambda: mkw_coproduct(F(*w)),
        "delta_plus": lambda: delta_plus(t, cfg),
    }
    for name, call in calls.items():
        first = call()
        reference = LinComb(first)
        assert reference, name
        first[next(iter(first))] = 99
        first[("junk",)] = 1
        first.pop(list(reference)[-1])
        again = call()
        assert again == reference and again is not first, name
        assert list(again.items()) == list(reference.items()), name


def test_scaled_or_several_term_operands_keep_the_term_loop():
    # a coefficient other than 1, or several terms, goes through the term
    # loop: the stored form holds and the shared table entry is not touched
    a, b = lt("a"), lt("b")
    w = (a, lt("b", a))
    table = antipode(F(*w))
    reference = LinComb(table)
    half = antipode(LinComb.term(w, Fraction(1, 2)))
    assert half == LinComb({k: Fraction(c, 2) for k, c in table.items()})
    assert_stored_form(half)
    double = antipode(LinComb.term(w, 2))
    assert double == table * 2
    double.clear()
    several = antipode(LinComb([(w, 1), ((a,), -1)]))
    assert several == table - antipode(F(a))
    assert_stored_form(several)
    several.clear()
    assert antipode(F(*w)) == reference
    both = shuffle(LinComb([((a,), 1), ((b,), -1)]),
                   LinComb([((b,), 1), ((a,), 1)]))
    assert both == LinComb([((a, a), 2), ((b, b), -2)])
    assert_stored_form(both)
