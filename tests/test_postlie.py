import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import suite_check
from planarhopf.enumeration import forests_up_to, random_forest
from planarhopf.linalg import LinComb, Tensor
from planarhopf.postlie import (_tree_cut_table, antipode, b_minus, b_plus,
                                ck_coproduct, deshuffle, gl_product, go_graft,
                                graft_tree, is_primitive, left_cuts,
                                mkw_coproduct, omega_embed, shuffle,
                                shuffle_many)
from planarhopf.suites import hopf_mkw_shuffle_morphism
from planarhopf.trees import (DecoratedRoot, ModeMismatch, PlanarTree, lt,
                              nt)


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
    rng = random.Random(0)
    for _ in range(25):
        w = random_forest(rng, rng.randint(0, 4), ("a", "b"))
        assert b_minus(b_plus(w)) == w
    with pytest.raises(DecoratedRoot):
        b_minus(lt("a"))


def test_mkw_single_vertex():
    got = mkw_coproduct(F(lt("a")))
    want = LinComb()
    want.add_term(Tensor((((lt("a"),), ()))), 1)
    want.add_term(Tensor((((), (lt("a"),)))), 1)
    assert got == want


def _mkw_reference(w: tuple) -> LinComb:
    """The MKW coproduct straight from the cuts of B+(w), every cut's pruned
    groups shuffled."""
    out = LinComb()
    for groups, kids in left_cuts(tuple((None, t) for t in w)):
        pruned = (tuple(sub for _, sub in cut) for _, cut in groups)
        rest = tuple(sub for _, sub in kids)
        for p, c in shuffle_many(pruned).items():
            out.add_term(Tensor((p, rest)), c)
    return out


def _assert_mkw_matches_reference(w: tuple):
    got = list(mkw_coproduct(LinComb.term(w)).items())
    assert got == list(_mkw_reference(w).items()), w


@pytest.mark.parametrize("labels,n", [(("a", "b"), 5), (("a", "b", "c"), 4),
                                      (("a",), 6)])
def test_mkw_matches_the_cut_reference_term_for_term(labels, n):
    # same terms, same coefficients, same insertion order
    for w in forests_up_to(n, labels):
        _assert_mkw_matches_reference(w)


def test_tree_cut_table_is_bounded():
    assert _tree_cut_table.cache_info().maxsize is not None


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
    hopf_mkw_shuffle_morphism(random.Random(2), 20, (0, 2))


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


def test_primitivity_predicate():
    a, b = lt("a"), lt("b")
    assert is_primitive(LinComb.term((a,)))
    bracket = LinComb((((a, b), 1), ((b, a), -1)))
    assert is_primitive(bracket)
    assert not is_primitive(LinComb.term((a, b)))
