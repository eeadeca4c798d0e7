import copy
import dataclasses
import gc
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from conftest import K, T, X, mi
from planarhopf import negative, suites
from planarhopf.cli import _fits
from planarhopf.enumeration import forests_up_to, nonplanar_trees
from planarhopf.grammar import parse_tree
from planarhopf.linalg import LinComb, _basis_mode, pair
from planarhopf.trees import (_INTERNED, EdgeType, InvalidTree, ModeMismatch,
                              MultiIndex, NonplanarTree, PlanarTree,
                              RegularityConfig, UnknownDecoration,
                              canonicalize, lt, mi_range, mi_range_norm, nt,
                              regularity, to_nonplanar, to_planar,
                              vertex_count)


def test_multiindex_arithmetic():
    a, b = mi(2, 1), mi(1, 1)
    assert a.add(b) == mi(3, 2)
    assert a.sub(b) == mi(1, 0)
    assert b.sub(a) is None
    assert a.norm == 3
    assert mi(3, 2).binom(mi(1, 2)) == 3
    assert mi(1, 0).binom(mi(2, 0)) == 0
    with pytest.raises(InvalidTree):
        MultiIndex((-1,))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_multi_index_sub_is_none_exactly_below_zero(d):
    box = list(mi_range(MultiIndex((2,) * d)))
    for a in box:
        for b in box:
            got = a.sub(b)
            if any(x < y for x, y in zip(a, b)):
                assert got is None, (a, b)
            else:
                assert type(got) is MultiIndex and got.add(b) == a, (a, b)
                assert got == MultiIndex(x - y for x, y in zip(a, b))


def test_edge_type_is_an_immutable_value():
    e = EdgeType("K", 1, mi(0, 2))
    same = EdgeType("K", 1, MultiIndex((0, 2)))
    assert e == same and hash(e) == hash(same) and e is not same
    assert (e.kind, e.which, e.index) == ("K", 1, mi(0, 2))
    assert type(e.index) is MultiIndex
    for other in (EdgeType("X", 1, mi(0, 2)), EdgeType("K", 2, mi(0, 2)),
                  e.with_index(mi(1, 2))):
        assert other != e
    assert type(e.with_index(mi(1, 2))) is EdgeType
    assert repr(EdgeType("K", 1, mi(0))) == "EdgeType(kind='K', which=1, index=(0,))"
    for name, value in (("kind", "X"), ("which", 2), ("index", mi(1, 0)),
                        ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(e, name, value)
    assert e == same
    with pytest.raises(InvalidTree):
        EdgeType("Q", 1, mi(0))
    copies = [pickle.loads(pickle.dumps(e, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(e), copy.deepcopy(e)]:
        assert type(again) is EdgeType and again == e
        assert type(again.index) is MultiIndex
    t = T(1, (EdgeType("K", 2, mi(1)), T(0)), (X(0), T(0)))
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again is t


def test_planar_construction_validates_noise():
    # two noise edges at one vertex
    with pytest.raises(InvalidTree):
        PlanarTree(mi(0), ((X(0), T(0)), (X(0, which=2), T(0))))
    # noise edge must end at a leaf
    with pytest.raises(InvalidTree):
        PlanarTree(mi(0), ((X(0), T(0, (K(0), T(0)))),))
    # mixed decoration modes are rejected
    with pytest.raises(ModeMismatch):
        PlanarTree("a", ((K(0), T(0)),))
    # mixed multi-index dimensions are rejected
    with pytest.raises(InvalidTree):
        PlanarTree(mi(0), ((EdgeType("K", 1, MultiIndex((0, 0))), T(0)),))


def test_canonicalize_planar_identity():
    t = lt("a", lt("b"), lt("c"))
    assert canonicalize(t) is t
    w = (lt("b"), lt("a"))
    assert canonicalize(w) is w


def test_canonicalize_sorts_nonplanar():
    t = nt("a", nt("c"), nt("b"))
    assert [c.dec for _, c in t.children] == ["b", "c"]
    assert canonicalize(t) == t
    # canonical form is idempotent and equality-stable
    again = NonplanarTree("a", (nt("b"), nt("c")))
    assert t == again and hash(t) == hash(again)
    assert canonicalize((nt("b"), nt("a"))) == (nt("a"), nt("b"))


def test_to_planar_is_a_section_of_to_nonplanar():
    for n in range(1, 5):
        for t in nonplanar_trees(n, ("a", "b")):
            assert to_nonplanar(to_planar(t)) == t, t


def test_malformed_library_input_is_an_invalid_tree():
    # a bool is no plain edge label
    with pytest.raises(InvalidTree, match="unsupported edge decoration"):
        PlanarTree(None, ((True, PlanarTree()),))
    # a forest is planar or non-planar, never both
    for forest in [(nt("a"), lt("b")), (lt("b"), nt("a"))]:
        with pytest.raises(InvalidTree, match="cannot canonicalize"):
            canonicalize(forest)


def _mi_range_norm_by_recursion(d, max_norm):
    """Reference: the multi-indices of norm <= max_norm built one component
    at a time, each bounded by the budget the earlier ones leave."""
    def rec(left, budget):
        if left == 1:
            for c in range(budget + 1):
                yield (c,)
            return
        for c in range(budget + 1):
            for rest in rec(left - 1, budget - c):
                yield (c,) + rest

    if d == 0:
        yield MultiIndex(())
        return
    for comps in rec(d, max_norm):
        yield MultiIndex(comps)


@pytest.mark.parametrize("d", range(4))
def test_mi_range_norm_matches_the_recursion(d):
    for n in range(5):
        got = list(mi_range_norm(d, n))
        assert got == list(_mi_range_norm_by_recursion(d, n)), (d, n)
        assert all(type(m) is MultiIndex for m in got)


def test_pair_kronecker():
    ab = (lt("a", lt("b")),)
    ba = (lt("b", lt("a")),)
    assert pair(LinComb.term(ab), LinComb.term(ab)) == 1
    assert pair(LinComb.term(ab), LinComb.term(ba)) == 0


def test_pair_bilinear():
    t = (lt("a"),)
    s = (lt("b"),)
    x = LinComb(((t, 2), (s, 1)))
    y = LinComb(((t, 1), (s, -1)))
    assert pair(x, y) == 1


def test_pair_mode_mismatch():
    label = (lt("a"),)
    plain = (PlanarTree(None, ((1, PlanarTree()),)),)
    with pytest.raises(ModeMismatch):
        pair(LinComb.term(label), LinComb.term(plain))


def test_vertex_count():
    assert vertex_count(lt("a", lt("b"), lt("c", lt("d")))) == 4
    assert vertex_count((lt("a"), lt("b"))) == 2


def test_regularity_modes(cfg_pb, cfg_typed):
    # single undecorated vertex: empty sums
    assert regularity(PlanarTree(), cfg_pb) == 0
    # plain tree with one noise-1 edge at alpha = 49/100
    t = PlanarTree(None, ((1, PlanarTree()),))
    assert regularity(t, cfg_pb) == Fraction(-51, 100)
    # planted kernel edge at beta = 3/2
    cfg = RegularityConfig(d=1, alphas={}, betas={1: "3/2"}, truncation=5)
    p = T(0, (K(0), T(0)))
    assert regularity(p, cfg) == Fraction(3, 2)
    # typed grading: decorations count, edge indices subtract
    t2 = T(2, (K(1), T(1)), (X(0), T(0)))
    assert regularity(t2, cfg_typed) == \
        2 + 1 + Fraction(1, 2) - 1 + (Fraction(-5, 8) - 1)


def test_regularity_additive_over_forest(cfg_pb):
    t1 = PlanarTree(None, ((1, PlanarTree()),))
    t2 = PlanarTree(None, ((0, PlanarTree()),))
    assert regularity((t1, t2), cfg_pb) == \
        regularity(t1, cfg_pb) + regularity(t2, cfg_pb)


def test_regularity_unknown_decoration(cfg_pb):
    t = PlanarTree(None, ((9, PlanarTree()),))
    with pytest.raises(UnknownDecoration):
        regularity(t, cfg_pb)
    with pytest.raises(UnknownDecoration):
        regularity(lt("q"), cfg_pb)


def test_label_mode_regularity_matches_edge_picture():
    # the one untyped rule read through both pictures: a numeric vertex
    # label and the plain edge phi puts in its place add the same alpha,
    # on every forest over 0, 1, 2 with <= 4 vertices
    from planarhopf.rough import phi
    forests = forests_up_to(4, ("0", "1", "2"))
    assert len(forests) == 1291
    for w in forests + [(lt("3"),)]:
        (image,) = phi(w)
        assert regularity(w, suites.DEFAULT_CFG) == \
            regularity(image, suites.DEFAULT_CFG), w


def test_config_is_frozen_and_keyed_by_content():
    cfg = RegularityConfig(d=1, alphas={1: "-5/8"}, betas={1: "1/2"})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.d = 2
    with pytest.raises(TypeError):
        cfg.alphas[1] = Fraction(1, 2)
    same = RegularityConfig(d=1, alphas={"1": Fraction(-5, 8)}, betas={1: "1/2"})
    assert same == cfg and hash(same) == hash(cfg)
    assert RegularityConfig(d=2, alphas={1: "-5/8"}, betas={1: "1/2"}) != cfg
    # the d = 2 copy built by replace grades d = 2 trees after d = 1 use
    cfg1 = suites.NEGATIVE_CFG
    cfg2 = dataclasses.replace(cfg1, d=2)
    assert cfg2 != cfg1
    assert (cfg2.d, cfg2.alphas, cfg2.betas, cfg2.truncation) == \
        (2, cfg1.alphas, cfg1.betas, cfg1.truncation)
    assert regularity(T(1, (X(0), T(0))), cfg1) == 1 + Fraction(-5, 8) - 1
    t2 = PlanarTree(mi(1, 1), ((EdgeType("K", 1, mi(1, 0)), PlanarTree(mi(0, 1))),
                               (EdgeType("X", 1, mi(0, 0)), PlanarTree(mi(0, 0)))))
    assert regularity(t2, cfg2) == 2 - 1 + Fraction(1, 2) + 1 + Fraction(-5, 8) - 1


# ---------------------------------------------------------------------------
# interning: one live instance per planar tree value


def test_equal_planar_trees_are_one_object():
    base = T(1, (K(0), T(0)), (X(0), T(0)))
    kids = ((K(0), T(0)), (X(0), T(0)))
    for same in (PlanarTree(mi(1), kids), PlanarTree(mi(1), list(kids)),
                 PlanarTree._trusted(mi(1), kids),
                 T(0, *kids).with_dec(mi(1)),
                 T(1, (K(0), T(0))).with_children(kids),
                 T(1, (K(0), T(2)), (X(0), T(0))).replace((0,), T(0)),
                 T(2, *kids).with_decs({(): mi(1)}),
                 parse_tree(base.key())):
        assert same is base
    ex = negative.to_ex(base)
    assert ex is negative.to_ex(parse_tree(base.key()))
    assert ex is PlanarTree(mi(1), tuple((e, negative.to_ex(s)) for e, s in kids),
                            Fraction(0))
    assert lt("a", lt("b")) is parse_tree("a[b]")


def test_trees_differing_only_in_ext_are_distinct():
    base = T(1, (K(0), T(0)))
    ex = negative.to_ex(base)
    assert ex is not base and ex != base and ex.key() != base.key()
    top = PlanarTree(mi(1), base.children, Fraction(1, 2))
    assert top is not base and top is not ex.with_children(base.children)
    assert top is PlanarTree(mi(1), base.children, Fraction(1, 2))


def test_copies_and_pickles_are_the_interned_object():
    t = negative.to_ex(T(1, (K(0), T(0)), (X(0), T(0))))
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again is t
    forest = (t, lt("a", lt("b")))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(forest)), forest))


def test_intern_table_forgets_dead_trees():
    t = lt("interned-once", lt("only-here"))
    key, leaf_key = (t.dec, t.children, t.ext), ("only-here", (), None)
    assert _INTERNED[key]() is t and _INTERNED[leaf_key]() is t.children[0][1]
    del t
    gc.collect()
    assert key not in _INTERNED
    del key  # it holds the leaf
    gc.collect()
    assert leaf_key not in _INTERNED


def test_threads_building_one_value_get_one_tree():
    # more threads than cores, switching often, while dropped trees of the
    # same values free their entries: every value must stay one object
    barrier = threading.Barrier(6, timeout=60)

    def build(_):
        kept = []
        for round_ in range(4):
            barrier.wait()
            for i in range(300):
                lt("race", lt(str(i)), lt(f"dropped{round_}"))
                kept.append(lt("race", lt(str(i)), lt(f"x{round_}")))
        return kept

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            results = list(pool.map(build, range(6), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for same in zip(*results):
        assert all(t is same[0] for t in same)
    assert len({id(t) for t in results[0]}) == 1200

def test_planar_trees_compare_and_hash_by_identity():
    # guard: Python-level hashing or value equality must not come back
    assert PlanarTree.__hash__ is object.__hash__
    assert PlanarTree.__eq__ is object.__eq__
    assert "_hash" not in PlanarTree.__slots__


def test_nonplanar_trees_are_interned_planar_trees():
    t = nt("a", nt("c"), nt("b"))
    assert isinstance(t, PlanarTree)
    assert nt("a", nt("b")) is nt("a", nt("b"))
    assert t is NonplanarTree("a", (nt("b"), nt("c")))
    assert t.children == ((None, nt("b")), (None, nt("c")))
    assert t.key() == "a[b,c]" and t.mode == "label"
    assert NonplanarTree.__hash__ is object.__hash__
    assert NonplanarTree.__eq__ is object.__eq__
    assert NonplanarTree.key is PlanarTree.key


def test_nonplanar_copies_and_pickles_are_the_interned_object():
    t = nt("a", nt("b", nt("c")), nt("b"))
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again is t
    forest = (t, nt("d"))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(forest)), forest))


def test_nonplanar_leaf_is_not_the_planar_leaf():
    for dec in ("a", None):
        assert nt(dec) is not lt(dec) and nt(dec) != lt(dec)
        assert type(nt(dec)) is NonplanarTree and type(lt(dec)) is PlanarTree
    assert nt("a", nt("b")) != lt("a", lt("b"))
    assert to_planar(nt("a", nt("b"))) is lt("a", lt("b"))


def test_a_nonplanar_tree_is_no_planar_child():
    with pytest.raises(InvalidTree, match="malformed child entry"):
        PlanarTree("a", ((None, nt("b")),))
    with pytest.raises(InvalidTree, match="malformed non-planar child"):
        nt("a", lt("b"))


def test_canonicalize_sorts_a_nonplanar_forest_and_rejects_a_mixed_one():
    assert canonicalize((nt("b"), nt("a", nt("c")))) == (nt("b"), nt("a", nt("c")))
    assert canonicalize((nt("a", nt("c")), nt("b"))) == (nt("b"), nt("a", nt("c")))
    assert canonicalize(nt("a")) == nt("a")
    with pytest.raises(InvalidTree, match="cannot canonicalize"):
        canonicalize((nt("a"), lt("a")))


def test_a_nonplanar_tree_has_no_grading(cfg_pb):
    for x in (nt("0"), nt("0", nt("1")), (nt("1"),)):
        with pytest.raises(InvalidTree, match="cannot grade"):
            regularity(x, cfg_pb)


def test_a_nonplanar_basis_element_has_no_mode():
    typed = T(0, (K(0), T(0)))
    for b in (nt("a", nt("b")), nt(), (nt("a"), nt("b")), ()):
        assert _basis_mode(b) == ""
        assert pair(LinComb.term(b), LinComb.term(typed)) == 0
    assert _basis_mode(lt("a")) == "label" and _basis_mode((lt("a"),)) == "label"


def test_a_nonplanar_value_fits_no_planar_argument():
    tree, forest = LinComb.term(nt("a")), LinComb.term((nt("a"),))
    assert _fits("np-forest", forest)
    assert not _fits("any-tree", nt("a"))
    for kind in ("label-tree", "label-forest", "plain-tree", "typed-forest"):
        assert not _fits(kind, tree) and not _fits(kind, forest), kind
    assert _fits("label-tree", LinComb.term(lt("a")))
