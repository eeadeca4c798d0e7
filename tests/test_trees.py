import dataclasses
from fractions import Fraction

import pytest

from conftest import K, T, X, mi
from planarhopf import suites
from planarhopf.linalg import LinComb, pair
from planarhopf.trees import (EdgeType, InvalidTree, ModeMismatch, MultiIndex,
                              NonplanarTree, PlanarTree, RegularityConfig,
                              UnknownDecoration, canonicalize, lt, nt,
                              regularity, vertex_count)


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


def test_canonicalize_sorts_nonplanar():
    t = nt("a", nt("c"), nt("b"))
    assert [c.dec for c in t.children] == ["b", "c"]
    assert canonicalize(t) == t
    # canonical form is idempotent and equality-stable
    again = NonplanarTree("a", (nt("b"), nt("c")))
    assert t == again and hash(t) == hash(again)


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


def test_label_mode_regularity_matches_edge_picture(cfg_pb):
    from planarhopf.rough import phi_tree
    for t in (lt("1", lt("0")), lt("0", lt("2"), lt("1")), lt("3")):
        assert regularity(t, cfg_pb) == regularity(phi_tree(t), cfg_pb)


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
