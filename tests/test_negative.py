import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from conftest import K, T, X, mi, typed_cfg
from planarhopf import negative
from planarhopf.enumeration import random_typed_tree, typed_trees_up_to
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.negative import (P_v, T_v, cointeraction_sides_trunc,
                                 delta_minus, delta_minus_nonroot,
                                 dinsert_multi, dinsert_v,
                                 dinsert_v_via_product, insert, insert_v,
                                 insertable_vertices, star_minus, to_ex)
from planarhopf.suites import (cointeraction_chu_vandermonde,
                               cointeraction_typed_small,
                               negative_insertion_as_product,
                               negative_multi_insertion, negative_pre_lie,
                               negative_star_minus)
from planarhopf.trees import (MultiIndex, NoiseAdjacentVertex, PlanarTree,
                              RegularityConfig, regularity)


def rand_neg(rng, cfg, max_edges=2):
    for _ in range(500):
        t = random_typed_tree(rng, rng.randint(1, max_edges), max_dec=1,
                              max_edge_dec=1)
        if regularity(t, cfg) < 0:
            return t
    raise RuntimeError("no negative tree sampled")


def test_insert_unit_like():
    t2 = T(1, (K(0), T(0)))
    assert insert_v(T(0), (), t2) == LinComb.term(t2)
    assert insert_v(T(0), (0,), t2) == LinComb.term(t2)


def test_insert_rejects_noise_adjacent():
    t2 = T(0, (X(0), T(0)))
    with pytest.raises(NoiseAdjacentVertex):
        insert_v(T(0), (), t2)
    with pytest.raises(NoiseAdjacentVertex):
        insert_v(T(0), (0,), t2)
    assert insertable_vertices(t2) == []


def test_insert_distributes_decoration():
    # inserting a chain into a decorated vertex splits the decoration with
    # multinomial weights and regrafts the branch leftmost
    t1 = T(0, (K(0), T(0)))
    t2 = T(2)
    got = insert(t1, t2)
    want = LinComb()
    want.add_term(T(2, (K(0), T(0))), 1)
    want.add_term(T(1, (K(0), T(1))), 2)
    want.add_term(T(0, (K(0), T(2))), 1)
    assert got == want


def test_pv_tv():
    t = T(2, (K(1), T(1, (K(0), T(0)))), (X(0), T(1)))
    assert P_v(t, ()) == t
    assert T_v(t, (0, 0)).subtree((0, 0)).dec == mi(0)
    for p in t.paths():
        node = T_v(t, p).subtree(p)
        rebuilt = T_v(t, p).replace(p, PlanarTree(P_v(t, p).dec,
                                                  P_v(t, p).children,
                                                  node.ext))
        assert rebuilt == t


def test_dinsert_two_routes():
    negative_insertion_as_product(random.Random(31), 50)


def test_dinsert_zero_vertex_single_identification():
    t2 = T(0, (K(1), T(0)))
    got = dinsert_v(T(0), (0,), t2)
    assert got == LinComb.term(t2)


def test_pre_lie_both_insertions(cfg_typed):
    negative_pre_lie(random.Random(37), 25, cfg_typed)


def test_star_minus_unit_and_pigeonhole(cfg_typed):
    rng = random.Random(41)
    m = Multiset([rand_neg(rng, cfg_typed), rand_neg(rng, cfg_typed)])
    assert star_minus(Multiset(), m) == LinComb.term(m)
    no_spots = T(0, (X(0), T(0)))
    assert dinsert_multi(Multiset([rand_neg(rng, cfg_typed)]),
                         no_spots).is_zero()


def test_star_minus_associative(cfg_typed):
    negative_star_minus(random.Random(43), 8, cfg_typed)


def _multiset_deshuffle(m):
    out = LinComb()
    n = len(m)
    for mask in range(1 << n):
        left = Multiset(m[i] for i in range(n) if mask >> i & 1)
        right = Multiset(m[i] for i in range(n) if not mask >> i & 1)
        out.add_term(Tensor((left, right)), 1)
    return out


def test_star_minus_hopf_compatibility(cfg_typed):
    # the monomial deshuffle is an algebra morphism for the product
    rng = random.Random(53)
    for _ in range(8):
        m1 = Multiset([rand_neg(rng, cfg_typed, 1)])
        m2 = Multiset([rand_neg(rng, cfg_typed, 1),
                       rand_neg(rng, cfg_typed, 1)][:rng.randint(1, 2)])
        lhs = LinComb()
        for m, c in star_minus(m1, m2).items():
            lhs.iadd_scaled(_multiset_deshuffle(m), c)
        rhs = LinComb()
        for (a1, a2), ca in _multiset_deshuffle(m1).items():
            for (b1, b2), cb in _multiset_deshuffle(m2).items():
                for u, cu in star_minus(a1, b1).items():
                    for v, cv in star_minus(a2, b2).items():
                        rhs.add_term(Tensor((u, v)), ca * cb * cu * cv)
        assert lhs == rhs


def test_multi_insert_matches_recursion(cfg_typed):
    rng = random.Random(47)
    negative_multi_insertion(rng, 15, cfg_typed, (1, 3))
    # three factors into a two-vertex target: pigeonhole gives zero
    mono3 = Multiset([rand_neg(rng, cfg_typed, 1) for _ in range(3)])
    target = T(0, (K(0), T(0)))
    assert dinsert_multi(mono3, target).is_zero()


def test_delta_minus_noise_pair_example(cfg_typed):
    cfg = cfg_typed
    tau = T(0, (X(0), T(0)))
    got = delta_minus(tau, cfg)
    want = LinComb()
    want.add_term(Tensor((Multiset(), tau)), 1)
    want.add_term(Tensor((Multiset([tau]), T(0))), 1)
    assert got == want


@pytest.mark.parametrize("d, stride", [(1, 5), (2, 40)], ids=["d1", "d2"])
def test_delta_minus_duality(d, stride):
    def sym(mono):
        out = 1
        for _, cnt in Counter(mono).items():
            out *= factorial(cnt)
        return out

    cfg = typed_cfg(d)
    for z in typed_trees_up_to(2, d=d, max_dec=1, max_edge_dec=1)[::stride]:
        dm = delta_minus(z, cfg)
        cache = {}
        for (mono, trunk), c in dm.items():
            if not mono:
                continue
            if (mono, trunk) not in cache:
                cache[(mono, trunk)] = dinsert_multi(mono, trunk)
            assert cache[(mono, trunk)].coefficient(z) == c * sym(mono)


def test_delta_minus_nonroot_excludes_root_blocks(cfg_typed):
    tau = T(0, (X(0), T(0)))
    got = delta_minus_nonroot(tau, cfg_typed)
    assert got == LinComb.term(Tensor((Multiset(), tau)))


def test_extended_decorations(cfg_typed):
    t = T(1, (X(0), T(0)))
    tex = to_ex(t)
    ref = regularity(t, cfg_typed)
    assert regularity(tex, cfg_typed) == ref
    # a non-zero extended decoration counts towards the grading
    assert regularity(PlanarTree(mi(1), (), Fraction(-3, 4)), cfg_typed) == \
        Fraction(1, 4)
    dm = delta_minus(tex, cfg_typed)
    for (mono, right), _ in dm.items():
        assert regularity(right, cfg_typed) == ref
    # a contracted vertex records the block's extended grading
    blocks = [(mono, right) for (mono, right) in dm if mono]
    assert blocks
    for mono, right in blocks:
        assert right.ext == sum((regularity(m, cfg_typed) for m in mono),
                                Fraction(0))


# d = 1 is swept by the cointeraction suite (<= 2 edges) and criterion 8
# (3 edges); each d = 2 test checks both identities on half of every 40th
# tree, so together they cover every 40th tree for each identity
@pytest.mark.parametrize("d, start", [(2, 0)], ids=["d2"])
def test_cointeraction_trunc_small(d, start):
    cointeraction_typed_small(
        typed_trees_up_to(2, d=d, max_dec=1, max_edge_dec=1)[start::80],
        typed_cfg(d), MultiIndex((2,) * d))


@pytest.mark.parametrize("d, start", [(2, 40)], ids=["d2"])
def test_cointeraction_ex_small(d, start):
    cointeraction_typed_small(
        typed_trees_up_to(2, d=d, max_dec=1, max_edge_dec=1)[start::80],
        typed_cfg(d), MultiIndex((2,) * d))


def test_cointeraction_evaluates_delta_minus_once_per_argument(cfg_typed, monkeypatch):
    # the right factors of Delta+_0 t repeat across its terms: evaluating
    # Delta- once per term took 39 calls on the 22 distinct arguments here
    args = []
    inner = negative.delta_minus
    monkeypatch.setattr(negative, "delta_minus",
                        lambda x, cfg: args.append(x) or inner(x, cfg))
    t = T(1, (K(1), T(1)), (K(1), T(1)))
    cointeraction_sides_trunc(t, cfg_typed, mi(2))
    assert len(args) == len(set(args)) == 22


def test_insertion_worked_example_structure():
    # a three-vertex tree inserted at a vertex with two branches: nine
    # assignment families; zero decorations isolate the skeletons and kill
    # the deformation
    def KE(w, n):
        return K(n, which=w)

    t1 = T(0, (KE(1, 0), T(0)), (KE(2, 0), T(0)))
    host = T(0, (KE(3, 0), T(0, (KE(4, 0), T(0, (KE(5, 0), T(0)))),
                              (KE(6, 0), T(0)))),
             (KE(7, 0), T(0)))
    got = insert_v(t1, (0,), host)
    assert len(got) == 9 and set(got.values()) == {Fraction(1)}
    assert dinsert_v(t1, (0,), host) == got
    # with decorations the two deformed routes still agree
    t1d = T(1, (KE(1, 1), T(1)), (KE(2, 0), T(0)))
    hostd = T(1, (KE(3, 1), T(1, (KE(4, 1), T(0, (KE(5, 0), T(1)))),
                                (KE(6, 0), T(1)))),
              (KE(7, 0), T(0)))
    assert dinsert_v(t1d, (0,), hostd) == \
        dinsert_v_via_product(t1d, (0,), hostd)


def test_delta_minus_worked_example_families():
    # kernel skeleton k1[k2, k3[k4], noise]: with the inner kernel rough the
    # admissible families are the six displayed ones plus the empty family
    # and the inner-block singleton that duality forces
    def KE(w, n):
        return K(n, which=w)

    host = T(0, (KE(1, 0), T(0)), (KE(2, 0), T(0, (KE(3, 0), T(0)))),
             (X(0), T(0)))
    cfg = RegularityConfig(d=1, alphas={1: "-5/8"},
                           betas={1: "1/2", 2: "1/2", 3: "-1/4"},
                           truncation=8)
    whole = host
    root_noise = T(0, (X(0), T(0)))
    inner = T(0, (KE(3, 0), T(0)))
    with_k3 = T(0, (KE(2, 0), T(0)), (X(0), T(0)))
    with_k34 = T(0, (KE(2, 0), T(0, (KE(3, 0), T(0)))), (X(0), T(0)))
    no_k4 = T(0, (KE(1, 0), T(0)), (KE(2, 0), T(0)), (X(0), T(0)))
    dm = delta_minus(host, cfg)
    for mono in (Multiset(), Multiset([whole]), Multiset([root_noise]),
                 Multiset([with_k3]), Multiset([with_k34]), Multiset([no_k4]),
                 Multiset([inner]), Multiset([root_noise, inner])):
        assert any(m == mono for (m, _) in dm), mono
    # the zero-move term of each displayed family carries coefficient 1
    contracted_all = T(0)
    assert dm.coefficient((Multiset([whole]), contracted_all)) == 1
    trunk_pair = T(0, (KE(1, 0), T(0)), (KE(2, 0), T(0)))
    assert dm.coefficient((Multiset([root_noise, inner]), trunk_pair)) == 1


def test_chu_vandermonde_profiles():
    # three-part profiles; the cointeraction suite sweeps one and two parts
    cointeraction_chu_vandermonde(6, (3,), 6)
