import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from planarhopf import coactions
from planarhopf.coactions import (admissible_partitions, compatibility_sides,
                                  cointeraction_check, cointeraction_sides,
                                  contract, lie_project, rho_S, rho_T, rho_T0,
                                  rho_np, validate_block)
from planarhopf.enumeration import forests_up_to, planar_forests
from planarhopf.grammar import serialize_basis
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.suites import (coactions_counit,
                               coactions_partition_validator,
                               coactions_projection_primitivity,
                               coactions_spanning_restriction)
from planarhopf.trees import lt, nt


def test_spanning_partitions_worked_example():
    w = (lt("a", lt("b"), lt("c", lt("d"))),)
    parts = admissible_partitions(w, spanning=True)
    assert len(parts) == 8
    assert all(p.spanning for p in parts)
    blocks = {frozenset(frozenset(b) for b in p.blocks) for p in parts}
    a, b, c, d = (0, ()), (0, (0,)), (0, (1,)), (0, (1, 0))
    expected = {
        frozenset({frozenset({a, b, c, d})}),
        frozenset({frozenset({a}), frozenset({b}), frozenset({c}), frozenset({d})}),
        frozenset({frozenset({a, c, d}), frozenset({b})}),
        frozenset({frozenset({b, c, d}), frozenset({a})}),
        frozenset({frozenset({a, b, c}), frozenset({d})}),
        frozenset({frozenset({a, c}), frozenset({b}), frozenset({d})}),
        frozenset({frozenset({b, c}), frozenset({a}), frozenset({d})}),
        frozenset({frozenset({c, d}), frozenset({a}), frozenset({b})}),
    }
    assert blocks == expected


def test_single_vertex_spanning():
    parts = admissible_partitions((lt("a"),), spanning=True)
    assert len(parts) == 1


def test_partitions_of_edge_tree():
    # empty, {a}, {b}, {a}{b}, {a,b}: the two-singleton family satisfies
    # both admissibility conditions
    parts = admissible_partitions((lt("a", lt("b")),), spanning=False)
    assert len(parts) == 5


def test_every_block_passes_validator():
    coactions_partition_validator(random.Random(3), 30, (1, 4))


def test_blocks_are_exactly_the_validated_subsets():
    # the structural block grower against a brute-force scan of every
    # vertex subset through the independent validator
    for w in forests_up_to(5, ("a",)):
        vertices = [(i, p) for i, t in enumerate(w) for p in t.paths()]
        valid = {frozenset(s) for r in range(1, len(vertices) + 1)
                 for s in itertools.combinations(vertices, r)
                 if validate_block(w, s)}
        got = {b for p in admissible_partitions(w, spanning=False) for b in p.blocks}
        assert got == valid, w


def test_right_closure_rejected():
    w = (lt("a", lt("b"), lt("c")),)
    assert not validate_block(w, {(0, ()), (0, (0,))})
    assert validate_block(w, {(0, ()), (0, (1,))})


def test_lie_project_tree_fixed():
    t = (lt("a", lt("b")),)
    for norm in ("eulerian", "leftbracket"):
        assert lie_project(LinComb.term(t), norm) == LinComb.term(t)


def test_lie_project_two_letters():
    a, b = lt("a"), lt("b")
    w = LinComb.term((a, b))
    euler = lie_project(w, "eulerian")
    assert euler == LinComb((((a, b), Fraction(1, 2)), ((b, a), Fraction(-1, 2))))
    brack = lie_project(w, "leftbracket")
    assert brack == LinComb((((a, b), 1), ((b, a), -1)))


def test_lie_project_primitive():
    coactions_projection_primitivity(random.Random(5), 25, (1, 4))


def test_rho_s_single_vertex():
    got = rho_S((lt("a"),), ("0", "1"))
    want = LinComb()
    want.add_term(Tensor((Multiset([((lt("a"),), "0")]), (lt("0"),))), 1)
    want.add_term(Tensor((Multiset([((lt("a"),), "1")]), (lt("1"),))), 1)
    assert got == want


def test_rho_t_single_vertex():
    got = rho_T((lt("a"),), ("0",))
    want = LinComb()
    want.add_term(Tensor((Multiset(), (lt("a"),))), 1)
    want.add_term(Tensor((Multiset([((lt("a"),), "0")]), (lt("0"),))), 1)
    assert got == want


def test_rho_t0_drops_tags():
    got = rho_T0((lt("a"),))
    want = LinComb()
    want.add_term(Tensor((Multiset(), (lt("a"),))), 1)
    want.add_term(Tensor((Multiset([(lt("a"),)]), (lt("0"),))), 1)
    assert got == want


def test_contract_shuffles_across_block_vertices():
    # contracting the two inner vertices of a[b,c[d]] with b under a and d
    # under c gives both orders of the outside children
    w = (lt("a", lt("b"), lt("c", lt("d"))),)
    blocks = (frozenset({(0, ()), (0, (1,))}),)
    got = contract(w, blocks, ("x",))
    want = LinComb()
    want.add_term((lt("x", lt("b"), lt("d")),), 1)
    want.add_term((lt("x", lt("d"), lt("b")),), 1)
    assert got == want


def test_rho_np_counts():
    # the spanning count of a[b,c[d]] is the coactions.nonplanar suite check
    assert len(rho_np(nt("a"), ("0",), spanning=False)) == 2
    got = rho_np(nt("a", nt("b")), ("0",), spanning=False)
    assert len(got) == 5
    want_term = Tensor((Multiset([(nt("a", nt("b")), "0")]), (nt("0"),)))
    assert got.coefficient(want_term) == 1


def test_spanning_equals_restriction():
    # the coactions suite sweeps two letters <= 3 vertices
    coactions_spanning_restriction(4, ("a",))


def test_counit():
    # the coactions suite sweeps forests <= 3 vertices
    coactions_counit(4, ("a",))


@pytest.mark.parametrize("norm", ["eulerian", "leftbracket"])
def test_cointeraction_small(norm):
    for w in forests_up_to(3, ("0",)):
        assert cointeraction_check(w, norm), w


def test_cointeraction_selects_eulerian():
    # the two normalizations first diverge on a 5-vertex host: the iterated
    # commutator breaks the compatibility, the idempotent projection does not
    w = (lt("0"), lt("0", lt("0")), lt("0", lt("0")))
    assert cointeraction_check(w, "eulerian")
    assert not cointeraction_check(w, "leftbracket")


def test_cointeraction_shares_sub_results(monkeypatch):
    # each map runs once per distinct argument within one call, and rho
    # projects each distinct block once: evaluating them per term and per
    # partition took 981, 1,631 and 42,168 calls over the same forests
    calls = Counter()
    for name in ("rho_T0", "mkw_coproduct", "lie_project"):
        inner = getattr(coactions, name)
        monkeypatch.setattr(coactions, name, lambda *args, name=name, inner=inner:
                            calls.update([name]) or inner(*args))
    for w in forests_up_to(5, ("0",)):
        cointeraction_sides(w)
    assert calls == {"rho_T0": 544, "mkw_coproduct": 363, "lie_project": 3174}


# the compatibility fails on these 6-vertex forests (ROADMAP item 1); strict,
# so that a fix turns them into failures that must be updated
FAILING_AT_SIX = {"{0 0 0[0] 0[0]}", "{0 0 0[0,0[0]]}", "{0 0 0[0[0],0]}",
                  "{0 0[0] 0[0,0]}", "{0 0[0,0,0[0]]}", "{0 0[0[0],0,0]}",
                  "{0[0] 0 0 0[0]}", "{0[0] 0 0[0,0]}"}


@pytest.mark.parametrize("w", [
    pytest.param(w, id=serialize_basis(w), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 1")
        if serialize_basis(w) in FAILING_AT_SIX else ())
    for w in planar_forests(6, ("0",))])
def test_cointeraction_six_vertices(w):
    assert cointeraction_check(w, "eulerian")


def test_cointeraction_nonplanar():
    # the same compatibility on the non-planar side, against the
    # admissible-cut coproduct
    from planarhopf.postlie import ck_coproduct
    from planarhopf.trees import np_forest
    from planarhopf.enumeration import nonplanar_trees

    def rho_np0(forest):
        out = LinComb()
        for (mono, f), c in rho_np(forest, ("0",), spanning=False).items():
            out.add_term(Tensor((Multiset(t for t, _ in mono), f)), c)
        return out

    def forests(total):
        if total == 0:
            yield ()
            return
        for k in range(1, total + 1):
            for t in nonplanar_trees(k, ("0",)):
                for rest in forests(total - k):
                    yield np_forest((t,) + rest)

    pool = sorted({w for n in range(5) for w in forests(n)}, key=str)
    for w in pool:
        lhs, rhs = compatibility_sides(w, rho_np0, lambda f: ck_coproduct(LinComb.term(f)))
        assert lhs == rhs, w
