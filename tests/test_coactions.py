import itertools
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (K, T, block_families_reference, contract_reference,
                      extract_block_reference, nonplanar_forests, over_trees,
                      rho_np_reference, rho_reference, typed_cfg)
from planarhopf import coactions, linalg, negative
from planarhopf.cli import Session, eval_expression
from planarhopf.coactions import (_admissible_blocks, _block_forest,
                                  admissible_partitions, block_families,
                                  compatibility_sides,
                                  cointeraction_check, cointeraction_sides,
                                  contract, lie_project, rho, rho_S, rho_T,
                                  rho_T0, rho_np, validate_block)
from planarhopf.enumeration import (forests_up_to, planar_forests,
                                    typed_trees_up_to)
from planarhopf.grammar import serialize_basis
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.postlie import b_minus, b_plus, ck_coproduct
from planarhopf.suites import (coactions_counit,
                               coactions_partition_validator,
                               coactions_projection_primitivity,
                               coactions_spanning_restriction)
from planarhopf.negative import to_ex
from planarhopf.trees import MultiIndex, lt, np_forest, nt


def test_spanning_partitions_worked_example():
    w = (lt("a", lt("b"), lt("c", lt("d"))),)
    parts = admissible_partitions(w, spanning=True)
    assert len(parts) == 8
    assert all(sum(map(len, p.blocks)) == 4 for p in parts)
    blocks = {frozenset(frozenset(b) for b in p.blocks) for p in parts}
    a, b, c, d = (0,), (0, 0), (0, 1), (0, 1, 0)
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


def test_block_families_carry_states_along_each_prefix():
    # without a step, the families of the stateless recursion in its order;
    # a step that refuses one block drops exactly the families holding it,
    # and the states a family ends with are those of its own prefixes
    for w in forests_up_to(4, ("a",)):
        host = b_plus(w)
        vertices = list(host.paths())[1:]
        blocks = _admissible_blocks(host)
        for spanning in (False, True):
            want = block_families_reference(vertices, blocks, spanning)
            assert block_families(vertices, blocks, spanning) == want
            got = block_families(vertices, blocks, spanning,
                                 lambda s, b: [s + (b,), s + (b, b)], ())
            assert [f for f, _ in got] == want
            for family, states in got:
                assert states == [sum(c, ()) for c in itertools.product(
                    *(((b,), (b, b)) for b in family))]
            for dropped in blocks:
                got = block_families(vertices, blocks, spanning,
                                     lambda s, b: () if b == dropped else (s,), "start")
                assert got == [(f, ["start"]) for f in want if dropped not in f]


def test_every_block_passes_validator():
    coactions_partition_validator(4, ("a", "b"))


def test_blocks_are_exactly_the_validated_subsets():
    # the structural block grower against a brute-force scan of every
    # vertex subset through the independent validator
    for w in forests_up_to(5, ("a",)):
        vertices = [(i,) + p for i, t in enumerate(w) for p in t.paths()]
        valid = {frozenset(s) for r in range(1, len(vertices) + 1)
                 for s in itertools.combinations(vertices, r)
                 if validate_block(w, s)}
        got = {b for p in admissible_partitions(w, spanning=False) for b in p.blocks}
        assert got == valid, w


def test_block_forests_are_read_one_component_at_a_time():
    # each component of a block of rho read by read_block, against the
    # vertex-by-vertex oracle; runs of siblings give multi-component blocks
    components = Counter()
    for w in forests_up_to(4, ("a", "b")):
        host = b_plus(w)
        for b in _admissible_blocks(host):
            got = _block_forest(host, b)
            assert got == extract_block_reference(host, b), (w, sorted(b))
            components[len(got)] += 1
    assert set(components) == {1, 2, 3, 4}


def test_right_closure_rejected():
    w = (lt("a", lt("b"), lt("c")),)
    assert not validate_block(w, {(0,), (0, 0)})
    assert validate_block(w, {(0,), (0, 1)})


def test_validator_rejects_paths_outside_the_forest():
    # () is the added root of B+(w), not a vertex of w
    w = (lt("a", lt("b")),)
    assert not validate_block(w, {()})
    assert not validate_block(w, {(), (0,)})
    assert not validate_block(w, {(1,)})
    assert not validate_block(w, {(0, 1)})
    assert not validate_block(w, {(-1,)})
    assert not validate_block(w, {(0, -1)})
    assert not validate_block(w, {(0, 0, 0)})  # through the leaf b
    assert validate_block(w, {(0, 0)})


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


def eulerian_reference(w: tuple) -> LinComb:
    """First Eulerian idempotent by its definition: the convolution
    logarithm of the identity, evaluated by colouring the positions of w
    with k colours, all colours used, and reading the colour classes in
    turn."""
    n = len(w)
    out = LinComb()
    for k in range(1, n + 1):
        for colours in itertools.product(range(k), repeat=n):
            if len(set(colours)) == k:
                merged = tuple(w[i] for colour in range(k)
                               for i in range(n) if colours[i] == colour)
                out.add_term(merged, Fraction((-1) ** (k + 1), k))
    return out


def leftbracket_reference(w: tuple) -> LinComb:
    """pi(t1...tk) = [t1, pi(t2...tk)], pi(t) = t, brackets as commutators."""
    if len(w) <= 1:
        return LinComb.term(w) if w else LinComb()
    out = LinComb()
    for rest, c in leftbracket_reference(w[1:]).items():
        out.add_term((w[0],) + rest, c)
        out.add_term(rest + (w[0],), -c)
    return out


@pytest.mark.parametrize("norm, reference", [("eulerian", eulerian_reference),
                                             ("leftbracket", leftbracket_reference)])
def test_lie_project_matches_its_definition(norm, reference):
    # the permutation table against the per-word definitions, on repeated
    # letters up to length 5 and on distinct letters at length 6
    letters = tuple(lt(x) for x in "abcdef")
    words = [w for n in range(6) for w in itertools.product(letters[:3], repeat=n)]
    for w in words + [letters]:
        assert lie_project(LinComb.term(w), norm) == reference(w), w


def test_lie_project_rejects_an_unknown_normalization():
    for w in ((), (lt("a"),)):
        with pytest.raises(ValueError):
            lie_project(LinComb.term(w), "orthogonal")


def test_lie_project_primitive():
    coactions_projection_primitivity(3, ("a", "b", "c"))


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


COACTIONS = {
    "rho_S": lambda w, norm: rho_S(w, ("x",), norm),
    "rho_T": lambda w, norm: rho_T(w, ("x",), norm),
    "rho_T0": rho_T0,
}


def test_the_rho_table_returns_cold_results():
    # the three coactions under both normalizations share the table: each
    # key is filed apart, read back as the stored object, and equal to a
    # recomputation on an empty table
    keys = [(name, norm) for name in COACTIONS for norm in ("eulerian", "leftbracket")]
    for w in forests_up_to(4, ("a", "b")):
        coactions._rho.cache_clear()
        stored = [COACTIONS[name](w, norm) for name, norm in keys]
        assert coactions._rho.cache_info().currsize == len(keys)
        for (name, norm), got in zip(keys, stored):
            assert COACTIONS[name](w, norm) is got
        for (name, norm), got in zip(keys, stored):
            coactions._rho.cache_clear()
            assert COACTIONS[name](w, norm) == got, (name, norm, serialize_basis(w))


def test_the_rho_table_normalises_its_key():
    w = (lt("a", lt("b")), lt("a"))
    assert rho_S(list(w), ["x", "y"]) is rho_S(w, ("x", "y"))
    assert rho_T(w[0], iter("xy")) is rho_T((w[0],), ("x", "y"))


def test_callers_leave_the_stored_coactions_as_they_were():
    w = (lt("0", lt("0")), lt("0"))
    stored = rho_T0(w)
    snapshot = LinComb(stored)
    cointeraction_sides(w)
    assert eval_expression("rhoT0({0[0] 0})", Session()) == snapshot
    assert rho_T0(w) is stored and stored == snapshot


def test_contract_shuffles_across_block_vertices():
    # contracting the two inner vertices of a[b,c[d]] with b under a and d
    # under c gives both orders of the outside children
    w = (lt("a", lt("b"), lt("c", lt("d"))),)
    blocks = (frozenset({(0,), (0, 1)}),)
    got = contract(b_plus(w), blocks, ("x",)).map_basis(b_minus)
    want = LinComb()
    want.add_term((lt("x", lt("b"), lt("d")),), 1)
    want.add_term((lt("x", lt("d"), lt("b")),), 1)
    assert got == want


def test_contract_rebuilds_a_vertex_whose_edge_is_replaced():
    # the replaced edge hangs below a vertex that lies above no block vertex
    host = T(0, (K(0), T(0)), (K(0), T(0, (K(0), T(0)))))
    got = contract(host, (frozenset({(0,)}),), (MultiIndex((1,)),),
                   edges={((1,), 0): K(1)})
    assert got == LinComb.term(T(0, (K(0), T(1)), (K(0), T(0, (K(1), T(0))))))


def test_contract_matches_its_oracle_on_delta_minus_families(monkeypatch):
    # every contraction typed Delta- makes on every 10th d = 1 tree with at
    # most 3 edges, plain and with extended decorations, root blocks kept
    # and left out: the raised edges of its moves and the blocks' extended
    # gradings included
    seen = Counter()

    def checked(host, blocks, tags, exts=None, edges=None):
        got = contract(host, blocks, tags, exts, edges)
        assert got == contract_reference(host, blocks, tags, exts, edges), (host, blocks)
        seen.update(["call"] + ["exts"] * (exts is not None) + ["edges"] * bool(edges))
        return got

    monkeypatch.setattr(negative, "contract", checked)
    cfg = typed_cfg(1)
    for t in typed_trees_up_to(3, d=1, max_dec=1, max_edge_dec=1)[::10]:
        for host in (t, to_ex(t)):
            for root_blocks in (True, False):
                negative._delta_minus_terms.__wrapped__(host, cfg, root_blocks)
    assert seen["exts"] and seen["edges"], seen


# every forest over a, b with at most 3 vertices and every 10th with 4: the
# whole 4-vertex sweep costs five times the budget of this test
RHO_FORESTS = forests_up_to(3, ("a", "b")) + list(planar_forests(4, ("a", "b")))[::10]


# every one-letter forest with at most 5 vertices and every 7th with 6, where
# left monomials reach 6 items and blocks first nest under other blocks'
# outside children
RHO_T0_FORESTS = forests_up_to(5, ("0",)) + list(planar_forests(6, ("0",)))[::7]


@pytest.mark.parametrize("norm", ["eulerian", "leftbracket"])
@pytest.mark.parametrize("name", ["rho_S", "rho_T", "rho_T0"])
def test_rho_matches_the_partition_loop_oracle(name, norm):
    # the families with their left monomials carried along the recursion,
    # against one loop over the admissible partitions; two tags, so that a
    # family holds mixed tag tuples
    if name == "rho_T0":
        for w in RHO_T0_FORESTS:
            assert rho_T0(w, norm) == rho_reference(w, ("0",), False, norm, tagged=False), w
        return
    spanning = name == "rho_S"
    for w in RHO_FORESTS:
        assert rho(w, ("x", "y"), spanning, norm) == \
            rho_reference(w, ("x", "y"), spanning, norm), serialize_basis(w)


def test_rho_np_counts():
    # the spanning count of a[b,c[d]] is the coactions.nonplanar suite check
    assert len(rho_np(nt("a"), ("0",), spanning=False)) == 2
    got = rho_np(nt("a", nt("b")), ("0",), spanning=False)
    assert len(got) == 5
    want_term = Tensor((Multiset([(nt("a", nt("b")), "0")]), (nt("0"),)))
    assert got.coefficient(want_term) == 1


@pytest.mark.parametrize("spanning", [False, True])
def test_rho_np_of_a_forest_is_the_product_over_its_trees(spanning):
    # blocks never span two trees, so the coaction of a forest is the
    # product of its trees' coactions: monomials multiply, forests unite
    def mul(x, y):
        return Tensor((x[0] * y[0], np_forest(x[1] + y[1])))

    for w in nonplanar_forests(4, ("a", "b")):
        want = over_trees(w, lambda t: rho_np(t, ("x",), spanning), mul,
                          Tensor((Multiset(), ())))
        assert rho_np(w, ("x",), spanning) == want, w


# (False, ("x", "y")) is what ``rhoTnp`` runs on the default alphabet
@pytest.mark.parametrize("spanning, tags", [(False, ("x",)), (True, ("x", "y")),
                                            (False, ("x", "y"))])
def test_rho_np_matches_the_subset_and_contraction_oracle(spanning, tags):
    for w in ((),) + nonplanar_forests(4, ("a", "b")):
        assert rho_np(w, tags, spanning) == rho_np_reference(w, tags, spanning), w


@pytest.mark.parametrize("spanning", [False, True])
def test_rho_np_matches_the_oracle_on_equal_subtrees(spanning):
    # one letter: equal sibling subtrees tie in the canonical child order,
    # and equal blocks in the sorted left items
    for w in nonplanar_forests(5, ("a",)):
        assert rho_np(w, ("x", "y"), spanning) == \
            rho_np_reference(w, ("x", "y"), spanning), w


@pytest.mark.parametrize("n, labels", [(5, ("a",)), (4, ("a", "b"))])
def test_nonplanar_cosubstitution_is_a_coaction(n, labels):
    # (id (x) rho_B) rho_A = (Delta (x) id) rho_B with disjoint tag alphabets
    # A and B: extraction-contraction is coassociative
    # (Calaque-Ebrahimi-Fard-Manchon).  Delta is multiplicative on the left
    # monomials, with Delta(u, b) = sum over (m', f') in rho_A(u) of
    # m' (x) (f', b).
    inner, outer = ("x",), ("y",)

    def mul(x, y):
        return Tensor((x[0] * y[0], x[1] * y[1]))

    def delta(u, b):
        out = LinComb()
        for (m, (f,)), c in rho_np(u, inner, spanning=True).items():
            out.add_term(Tensor((m, Multiset([(f, b)]))), c)
        return out

    for w in nonplanar_forests(n, labels):
        lhs, rhs = LinComb(), LinComb()
        for (m, f), c in rho_np(w, inner, spanning=True).items():
            for (m2, f2), c2 in rho_np(f, outer, spanning=True).items():
                lhs.add_term(Tensor((m, m2, f2)), c * c2)
        for (u, f), c in rho_np(w, outer, spanning=True).items():
            split = over_trees(u, lambda pair: delta(*pair), mul,
                               Tensor((Multiset(), Multiset())))
            for (m, m2), c2 in split.items():
                rhs.add_term(Tensor((m, m2, f)), c * c2)
        assert lhs == rhs, w


def test_spanning_equals_restriction():
    # the coactions suite sweeps two letters <= 3 vertices
    coactions_spanning_restriction(4, ("a",))


def test_counit():
    # the coactions suite sweeps the 2-letter forests <= 3 vertices
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
    # each map runs once per distinct argument within one call, the table
    # under rho computes each distinct forest's coaction once per sweep, rho
    # projects each distinct block once, and rho builds B+(w) once, reading
    # its families from block_families without admissible_partitions:
    # evaluating the maps per term and per partition took 981, 1,631 and
    # 42,168 calls over the same forests, building B+(w) in every
    # extract_block and contract call took 14,388, building it again in
    # admissible_partitions took 130, and recomputing rho on every call took
    # 3,174 projections and 1,088 builds.  Left monomials are multiplied on
    # keys computed once per call: sorting every product on basis_key, as
    # Multiset does, took 38,374 basis_key calls (recursive calls counted).
    # The table starts empty, so the counts do not depend on the tests that
    # ran before.
    coactions._rho.cache_clear()
    calls = Counter()
    for name in ("rho_T0", "mkw_coproduct", "lie_project", "b_plus"):
        inner = getattr(coactions, name)
        monkeypatch.setattr(coactions, name, lambda *args, name=name, inner=inner:
                            calls.update([name]) or inner(*args))
    key = linalg.basis_key

    def counted(b):
        calls.update(["basis_key"])
        return key(b)

    monkeypatch.setattr(linalg, "basis_key", counted)
    monkeypatch.setattr(coactions, "basis_key", counted)
    forests = forests_up_to(5, ("0",))
    for w in forests:
        cointeraction_sides(w)
    assert calls == {"rho_T0": 544, "mkw_coproduct": 363, "lie_project": 837,
                     "b_plus": 65, "basis_key": 5284}
    assert coactions._rho.cache_info().misses == len(forests) == 65


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
    # admissible-cut coproduct: one letter <= 5 vertices, two letters <= 3
    def rho_np0(forest):
        out = LinComb()
        for (mono, f), c in rho_np(forest, ("0",), spanning=False).items():
            out.add_term(Tensor((Multiset(t for t, _ in mono), f)), c)
        return out

    for w in ((),) + nonplanar_forests(5, ("0",)) + nonplanar_forests(3, ("0", "1")):
        lhs, rhs = compatibility_sides(w, rho_np0, lambda f: ck_coproduct(LinComb.term(f)))
        assert lhs == rhs, w
