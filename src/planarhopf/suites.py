"""Named collections of golden and property checks, shared by the CLI and
the acceptance tests.

Each suite returns a list of CheckResult; a failing check carries a replay
expression in the text grammar so the counterexample can be fed back to the
evaluator.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import coactions, deformed, negative, postlie, rough
from .enumeration import (forests_up_to, nonplanar_trees, pb_trees_up_to,
                          random_forest, random_planted, random_typed_tree,
                          typed_trees_up_to)
from .grammar import serialize_basis
from .linalg import LinComb, Multiset, Tensor, aslc, tensor2
from .trees import (EdgeType, MultiIndex, PlanarTree, RegularityConfig,
                    TreeError, lt, nt, regularity, vertex_count)


class UnknownSuite(TreeError):
    pass


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}  ({self.seconds:.2f}s){extra}"


def _check(results, name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
        if isinstance(detail, tuple):
            ok, detail = detail
    except AssertionError as exc:
        ok, detail = False, str(exc)
    results.append(CheckResult(name, ok, detail or "", time.perf_counter() - t0))


def _mi(n):
    return MultiIndex((n,))


def _K(which, n):
    return EdgeType("K", which, _mi(n))


def _X(which, n):
    return EdgeType("X", which, _mi(n))


def _T(dec, *kids):
    return PlanarTree(_mi(dec), tuple(kids))


DEFAULT_CFG = RegularityConfig(
    d=1, alphas={1: "49/100", 2: "49/100", 3: "49/100"},
    betas={1: "3/2"}, truncation=5)

NEGATIVE_CFG = RegularityConfig(
    d=1, alphas={1: "-5/8", 2: "-5/8"}, betas={1: "1/2", 2: "1/2", 3: "1/2"},
    truncation=8)


# ---------------------------------------------------------------------------
# golden examples


def suite_golden(cfg=None, seed=0) -> list:
    cfg = cfg or DEFAULT_CFG
    out = []

    def grafting():
        got = postlie.graft_tree(lt("a", lt("b")), lt("c", lt("d"), lt("e")))
        want = LinComb()
        want.add_term(lt("c", lt("a", lt("b")), lt("d"), lt("e")), 1)
        want.add_term(lt("c", lt("d", lt("a", lt("b"))), lt("e")), 1)
        want.add_term(lt("c", lt("d"), lt("e", lt("a", lt("b")))), 1)
        assert got == want, "left grafting of a[b] onto c[d,e]"
        return "3 terms"

    _check(out, "golden.left_grafting", grafting)

    def bplus_bminus():
        o = lt(None)
        forest = (lt(None, o), o, lt(None, lt(None, o), o))
        tree = postlie.b_plus(forest)
        assert tree == lt(None, lt(None, o), o, lt(None, lt(None, o), o))
        assert postlie.b_minus(tree) == forest
        back = postlie.b_minus(lt(None, o, lt(None, o, o)))
        assert back == (o, lt(None, o, o))
        return "round trip"

    _check(out, "golden.root_adding_bijection", bplus_bminus)

    def mkw_example():
        w = (lt("a"), lt("b", lt("c"), lt("d")))
        got = postlie.mkw_coproduct(LinComb.term(w))
        a, b, c, dd = lt("a"), lt("b"), lt("c"), lt("d")
        want = LinComb()
        want.add_term(Tensor(((), w)), 1)
        want.add_term(Tensor((w, ())), 1)
        want.add_term(Tensor(((a,), (lt("b", c, dd),))), 1)
        want.add_term(Tensor(((c,), (a, lt("b", dd)))), 1)
        for sh in ((a, c), (c, a)):
            want.add_term(Tensor((sh, (lt("b", dd),))), 1)
        want.add_term(Tensor(((c, dd), (a, b))), 1)
        for sh in ((a, c, dd), (c, a, dd), (c, dd, a)):
            want.add_term(Tensor((sh, (b,))), 1)
        assert got == want, "7-family coproduct of {a b[c,d]}"
        return "7 families / 10 basis terms"

    _check(out, "golden.mkw_coproduct", mkw_example)

    def omega_example():
        x = (nt("a", nt("b", nt("c")), nt("d")), nt("e", nt("f")))
        got = postlie.omega_embed(x)
        ef = lt("e", lt("f"))
        t1 = lt("a", lt("b", lt("c")), lt("d"))
        t2 = lt("a", lt("d"), lt("b", lt("c")))
        want = LinComb(((w, 1) for w in
                        ((t1, ef), (t2, ef), (ef, t1), (ef, t2))))
        assert got == want, "4-term planar-embedding sum"
        return "4 terms"

    _check(out, "golden.embedding_sum", omega_example)

    def partitions():
        w = (lt("a", lt("b"), lt("c", lt("d"))),)
        parts = coactions.admissible_partitions(w, spanning=True)
        assert len(parts) == 8, f"expected 8 spanning partitions, got {len(parts)}"
        for p in parts:
            for b in p.blocks:
                assert coactions.validate_block(w, b), "validator rejected a block"
        return "8 partitions"

    _check(out, "golden.spanning_partitions", partitions)

    def rho_s_skeleton():
        w = (lt("a", lt("b"), lt("c", lt("d"))),)
        got = coactions.rho_S(w, ("x",), "leftbracket")
        # 8 partitions, one letter: the contractions collapse to 5 skeletons
        rights = {serialize_basis(f) for (m, f) in got}
        assert rights == {"{x}", "{x[x]}", "{x[x,x]}", "{x[x[x]]}",
                          "{x[x,x[x]]}"}, rights
        # bracket blocks appear with coefficient +-1 under the iterated
        # commutator normalization
        bracket_term = (Multiset([((lt("a"),), "x"),
                                  ((lt("b"), lt("c", lt("d"))), "x")]),
                        (lt("x", lt("x")),))
        assert got.coefficient(bracket_term) == 1
        return f"{len(got)} expanded terms"

    _check(out, "golden.cosubstitution_skeleton", rho_s_skeleton)

    def sec3_delta_plus():
        w = (lt("1", lt("0")), lt("0", lt("3"), lt("4")))
        T3 = rough.b_plus_pb(tuple(rough.phi_tree(t) for t in w))
        got = rough.delta_plus_pb(T3)
        assert len(got) == 16 and all(c == 1 for c in got.values())
        oracle = rough.delta_plus_pb_via_mkw(T3)
        assert got == oracle, "cut route differs from the transported route"
        return "16 basis terms, both routes equal"

    _check(out, "golden.recentering_display", sec3_delta_plus)

    def sec3_delta_minus():
        LEAF = PlanarTree()
        c1 = PlanarTree(None, ((0, LEAF), (2, LEAF)))
        c2 = PlanarTree(None, ((3, LEAF),))
        T3 = PlanarTree(None, ((0, c1), (0, c2), (1, LEAF)))
        got = rough.delta_minus_pb(T3, cfg)
        assert len(got) == 10
        n1 = PlanarTree(None, ((1, LEAF),))
        n2 = PlanarTree(None, ((2, LEAF),))
        n3 = PlanarTree(None, ((3, LEAF),))
        n4 = PlanarTree(None, ((0, c2), (1, LEAF)))
        displayed = [
            (Multiset([n1]), PlanarTree(None, ((0, c1), (0, c2)))),
            (Multiset([n2]), PlanarTree(None, ((0, PlanarTree(None, ((0, LEAF),))),
                                               (0, c2), (1, LEAF)))),
            (Multiset([n3]), PlanarTree(None, ((0, c1), (0, LEAF), (1, LEAF)))),
            (Multiset([n4]), PlanarTree(None, ((0, c1),))),
            (Multiset([n1, n2]), PlanarTree(None, ((0, PlanarTree(None, ((0, LEAF),))),
                                                   (0, c2)))),
            (Multiset([n1, n3]), PlanarTree(None, ((0, c1), (0, LEAF)))),
            (Multiset([n2, n3]), PlanarTree(None, ((0, PlanarTree(None, ((0, LEAF),))),
                                                   (0, LEAF), (1, LEAF)))),
            (Multiset([n4, n2]), PlanarTree(None, ((0, PlanarTree(None, ((0, LEAF),))),))),
        ]
        for term in displayed:
            assert got.coefficient(term) == 1, term
        other = RegularityConfig(d=1, alphas={1: "499/1000", 2: "499/1000",
                                              3: "499/1000"}, betas={}, truncation=8)
        assert set(got) == set(rough.delta_minus_pb(T3, other)), \
            "negative-tree family changed inside the interval"
        assert got == rough.delta_minus_pb_via_rho(T3, cfg), "dual route differs"
        return "8 displayed + unit + forced triple family"

    _check(out, "golden.renormalisation_display", sec3_delta_minus)

    def up_square():
        chain = _T(0, (_K(1, 0), _T(0)))
        got = deformed.up_all(chain, _mi(2))
        want = LinComb()
        want.add_term(_T(2, (_K(1, 0), _T(0))), 1)
        want.add_term(_T(1, (_K(1, 0), _T(1))), 2)
        want.add_term(_T(0, (_K(1, 0), _T(2))), 1)
        assert got == want
        return "binomial split"

    _check(out, "golden.decoration_raising", up_square)
    return out


# ---------------------------------------------------------------------------
# property suites


def suite_postlie(cfg=None, seed=1) -> list:
    rng = random.Random(seed)
    out = []

    def axioms():
        letters = ("a", "b")
        for trial in range(250):
            t1 = _rand_tree(rng, letters)
            t2 = _rand_tree(rng, letters)
            t3 = _rand_tree(rng, letters)
            lhs = postlie.go_graft(LinComb.term((t1,)), postlie.go_graft(
                LinComb.term((t2,)), LinComb.term((t3,)))) \
                - postlie.go_graft(postlie.go_graft(
                    LinComb.term((t1,)), LinComb.term((t2,))), LinComb.term((t3,))) \
                - postlie.go_graft(LinComb.term((t2,)), postlie.go_graft(
                    LinComb.term((t1,)), LinComb.term((t3,)))) \
                + postlie.go_graft(postlie.go_graft(
                    LinComb.term((t2,)), LinComb.term((t1,))), LinComb.term((t3,)))
            bracket = LinComb((((t1, t2), 1), ((t2, t1), -1)))
            rhs = postlie.go_graft(bracket, LinComb.term((t3,)))
            assert lhs == rhs, f"associator failed on {t1.key()},{t2.key()},{t3.key()}"
        return "250 associator instances"

    _check(out, "postlie.associator", axioms)

    def derivation():
        letters = ("a", "b")
        for trial in range(250):
            t1, t2, t3 = (_rand_tree(rng, letters) for _ in range(3))
            lhs = postlie.go_graft(
                LinComb.term((t1,)),
                LinComb((((t2, t3), 1), ((t3, t2), -1))))
            g12 = postlie.go_graft(LinComb.term((t1,)), LinComb.term((t2,)))
            g13 = postlie.go_graft(LinComb.term((t1,)), LinComb.term((t3,)))
            rhs = LinComb()
            for w, c in g12.items():
                rhs.add_term(w + (t3,), c)
                rhs.add_term((t3,) + w, -c)
            for w, c in g13.items():
                rhs.add_term((t2,) + w, c)
                rhs.add_term(w + (t2,), -c)
            assert lhs == rhs, "bracket derivation failed"
        return "250 derivation instances"

    _check(out, "postlie.bracket_derivation", derivation)

    def deformed_axioms():
        for trial in range(260):
            x, y, z = (_rand_v(rng) for _ in range(3))
            ax = deformed.dgraft_v(x, deformed.dgraft_v(y, z)) \
                - deformed.dgraft_v(deformed.dgraft_v(x, y), LinComb.term(z))
            ay = deformed.dgraft_v(y, deformed.dgraft_v(x, z)) \
                - deformed.dgraft_v(deformed.dgraft_v(y, x), LinComb.term(z))
            assert ax - ay == deformed.dgraft_v(
                deformed.bracket0(x, y), LinComb.term(z)), "deformed associator"
            lhs = deformed.dgraft_v(z, deformed.bracket0(x, y))
            rhs = deformed.bracket0(deformed.dgraft_v(z, x), LinComb.term(y)) \
                + deformed.bracket0(LinComb.term(x), deformed.dgraft_v(z, y))
            assert lhs == rhs, "deformed bracket derivation"
        return "260 deformed instances"

    _check(out, "postlie.deformed_axioms", deformed_axioms)
    return out


def _rand_tree(rng, letters):
    from .enumeration import random_planar_tree
    return random_planar_tree(rng, rng.randint(1, 4), letters)


def _rand_v(rng):
    if rng.random() < 0.3:
        return _T(1)
    return random_planted(rng, rng.randint(1, 2), max_dec=2, max_edge_dec=2)


def suite_hopf(cfg=None, seed=2) -> list:
    rng = random.Random(seed)
    out = []

    def gl_assoc():
        for _ in range(120):
            x, y, z = (random_forest(rng, rng.randint(0, 3), ("a", "b"))
                       for _ in range(3))
            lhs = postlie.gl_product(postlie.gl_product(x, y), LinComb.term(z))
            rhs = postlie.gl_product(LinComb.term(x), postlie.gl_product(y, z))
            assert lhs == rhs
        return "120 triples"

    _check(out, "hopf.gl_associativity", gl_assoc)

    def coassoc():
        for w in forests_up_to(4, ("a",)):
            defect = postlie.coassociativity_defect(
                lambda x: postlie.mkw_coproduct(aslc(x)), w)
            assert defect.is_zero(), f"coassociativity fails on {w}"
        return "all 1-letter forests <= 4 vertices"

    _check(out, "hopf.mkw_coassociativity", coassoc)

    def multiplicativity():
        for _ in range(60):
            x = random_forest(rng, rng.randint(0, 2), ("a", "b"))
            y = random_forest(rng, rng.randint(0, 2), ("a", "b"))
            assert postlie.mkw_multiplicative_defect(x, y).is_zero()
        return "60 pairs"

    _check(out, "hopf.mkw_shuffle_morphism", multiplicativity)

    def duality():
        forests = forests_up_to(4, ("a", "b"))
        coproducts = {w: postlie.mkw_coproduct(LinComb.term(w)) for w in forests}
        checked = 0
        by_size = {}
        for w in forests:
            by_size.setdefault(vertex_count(w), []).append(w)
        for z in forests:
            n = vertex_count(z)
            dz = coproducts[z]
            for k in range(n + 1):
                for x in by_size.get(k, ()):
                    for y in by_size.get(n - k, ()):
                        lhs = postlie.gl_product(x, y).coefficient(z)
                        rhs = dz.coefficient((x, y))
                        assert lhs == rhs, \
                            f"duality fails at {x},{y},{z}: {lhs} vs {rhs}"
                        checked += 1
        return f"{checked} exhaustive triples"

    _check(out, "hopf.gl_mkw_duality", duality)

    def antipode_check():
        for w in forests_up_to(4, ("a", "b"))[:200]:
            conv = LinComb()
            for (p, t), c in postlie.mkw_coproduct(LinComb.term(w)).items():
                conv.iadd_scaled(postlie.shuffle(postlie.antipode(
                    LinComb.term(p)), LinComb.term(t)), c)
            want = LinComb.term(()) if not w else LinComb()
            assert conv == want, f"antipode fails on {w}"
        return "convolution inverse on 200 forests"

    _check(out, "hopf.antipode", antipode_check)

    def embedding_morphism():
        for n in range(1, 5):
            for x in nonplanar_trees(n, ("a", "b"))[:20]:
                lhs = postlie.mkw_coproduct(postlie.omega_embed(LinComb.term((x,))))
                rhs = LinComb()
                for (p, t), c in postlie.ck_coproduct(LinComb.term((x,))).items():
                    rhs.iadd_scaled(tensor2(postlie.omega_embed(LinComb.term(p)),
                                            postlie.omega_embed(LinComb.term(t))), c)
                assert lhs == rhs, f"morphism fails on {x.key()}"
        return "trees <= 4 vertices, 2 letters"

    _check(out, "hopf.embedding_is_morphism", embedding_morphism)
    return out


def suite_coactions(cfg=None, seed=3) -> list:
    out = []
    rng = random.Random(seed)

    def partition_validator():
        for _ in range(40):
            w = random_forest(rng, rng.randint(1, 4), ("a", "b"))
            for part in coactions.admissible_partitions(w, spanning=False):
                for b in part.blocks:
                    assert coactions.validate_block(w, b)
        return "40 random forests"

    _check(out, "coactions.partition_validator", partition_validator)

    def spanning_restriction():
        for w in forests_up_to(3, ("a", "b")):
            full = coactions.rho_T(w, ("x", "y"))
            spanning = coactions.rho_S(w, ("x", "y"))
            n = vertex_count(w)
            restricted = LinComb()
            for (mono, f), c in full.items():
                if sum(vertex_count(ff) for ff, _ in mono) == n:
                    restricted.add_term((mono, f), c)
            assert restricted == spanning, f"restriction fails on {w}"
        return "forests <= 3 vertices"

    _check(out, "coactions.spanning_restriction", spanning_restriction)

    def primitivity():
        for _ in range(40):
            w = random_forest(rng, rng.randint(1, 4), ("a", "b"))
            assert postlie.is_primitive(coactions.lie_project(
                LinComb.term(w), "eulerian")), f"eulerian projection on {w}"
            assert postlie.is_primitive(coactions.lie_project(
                LinComb.term(w), "leftbracket")), f"bracket projection on {w}"
        return "both normalizations primitive"

    _check(out, "coactions.projection_primitivity", primitivity)

    def counit():
        for w in forests_up_to(3, ("a",)):
            assert coactions.counit_check(w, ("a",))
        return "forests <= 3 vertices"

    _check(out, "coactions.counit", counit)

    def nonplanar():
        got = coactions.rho_np(nt("a", nt("b")), ("0",), spanning=False)
        assert len(got) == 5
        # spanning families of disjoint connected subtrees of a[b,c[d]]:
        # abcd | abc.d | acd.b | ab.cd | ab.c.d | ac.b.d | cd.a.b | a.b.c.d
        w = nt("a", nt("b"), nt("c", nt("d")))
        spanning = coactions.rho_np((w,), ("0",), spanning=True)
        assert len(spanning) == 8, len(spanning)
        return "oracle counts frozen: 5 and 8"

    _check(out, "coactions.nonplanar", nonplanar)
    return out


def suite_cointeraction(cfg=None, seed=4) -> list:
    out = []

    def planar_sweep():
        passing = []
        for norm in ("eulerian", "leftbracket"):
            ok = all(coactions.cointeraction_check(w, norm)
                     for w in forests_up_to(5, ("0",)))
            if ok:
                passing.append(norm)
        assert passing, "no normalization satisfies the compatibility"
        return f"exhaustive <= 5 vertices; passing: {','.join(passing)}"

    _check(out, "cointeraction.time_cotranslation", planar_sweep)

    ncfg = cfg or NEGATIVE_CFG

    def typed_example():
        ex_tree = _T(1, (_K(1, 0), _T(1)),
                     (_K(2, 0), _T(1, (_K(3, 0), _T(0)), (_X(2, 0), _T(0)))),
                     (_X(1, 0), _T(0)))
        assert negative.cointeraction_check_trunc(ex_tree, ncfg, _mi(2))
        assert negative.cointeraction_check_ex(ex_tree, ncfg)
        return "two-noise instance, cap 2"

    _check(out, "cointeraction.worked_instance", typed_example)

    def typed_small():
        pool = typed_trees_up_to(2, max_dec=1, max_edge_dec=1)
        for z in pool:
            assert negative.cointeraction_check_trunc(z, ncfg, _mi(2)), z.key()
            assert negative.cointeraction_check_ex(z, ncfg), z.key()
        return f"{len(pool)} trees <= 2 edges"

    _check(out, "cointeraction.typed_small", typed_small)

    def typed_sample():
        from .enumeration import typed_trees
        rng = random.Random(seed + 77)
        sample = rng.sample(list(typed_trees(3, 1, 1, 1, 1, 1)), 25) \
            + rng.sample(list(typed_trees(4, 1, 1, 1, 1, 1)), 25)
        for z in sample:
            assert negative.cointeraction_check_ex(z, ncfg), z.key()
        return "seeded 3- and 4-edge sample, extended identity"

    _check(out, "cointeraction.typed_sample", typed_sample)

    def chu_vandermonde():
        count = 0
        for total in range(7):
            for m in range(total + 1):
                for k in (1, 2):
                    for parts in itertools.product(range(total + 1), repeat=k):
                        if sum(parts) > 6:
                            continue
                        assert negative.chu_vandermonde(
                            _mi(total), _mi(m), [_mi(p) for p in parts])
                        count += 1
        return f"{count} profiles"

    _check(out, "cointeraction.chu_vandermonde", chu_vandermonde)
    return out


def suite_rough(cfg=None, seed=5) -> list:
    out = []
    cfg = cfg or DEFAULT_CFG

    def iso():
        rng = random.Random(seed)
        for _ in range(60):
            w = random_forest(rng, rng.randint(1, 4), ("0", "1", "2"))
            assert rough.phi_inv(rough.phi(LinComb.term(w))) == LinComb.term(w)
        return "60 round trips"

    _check(out, "rough.iso_roundtrip", iso)

    def tree_product():
        leaf = PlanarTree()
        b1 = PlanarTree(None, ((0, leaf), (0, leaf)))
        b2 = PlanarTree(None, ((0, leaf),))
        got = rough.tree_product_pb(b1, b2)
        assert sum(got.values()) == 3, "2x1 branch shuffle count"
        assert rough.tree_product_pb(b1, leaf) == LinComb.term(b1)
        return "unit and shuffle counts"

    _check(out, "rough.tree_product", tree_product)

    def degree_additivity():
        rng = random.Random(seed + 1)
        trees = [t for t in pb_trees_up_to(3, 2)]
        for _ in range(40):
            t1, t2 = rng.choice(trees), rng.choice(trees)
            prod = rough.tree_product_pb(t1, t2)
            want = regularity(t1, cfg) + regularity(t2, cfg)
            for t, _ in prod.items():
                assert regularity(t, cfg) == want
        return "40 products"

    _check(out, "rough.degree_additivity", degree_additivity)

    def dual_routes():
        for t in pb_trees_up_to(3, 1):
            if not rough.in_phi_image(t):
                continue
            if all(e == 0 for e, _ in t.children):
                assert rough.delta_plus_pb(t) == rough.delta_plus_pb_via_mkw(t)
            assert rough.delta_minus_pb(t, cfg) == \
                rough.delta_minus_pb_via_rho(t, cfg), t.key()
        return "image trees <= 3 edges"

    _check(out, "rough.coproduct_dual_routes", dual_routes)
    return out


def _provider(cfg):
    gen = LinComb(((((lt("0"),)), Fraction(1)), (((lt("1"),)), Fraction(1, 2))))
    return rough.RoughPathProvider(gen, cfg.truncation)


def suite_model(cfg=None, seed=6) -> list:
    out = []
    cfg = cfg or DEFAULT_CFG
    prov = _provider(cfg)

    def chen():
        rng = random.Random(seed)
        from .postlie import mkw_coproduct
        for _ in range(6):
            s, u, t = (Fraction(rng.randint(-8, 8), rng.randint(1, 6))
                       for _ in range(3))
            for w in forests_up_to(min(4, cfg.truncation), ("0", "1")):
                conv = Fraction(0)
                for (w1, w2), c in mkw_coproduct(LinComb.term(w)).items():
                    conv += c * prov.pairing(s, u, w1) * prov.pairing(u, t, w2)
                assert conv == prov.pairing(s, t, w), f"Chen fails on {w}"
        return "6 random rational triples"

    _check(out, "model.chen_identity", chen)

    def characters():
        rng = random.Random(seed + 1)
        s, t = Fraction(1, 3), Fraction(-3, 5)
        for _ in range(40):
            x = random_forest(rng, rng.randint(0, 2), ("0", "1"))
            y = random_forest(rng, rng.randint(0, 2), ("0", "1"))
            sh = postlie.shuffle(x, y)
            assert prov.pairing_lc(s, t, sh) == \
                prov.pairing(s, t, x) * prov.pairing(s, t, y)
        return "40 shuffle pairs"

    _check(out, "model.character_property", characters)

    def integration():
        bad = rough.edges_are_integration_report(
            prov, forests_up_to(cfg.truncation - 1, ("0", "1")))
        assert not bad, f"{len(bad)} offending forests"
        return "symbolic identity on all table forests"

    _check(out, "model.edges_are_integration", integration)

    def axioms():
        model = rough.Model(prov, cfg)
        trees = [t for t in pb_trees_up_to(cfg.truncation - 1, 1)
                 if rough.in_phi_image(t)]
        x, y, z = Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7)
        tt = Fraction(9, 5)
        assert model.pi(x, tt, PlanarTree()) == 1
        for tr in trees:
            assert model.gamma(x, x, tr) == LinComb.term(tr)
            comp = model.gamma(y, z, tr).map_basis(
                lambda q: model.gamma(x, y, q))
            assert comp == model.gamma(x, z, tr), f"composition on {tr.key()}"
            assert model.pi(x, tt, model.gamma(x, y, tr)) == \
                model.pi(y, tt, tr), f"transport on {tr.key()}"
        return f"{len(trees)} trees"

    _check(out, "model.axioms", axioms)

    def renormalised():
        neg = PlanarTree(None, ((1, PlanarTree()),))
        model = rough.Model(prov, cfg, ell={neg: Fraction(3, 7)})
        trees = [t for t in pb_trees_up_to(cfg.truncation - 1, 1)
                 if rough.in_phi_image(t)]
        x, y, z = Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7)
        tt = Fraction(9, 5)
        assert model.pi(x, tt, PlanarTree()) == 1
        for tr in trees:
            assert model.gamma(x, x, tr) == LinComb.term(tr)
            comp = model.gamma(y, z, tr).map_basis(
                lambda q: model.gamma(x, y, q))
            assert comp == model.gamma(x, z, tr)
            assert model.pi(x, tt, model.gamma(x, y, tr)) == \
                model.pi(y, tt, tr)
        return f"{len(trees)} trees, single-tree character"

    _check(out, "model.renormalised_axioms", renormalised)
    return out


def suite_deformed(cfg=None, seed=7) -> list:
    out = []
    ncfg = cfg or NEGATIVE_CFG
    rng = random.Random(seed)

    def almost_derivation():
        U = _mi(1)
        for _ in range(120):
            y = random_planted(rng, rng.randint(1, 3), max_dec=2, max_edge_dec=2)
            z = random_planted(rng, rng.randint(1, 3), max_dec=2, max_edge_dec=2)
            lhs = deformed.up_lc(deformed.dgraft_v(y, z), U, include_root=False)
            rhs = deformed.dgraft_v(deformed.up_all(y, U, False), LinComb.term(z)) \
                + deformed.dgraft_v(y, deformed.up_all(z, U, False)) \
                - deformed.dgraft_v(deformed.down_root(y, U), LinComb.term(z))
            assert lhs == rhs
        return "120 planted pairs"

    _check(out, "deformed.almost_derivation", almost_derivation)

    def commutation():
        for _ in range(120):
            a = random_typed_tree(rng, rng.randint(0, 3), root_noise=False)
            b = _T(rng.randint(0, 3))
            assert deformed.tplus_concat(a, b) == \
                deformed.concat_by_commutation(a, b)
        return "120 normal-form products"

    _check(out, "deformed.polynomial_commutation", commutation)

    def duality():
        cap = _mi(2)
        zs = typed_trees_up_to(2, max_dec=1, max_edge_dec=1)
        nterm = 0
        for z in zs:
            dp = deformed.delta_plus_0(z, cap)
            cache = {}
            for (x, y), c in dp.items():
                if (x, y) not in cache:
                    cache[(x, y)] = deformed.star_plus(x, y)
                assert cache[(x, y)].coefficient(z) == c, \
                    f"{x.key()} * {y.key()} at {z.key()}"
                nterm += 1
        return f"{nterm} coproduct terms vs products"

    _check(out, "deformed.duality_forward", duality)

    def duality_reverse():
        pool = typed_trees_up_to(1, max_dec=1, max_edge_dec=1)
        xs = [t for t in pool if not any(e.is_noise for e, _ in t.children)]
        cache = {}
        npairs = 0
        for x in xs:
            for y in pool:
                for z, c in deformed.star_plus(x, y).items():
                    if z not in cache:
                        cache[z] = deformed.delta_plus_0(z, _mi(3))
                    assert cache[z].coefficient((x, y)) == c
                npairs += 1
        return f"{npairs} products vs coproducts"

    _check(out, "deformed.duality_reverse", duality_reverse)

    def grading_drop():
        g = deformed.TreeCharacter({
            _T(1): Fraction(2, 3),
            deformed.planted(_K(1, 0), _T(0)): Fraction(1, 5),
            deformed.planted(_K(1, 1), _T(0)): Fraction(-3)})
        for _ in range(60):
            w = random_typed_tree(rng, rng.randint(0, 3), max_dec=1, max_edge_dec=1)
            res = deformed.gamma_g(g, w, ncfg) - LinComb.term(w)
            rw = regularity(w, ncfg)
            for t2 in res:
                assert regularity(t2, ncfg) < rw
        return "60 random trees"

    _check(out, "deformed.grading_drop", grading_drop)

    def degeneration():
        pcfg = RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100"},
                                betas={}, truncation=8)
        dcfg = deformed.degenerate_cfg(pcfg)
        cap = _mi(2)
        pbs = []
        for t in pb_trees_up_to(3, 2):
            try:
                deformed.pb_to_typed(t)
                pbs.append(t)
            except Exception:
                pass
        for pb in pbs:
            z = deformed.pb_to_typed(pb)
            restricted = LinComb()
            for (x, y), c in deformed.delta_plus_0(z, cap).items():
                if deformed.in_degenerate_subspace(x) and \
                        deformed.in_degenerate_subspace(y):
                    restricted.add_term(Tensor((deformed.typed_to_pb(x),
                                                deformed.typed_to_pb(y))), c)
            assert restricted == rough.delta_plus_pb(pb), pb.key()
            restricted = LinComb()
            for (mono, y), c in negative.delta_minus(z, dcfg).items():
                if all(deformed.in_degenerate_subspace(m) for m in mono) and \
                        deformed.in_degenerate_subspace(y):
                    restricted.add_term(
                        Tensor((Multiset(deformed.typed_to_pb(m) for m in mono),
                                deformed.typed_to_pb(y))), c)
            assert restricted == rough.delta_minus_pb(pb, pcfg), pb.key()
        return f"{len(pbs)} common-subspace trees, byte-identical"

    _check(out, "deformed.degeneration", degeneration)
    return out


def suite_negative(cfg=None, seed=8) -> list:
    out = []
    ncfg = cfg or NEGATIVE_CFG
    rng = random.Random(seed)

    def rand_neg(max_edges=2):
        for _ in range(500):
            t = random_typed_tree(rng, rng.randint(1, max_edges),
                                  max_dec=1, max_edge_dec=1)
            if regularity(t, ncfg) < 0:
                return t
        raise AssertionError("could not sample a negative tree")

    def pre_lie():
        for _ in range(30):
            a, b, c = rand_neg(), rand_neg(), rand_neg()
            for op in (negative.insert, negative.dinsert):
                la = op(a, op(b, c)) - op(op(a, b), LinComb.term(c))
                lb = op(b, op(a, c)) - op(op(b, a), LinComb.term(c))
                assert la == lb, "pre-Lie symmetry"
        return "30 triples, both insertions"

    _check(out, "negative.pre_lie", pre_lie)

    def insertion_routes():
        for _ in range(60):
            t1 = random_typed_tree(rng, rng.randint(0, 2), max_dec=1, max_edge_dec=1)
            t2 = random_typed_tree(rng, rng.randint(0, 2), max_dec=1, max_edge_dec=1)
            for p in negative.insertable_vertices(t2):
                assert negative.dinsert_v(t1, p, t2) == \
                    negative.dinsert_v_via_product(t1, p, t2)
        return "60 instances, direct vs product route"

    _check(out, "negative.insertion_as_product", insertion_routes)

    def star_minus_props():
        one = Multiset()
        m = Multiset([rand_neg(), rand_neg()])
        assert negative.star_minus(one, m) == LinComb.term(m)
        for _ in range(10):
            m1 = Multiset([rand_neg(1)])
            m2 = Multiset([rand_neg(1)])
            m3 = Multiset([rand_neg(1)])
            lhs = negative.star_minus(negative.star_minus(m1, m2), LinComb.term(m3))
            rhs = negative.star_minus(LinComb.term(m1), negative.star_minus(m2, m3))
            assert lhs == rhs, "associativity"
        return "unit and 10 associativity triples"

    _check(out, "negative.star_minus", star_minus_props)

    def multi_insert_routes():
        from .negative import _go_insert
        for _ in range(20):
            mono = Multiset([rand_neg(1) for _ in range(rng.randint(1, 2))])
            tgt = random_typed_tree(rng, rng.randint(0, 2), max_dec=1, max_edge_dec=1)
            assert negative.dinsert_multi(mono, tgt) == _go_insert(mono, tgt)
        return "20 monomials, pairing vs recursion"

    _check(out, "negative.multi_insertion", multi_insert_routes)

    def extended_preservation():
        for _ in range(40):
            t = random_typed_tree(rng, rng.randint(1, 3), max_dec=1, max_edge_dec=1)
            tex = negative.to_ex(t)
            ref = regularity(t, ncfg)
            assert regularity(tex, ncfg) == ref
            for (mono, right), _ in negative.delta_minus(tex, ncfg).items():
                assert regularity(right, ncfg) == ref, \
                    "extended grading not preserved"
        return "40 trees"

    _check(out, "negative.extended_grading", extended_preservation)
    return out


SUITES = {
    "golden": suite_golden,
    "postlie": suite_postlie,
    "hopf": suite_hopf,
    "coactions": suite_coactions,
    "rough": suite_rough,
    "model": suite_model,
    "deformed": suite_deformed,
    "negative": suite_negative,
    "cointeraction": suite_cointeraction,
}


def run_suite(name: str, cfg=None, seed: int = 0) -> list:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return sorted(SUITES[name](cfg, seed), key=lambda r: r.name)


def run_all(cfg=None, seed: int = 0) -> list:
    """Run every suite in one thread, the report sorted by check name."""
    out = [r for n in sorted(SUITES) for r in run_suite(n, cfg, seed)]
    return sorted(out, key=lambda r: r.name)
