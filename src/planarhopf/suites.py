"""Named collections of golden and property checks: the one body of each
identity, shared by the CLI, the acceptance criteria and the unit tests.

Each check is a function whose parameters are its domain (the items, and a
config where it reads a grading).  It returns its detail string and raises
AssertionError with replayable text at the first counterexample.
``SUITES`` registers each check once, with a builder that makes its domain
from the config alone: every instance up to a summed size (``_tuples``), and
where an item size lies beyond every affordable sweep, a fixed odd stride of
the enumerator (an even one can alias with the fastest-varying decoration).
``hopf_antipode`` reports as the check ``hopf.antipode``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from . import coactions, deformed, negative, postlie, rough
from .enumeration import (_forests, _label_trees, _pb_trees, _typed_trees,
                          forests_up_to, nonplanar_trees, pb_trees_up_to)
from .grammar import serialize_basis
from .linalg import LinComb, Multiset, Tensor, aslc, tensor2
from .trees import (EdgeType, InvalidTree, MultiIndex, PlanarTree,
                    RegularityConfig, TreeError, lt, nt, regularity,
                    vertex_count)


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


def _check(results, fn, *args, name=None):
    """Run one check; a counterexample or a library error is a FAIL line."""
    t0 = time.perf_counter()
    try:
        ok, detail = True, fn(*args)
    except AssertionError as exc:
        ok, detail = False, str(exc)
    except TreeError as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(name or fn.__name__.replace("_", ".", 1), ok,
                               detail or "", time.perf_counter() - t0))


def _mi(n):
    return MultiIndex((n,))


def _K(which, n):
    return EdgeType("K", which, _mi(n))


def _T(dec, *kids):
    return PlanarTree(_mi(dec), tuple(kids))


def _F(*trees):
    return LinComb.term(trees)


def _text(*items):
    """Trees, forests and monomials in the text grammar, for replay."""
    return ", ".join(serialize_basis(b) for b in items)


LEAF = PlanarTree()

_AB = ("a", "b")

DEFAULT_CFG = RegularityConfig(
    d=1, alphas={1: "49/100", 2: "49/100", 3: "49/100"},
    betas={1: "3/2"}, truncation=5)

NEGATIVE_CFG = RegularityConfig(
    d=1, alphas={1: "-5/8", 2: "-5/8"}, betas={1: "1/2", 2: "1/2", 3: "1/2"},
    truncation=8)


# ---------------------------------------------------------------------------
# golden examples


def golden_left_grafting():
    got = postlie.graft_tree(lt("a", lt("b")), lt("c", lt("d"), lt("e")))
    ab = lt("a", lt("b"))
    want = LinComb((t, 1) for t in (lt("c", ab, lt("d"), lt("e")),
                                    lt("c", lt("d", ab), lt("e")),
                                    lt("c", lt("d"), lt("e", ab))))
    assert got == want, "left grafting of a[b] onto c[d,e]"
    return "3 terms"


def golden_root_adding_bijection():
    o = lt(None)
    forest = (lt(None, o), o, lt(None, lt(None, o), o))
    tree = postlie.b_plus(forest)
    assert tree == lt(None, lt(None, o), o, lt(None, lt(None, o), o))
    assert postlie.b_minus(tree) == forest
    back = postlie.b_minus(lt(None, o, lt(None, o, o)))
    assert back == (o, lt(None, o, o))
    return "round trip"


def golden_mkw_coproduct():
    w = (lt("a"), lt("b", lt("c"), lt("d")))
    got = postlie.mkw_coproduct(LinComb.term(w))
    a, b, c, dd = lt("a"), lt("b"), lt("c"), lt("d")
    bd = lt("b", dd)
    want = LinComb((Tensor(pair), 1) for pair in (
        ((), w), (w, ()), ((a,), (lt("b", c, dd),)), ((c,), (a, bd)),
        ((a, c), (bd,)), ((c, a), (bd,)), ((c, dd), (a, b)),
        ((a, c, dd), (b,)), ((c, a, dd), (b,)), ((c, dd, a), (b,))))
    assert got == want, "7-family coproduct of {a b[c,d]}"
    return "7 families / 10 basis terms"


def golden_embedding_sum():
    x = (nt("a", nt("b", nt("c")), nt("d")), nt("e", nt("f")))
    got = postlie.omega_embed(x)
    ef = lt("e", lt("f"))
    t1 = lt("a", lt("b", lt("c")), lt("d"))
    t2 = lt("a", lt("d"), lt("b", lt("c")))
    want = LinComb(((w, 1) for w in
                    ((t1, ef), (t2, ef), (ef, t1), (ef, t2))))
    assert got == want, "4-term planar-embedding sum"
    return "4 terms"


def golden_spanning_partitions():
    w = (lt("a", lt("b"), lt("c", lt("d"))),)
    parts = coactions.admissible_partitions(w, spanning=True)
    assert len(parts) == 8, f"expected 8 spanning partitions, got {len(parts)}"
    for p in parts:
        for b in p.blocks:
            assert coactions.validate_block(w, b), "validator rejected a block"
    return "8 partitions"


def golden_cosubstitution_skeleton():
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


def golden_recentering_display():
    w = (lt("1", lt("0")), lt("0", lt("3"), lt("4")))
    T3 = rough.b_plus_pb(tuple(rough.phi_tree(t) for t in w))
    got = rough.delta_plus_pb(T3)
    assert len(got) == 16 and all(c == 1 for c in got.values())
    assert got == rough.delta_plus_pb_via_mkw(T3), "cut route differs from the transported route"
    return "16 basis terms, both routes equal"


def golden_renormalisation_display(cfg):
    c1 = PlanarTree(None, ((0, LEAF), (2, LEAF)))
    c2 = PlanarTree(None, ((3, LEAF),))
    T3 = PlanarTree(None, ((0, c1), (0, c2), (1, LEAF)))
    got = rough.delta_minus_pb(T3, cfg)
    assert len(got) == 10
    n1, n2, n3 = (PlanarTree(None, ((i, LEAF),)) for i in (1, 2, 3))
    n4 = PlanarTree(None, ((0, c2), (1, LEAF)))
    bare = PlanarTree(None, ((0, LEAF),))
    displayed = [
        (Multiset([n1]), PlanarTree(None, ((0, c1), (0, c2)))),
        (Multiset([n2]), PlanarTree(None, ((0, bare), (0, c2), (1, LEAF)))),
        (Multiset([n3]), PlanarTree(None, ((0, c1), (0, LEAF), (1, LEAF)))),
        (Multiset([n4]), PlanarTree(None, ((0, c1),))),
        (Multiset([n1, n2]), PlanarTree(None, ((0, bare), (0, c2)))),
        (Multiset([n1, n3]), PlanarTree(None, ((0, c1), (0, LEAF)))),
        (Multiset([n2, n3]), PlanarTree(None, ((0, bare), (0, LEAF),
                                               (1, LEAF)))),
        (Multiset([n4, n2]), PlanarTree(None, ((0, bare),))),
    ]
    for term in displayed:
        assert got.coefficient(term) == 1, term
    other = RegularityConfig(d=1, alphas={1: "499/1000", 2: "499/1000",
                                          3: "499/1000"}, betas={}, truncation=8)
    assert set(got) == set(rough.delta_minus_pb(T3, other)), \
        "negative-tree family changed inside the interval"
    assert got == rough.delta_minus_pb_via_rho(T3, cfg), "dual route differs"
    return "8 displayed + unit + forced triple family"


def golden_decoration_raising():
    chain = _T(0, (_K(1, 0), _T(0)))
    got = deformed.up_all(chain, _mi(2))
    want = LinComb(((_T(2, (_K(1, 0), _T(0))), 1), (_T(1, (_K(1, 0), _T(1))), 2),
                    (_T(0, (_K(1, 0), _T(2))), 1)))
    assert got == want
    return "binomial split"


# ---------------------------------------------------------------------------
# property checks, one per identity


def _tuples(families, totals):
    """The tuples of one item from each per-size enumeration of ``families``
    (a tree's size is its edge count, a forest's its vertex count) whose
    summed size lies in ``totals``: by summed size, then sizes, then items."""
    sizes = sorted((sum(c), c) for c in itertools.product(*(range(len(f)) for f in families))
                   if sum(c) in totals)
    return [t for _, c in sizes for t in itertools.product(*(f[n] for f, n in zip(families, c)))]


def _sweep(families, total, stride):
    """Every tuple of summed size <= total, every stride-th (odd) of total + 1."""
    return _tuples(families, range(total + 1)) + _tuples(families, [total + 1])[::stride]


def _nonempty(items, family, cfg):
    """An empty domain fails, never passes vacuously, naming family and config."""
    if not items:
        raise AssertionError(f"no {family} under {cfg.to_json()}")
    return items


def _typed_by_size(n_edges, max_dec=1):
    """The d = 1 typed trees with one kernel and one noise by edge count,
    vertex decorations and edge indices <= max_dec."""
    return _typed_trees(n_edges, 1, max_dec, 1, 1, max_dec)


def _no_root_noise(t):
    return not any(e.is_noise for e, _ in t.children)


def postlie_associator(triples):
    g = postlie.go_graft
    for t1, t2, t3 in triples:
        lhs = g(_F(t1), g(_F(t2), _F(t3))) - g(g(_F(t1), _F(t2)), _F(t3)) \
            - g(_F(t2), g(_F(t1), _F(t3))) + g(g(_F(t2), _F(t1)), _F(t3))
        bracket = LinComb((((t1, t2), 1), ((t2, t1), -1)))
        assert lhs == g(bracket, _F(t3)), \
            f"associator failed on {_text(t1, t2, t3)}"
    return f"{len(triples)} associator instances"


def postlie_bracket_derivation(triples):
    for t1, t2, t3 in triples:
        lhs = postlie.go_graft(_F(t1), LinComb((((t2, t3), 1), ((t3, t2), -1))))
        rhs = LinComb()
        for w, c in postlie.go_graft(_F(t1), _F(t2)).items():
            rhs.add_term(w + (t3,), c)
            rhs.add_term((t3,) + w, -c)
        for w, c in postlie.go_graft(_F(t1), _F(t3)).items():
            rhs.add_term((t2,) + w, c)
            rhs.add_term(w + (t2,), -c)
        assert lhs == rhs, \
            f"bracket derivation failed on {_text(t1, t2, t3)}"
    return f"{len(triples)} derivation instances"


def _planted_by_size(n_edges):
    """The planted trees by edge count: a kernel-1 edge of index <= 2 over a
    typed tree of ``_typed_by_size(n_edges - 1, 2)``."""
    return [()] + [[deformed.planted(_K(1, e), sub) for e in range(3) for sub in subs]
                   for subs in _typed_by_size(n_edges - 1, 2)]


def _lie_generators(n_edges):
    """The deformed Lie generators by edge count: X^1, then planted trees."""
    return [[_T(1)]] + _planted_by_size(n_edges)[1:]


def postlie_deformed_axioms(triples):
    dg = deformed.dgraft_v
    for x, y, z in triples:
        ax = dg(x, dg(y, z)) - dg(dg(x, y), LinComb.term(z))
        ay = dg(y, dg(x, z)) - dg(dg(y, x), LinComb.term(z))
        keys = _text(x, y, z)
        assert ax - ay == dg(deformed.bracket0(x, y), LinComb.term(z)), \
            f"deformed associator failed on {keys}"
        lhs = dg(z, deformed.bracket0(x, y))
        rhs = deformed.bracket0(dg(z, x), LinComb.term(y)) \
            + deformed.bracket0(LinComb.term(x), dg(z, y))
        assert lhs == rhs, f"deformed bracket derivation failed on {keys}"
    return f"{len(triples)} deformed instances"


def hopf_gl_associativity(triples):
    for x, y, z in triples:
        lhs = postlie.gl_product(postlie.gl_product(x, y), LinComb.term(z))
        rhs = postlie.gl_product(LinComb.term(x), postlie.gl_product(y, z))
        assert lhs == rhs, f"GL associativity fails on {_text(x, y, z)}"
    return f"{len(triples)} triples"


def hopf_mkw_coassociativity(n, letters):
    for w in forests_up_to(n, letters):
        defect = postlie.coassociativity_defect(
            lambda x: postlie.mkw_coproduct(aslc(x)), w)
        assert defect.is_zero(), f"coassociativity fails on {_text(w)}"
    return f"all {len(letters)}-letter forests <= {n} vertices"


def hopf_mkw_shuffle_morphism(pairs):
    """Delta(x shuffle y) = Delta(x) (shuffle (x) shuffle) Delta(y)."""
    mkw, shuffle = postlie.mkw_coproduct, postlie.shuffle
    for x, y in pairs:
        rhs = LinComb()
        for (p1, t1), c1 in mkw(x).items():
            for (p2, t2), c2 in mkw(y).items():
                rhs.iadd_scaled(tensor2(shuffle(p1, p2), shuffle(t1, t2)), c1 * c2)
        assert mkw(shuffle(x, y)) == rhs, f"MKW is not multiplicative on {_text(x, y)}"
    return f"{len(pairs)} pairs"


def hopf_gl_mkw_duality(n, letters):
    """<x * y, z> = <x (x) y, Delta z> on every triple of forests <= n."""
    by_size, checked = _forests(n, letters), 0
    for m, zs in enumerate(by_size):
        coproducts = [(z, postlie.mkw_coproduct(LinComb.term(z))) for z in zs]
        for k in range(m + 1):
            for x, y in itertools.product(by_size[k], by_size[m - k]):
                prod = postlie.gl_product(x, y)
                for z, dz in coproducts:
                    lhs, rhs = prod.coefficient(z), dz.coefficient((x, y))
                    assert lhs == rhs, \
                        f"duality fails at {_text(x, y, z)}: {lhs} vs {rhs}"
                checked += len(zs)
    return f"{checked} exhaustive triples"


def hopf_antipode(forests):
    for w in forests:
        conv = LinComb()
        for (p, t), c in postlie.mkw_coproduct(LinComb.term(w)).items():
            conv.iadd_scaled(postlie.shuffle(postlie.antipode(
                LinComb.term(p)), LinComb.term(t)), c)
        assert conv == (LinComb() if w else LinComb.term(())), \
            f"antipode fails on {_text(w)}"
    return f"convolution inverse on {len(forests)} forests"


def hopf_embedding_is_morphism(n, letters):
    """The planar-embedding sum intertwines the BCK and MKW coproducts."""
    for k in range(1, n + 1):
        for x in nonplanar_trees(k, letters):
            lhs = postlie.mkw_coproduct(postlie.omega_embed(LinComb.term((x,))))
            rhs = LinComb()
            for (p, t), c in postlie.ck_coproduct(LinComb.term((x,))).items():
                rhs.iadd_scaled(tensor2(postlie.omega_embed(LinComb.term(p)),
                                        postlie.omega_embed(LinComb.term(t))), c)
            assert lhs == rhs, f"morphism fails on {x.key()}"
    return f"trees <= {n} vertices, {len(letters)} letters"


def coactions_partition_validator(n, letters):
    blocks = 0
    for w in forests_up_to(n, letters):
        for part in coactions.admissible_partitions(w, spanning=False):
            for b in part.blocks:
                assert coactions.validate_block(w, b), \
                    f"validator rejects block {sorted(b)} of {_text(w)}"
            blocks += len(part.blocks)
    return f"{blocks} blocks of all {len(letters)}-letter forests <= {n} vertices"


def coactions_spanning_restriction(n, letters):
    for w in forests_up_to(n, letters):
        m = vertex_count(w)
        restricted = LinComb()
        for (mono, f), c in coactions.rho_T(w, ("x", "y")).items():
            if sum(vertex_count(ff) for ff, _ in mono) == m:
                restricted.add_term((mono, f), c)
        assert restricted == coactions.rho_S(w, ("x", "y")), \
            f"restriction fails on {_text(w)}"
    return f"forests <= {n} vertices"


def coactions_projection_primitivity(n, letters):
    for w in forests_up_to(n, letters):
        for norm in ("eulerian", "leftbracket"):
            assert postlie.is_primitive(coactions.lie_project(
                LinComb.term(w), norm)), f"{norm} projection on {_text(w)}"
    return f"both normalizations primitive on all {len(letters)}-letter forests <= {n} vertices"


def coactions_counit(n, letters):
    """(eps (x) id) rho_T = id, where eps keeps only the empty partition."""
    for w in forests_up_to(n, letters):
        kept = LinComb()
        for (m, f), c in coactions.rho_T(w, letters).items():
            if not m:
                kept.add_term(f, c)
        assert kept == LinComb.term(w), f"counit fails on {_text(w)}"
    return f"all {len(letters)}-letter forests <= {n} vertices"


def coactions_nonplanar():
    got = coactions.rho_np(nt("a", nt("b")), ("0",), spanning=False)
    assert len(got) == 5
    # spanning families of disjoint connected subtrees of a[b,c[d]]:
    # abcd | abc.d | acd.b | ab.cd | ab.c.d | ac.b.d | cd.a.b | a.b.c.d
    w = nt("a", nt("b"), nt("c", nt("d")))
    spanning = coactions.rho_np((w,), ("0",), spanning=True)
    assert len(spanning) == 8, len(spanning)
    return "oracle counts frozen: 5 and 8"


def cointeraction_time_cotranslation(n):
    """Cotranslation/cosubstitution on one-letter forests: Eulerian must hold."""
    forests = forests_up_to(n, ("0",))
    failures = {norm: next((w for w in forests
                            if not coactions.cointeraction_check(w, norm)), None)
                for norm in ("eulerian", "leftbracket")}
    bad = failures["eulerian"]
    assert bad is None, f"cointeract({_text(bad)}) is false"
    passing = [norm for norm, w in failures.items() if w is None]
    return f"exhaustive <= {n} vertices; passing: {','.join(passing)}"


def cointeraction_worked_instance(cfg):
    ex_tree = _T(1, (_K(1, 0), _T(1)),
                 (_K(2, 0), _T(1, (_K(3, 0), _T(0)),
                                (EdgeType("X", 2, _mi(0)), _T(0)))),
                 (EdgeType("X", 1, _mi(0)), _T(0)))
    assert negative.cointeraction_check_trunc(ex_tree, cfg, _mi(2))
    assert negative.cointeraction_check_ex(ex_tree, cfg)
    return "two-noise instance, cap 2"


def cointeraction_typed_small(trees, cfg, cap):
    """Both typed cointeractions, the truncated one with Delta+_0 capped at cap."""
    for z in trees:
        assert negative.cointeraction_check_trunc(z, cfg, cap), z.key()
        assert negative.cointeraction_check_ex(z, cfg), z.key()
    return f"{len(trees)} trees <= {max(map(vertex_count, trees)) - 1} edges"


def cointeraction_typed_sample(trees, cfg):
    """The extended cointeraction on trees no affordable sweep reaches."""
    for z in trees:
        assert negative.cointeraction_check_ex(z, cfg), z.key()
    sizes = sorted({vertex_count(z) - 1 for z in trees})
    return f"{len(trees)} strided {'- and '.join(map(str, sizes))}-edge trees, extended identity"


def cointeraction_chu_vandermonde(max_total, ks, max_sum):
    profiles = [(total, m, parts) for total in range(max_total + 1)
                for m in range(total + 1) for k in ks
                for parts in itertools.product(range(total + 1), repeat=k)
                if sum(parts) <= max_sum]
    for total, m, parts in profiles:
        assert negative.chu_vandermonde(
            _mi(total), _mi(m), [_mi(p) for p in parts]), (total, m, parts)
    return f"{len(profiles)} profiles"


def rough_iso_roundtrip(forests):
    for w in forests:
        assert rough.phi_inv(rough.phi(LinComb.term(w))) == LinComb.term(w), _text(w)
    return f"{len(forests)} round trips"


def rough_tree_product():
    b1 = PlanarTree(None, ((0, LEAF), (0, LEAF)))
    b2 = PlanarTree(None, ((0, LEAF),))
    got = rough.tree_product_pb(b1, b2)
    assert sum(got.values()) == 3, "2x1 branch shuffle count"
    assert rough.tree_product_pb(b1, LEAF) == LinComb.term(b1)
    return "unit and shuffle counts"


def rough_degree_additivity(pairs, cfg):
    for t1, t2 in pairs:
        want = regularity(t1, cfg) + regularity(t2, cfg)
        for t in rough.tree_product_pb(t1, t2):
            assert regularity(t, cfg) == want, _text(t1, t2)
    return f"{len(pairs)} products"


def rough_coproduct_dual_routes(n_edges, cfg):
    for t in pb_trees_up_to(n_edges, 1):
        if not rough.in_phi_image(t):
            continue
        assert rough.delta_plus_pb(t) == rough.delta_plus_pb_via_mkw(t), t.key()
        assert rough.delta_minus_pb(t, cfg) == \
            rough.delta_minus_pb_via_rho(t, cfg), t.key()
    return f"image trees <= {n_edges} edges"


def _provider(cfg):
    gen = LinComb(((((lt("0"),)), Fraction(1)), (((lt("1"),)), Fraction(1, 2))))
    return rough.RoughPathProvider(gen, cfg.truncation)


def model_chen_identity(prov, triples, forests):
    for s, u, t in triples:
        for w in forests:
            conv = Fraction(0)
            for (w1, w2), c in postlie.mkw_coproduct(LinComb.term(w)).items():
                conv += c * prov.pairing(s, u, w1) * prov.pairing(u, t, w2)
            assert conv == prov.pairing(s, t, w), \
                f"Chen fails on {_text(w)} at {s}, {u}, {t}"
    return f"{len(triples)} rational triples"


def model_character_property(prov, pairs, s, t):
    for x, y in pairs:
        assert prov.pairing_lc(s, t, postlie.shuffle(x, y)) == \
            prov.pairing(s, t, x) * prov.pairing(s, t, y), _text(x, y)
    return f"{len(pairs)} shuffle pairs"


def model_edges_are_integration(prov, forests):
    """<X * L, w -> time> integrates <X, w>: as polynomials in u = t - s,
    d/du of the grafted side's coefficients are w's, with no constant term."""
    time_tree = LinComb.term((rough.TIME_TREE,))
    bad = 0
    for w in forests:
        if vertex_count(w) + 1 > prov.truncation:
            continue
        lhs = {}
        for v, c in postlie.go_graft(LinComb.term(w), time_tree).items():
            for k, coeff in prov.coefficients(v).items():
                lhs[k] = lhs.get(k, 0) + c * coeff
        rhs = prov.coefficients(w)
        # d/du sum_k lhs_k u^k = sum_k rhs_k u^k  <=>  (k+1) lhs_{k+1} = rhs_k
        if lhs.get(0, 0) != 0 or any(lhs.get(k + 1, 0) * (k + 1) != rhs.get(k, 0)
                                     for k in range(prov.truncation + 1)):
            bad += 1
    assert not bad, f"{bad} offending forests"
    return "symbolic identity on all table forests"


def model_axioms(prov, cfg, trees, ell):
    """Unit, Gamma_xx = id, composition, transport; ell {} is the plain model."""
    model = rough.Model(prov, cfg, ell=ell)
    x, y, z, tt = Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(9, 5)
    assert model.pi(x, tt, LEAF) == 1
    for tr in trees:
        assert model.gamma(x, x, tr) == LinComb.term(tr), tr.key()
        comp = model.gamma(y, z, tr).map_basis(lambda q: model.gamma(x, y, q))
        assert comp == model.gamma(x, z, tr), f"composition on {tr.key()}"
        assert model.pi(x, tt, model.gamma(x, y, tr)) == \
            model.pi(y, tt, tr), f"transport on {tr.key()}"
    size = "single" if len(ell) == 1 else len(ell)
    return f"{len(trees)} trees" + (f", {size}-tree character" if ell else "")


def deformed_almost_derivation(pairs):
    U = _mi(1)
    for y, z in pairs:
        lhs = deformed.up_lc(deformed.dgraft_v(y, z), U, include_root=False)
        rhs = deformed.dgraft_v(deformed.up_all(y, U, False), LinComb.term(z)) \
            + deformed.dgraft_v(y, deformed.up_all(z, U, False)) \
            - deformed.dgraft_v(deformed.down_root(y, U), LinComb.term(z))
        assert lhs == rhs, f"almost-derivation fails on {_text(y, z)}"
    return f"{len(pairs)} planted pairs"


def deformed_polynomial_commutation(pairs):
    for a, b in pairs:
        assert deformed.tplus_concat(a, b) == \
            deformed.concat_by_commutation(a, b), _text(a, b)
    return f"{len(pairs)} normal-form products"


def deformed_duality_forward(trees, cap):
    """Each term of Delta+_0(z) capped at cap is the coefficient of z in x *+ y."""
    nterm, cache = 0, {}
    for z in trees:
        for (x, y), c in deformed.delta_plus_0(z, cap).items():
            if (x, y) not in cache:
                cache[(x, y)] = deformed.star_plus(x, y)
            assert cache[(x, y)].coefficient(z) == c, \
                f"{x.key()} * {y.key()} at {z.key()}"
            nterm += 1
    return f"{nterm} coproduct terms vs products"


def deformed_duality_reverse(pairs, cap):
    """Each term z of x *+ y carries the coefficient of x (x) y in Delta+_0(z)."""
    cache = {}
    for x, y in pairs:
        for z, c in deformed.star_plus(x, y).items():
            if z not in cache:
                cache[z] = deformed.delta_plus_0(z, cap)
            assert cache[z].coefficient((x, y)) == c, \
                f"{x.key()} * {y.key()} at {z.key()}"
    return f"{len(pairs)} products vs coproducts"


def deformed_grading_drop(trees, cfg):
    g = deformed.TreeCharacter({
        _T(1): Fraction(2, 3),
        deformed.planted(_K(1, 0), _T(0)): Fraction(1, 5),
        deformed.planted(_K(1, 1), _T(0)): Fraction(-3)})
    for w in trees:
        res = deformed.gamma_g(g, w, cfg) - LinComb.term(w)
        rw = regularity(w, cfg)
        for t2 in res:
            assert regularity(t2, cfg) < rw, _text(w, t2)
    return f"{len(trees)} trees"


def common_subspace(trees):
    """The plain trees that the degeneration embedding carries to typed trees."""
    out = []
    for t in trees:
        try:
            deformed.pb_to_typed(t)
        except InvalidTree:
            continue
        out.append(t)
    return out


def deformed_degeneration(pbs, pcfg):
    """Typed Delta+_0 and Delta- on the common subspace are the plain ones."""
    dcfg = deformed.degenerate_cfg(pcfg)
    embedded = deformed.in_degenerate_subspace
    for pb in pbs:
        z = deformed.pb_to_typed(pb)
        restricted = LinComb()
        for (x, y), c in deformed.delta_plus_0(z, _mi(2)).items():
            if embedded(x) and embedded(y):
                restricted.add_term(Tensor((deformed.typed_to_pb(x),
                                            deformed.typed_to_pb(y))), c)
        assert restricted == rough.delta_plus_pb(pb), pb.key()
        restricted = LinComb()
        for (mono, y), c in negative.delta_minus(z, dcfg).items():
            if all(embedded(m) for m in mono) and embedded(y):
                restricted.add_term(
                    Tensor((Multiset(deformed.typed_to_pb(m) for m in mono),
                            deformed.typed_to_pb(y))), c)
        assert restricted == rough.delta_minus_pb(pb, pcfg), pb.key()
    return f"{len(pbs)} common-subspace trees, byte-identical"


def deformed_degenerate_star_plus(pbs):
    """Typed products of embedded trees pair exactly against plain Delta+."""
    pairs = 0
    for x, y in itertools.product(pbs, pbs):
        tx, ty = deformed.pb_to_typed(x), deformed.pb_to_typed(y)
        if not _no_root_noise(tx):
            continue
        prod = deformed.star_plus(tx, ty)
        assert all(deformed.in_degenerate_subspace(z) for z in prod), _text(x, y)
        for z, c in prod.items():
            assert rough.delta_plus_pb(
                deformed.typed_to_pb(z)).coefficient((x, y)) == c, _text(x, y, z)
        pairs += 1
    return f"{pairs} product pairs"


def negative_pre_lie(triples):
    for a, b, c in triples:
        for op in (negative.insert, negative.dinsert):
            la = op(a, op(b, c)) - op(op(a, b), LinComb.term(c))
            lb = op(b, op(a, c)) - op(op(b, a), LinComb.term(c))
            assert la == lb, \
                f"pre-Lie symmetry of {op.__name__} on {_text(a, b, c)}"
    return f"{len(triples)} triples, both insertions"


def negative_insertion_as_product(pairs):
    for t1, t2 in pairs:
        for p in negative.insertable_vertices(t2):
            assert negative.dinsert_v(t1, p, t2) == \
                negative.dinsert_v_via_product(t1, p, t2), \
                f"{_text(t1, t2)} at vertex {p}"
    return f"{len(pairs)} instances, direct vs product route"


def negative_star_minus(monomials, triples):
    """The empty monomial is a unit on each monomial, and the product is
    associative on each triple."""
    for m in monomials:
        assert negative.star_minus(Multiset(), m) == LinComb.term(m), _text(m)
    for m1, m2, m3 in triples:
        lhs = negative.star_minus(negative.star_minus(m1, m2), LinComb.term(m3))
        rhs = negative.star_minus(LinComb.term(m1), negative.star_minus(m2, m3))
        assert lhs == rhs, f"associativity on {_text(m1, m2, m3)}"
    return f"unit on {len(monomials)} monomials and {len(triples)} associativity triples"


def negative_multi_insertion(pairs):
    """Multi-insertion of a monomial into a target against its defining
    route, the Guin-Oudom extension of deformed insertion (a table that
    lives for this call)."""
    go_insert = postlie.guin_oudom(negative.dinsert_tree)
    for mono, tgt in pairs:
        assert negative.dinsert_multi(mono, tgt) == go_insert(mono, tgt), _text(mono, tgt)
    return f"{len(pairs)} monomials, pairing vs recursion"


def negative_extended_grading(trees, cfg):
    for t in trees:
        tex = negative.to_ex(t)
        ref = regularity(t, cfg)
        assert regularity(tex, cfg) == ref, t.key()
        for (mono, right), _ in negative.delta_minus(tex, cfg).items():
            assert regularity(right, cfg) == ref, \
                f"extended grading not preserved on {t.key()}"
    return f"{len(trees)} trees"


# ---------------------------------------------------------------------------
# the registry: every suite's default config (None where no check reads one)
# and its checks as (body, domain builder[, name]).  A builder maps the config
# to the body's arguments and runs inside the check, so its time is the
# check's and a domain the config leaves empty is a FAIL line.


def _fixed(*args):
    """The builder of a domain that does not read the config."""
    return lambda cfg: args


def _image_trees(cfg):
    return _nonempty([t for t in pb_trees_up_to(cfg.truncation - 1, 1)
                      if rough.in_phi_image(t)], "image tree", cfg)


def _typed_pool(n, stride=1):
    """Every typed tree with < n edges, and every stride-th with n."""
    by_size = _typed_by_size(n)
    return [t for ts in by_size[:n] for t in ts] + list(by_size[n][::stride])


def _typed_3_and_4():
    """Every 87th typed tree with 3 edges (of 2,176), every 1,311th with 4."""
    by_size = _typed_by_size(4)
    return by_size[3][::87] + by_size[4][::1311]


def _negatives(cfg, n_edges):
    """The trees of ``_typed_by_size(n_edges)`` grading negative under cfg."""
    return [[t for t in ts if regularity(t, cfg) < 0] for ts in _typed_by_size(n_edges)]


def _star_minus_domain(cfg):
    """Two-factor monomials (<= 3 edges in all), one-edge one-factor triples."""
    negs = _negatives(cfg, 2)
    ones = [Multiset([t]) for t in negs[1]]
    return (list(dict.fromkeys(map(Multiset, _tuples([negs] * 2, range(4))))),
            _nonempty(list(itertools.product(ones, repeat=3)), "one-edge negative tree", cfg))


def _insertion_pairs(cfg):
    """(monomial of one-edge negative trees, typed target), sized by factors
    plus target edges."""
    ones = _negatives(cfg, 1)[1]
    monomials = [[]] + [[Multiset(c) for c in itertools.combinations_with_replacement(ones, k)]
                        for k in (1, 2)]
    return _nonempty(_sweep([monomials, _typed_by_size(2)], 2, 7), "one-edge negative tree", cfg)


SUITES = {
    "golden": (DEFAULT_CFG, [
        (golden_left_grafting, _fixed()), (golden_root_adding_bijection, _fixed()),
        (golden_mkw_coproduct, _fixed()), (golden_embedding_sum, _fixed()),
        (golden_spanning_partitions, _fixed()), (golden_cosubstitution_skeleton, _fixed()),
        (golden_recentering_display, _fixed()),
        (golden_renormalisation_display, lambda cfg: (cfg,)),
        (golden_decoration_raising, _fixed())]),
    "postlie": (None, [
        (postlie_associator, lambda cfg: (_tuples([_label_trees(3, _AB)] * 3, range(4)),)),
        (postlie_bracket_derivation, lambda cfg: (_tuples([_label_trees(3, _AB)] * 3, range(5)),)),
        (postlie_deformed_axioms, lambda cfg: (_tuples([_lie_generators(2)] * 3, range(3)),))]),
    "hopf": (None, [
        (hopf_gl_associativity, lambda cfg: (_tuples([_forests(3, _AB)] * 3, range(6)),)),
        (hopf_mkw_coassociativity, _fixed(5, _AB)),
        (hopf_mkw_shuffle_morphism, lambda cfg: (_tuples([_forests(4, _AB)] * 2, range(5)),)),
        (hopf_gl_mkw_duality, _fixed(4, _AB)),
        (hopf_antipode, lambda cfg: (forests_up_to(4, _AB),)),
        (hopf_embedding_is_morphism, _fixed(4, _AB))]),
    "coactions": (None, [
        (coactions_partition_validator, _fixed(4, _AB)),
        (coactions_spanning_restriction, _fixed(3, _AB)),
        (coactions_projection_primitivity, _fixed(4, _AB)),
        (coactions_counit, _fixed(3, _AB)),
        (coactions_nonplanar, _fixed())]),
    "cointeraction": (NEGATIVE_CFG, [
        (cointeraction_time_cotranslation, _fixed(5)),
        (cointeraction_worked_instance, lambda cfg: (cfg,)),
        (cointeraction_typed_small, lambda cfg: (_typed_pool(2), cfg, _mi(2))),
        (cointeraction_typed_sample, lambda cfg: (_typed_3_and_4(), cfg)),
        (cointeraction_chu_vandermonde, _fixed(6, (1, 2), 6))]),
    "rough": (DEFAULT_CFG, [
        (rough_iso_roundtrip, lambda cfg: (forests_up_to(4, ("0", "1", "2")),)),
        (rough_tree_product, _fixed()),
        (rough_degree_additivity, lambda cfg: (_tuples([_pb_trees(4, 2)] * 2, range(5)), cfg)),
        (rough_coproduct_dual_routes, lambda cfg: (3, cfg))]),
    "model": (DEFAULT_CFG, [
        (model_chen_identity, lambda cfg: (
            _provider(cfg), list(itertools.permutations(map(Fraction, ("-5/2", "0", "7/3")))),
            forests_up_to(min(4, cfg.truncation), ("0", "1")))),
        (model_character_property, lambda cfg: (
            _provider(cfg), _tuples([_forests(4, ("0", "1"))] * 2, range(5)),
            Fraction(1, 3), Fraction(-3, 5))),
        (model_edges_are_integration, lambda cfg: (
            _provider(cfg), _nonempty(forests_up_to(cfg.truncation - 1, ("0", "1")),
                                      "forest below the truncation", cfg))),
        (model_axioms, lambda cfg: (_provider(cfg), cfg, _image_trees(cfg), {})),
        (model_axioms, lambda cfg: (
            _provider(cfg), cfg, _image_trees(cfg),
            {PlanarTree(None, ((1, LEAF),)): Fraction(3, 7)}),
         "model.renormalised_axioms")]),
    "deformed": (NEGATIVE_CFG, [
        (deformed_almost_derivation, lambda cfg: (_sweep([_planted_by_size(3)] * 2, 3, 301),)),
        # typed trees with no root noise and decorations <= 2, times X^0 .. X^3
        (deformed_polynomial_commutation, lambda cfg: (_sweep(
            [[list(filter(_no_root_noise, ts)) for ts in _typed_by_size(3, 2)],
             [[_T(k) for k in range(4)]]], 2, 101),)),
        (deformed_duality_forward, lambda cfg: (_typed_pool(2), _mi(2))),
        (deformed_duality_reverse, lambda cfg: (list(itertools.product(
            filter(_no_root_noise, _typed_pool(1)), _typed_pool(1))), _mi(3))),
        (deformed_grading_drop, lambda cfg: (_typed_pool(3, 21), cfg)),
        (deformed_degeneration, lambda cfg: (
            common_subspace(pb_trees_up_to(3, 2)),
            RegularityConfig(d=1, alphas={1: "49/100", 2: "49/100"},
                             betas={}, truncation=8))),
        (deformed_degenerate_star_plus, lambda cfg: (
            common_subspace(pb_trees_up_to(2, 1)),))]),
    "negative": (NEGATIVE_CFG, [
        (negative_pre_lie, lambda cfg: (_nonempty(
            _sweep([_negatives(cfg, 2)] * 3, 3, 61), "negative tree triple", cfg),)),
        (negative_insertion_as_product, lambda cfg: (_tuples([_typed_by_size(2)] * 2, range(3)),)),
        (negative_star_minus, _star_minus_domain),
        (negative_multi_insertion, lambda cfg: (_insertion_pairs(cfg),)),
        (negative_extended_grading, lambda cfg: (_typed_pool(3, 21), cfg))]),
}


def run_suite(name: str, cfg=None) -> list:
    """Run one suite, each check on the domain its builder makes from cfg."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    default, checks = SUITES[name]
    cfg, out = cfg or default, []
    for fn, build, *label in checks:
        check = label[0] if label else fn.__name__.replace("_", ".", 1)
        _check(out, lambda: fn(*build(cfg)), name=check)
    return sorted(out, key=lambda r: r.name)


def run_all(cfg=None) -> list:
    """Run every suite in one thread, the report sorted by check name."""
    out = [r for n in sorted(SUITES) for r in run_suite(n, cfg)]
    return sorted(out, key=lambda r: r.name)
