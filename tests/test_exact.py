"""The coefficient representation and the trusted internal constructors.

Every stored coefficient is an ``int`` or a ``Fraction`` whose denominator is
not 1; renders do not depend on which of two equal values was stored; the
scalar APIs return Fractions.  Trees the library rebuilds without validation
equal their validated rebuilds, and public construction still validates.
"""

from fractions import Fraction

import pytest

from planarhopf import coactions, deformed, negative, postlie, suites
from planarhopf.coactions import extract_block, grow_block
from planarhopf.enumeration import forests_up_to, typed_trees_up_to
from planarhopf.grammar import (lincomb_to_json, lincomb_to_latex,
                                lincomb_to_text, parse_tree, render_value)
from planarhopf.linalg import LinComb, Multiset, Tensor, pair
from planarhopf.rough import Model, RoughPathProvider
from planarhopf.trees import (EdgeType, InvalidTree, MultiIndex, ParseError,
                              PlanarTree, TreeError, lt, mi_range, pt)

from conftest import K, T, X, mi

CFG = suites.NEGATIVE_CFG
LABELLED = forests_up_to(3, ("a", "b"))
TIME = forests_up_to(4, ("0",))
TYPED = typed_trees_up_to(2, max_dec=1, max_edge_dec=1)


def assert_normal(lc: LinComb):
    for c in lc.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


# ---------------------------------------------------------------------------
# the representation invariant


def test_add_term_stores_one_representation():
    lc = LinComb()
    lc.add_term("x", Fraction(1, 2))
    lc.add_term("x", Fraction(1, 2))
    lc.add_term("y", Fraction(4, 2))
    lc.add_term("z", True)
    assert lc == {"x": 1, "y": 2, "z": 1}
    assert all(type(c) is int for c in lc.values())
    lc.add_term("x", Fraction(-1, 3))
    assert lc["x"] == Fraction(2, 3) and type(lc["x"]) is Fraction
    lc.add_term("x", Fraction(-2, 3))
    assert "x" not in lc
    assert_normal(LinComb.term("t", Fraction(6, 3)) * Fraction(1, 2))
    assert_normal(LinComb.term("t", Fraction(1, 3)) * 3)


def test_planar_outputs_keep_the_representation():
    for x in LABELLED:
        assert_normal(postlie.mkw_coproduct(LinComb.term(x)))
        assert_normal(postlie.antipode(LinComb.term(x)))
        for y in LABELLED:
            if len(x) + len(y) <= 4:
                assert_normal(postlie.gl_product(x, y))


@pytest.mark.parametrize("normalization", ["eulerian", "leftbracket"])
def test_coaction_outputs_keep_the_representation(normalization):
    fractional = False
    for w in TIME:
        got = coactions.rho_T0(w, normalization)
        assert_normal(got)
        fractional |= any(type(c) is Fraction for c in got.values())
    for w in LABELLED:
        assert_normal(coactions.rho_S(w, ("a", "b"), normalization))
    # the Eulerian idempotent is where non-integral coefficients come from
    assert fractional == (normalization == "eulerian")


def test_typed_outputs_keep_the_representation():
    for t in TYPED:
        assert_normal(deformed.delta_plus(t, CFG))
        assert_normal(negative.delta_minus(t, CFG))


def test_renders_do_not_depend_on_the_stored_type():
    basis = (lt("a"), lt("b", lt("c")))
    for value in (3, -3, 1, -1):
        as_int = LinComb({basis: value, (lt("c"),): Fraction(1, 2)})
        as_fraction = LinComb()
        as_fraction[basis] = Fraction(value)  # bypasses add_term on purpose
        as_fraction[(lt("c"),)] = Fraction(1, 2)
        for render in (lincomb_to_text, lincomb_to_json, lincomb_to_latex):
            assert render(as_int).encode() == render(as_fraction).encode()


def _provider():
    return RoughPathProvider(LinComb({(lt("0"),): 1, (lt("1"),): Fraction(1, 2)}), 5)


def test_scalar_apis_return_fractions():
    w = (lt("0", lt("0")),)
    assert type(pair(LinComb.term(w), LinComb.term(w))) is Fraction
    assert type(pair(LinComb.term(w), LinComb.term((lt("a"),)))) is Fraction
    prov = _provider()
    assert type(prov.pairing(0, 1, w)) is Fraction
    assert type(prov.pairing(0, 0, w)) is Fraction
    assert type(prov.pairing_lc(0, 1, LinComb({w: 2, (lt("1"),): 1}))) is Fraction
    assert type(prov.derivative_pairing(0, 1, w)) is Fraction
    assert all(type(c) is Fraction for c in prov.coefficients(w).values())
    assert type(Model(prov, CFG).pi(0, 1, pt((0, pt())))) is Fraction
    g = deformed.TreeCharacter({T(1): 2})
    h = deformed.TreeCharacter({})
    for t in (T(0), T(1), T(1, (K(0), T(0)))):
        assert type(g(t)) is Fraction
        assert type(deformed.gamma_compose(g, h, CFG)(t)) is Fraction
    assert render_value(pair(LinComb.term(w), LinComb.term(w)), "json") == '{"value": "1"}'


# ---------------------------------------------------------------------------
# trusted construction weakens nothing


def _bad_trees():
    yield lambda: MultiIndex((0, -1))
    yield lambda: PlanarTree(mi(0), ((EdgeType("K", 1, mi(0, 0)), T(0)),))
    yield lambda: PlanarTree(mi(0), ((K(0), PlanarTree(mi(0, 0))),))
    yield lambda: T(0, (X(0), T(0)), (X(0, which=2), T(0)))
    yield lambda: T(0, (X(0), T(0, (K(0), T(0)))))


@pytest.mark.parametrize("build", list(_bad_trees()))
def test_public_construction_validates(build):
    with pytest.raises(InvalidTree):
        build()


@pytest.mark.parametrize("text", [
    "0[K1#(0,-1):0]",               # negative component
    "(0)[K1#(0,0):0]",              # mixed multi-index dimensions
    "0[K1#(0):(0,0)]",              # likewise, at the child
    "0[X1#(0):0,X2#(0):0]",         # two noise edges at a vertex
    "0[X1#(0):0[K1#(0):0]]",        # noise edge to a non-leaf
])
def test_parser_validates(text):
    with pytest.raises((InvalidTree, ParseError)):
        parse_tree(text)


def _validated(t: PlanarTree) -> PlanarTree:
    return PlanarTree(t.dec, tuple((e, _validated(s)) for e, s in t.children), t.ext)


def _same_as_validated(t: PlanarTree):
    v = _validated(t)  # raises if the rebuilt tree is not valid
    for a, b in ((t.subtree(p), v.subtree(p)) for p in t.paths()):
        assert a == b and hash(a) == hash(b) and a.key() == b.key() and a.mode == b.mode


def _trees_in(basis):
    if isinstance(basis, PlanarTree):
        yield basis
    elif isinstance(basis, (tuple, Tensor, Multiset)):
        for x in basis:
            yield from _trees_in(x)


def test_rebuilt_trees_match_their_validated_rebuilds():
    pool = typed_trees_up_to(3, max_dec=1, max_edge_dec=1)
    assert len(pool) == 2354
    one = mi(1)
    for t in pool:
        _same_as_validated(t.with_dec(t.dec.add(one)))
        _same_as_validated(t.with_children(t.children[1:]))
        _same_as_validated(t.with_decs({p: mi(2) for p in t.paths()}))
        _same_as_validated(negative.to_ex(t).with_decs({(): mi(0)}))
        for p in t.paths():
            _same_as_validated(t.replace(p, t.subtree(p)))
            if not t.has_incoming_noise(p):
                _same_as_validated(deformed.up_vertex(t, p, one))
                for block in grow_block(t, p):
                    for tree in extract_block(t, block):
                        _same_as_validated(tree)
        for lc in (deformed.delta_plus_0(t, mi(1)), deformed.down_root(t, one),
                   deformed.delta_plus(t, CFG), negative.delta_minus(t, CFG)):
            for basis in lc:
                for tree in _trees_in(basis):
                    _same_as_validated(tree)


def test_coaction_outputs_match_their_validated_rebuilds():
    for t in TYPED:
        for lc in (deformed.delta_plus(negative.to_ex(t), CFG),
                   negative.delta_minus(negative.to_ex(t), CFG)):
            for basis in lc:
                for tree in _trees_in(basis):
                    _same_as_validated(tree)
    for w in TIME:
        for (mono, forest) in coactions.rho_T0(w):
            for tree in _trees_in((tuple(mono), forest)):
                _same_as_validated(tree)
        _same_as_validated(postlie.b_plus(w))


def test_b_plus_still_rejects_mixed_modes():
    with pytest.raises(TreeError):
        postlie.b_plus((lt("a"), T(0)))


def test_multi_index_helpers_match_the_constructor():
    for m in mi_range(mi(2, 1)):
        assert type(m) is MultiIndex and m == MultiIndex(tuple(m))
        assert m.add(mi(1, 1)) == MultiIndex((m[0] + 1, m[1] + 1))
        assert type(m.add(mi(0, 0))) is MultiIndex
        back = mi(2, 1).sub(m)
        assert back == MultiIndex((2 - m[0], 1 - m[1])) and type(back) is MultiIndex
        assert mi(0, 0).sub(m) is None or m.is_zero()
    assert MultiIndex.zero(2) == MultiIndex((0, 0))
    assert MultiIndex.unit(3, 1) == MultiIndex((0, 1, 0))
    with pytest.raises(ValueError):
        mi(1).add(mi(1, 1))
