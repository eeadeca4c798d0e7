import json
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (K, T, X, lincomb_to_latex_reference, mi,
                      nonplanar_forests)
from planarhopf.cli import Session, eval_expression
from planarhopf.coactions import rho_np, rho_T, rho_T0
from planarhopf.enumeration import (forests_up_to, planar_trees,
                                    pb_trees_up_to, typed_trees_up_to)
from planarhopf.grammar import (basis_to_latex, lincomb_to_json,
                                lincomb_to_latex, lincomb_to_text,
                                parse_forest, parse_lincomb, parse_tree)
from planarhopf.linalg import LinComb, Multiset, Tensor
from planarhopf.postlie import antipode, ck_coproduct, mkw_coproduct, omega_embed
from planarhopf.trees import ParseError, PlanarTree, TreeError, lt


def test_label_roundtrip():
    t = lt("a", lt("b"), lt("c", lt("d")))
    assert parse_tree(t.key(), mode="label") == t
    assert t.key() == "a[b,c[d]]"


def test_plain_roundtrip():
    t = PlanarTree(None, ((0, PlanarTree()), (3, PlanarTree())))
    assert t.key() == "o[o,3:o]"
    assert parse_tree("o[o, 3: o]", mode="plain") == t


def test_typed_roundtrip():
    t = T(0, (K(1), T(2, (X(0, which=2), T(0)))))
    assert t.key() == "0[K1#(1):2[X2#(0):0]]"
    assert parse_tree("0[K1#(1): 2[X2#(0): 0]]", mode="typed") == t
    assert parse_tree(t.key()) == t  # typed mode sniffed from '#'


def test_multi_dimensional_decorations():
    t = parse_tree("(1,0)[K1#(0,2):(0,0)]", mode="typed")
    assert t.dec == mi(1, 0)
    assert t.children[0][0].index == mi(0, 2)


def test_forest_and_lincomb():
    w = parse_forest("{a b[c]}", mode="label")
    assert w == (lt("a"), lt("b", lt("c")))
    lc = parse_lincomb("2*{a} - 1/2*{b} + {a}", mode="label", kind="forest")
    assert lc == LinComb((((lt("a"),), 3), ((lt("b"),), "-1/2")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_tree("a[b", mode="label")
    with pytest.raises(ParseError):
        parse_tree("a[b,]", mode="label")
    with pytest.raises(ParseError):
        parse_tree("0[Q1#(1):0]", mode="typed")


@pytest.mark.parametrize("expr", ["graft(a, [)", "mkw({a,})", "mkw({c[a,c]]})"])
def test_label_decorations_are_identifiers_or_integers(expr):
    from planarhopf.cli import Session, eval_expression
    with pytest.raises(ParseError):
        eval_expression(expr, Session())


def test_json_rendering_sorted_and_exact():
    lc = LinComb((((lt("b"),), "1/3"), (((lt("a"),)), -2)))
    out = json.loads(lincomb_to_json(lc))
    assert out == {"terms": [{"coeff": "-2", "basis": "{a}"},
                             {"coeff": "1/3", "basis": "{b}"}]}


def test_tensor_rendering_distinct_from_forest():
    tens = LinComb.term(Tensor(((lt("a"),), (lt("b"),))))
    assert lincomb_to_text(tens) == "{a} (x) {b}"
    forest = LinComb.term((lt("a"), lt("b")))
    assert lincomb_to_text(forest) == "{a b}"


def test_latex_output():
    lc = LinComb.term(lt("a", lt("b")), "1/2")
    assert lincomb_to_latex(lc) == "\\tfrac{1}{2}\\Forest{[a[b]]}"
    pb = LinComb.term(PlanarTree(None, ((2, PlanarTree()),)))
    assert "edge label" in lincomb_to_latex(pb)


def test_latex_of_nonplanar_values_matches_the_to_planar_oracle():
    # a non-planar tree is drawn in its canonical child order, and each
    # tree and monomial item once per render; the oracle draws every
    # occurrence through its to_planar tree
    values = [LinComb.term(()), LinComb.term(Multiset()),
              LinComb.term(Tensor((Multiset(), ())))]
    for w in ((),) + nonplanar_forests(4, ("a", "b")):
        x = LinComb.term(w)
        values += [rho_np(w, ("x", "y"), False), rho_np(w, ("x", "y"), True),
                   ck_coproduct(x), omega_embed(x) * Fraction(-3, 2)]
    for v in values:
        assert lincomb_to_latex(v) == lincomb_to_latex_reference(v), v


def test_latex_of_planar_values_matches_the_oracle():
    # repeated (forest, letter) items and forests on the planar side
    for w in forests_up_to(3, ("a", "b")):
        x = LinComb.term(w)
        for v in (rho_T(w, ("x", "y")), rho_T0(w), mkw_coproduct(x), antipode(x)):
            assert lincomb_to_latex(v) == lincomb_to_latex_reference(v), v


# LaTeX render defects, pinned until the eval-stream reference renders are
# rebuilt (ROADMAP item 1); strict, so that a fix turns them into failures
# that must be updated
TWO_TREES = "a Tensor of two trees is drawn as a two-tree forest, without \\otimes"
TAGGED = "a tagged item (forest, letter) is drawn with the outer tensor's \\otimes"


@pytest.mark.parametrize("expr", [
    pytest.param(expr, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))
    for expr, reason in [("deltaplusPB(o[o,1:o])", TWO_TREES),
                         ("deltaplus(0[K1#(0):0])", TWO_TREES),
                         ("deltaplus0(0[K1#(0):0])", TWO_TREES),
                         ("rhoS({a[b]})", TAGGED)]])
def test_latex_draws_one_otimes_between_tensor_factors(expr):
    for b in eval_expression(expr, Session()):
        latex = basis_to_latex(b)
        assert latex.count("\\otimes") == len(b) - 1, latex


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a typed edge label puts '#' in math mode")
def test_latex_typed_edge_labels_escape_hash():
    latex = lincomb_to_latex(eval_expression("deltaplus(0[K1#(0):0])", Session()))
    assert re.search(r"(?<!\\)#", latex) is None, latex


def test_text_output_signs():
    lc = LinComb(((lt("a"), -1), (lt("b"), 2)))
    assert lincomb_to_text(lc) == "-a + 2*b"


@pytest.mark.parametrize("text", ["3/0*{a}", "1/0", "3/x*{a}", "1/-2*a", "1/"])
def test_bad_rational_coefficient_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_lincomb(text, mode="label")


# the grammar's tokens, some near-misses, whitespace and one foreign character
_TOKENS = ("a", "b7", "o", "0", "1", "12", "K1", "X2", "K", "[", "]", "{", "}",
           "(", ")", ",", ":", "#", "*", "+", "-", "/", "~", " ", "%")
_PARSERS = (parse_tree, parse_forest,
            *(partial(parse_lincomb, kind=k) for k in ("auto", "tree", "forest")))


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join))
def test_parsers_accept_or_raise_tree_errors(text):
    for mode in ("auto", "label", "plain", "typed"):
        for parse in _PARSERS:
            try:
                parse(text, mode=mode)
            except TreeError:
                pass


_ENUMERATED = {
    "label": [t for n in range(1, 5) for t in planar_trees(n, ("a", "7", None))],
    "plain": pb_trees_up_to(3, 2),
    "typed": typed_trees_up_to(2) + typed_trees_up_to(1, d=2),
}


@pytest.mark.parametrize("mode", sorted(_ENUMERATED))
def test_parse_render_parse_round_trips(mode):
    trees = _ENUMERATED[mode]
    for t in trees:
        assert parse_tree(t.key(), mode=mode) == t
    for t1, t2 in zip(trees, trees[1:]):
        if mode == "typed" and len(t1.dec) != len(t2.dec):
            continue  # one expression holds one dimension
        lc = LinComb(((t1, Fraction(-3, 2)), (t2, 1)))
        assert parse_lincomb(lincomb_to_text(lc), mode=mode, kind="tree") == lc
        forest = LinComb.term((t1, t2), 4)
        text = lincomb_to_text(forest)
        assert parse_lincomb(text, mode=mode, kind="forest") == forest
