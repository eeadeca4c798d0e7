import json

import pytest

from conftest import K, T, X, mi
from planarhopf.grammar import (lincomb_to_json, lincomb_to_latex,
                                lincomb_to_text, parse_forest, parse_lincomb,
                                parse_tree)
from planarhopf.linalg import LinComb, Tensor
from planarhopf.trees import ParseError, PlanarTree, lt


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


def test_text_output_signs():
    lc = LinComb(((lt("a"), -1), (lt("b"), 2)))
    assert lincomb_to_text(lc) == "-a + 2*b"
