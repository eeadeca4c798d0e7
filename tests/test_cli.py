import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarhopf.cli import FUNCTIONS, Session, _parse_arg, eval_expression, main
from planarhopf.enumeration import (pb_trees_up_to, planar_trees,
                                    typed_trees_up_to)
from planarhopf.grammar import render_value
from planarhopf.linalg import LinComb
from planarhopf.suites import DEFAULT_CFG, NEGATIVE_CFG
from planarhopf.trees import ParseError, RegularityConfig, TreeError, lt

# every tree grades non-negative under this config
ALL_POSITIVE = {"d": 1, "alphas": {"1": "2"}, "betas": {"1": "1"}, "truncation": 4}


def run(expr, **kw):
    session = Session(**kw)
    return eval_expression(expr, session)


def test_eval_pair():
    assert run("pair(a, a)") == 1
    assert run("pair(a[b], b[a])") == 0


def test_eval_mkw_term_count():
    out = run("mkw({a b[c,d]})")
    assert len(out) == 10


def test_eval_graft():
    out = run("graft(a, b)")
    assert out == LinComb.term(lt("b", lt("a")))


def test_eval_bindings():
    out = run("x = bplus({a b}); bminus(x)")
    assert out == LinComb.term((lt("a"), lt("b")))


def test_eval_kwargs_flag_style():
    assert run("cointeract4(0[K1#(0):0], --cap 1)",
               cfg=_typed_cfg()) is True
    assert run("cointeract4(0[K1#(0):0], cap=1)", cfg=_typed_cfg()) is True


@pytest.mark.parametrize("args", ["--cap 1, --cap 2", "cap=2, --cap 1",
                                  "cap=1, cap=1", "--cap 2, cap=2"])
def test_repeated_keyword_is_a_parse_error(args, capsys):
    expr = f"deltaplus0(0[K1#(1):0], {args})"
    with pytest.raises(ParseError, match="'cap' given more than once"):
        run(expr)
    assert main(["eval", expr]) == 2
    assert "more than once" in capsys.readouterr().err
    assert main(["eval", "deltaplus0(0[K1#(1):0], --cap 2)"]) == 0


def _typed_cfg():
    return RegularityConfig(d=1, alphas={1: "-5/8"}, betas={1: "1/2"},
                            truncation=6)


@pytest.mark.parametrize("name", ["omega", "ck", "rhoTnp", "rhoSnp"])
def test_np_forest_arguments_take_sums(name):
    # the non-planar functions are linear, and a non-planar forest is a
    # multiset of trees
    total = run(f"{name}({{a[b,c] d}} + 2*{{b b}} - a[b])")
    assert total
    assert total == run(f"{name}({{a[b,c] d}})") + 2 * run(f"{name}({{b b}})") \
        - run(f"{name}(a[b])")
    assert run(f"{name}({{b a}})") == run(f"{name}({{a b}})")
    assert run(f"{name}({{b a}} - {{a b}})") == LinComb()


def test_np_forest_argument_is_a_multiset():
    assert _parse_arg(Session(), "np-forest", "{b a} - {a b}") == LinComb()


def test_np_forest_single_tree_output_kept():
    assert render_value(run("omega(a[b,c])")) == "{a[b,c]} + {a[c,b]}"


def test_eval_unknown_function():
    with pytest.raises(ParseError):
        run("frobnicate(a)")


def test_eval_cointeract():
    assert run("cointeract({0 0[0]})") is True


def test_determinism_across_runs():
    a = render_value(run("deltaplusPB(o[o[o],1:o])"), "json")
    b = render_value(run("deltaplusPB(o[o[o],1:o])"), "json")
    assert a == b
    parsed = json.loads(a)
    assert parsed["terms"] == sorted(parsed["terms"], key=lambda t: t["basis"])


def test_main_eval(capsys):
    assert main(["eval", "pair(a, a)"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_main_eval_json(capsys):
    assert main(["eval", "gl({a}, {b})", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {t["basis"] for t in out["terms"]} == {"{a b}", "{b[a]}"}


def test_main_suite_unknown(capsys):
    assert main(["suite", "nonsense"]) == 2


def test_main_suite_golden(capsys):
    assert main(["suite", "golden"]) == 0
    out = capsys.readouterr().out
    assert "golden.mkw_coproduct" in out and "FAIL" not in out


def test_config_loading(tmp_path):
    from fractions import Fraction
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "d": 1, "alphas": {"1": "49/100"}, "betas": {}, "truncation": 4,
        "L": {"0": "1", "1": "1/3"}, "alphabet": ["a"], "pi": "leftbracket"}))
    session = Session.from_config(str(cfg))
    assert session.cfg.alphas[1] == Fraction(49, 100)
    assert session.pi == "leftbracket"
    # the noise tree evaluates to the generator coefficient of letter 1
    assert eval_expression("modelpi(0, 1, o[1:o])", session) == Fraction(1, 3)


@pytest.mark.parametrize("cfg", [DEFAULT_CFG, NEGATIVE_CFG, RegularityConfig(**ALL_POSITIVE)],
                         ids=["default", "negative", "all-positive"])
def test_config_json_round_trips(cfg, tmp_path):
    # a config written as --config JSON reads back as the same config
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert Session.from_config(str(path)).cfg == cfg


@pytest.mark.parametrize("expr", ["modelpi(0, 1, o[o])", "modelpi(0, 1, o[1:o])"])
def test_model_respects_truncation(expr, tmp_path, capsys):
    # with or without a decorated root edge, one vertex is over truncation 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation": 0}))
    assert main(["eval", expr, "--config", str(cfg)]) == 2
    assert "truncation is 0" in capsys.readouterr().err


def test_suite_order_is_deterministic():
    from planarhopf import suites as suites_mod
    names1 = [r.name for r in suites_mod.run_suite("golden")]
    names2 = [r.name for r in suites_mod.run_suite("golden")]
    assert names1 == names2 == sorted(names1)


@pytest.mark.parametrize("expr", [
    "up(0[K1#(0):0], x)",                   # non-integer int argument
    "up(0[K1#(0):0], 7)",                   # coordinate outside 0..d-1
    "up(0[K1#(0):0], -1)",
    "deltaplus0(0[K1#(0):0], --cap x)",     # non-integer flag value
    "deltaplus0(0[K1#(0):0], cap=x)",
    "deltaplus0(0[K1#(0):0], --cap)",       # trailing flag with no value
    "renorm({missing}, o[o])",              # missing file argument
    "",                                     # no statement at all
    ";",
])
def test_malformed_input_is_a_parse_error(expr, tmp_path, capsys):
    expr = expr.format(missing=tmp_path / "nonexistent.json")
    with pytest.raises(ParseError):
        run(expr)
    assert main(["eval", expr]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_is_a_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.json")
    assert main(["eval", "pair(a, a)", "--config", missing]) == 2
    assert main(["suite", "golden", "--config", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    "[1, 2]",                               # not an object
    '{"d": "x"}',                           # non-integer d
    '{"truncation": "5.5"}',                # non-integer truncation
    '{"alphas": {"one": "1/2"}}',           # non-integer noise id
    '{"alphas": {"1": 0.5}}',               # rational not given as a string
    '{"betas": ["1/2"]}',                   # regularities not given as an object
    '{"alphabet": 5}',                      # alphabet not a list of strings
    '{"pi": 3}',                            # unknown normalization
    '{"L": [1]}',                           # generator not an object of rationals
    '{"d": -1}',                            # dimension below 1
    '{"truncation": -1}',                   # negative truncation
    '{"L": {"0": "1", "[": "1"}}',          # generator label the grammar rejects
    '{"alphabet": ["a", ""]}',              # empty letter
    '{"alphabet": ["o"]}',                  # letter read back as an undecorated vertex
    '{"L": {"0": "1", "o": "1"}}',          # generator label likewise
    '{"alphabet": ["a", "a"]}',             # repeated letter counts twice
    '{"alphabet": []}',                     # no letter: every value reads 0
])
def test_malformed_config_is_a_parse_error(config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    with pytest.raises(ParseError):
        Session.from_config(str(path))
    assert main(["eval", "pair(a, a)", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("expr", [
    "insert(0[K1#(0):0], (0,0))",
    "dinsert((0,0), 0[K1#(0):0])",
    "starplus(0[K1#(0):0], (0,1))",
    "up((0,0), 0)",
    "deltaplus((0,0))",
])
def test_typed_operand_of_the_wrong_dimension_is_a_parse_error(expr, capsys):
    with pytest.raises(ParseError, match="dimension 2, the session has d = 1"):
        run(expr)
    assert main(["eval", expr]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_suite_with_a_plain_config_reports_failures(tmp_path, capsys):
    # the typed checks cannot grade kernels under a plain-mode config: each
    # ends in a FAIL line carrying the library's message, the rest still run
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"d": 1, "alphas": {"1": "49/100"}, "betas": {},
                                "truncation": 4}))
    assert main(["suite", "negative", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  negative.pre_lie" in out
    assert "UnknownDecoration: no regularity configured for kernel 1" in out
    assert "PASS  negative.insertion_as_product" in out
    assert err == ""


def test_suite_with_no_negative_tree_reports_failures(tmp_path, capsys):
    # the checks over negative trees find an empty domain and end in FAIL
    # lines that name the config as its --config JSON, never a traceback
    path = tmp_path / "positive.json"
    path.write_text(json.dumps(ALL_POSITIVE))
    assert main(["suite", "negative", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    lines = {line.split()[1]: line for line in out.splitlines() if "  negative." in line}
    for check in ("pre_lie", "star_minus", "multi_insertion"):
        line = lines[f"negative.{check}"]
        assert line.startswith("FAIL") and "negative tree" in line
        assert line.endswith(f"under {json.dumps(ALL_POSITIVE)}]")
    assert lines["negative.extended_grading"].startswith("PASS")
    assert err == ""


def test_suite_with_a_config_of_another_dimension_is_a_parse_error(tmp_path, capsys):
    # the suites enumerate d = 1 trees, so a d = 2 config would pass
    # without testing a single d = 2 tree
    path = tmp_path / "d2.json"
    path.write_text(json.dumps({"d": 2, "alphas": {"1": "-3/2"}, "betas": {},
                                "truncation": 4}))
    assert main(["suite", "negative", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "the suites sweep d = 1 trees" in err


@pytest.mark.parametrize("expr, binding, kind", [
    ("x = mkw({a}); shuffle(x, x)", "x", "label-forest"),   # tensors, not forests
    ("x = reg(0); mkw(x)", "x", "label-forest"),             # a number
    ("x = mkw({a}); deltaplus(x)", "x", "typed-tree"),       # another mode
    ("y = cointeract({a}); pair(y, y)", "y", "label-forest"),  # a truth value
    ("x = bplus({a b}); up(x, 0)", "x", "typed-tree"),
    ("x = graft(a, b); modelpi(x, 1, o[o])", "x", "rat"),
])
def test_binding_of_the_wrong_kind_is_a_parse_error(expr, binding, kind, capsys):
    with pytest.raises(ParseError, match=f"binding '{binding}' .* {kind} value"):
        run(expr)
    assert main(["eval", expr]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bindings_of_the_right_kind_pass():
    assert run("x = reg(0); modelpi(x, 1, o[o])") == run("modelpi(0, 1, o[o])")
    assert run("x = graft(a, b); graft(x, c)") == run("graft(b[a], c)")


@pytest.mark.parametrize("alphabet", ["x,o", "x y", "#", ",", "a,a", ""])
def test_alphabet_flag_is_checked_like_the_config(alphabet, capsys):
    assert main(["eval", "rhoS({a})", "--alphabet", alphabet]) == 2
    assert capsys.readouterr().err.startswith("error: --alphabet label")


def test_alphabet_flag_sets_the_letters(capsys):
    assert main(["eval", "rhoS({a})", "--alphabet", "a,b7"]) == 0
    assert "b7" in capsys.readouterr().out


# small operands of every argument kind (trees of at most 3 vertices, their
# forests and sums, numbers, a missing file), binding names and flags
_LABEL = [t.key() for n in (1, 2, 3) for t in planar_trees(n, ("a", "b"))][::3]
_PLAIN = [t.key() for t in pb_trees_up_to(2, 2)][::4]
_TYPED = ([t.key() for t in typed_trees_up_to(2)][::9]
          + [t.key() for t in typed_trees_up_to(1, d=2)][::7])
_BY_KIND = {
    "label-tree": _LABEL + ["1/2*a + b"],
    "label-forest": _LABEL + ["{" + " ".join(_LABEL[:2]) + "}", "{}"],
    "np-forest": _LABEL + ["{a b[a]}"],
    "any-tree": _LABEL[:3] + _PLAIN[:3] + _TYPED[:3],
    "plain-tree": _PLAIN,
    "plain-forest": _PLAIN + ["{" + " ".join(_PLAIN[:2]) + "}"],
    "typed-tree": _TYPED,
    "typed-forest": _TYPED + ["{" + " ".join(_TYPED[:2]) + "}"],
    "rat": ["0", "1", "-2", "3/4"],
    "int": ["0", "1", "-1"],
    "file": ["no-such-file.json"],
}
_ANY = sorted({x for pool in _BY_KIND.values() for x in pool}) + ["x", "y", ""]
_FLAGS = ("--cap 1", "--cap 2", "--cap", "--cap -1", "cap=0", "cap=x", "k=1")


def _call(name):
    """Arguments of the function's kinds, or any operands, then flags."""
    kinds = FUNCTIONS[name][0]
    fitting = st.tuples(*(st.sampled_from(_BY_KIND[k] + ["x", "y"])
                          for k in kinds)).map(list)
    return st.builds(
        lambda args, flags: f"{name}({', '.join(args + flags)})",
        st.one_of(fitting, st.lists(st.sampled_from(_ANY), max_size=3)),
        st.sampled_from([[]] * len(_FLAGS) + [[f] for f in _FLAGS]))


_STATEMENT = st.builds(
    str.__add__, st.sampled_from(("", "x = ", "y = ")),
    st.sampled_from(sorted(FUNCTIONS)).flatmap(_call))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_STATEMENT, min_size=1, max_size=3).map("; ".join),
       st.sampled_from((DEFAULT_CFG, NEGATIVE_CFG, replace(NEGATIVE_CFG, d=2))))
def test_statements_evaluate_or_raise_tree_errors(expr, cfg):
    # every statement the CLI can be given either evaluates to a value that
    # renders, or ends in a TreeError (ParseError included), never a crash
    try:
        value = eval_expression(expr, Session(cfg=cfg))
    except TreeError:
        return
    render_value(value)
