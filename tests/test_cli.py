import json

import pytest

from planarhopf.cli import Session, eval_expression, main
from planarhopf.grammar import render_value
from planarhopf.linalg import LinComb
from planarhopf.trees import ParseError, lt


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


def _typed_cfg():
    from planarhopf.trees import RegularityConfig
    return RegularityConfig(d=1, alphas={1: "-5/8"}, betas={1: "1/2"},
                            truncation=6)


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
