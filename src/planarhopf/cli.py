"""Command-line interface: expression evaluation and suite running.

    planarhopf eval "mkw({a b[c,d]})" --format json
    planarhopf eval "deltaminusPB(o[o[o,2:o],o[3:o],1:o])" --config cfg.json
    planarhopf suite golden --seed 3

Config files are JSON with string-encoded rationals, e.g.

    {"d": 1, "alphas": {"1": "49/100"}, "betas": {"1": "3/2"},
     "truncation": 5, "L": {"0": "1", "1": "1/2"},
     "alphabet": ["a", "b"], "pi": "eulerian"}

Expressions are function calls over tree/forest literals in the text
grammar; ``name = expr;`` statements bind intermediate values for the rest
of the input.  Flags inside a call (``--cap 2``) become keyword arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from . import coactions, deformed, negative, postlie, rough, suites
from .grammar import (LABEL, parse_forest, parse_lincomb, parse_rational,
                      parse_tree, render_value)
from .linalg import LinComb, Multiset, pair
from .trees import (MultiIndex, ParseError, PlanarTree, RegularityConfig,
                    TreeError, canonicalize, regularity, vertex_count)


PI_CHOICES = ("eulerian", "leftbracket")


@dataclass
class Session:
    """Evaluation context: grading config, provider generator, conventions.

    All evaluations are reproducible from (config, expression); bindings
    only cache values inside one invocation.
    """

    cfg: RegularityConfig = field(default_factory=lambda: suites.DEFAULT_CFG)
    alphabet: tuple = ("a", "b")
    pi: str = "eulerian"
    generator: dict = field(default_factory=lambda: {"0": "1", "1": "1/2"})
    bindings: dict = field(default_factory=dict)
    _provider: object = None

    @classmethod
    def from_config(cls, path: str | None) -> "Session":
        if path is None:
            return cls()
        raw = _load_json(path)
        if not isinstance(raw, dict):
            raise ParseError(f"config {path!r} is not a JSON object")
        d = _config_int(raw.get("d", 1))
        if d < 1:
            raise ParseError(f"config entry 'd' must be at least 1, got {d}")
        truncation = _config_int(raw.get("truncation", 5))
        if truncation < 0:
            raise ParseError(f"config entry 'truncation' must not be negative, got {truncation}")
        cfg = RegularityConfig(
            d=d,
            alphas={_config_int(k): parse_rational(v)
                    for k, v in _config_map(raw, "alphas").items()},
            betas={_config_int(k): parse_rational(v)
                   for k, v in _config_map(raw, "betas").items()},
            truncation=truncation)
        alphabet = raw.get("alphabet", ["a", "b"])
        if not isinstance(alphabet, list) or \
                not all(isinstance(a, str) for a in alphabet):
            raise ParseError("config entry 'alphabet' is not a list of strings")
        pi = raw.get("pi", "eulerian")
        if pi not in PI_CHOICES:
            raise ParseError(f"config entry 'pi' must be one of "
                             f"{', '.join(PI_CHOICES)}, got {pi!r}")
        generator = _config_map(raw, "L") if "L" in raw else {"0": "1", "1": "1/2"}
        for coeff in generator.values():
            parse_rational(coeff)
        for label in (*alphabet, *generator):
            if not LABEL.fullmatch(label):
                raise ParseError(f"config label {label!r} is not an identifier or integer")
            if label == "o":
                raise ParseError("config label 'o' is reserved: the grammar writes "
                                 "an undecorated vertex as 'o'")
        return cls(cfg=cfg, alphabet=tuple(alphabet), pi=pi, generator=generator)

    def provider(self) -> rough.RoughPathProvider:
        if self._provider is None:
            gen = LinComb()
            for label, coeff in self.generator.items():
                gen.add_term((PlanarTree(str(label)),), parse_rational(str(coeff)))
            self._provider = rough.RoughPathProvider(gen, self.cfg.truncation)
        return self._provider


# ---------------------------------------------------------------------------
# the function table: (argument kinds, handler)
#
# argument kinds: label/plain/typed lincombs parsed in the right mode,
# "rat" rationals, "int" integers, "np" non-planar trees, "file" a path


def _forest_lc(text, mode):
    return parse_lincomb(text, mode=mode, kind="forest")


def _tree_lc(text, mode):
    return parse_lincomb(text, mode=mode, kind="tree")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def _config_int(value):
    """An integer config entry: a JSON integer or a string holding one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"expected an integer, got {value!r}")
    return _parse_int(value)


def _config_map(raw, name):
    """A config entry mapping ids to rationals; absent means empty."""
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ParseError(f"config entry {name!r} is not a JSON object")
    return value


def _unit(s, i):
    """The unit multi-index along coordinate i of the session's dimension."""
    if not 0 <= i < s.cfg.d:
        raise ParseError(f"coordinate {i} is outside 0..{s.cfg.d - 1}")
    return MultiIndex.unit(s.cfg.d, i)


def _ell_from_file(path, mode="plain"):
    raw = _load_json(path)
    return {parse_tree(k, mode=mode): parse_rational(v) for k, v in raw.items()}


FUNCTIONS = {}


def _register(name, argkinds, handler, kwargs=()):
    FUNCTIONS[name] = (argkinds, tuple(kwargs), handler)


def _setup_functions():
    _register("pair", ("label-forest", "label-forest"),
              lambda s, a, b: pair(a, b))
    _register("canonicalize", ("any-tree",), lambda s, x: canonicalize(x))
    _register("vertexcount", ("any-tree",), lambda s, x: vertex_count(x))
    _register("reg", ("any-tree",), lambda s, x: regularity(x, s.cfg))

    _register("graft", ("label-tree", "label-tree"),
              lambda s, a, b: postlie.graft(a, b))
    _register("gograft", ("label-forest", "label-forest"),
              lambda s, a, b: postlie.go_graft(a, b))
    _register("gl", ("label-forest", "label-forest"),
              lambda s, a, b: postlie.gl_product(a, b))
    _register("shuffle", ("label-forest", "label-forest"),
              lambda s, a, b: postlie.shuffle(a, b))
    _register("mkw", ("label-forest",),
              lambda s, x: x.map_basis(lambda w: postlie.mkw_coproduct(
                  LinComb.term(w))))
    _register("bplus", ("label-forest",),
              lambda s, x: x.map_basis(postlie.b_plus))
    _register("bminus", ("label-tree",),
              lambda s, x: x.map_basis(postlie.b_minus))
    _register("antipode", ("label-forest",),
              lambda s, x: postlie.antipode(x))
    _register("omega", ("np-forest",),
              lambda s, x: postlie.omega_embed(x))
    _register("ck", ("np-forest",),
              lambda s, x: postlie.ck_coproduct(x))

    _register("rhoS", ("label-forest",),
              lambda s, x: x.map_basis(
                  lambda w: coactions.rho_S(w, s.alphabet, s.pi)))
    _register("rhoT", ("label-forest",),
              lambda s, x: x.map_basis(
                  lambda w: coactions.rho_T(w, s.alphabet, s.pi)))
    _register("rhoT0", ("label-forest",),
              lambda s, x: x.map_basis(
                  lambda w: coactions.rho_T0(w, s.pi)))
    _register("rhoTnp", ("np-forest",),
              lambda s, x: x.map_basis(
                  lambda w: coactions.rho_np(w, s.alphabet, False)))
    _register("rhoSnp", ("np-forest",),
              lambda s, x: x.map_basis(
                  lambda w: coactions.rho_np(w, s.alphabet, True)))
    _register("cointeract", ("label-forest",),
              lambda s, x: all(coactions.cointeraction_check(w, s.pi)
                               for w in x))

    _register("phi", ("label-forest",), lambda s, x: rough.phi(x))
    _register("phiinv", ("plain-forest",), lambda s, x: rough.phi_inv(x))
    _register("deltaplusPB", ("plain-tree",),
              lambda s, x: rough.delta_plus_pb(x))
    _register("deltaminusPB", ("plain-tree",),
              lambda s, x: x.map_basis(
                  lambda t: rough.delta_minus_pb(t, s.cfg)))
    _register("modelpi", ("rat", "rat", "plain-tree"),
              lambda s, a, b, x: rough.Model(s.provider(), s.cfg).pi(a, b, x))
    _register("modelgamma", ("rat", "rat", "plain-tree"),
              lambda s, a, b, x: rough.Model(s.provider(), s.cfg).gamma(a, b, x))
    _register("renorm", ("file", "plain-tree"),
              lambda s, path, x: rough.Model(
                  s.provider(), s.cfg, ell=_ell_from_file(path)).renormalise(x))

    _register("dgraft", ("typed-tree", "typed-tree"),
              lambda s, a, b: deformed.dgraft_v(a, b))
    _register("starplus", ("typed-tree", "typed-tree"),
              lambda s, a, b: deformed.star_plus(a, b))
    _register("deltaplus", ("typed-tree",),
              lambda s, x: x.map_basis(
                  lambda t: deformed.delta_plus(t, s.cfg)))
    _register("deltaplus0", ("typed-tree",),
              lambda s, x, cap=1: x.map_basis(
                  lambda t: deformed.delta_plus_0(
                      t, MultiIndex((cap,) * s.cfg.d))),
              kwargs=("cap",))
    _register("up", ("typed-tree", "int"),
              lambda s, x, i: deformed.up_lc(x, _unit(s, i)))
    _register("down", ("typed-tree", "int"),
              lambda s, x, i: deformed.down_root(x, _unit(s, i)))
    _register("gamma", ("file", "typed-tree"),
              lambda s, path, x: deformed.gamma_g(
                  deformed.TreeCharacter(_ell_from_file(path, mode="typed")),
                  x, s.cfg))

    _register("insert", ("typed-tree", "typed-tree"),
              lambda s, a, b: negative.insert(a, b))
    _register("dinsert", ("typed-tree", "typed-tree"),
              lambda s, a, b: negative.dinsert(a, b))
    _register("starminus", ("typed-forest", "typed-forest"),
              lambda s, a, b: negative.star_minus(
                  a.map_basis(Multiset), b.map_basis(Multiset)))
    _register("deltaminus", ("typed-tree",),
              lambda s, x: x.map_basis(
                  lambda t: negative.delta_minus(t, s.cfg)))
    _register("deltaminusnr", ("typed-tree",),
              lambda s, x: x.map_basis(
                  lambda t: negative.delta_minus_nonroot(t, s.cfg)))
    _register("cointeract4", ("typed-tree",),
              lambda s, x, cap=2: all(
                  negative.cointeraction_check_trunc(
                      t, s.cfg, MultiIndex((cap,) * s.cfg.d))
                  for t in x),
              kwargs=("cap",))
    _register("cointeractex", ("typed-tree",),
              lambda s, x: all(negative.cointeraction_check_ex(t, s.cfg)
                               for t in x))


_setup_functions()


# ---------------------------------------------------------------------------
# expression evaluation


def _split_call(expr: str):
    expr = expr.strip()
    open_paren = expr.find("(")
    if open_paren < 0 or not expr.endswith(")"):
        return None
    name = expr[:open_paren].strip()
    if not name.isidentifier():
        return None
    inner = expr[open_paren + 1:-1]
    args, depth, cur = [], 0, []
    for ch in inner:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return name, args


def _parse_arg(session: Session, kind: str, text: str):
    text = text.strip()
    if text in session.bindings:
        return session.bindings[text]
    if kind == "rat":
        return parse_rational(text)
    if kind == "int":
        return _parse_int(text)
    if kind == "file":
        return text.strip("\"'")
    if kind == "np-forest":
        if text.startswith("{"):
            trees = parse_forest(text, mode="label")
            return LinComb.term(tuple(_to_np(t) for t in trees))
        return LinComb.term((_to_np(parse_tree(text, mode="label")),))
    mode, shape = kind.split("-")
    if mode == "any":
        return parse_tree(text)
    value = (_forest_lc if shape == "forest" else _tree_lc)(text, mode)
    if mode == "typed":
        for b in value:
            for t in (b if shape == "forest" else (b,)):
                if len(t.dec) != session.cfg.d:
                    raise ParseError(f"operand {t.key()} has dimension {len(t.dec)}, "
                                     f"the session has d = {session.cfg.d}")
    return value


def _to_np(t: PlanarTree):
    from .trees import NonplanarTree
    return NonplanarTree(t.dec, tuple(_to_np(sub) for _, sub in t.children))


def eval_expression(expr: str, session: Session):
    """Evaluate one expression, resolving ``name = expr;`` bindings first."""
    statements = [s.strip() for s in expr.split(";") if s.strip()]
    value = None
    for stmt in statements:
        target = None
        if "=" in stmt and _split_call(stmt.split("=", 1)[0].strip()) is None \
                and stmt.split("=", 1)[0].strip().isidentifier():
            target, stmt = (part.strip() for part in stmt.split("=", 1))
        call = _split_call(stmt)
        if call is None:
            raise ParseError(f"expected a function call, got {stmt!r}")
        name, raw_args = call
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}")
        argkinds, kwnames, handler = FUNCTIONS[name]
        kwargs = {}
        positional = []
        i = 0
        while i < len(raw_args):
            arg = raw_args[i]
            if arg.startswith("--"):
                flag = arg[2:].split(None, 1)
                if len(flag) == 1 and i + 1 < len(raw_args):
                    i += 1
                    flag.append(raw_args[i])
                if len(flag) != 2:
                    raise ParseError(f"flag {arg!r} needs a value")
                kwargs[flag[0]] = _parse_int(flag[1])
            elif "=" in arg and arg.split("=", 1)[0].strip().isidentifier() \
                    and arg.split("=", 1)[0].strip() in kwnames:
                k, v = arg.split("=", 1)
                kwargs[k.strip()] = _parse_int(v.strip())
            else:
                positional.append(arg)
            i += 1
        if len(positional) != len(argkinds):
            raise ParseError(
                f"{name} expects {len(argkinds)} arguments, got {len(positional)}")
        parsed = [_parse_arg(session, kind, text)
                  for kind, text in zip(argkinds, positional)]
        try:
            value = handler(session, *parsed, **kwargs)
        except ParseError:
            raise
        except TreeError as exc:
            raise type(exc)(f"in {stmt!r}: {exc}") from exc
        except TypeError as exc:
            raise ParseError(f"bad arguments for {name}: {exc}")
        if target is not None:
            session.bindings[target] = value
    return value


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarhopf",
        description="exact Hopf-algebra computations on decorated planar trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--format", default="text",
                        choices=("text", "json", "latex"))
    p_eval.add_argument("--alphabet", default=None,
                        help="comma-separated letters for the coactions")
    p_eval.add_argument("--pi", default=None,
                        choices=PI_CHOICES)

    p_suite = sub.add_parser("suite", help="run a named check collection")
    p_suite.add_argument("name", nargs="?", default="all")
    p_suite.add_argument("--config", default=None)
    p_suite.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "eval":
        try:
            session = Session.from_config(args.config)
            if args.alphabet:
                session.alphabet = tuple(args.alphabet.split(","))
            if args.pi:
                session.pi = args.pi
            value = eval_expression(args.expression, session)
        except TreeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_value(value, args.format))
        return 0

    if args.command == "suite":
        try:
            cfg = Session.from_config(args.config).cfg if args.config else None
            if cfg is not None and cfg.d != 1:
                raise ParseError(f"suite --config needs d = 1, got d = {cfg.d}: "
                                 "the suites sweep d = 1 trees")
            if args.name == "all":
                results = suites.run_all(cfg, args.seed)
            else:
                results = suites.run_suite(args.name, cfg, args.seed)
        except (ParseError, suites.UnknownSuite) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = 0
        for r in results:
            print(r.line())
            failures += 0 if r.ok else 1
        print(f"{len(results) - failures}/{len(results)} checks passed")
        return 1 if failures else 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
