"""Text grammar for trees, forests and linear combinations, plus JSON/LaTeX.

    tree   := DEC | DEC '[' child (',' child)* ']'
    child  := [EDEC ':'] tree
    DEC    := identifier | integer | '(' int (',' int)* ')'
    EDEC   := integer                      (plain mode)
            | KINDID '#' multi-index       (typed mode, KINDID in {K<i>, X<i>})
    forest := '{' tree (tree)* '}'
    lincomb := [rat '*'] term (('+'|'-') [rat '*'] term)*

Vertices without a decoration render as the identifier ``o``.  Plain edge
label 0 renders as no decoration.  Output is bit-exact UTF-8: terms are
sorted by the canonical serialization of their basis element.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .linalg import LinComb, Multiset, Tensor, basis_key
from .trees import (EdgeType, MultiIndex, NonplanarTree, ParseError,
                    PlanarTree, forest_key)

LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+")  # a vertex label: identifier or integer
_TOKEN = re.compile(r"\s*(%s|[\[\]{}(),:#*+\-/~])" % LABEL.pattern)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def peek2(self):
        return self.toks[self.i + 1][0] if self.i + 1 < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def next(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.pos())
        return got

    def done(self):
        return self.i >= len(self.toks)


_KIND = re.compile(r"^([KX])(\d+)$")


def sniff_mode(text: str) -> str:
    if "#" in text:
        return "typed"
    if re.search(r"\d+\s*:", text):
        return "plain"
    return "label"


def _parse_component(ts: _Tokens) -> int:
    tok = ts.next()
    if not tok.isdigit():
        raise ParseError(f"expected a non-negative integer component, got {tok!r}",
                         ts.pos())
    return int(tok)


def _parse_multiindex(ts: _Tokens) -> MultiIndex:
    if ts.peek() != "(":
        return MultiIndex((_parse_component(ts),))
    ts.next()
    comps = [_parse_component(ts)]
    while ts.peek() == ",":
        ts.next()
        comps.append(_parse_component(ts))
    ts.expect(")")
    return MultiIndex(comps)


def _parse_dec(ts: _Tokens, mode: str):
    tok = ts.peek()
    if mode == "typed":
        return _parse_multiindex(ts)
    if tok == "(":
        raise ParseError("parenthesised decorations require typed mode", ts.pos())
    pos = ts.pos()
    ts.next()
    if mode == "plain":
        if tok != "o":
            raise ParseError(f"plain-mode vertices are undecorated, got {tok!r}", ts.pos())
        return None
    if not (tok[0].isalnum() or tok[0] == "_"):
        raise ParseError(f"expected an identifier or integer label, got {tok!r}", pos)
    return None if tok == "o" else tok


def _parse_edge(ts: _Tokens, mode: str):
    """Parse an optional EDEC ':' prefix; returns the mode default otherwise."""
    if mode == "label":
        return None
    tok = ts.peek()
    if mode == "plain":
        if tok is not None and tok.isdigit() and ts.peek2() == ":":
            label = int(ts.next())
            ts.expect(":")
            return label
        return 0
    # typed
    if tok is not None and _KIND.match(tok):
        kind_tok = ts.next()
        m = _KIND.match(kind_tok)
        ts.expect("#")
        index = _parse_multiindex(ts)
        ts.expect(":")
        return EdgeType(m.group(1), int(m.group(2)), index)
    raise ParseError(f"typed-mode edges need a K<i>#idx or X<i>#idx prefix, got {tok!r}",
                     ts.pos())


def _parse_tree(ts: _Tokens, mode: str) -> PlanarTree:
    dec = _parse_dec(ts, mode)
    children = []
    if ts.peek() == "[":
        ts.next()
        while True:
            edge = _parse_edge(ts, mode)
            sub = _parse_tree(ts, mode)
            children.append((edge, sub))
            if ts.peek() == ",":
                ts.next()
                continue
            ts.expect("]")
            break
    return PlanarTree(dec, tuple(children))


def parse_tree(text: str, mode: str = "auto") -> PlanarTree:
    if mode == "auto":
        mode = sniff_mode(text)
    ts = _Tokens(text)
    out = _parse_tree(ts, mode)
    if not ts.done():
        raise ParseError(f"trailing input {ts.peek()!r}", ts.pos())
    return out


def _parse_forest(ts: _Tokens, mode: str) -> tuple:
    ts.expect("{")
    trees = []
    while ts.peek() != "}":
        trees.append(_parse_tree(ts, mode))
    ts.expect("}")
    return tuple(trees)


def parse_forest(text: str, mode: str = "auto") -> tuple:
    if mode == "auto":
        mode = sniff_mode(text)
    ts = _Tokens(text)
    out = _parse_forest(ts, mode)
    if not ts.done():
        raise ParseError(f"trailing input {ts.peek()!r}", ts.pos())
    return out


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"bad rational {text!r}: expected a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}")


def _parse_rat(ts: _Tokens) -> Fraction:
    num = int(ts.next())
    if ts.peek() == "/":
        ts.next()
        return Fraction(num, int(ts.next()))
    return Fraction(num)


def parse_lincomb(text: str, mode: str = "auto", kind: str = "auto") -> LinComb:
    """Parse ``[rat*]term +- ...`` where term is a tree or a forest.

    ``kind`` forces basis elements to be trees or forests ("tree"/"forest");
    with "auto", braces mean forest and anything else a tree.
    """
    if mode == "auto":
        mode = sniff_mode(text)
    ts = _Tokens(text)
    out = LinComb()
    sign = 1
    while True:
        coeff = Fraction(sign)
        if ts.peek() is not None and ts.peek().isdigit() and ts.peek2() in ("*", "/"):
            coeff = sign * _parse_rat(ts)
            ts.expect("*")
        if ts.peek() == "{":
            basis = _parse_forest(ts, mode)
            if kind == "tree":
                raise ParseError("expected a tree, found a forest", ts.pos())
        else:
            tree = _parse_tree(ts, mode)
            basis = (tree,) if kind == "forest" else tree
        out.add_term(basis, coeff)
        if ts.done():
            return out
        tok = ts.next()
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {tok!r}", ts.pos())


# ---------------------------------------------------------------------------
# rendering


def fmt_coeff(c) -> str:
    """A coefficient, int or Fraction: equal values print the same."""
    return str(c)


def serialize_basis(b) -> str:
    """Canonical UTF-8 rendering of any basis element produced by the library."""
    if isinstance(b, (PlanarTree, NonplanarTree)):
        return b.key()
    if isinstance(b, Multiset):
        if not b:
            return "1"
        return " . ".join(serialize_basis(x) for x in b)
    if isinstance(b, Tensor):
        return " (x) ".join(serialize_basis(x) for x in b)
    if isinstance(b, tuple):
        if all(isinstance(t, (PlanarTree, NonplanarTree)) for t in b):
            return forest_key(b)
        if len(b) == 2 and isinstance(b[1], str):
            return "(" + serialize_basis(b[0]) + ", " + b[1] + ")"
        return " (x) ".join(serialize_basis(x) for x in b)
    return str(b)


def _items_by_rendering(lc: LinComb):
    return sorted(((serialize_basis(b), c) for b, c in lc.items()),
                  key=lambda item: item[0])


def lincomb_to_text(lc: LinComb) -> str:
    if not lc:
        return "0"
    parts = []
    for term, c in _items_by_rendering(lc):
        mag = abs(c)
        body = term if mag == 1 else f"{fmt_coeff(mag)}*{term}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def lincomb_to_json(lc: LinComb) -> str:
    terms = [{"coeff": fmt_coeff(c), "basis": basis}
             for basis, c in _items_by_rendering(lc)]
    return json.dumps({"terms": terms}, ensure_ascii=False, separators=(",", ":"))


def _latex_tree(t: PlanarTree) -> str:
    dec = ""
    if isinstance(t.dec, str):
        dec = t.dec
    elif isinstance(t.dec, MultiIndex):
        dec = str(t.dec[0]) if len(t.dec) == 1 else "(" + ",".join(map(str, t.dec)) + ")"
    body = dec
    for edge, sub in t.children:
        inner = _latex_tree(sub)
        label = ""
        if isinstance(edge, int) and edge != 0:
            label = str(edge)
        elif isinstance(edge, EdgeType):
            label = edge.key()
        if label:
            inner = inner + ",edge label={node[midway,fill=white,scale=0.5]{$%s$}}" % label
        body += "[" + inner + "]"
    return body


def basis_to_latex(b) -> str:
    if isinstance(b, PlanarTree):
        return "\\Forest{[" + _latex_tree(b) + "]}"
    if isinstance(b, NonplanarTree):
        return basis_to_latex(_np_to_planar(b))
    if isinstance(b, Multiset):
        if not b:
            return "1"
        return " \\centerdot ".join(basis_to_latex(x) for x in b)
    if isinstance(b, tuple):
        if all(isinstance(t, (PlanarTree, NonplanarTree)) for t in b):
            return "1" if not b else " ".join(basis_to_latex(t) for t in b)
        return " \\otimes ".join(basis_to_latex(x) for x in b)
    return str(b)


def _np_to_planar(t: NonplanarTree) -> PlanarTree:
    return PlanarTree(t.dec, tuple((None, _np_to_planar(c)) for c in t.children))


def lincomb_to_latex(lc: LinComb) -> str:
    if not lc:
        return "0"
    parts = []
    for b, c in lc.items_sorted():
        term = basis_to_latex(b)
        mag = abs(c)
        if mag == 1:
            body = term
        elif mag.denominator == 1:
            body = f"{mag}\\," + term
        else:
            body = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}" + term
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return " ".join(parts)


def render_value(value, fmt: str = "text") -> str:
    """Render a library value (LinComb, Fraction, bool, basis element)."""
    if isinstance(value, LinComb):
        if fmt == "json":
            return lincomb_to_json(value)
        if fmt == "latex":
            return lincomb_to_latex(value)
        return lincomb_to_text(value)
    if isinstance(value, Fraction):
        return json.dumps({"value": fmt_coeff(value)}) if fmt == "json" else fmt_coeff(value)
    if isinstance(value, bool):
        return json.dumps({"value": value}) if fmt == "json" else str(value).lower()
    if isinstance(value, (PlanarTree, NonplanarTree, tuple, Multiset)):
        out = serialize_basis(value)
        return json.dumps({"value": out}, ensure_ascii=False) if fmt == "json" else out
    if isinstance(value, int):
        return json.dumps({"value": value}) if fmt == "json" else str(value)
    if isinstance(value, list):
        items = [serialize_basis(v) if not isinstance(v, str) else v for v in value]
        return json.dumps({"values": items}, ensure_ascii=False) if fmt == "json" \
            else "\n".join(items)
    return str(value)
