"""Decorated planar and non-planar rooted trees, exact grading, canonical forms.

All values are immutable after construction and hashable, so they can be
shared freely between threads and used as dictionary keys.  Trees are
interned: equal trees are one object, built once even when two threads
build it at the same time.  Planar child order is the planar embedding and
is never normalised; a non-planar tree is its canonical planar
representative (children sorted) and is built as one.

Three decoration modes exist and are never mixed inside one expression:

* ``label`` -- vertices carry string labels (or nothing), edges undecorated;
* ``plain`` -- vertices undecorated, edges carry small integer labels where
  0 renders as "no decoration";
* ``typed`` -- vertices carry multi-indices in N^d, edges carry a typed
  decoration (kernel or noise kind plus a multi-index).
"""

from __future__ import annotations

import itertools
import json
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add as _add, itemgetter, sub as _sub
from types import MappingProxyType


class TreeError(Exception):
    """Base class for all tree-algebra errors."""


class InvalidTree(TreeError):
    pass


class ModeMismatch(TreeError):
    pass


class UnknownDecoration(TreeError):
    pass


class DecoratedRoot(TreeError):
    pass


class NotInImage(TreeError):
    pass


class NotPrimitive(TreeError):
    pass


class TruncationExceeded(TreeError):
    pass


class NoiseAdjacentVertex(TreeError):
    pass


class ParseError(TreeError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# multi-indices


class MultiIndex(tuple):
    """Element of N^d with componentwise arithmetic.

    Subtraction that would go negative returns None; callers drop such terms
    (the convention "the terms in the sum are understood to be 0").

    The constructor validates its input; ``zero``, ``unit``, ``add``, ``sub``
    and ``mi_range`` build their results with ``tuple.__new__`` directly,
    since their components are non-negative ints by construction.
    """

    def __new__(cls, comps=()):
        comps = tuple(int(c) for c in comps)
        if any(c < 0 for c in comps):
            raise InvalidTree(f"negative multi-index component in {comps!r}")
        return tuple.__new__(cls, comps)

    @classmethod
    def zero(cls, d: int) -> "MultiIndex":
        return tuple.__new__(cls, (0,) * d)

    @classmethod
    def unit(cls, d: int, i: int) -> "MultiIndex":
        return tuple.__new__(cls, [1 if j == i else 0 for j in range(d)])

    def add(self, other: "MultiIndex") -> "MultiIndex":
        if len(other) != len(self):
            _length_mismatch(self, other)
        return tuple.__new__(MultiIndex, map(_add, self, other))

    def sub(self, other: "MultiIndex") -> "MultiIndex | None":
        if len(other) != len(self):
            _length_mismatch(self, other)
        out = tuple.__new__(MultiIndex, map(_sub, self, other))
        return None if min(out, default=0) < 0 else out

    @property
    def norm(self) -> int:
        return sum(self)

    def is_zero(self) -> bool:
        return not any(self)

    def binom(self, lower: "MultiIndex") -> int:
        """Componentwise product of binomial coefficients (self over lower)."""
        out = 1
        for a, b in zip(self, lower, strict=True):
            if b > a:
                return 0
            out *= comb(a, b)
        return out

    def leq(self, other: "MultiIndex") -> bool:
        return all(a <= b for a, b in zip(self, other, strict=True))


def _length_mismatch(a, b):
    """Raise the error ``zip(a, b, strict=True)`` raises on unequal lengths."""
    side = "longer" if len(b) > len(a) else "shorter"
    raise ValueError(f"zip() argument 2 is {side} than argument 1")


def mi_range(bound: MultiIndex):
    """All multi-indices m with 0 <= m <= bound componentwise."""
    for comps in itertools.product(*(range(b + 1) for b in bound)):
        yield tuple.__new__(MultiIndex, comps)


def mi_range_norm(d: int, max_norm: int):
    """All multi-indices in N^d with component sum <= max_norm, in
    ``mi_range`` order."""
    return (m for m in mi_range((max_norm,) * d) if m.norm <= max_norm)


def mi_multinomial(parts) -> int:
    """Componentwise multinomial coefficient (sum of parts over the parts).

    Counts the orderings of unit increments, which is the weight carried by
    the operator that distributes a multi-index over several vertices.
    """
    parts = list(parts)
    if not parts:
        return 1
    d = len(parts[0])
    out = 1
    for j in range(d):
        total = sum(p[j] for p in parts)
        num = factorial(total)
        for p in parts:
            num //= factorial(p[j])
        out *= num
    return out


def mi_compositions(total: MultiIndex, k: int):
    """All ways to write ``total`` as an ordered sum of k multi-indices."""
    if k == 0:
        if total.is_zero():
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for head in mi_range(total):
        rest = total.sub(head)
        for tail in mi_compositions(rest, k - 1):
            yield (head,) + tail


def sequential_binom(available: MultiIndex, parts) -> int:
    """Weight of deformed-grafting several edges onto one vertex.

    Equals binom(available, p1) * binom(available - p1, p2) * ...; zero when
    the decrements exhaust the decoration.
    """
    out = 1
    cur = available
    for p in parts:
        out *= cur.binom(p)
        if out == 0:
            return 0
        cur = cur.sub(p)
        if cur is None:
            return 0
    return out


# ---------------------------------------------------------------------------
# edge decorations


class EdgeType(tuple):
    """Typed edge decoration: a kernel ("K") or noise ("X") kind, the id of
    that kernel or noise, and a multi-index.

    A tuple ``(kind, which, index)`` with read-only named fields, so hashing
    and equality run in C: every typed intern lookup hashes its children's
    edges.
    """

    __slots__ = ()

    def __new__(cls, kind: str, which: int, index: MultiIndex):
        if kind not in ("K", "X"):
            raise InvalidTree(f"edge kind must be 'K' or 'X', got {kind!r}")
        return tuple.__new__(cls, (kind, which, index))

    kind = property(itemgetter(0))
    which = property(itemgetter(1))
    index = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"EdgeType(kind={self[0]!r}, which={self[1]!r}, index={self[2]!r})"

    @property
    def is_noise(self) -> bool:
        return self[0] == "X"

    def with_index(self, index: MultiIndex) -> "EdgeType":
        return tuple.__new__(EdgeType, (self[0], self[1], index))

    def key(self) -> str:
        return f"{self[0]}{self[1]}#({','.join(str(c) for c in self[2])})"


def edge_key(edge) -> str:
    if edge is None:
        return ""
    if isinstance(edge, int):
        return "" if edge == 0 else f"{edge}:"
    return edge.key() + ":"


def is_noise_edge(edge) -> bool:
    """The one rule for what may not be cut and what a block must contain:
    a non-zero plain label or a typed noise kind; label-mode edges never."""
    return edge.is_noise if isinstance(edge, EdgeType) else bool(edge)


def first_noise(children) -> int:
    """Index of the first noise edge among child entries; their count if none."""
    for j, (edge, _) in enumerate(children):
        if is_noise_edge(edge):
            return j
    return len(children)


def join_modes(*modes: str) -> str:
    """The one mode of the given ones, "" (no mode) being compatible with
    every mode; ModeMismatch when two differ."""
    out = ""
    for m in modes:
        if m and m != out:
            if out:
                raise ModeMismatch(f"mixed decoration modes {out!r} and {m!r}")
            out = m
    return out


# ---------------------------------------------------------------------------
# planar trees


_DEC_MODE = {type(None): "", str: "label", MultiIndex: "typed"}
_EDGE_MODE = {type(None): "label", int: "plain", EdgeType: "typed"}


def _validated_mode(dec, children: tuple) -> str:
    """The mode of the vertex ``dec`` with ``children``, after checking that
    they form a valid tree: decorations of a type in the mode tables, one
    mode, one multi-index dimension, at most one noise edge and only to a
    leaf.  A non-planar tree is no planar child."""
    mode = _DEC_MODE.get(type(dec))
    if mode is None:
        raise InvalidTree(f"unsupported vertex decoration {dec!r}")
    noise_edges = 0
    dim = len(dec) if mode == "typed" else None
    for entry in children:
        if not (isinstance(entry, tuple) and len(entry) == 2
                and type(entry[1]) is PlanarTree):
            raise InvalidTree(f"malformed child entry {entry!r}")
        edge, sub = entry
        edge_mode = _EDGE_MODE.get(type(edge))
        if edge_mode is None:
            raise InvalidTree(f"unsupported edge decoration {edge!r}")
        if edge_mode != mode or sub.mode not in ("", mode):
            mode = join_modes(mode, edge_mode, sub.mode)
        if edge_mode == "typed":
            if dim is not None and len(edge.index) != dim:
                raise InvalidTree("mixed multi-index dimensions")
            dim = len(edge.index)
            if isinstance(sub.dec, MultiIndex) and len(sub.dec) != dim:
                raise InvalidTree("mixed multi-index dimensions")
            if edge.is_noise:
                noise_edges += 1
                if sub.children:
                    raise InvalidTree("noise edges must terminate at leaves")
    if noise_edges > 1:
        raise InvalidTree("a vertex may have at most one outgoing noise edge")
    return mode


class _Interned(weakref.ref):
    """A weak reference to an interned tree that carries the tree's key."""

    __slots__ = ("key",)


# (dec, children, ext) -> weak reference to the one live planar tree of that
# value, and (dec, child trees, NonplanarTree) to the one non-planar tree; an
# entry leaves the table when its tree dies, so the table holds no more
# entries than there are live trees and never hands out a stale one
_INTERNED: dict = {}


def _forget(ref, table=_INTERNED, remove=_remove_dead_weakref):
    # deletes the entry only while it is a dead reference, so an entry that
    # a new tree of the same value has taken over stays
    remove(table, ref.key)


def _intern(cls, key, dec, children, ext):
    """The live tree filed under ``key``, built as a ``cls`` if there is
    none.  In a valid tree every edge has the tree's mode, so the first edge
    decides it; a leaf takes the mode of its decoration."""
    self = object.__new__(cls)
    self.dec = dec
    self.children = children
    self.ext = ext
    self.mode = _EDGE_MODE[type(children[0][0])] if children else _DEC_MODE[type(dec)]
    self._key = None
    ref = _Interned(self, _forget)
    ref.key = key
    while True:
        # setdefault inserts atomically, so two threads building the
        # same value get the same tree
        old = _INTERNED.setdefault(key, ref)
        if old is ref:
            return self
        live = old()
        if live is not None:
            return live
        # a dead tree whose callback has not run yet: take its place
        _remove_dead_weakref(_INTERNED, key)


class PlanarTree:
    """Planar rooted tree with optional vertex/edge decorations.

    ``children`` is a tuple of (edge decoration, subtree) pairs; the stored
    order is the planar embedding.  ``ext`` is the extended decoration, which
    the typed grading adds in; it is None on trees without one.

    Trees are hash-consed: at most one live instance exists per value
    (decoration, children, extended decoration), so equality and hashing
    are ``object``'s, by identity.  The constructor validates; ``_trusted``
    builds trees the library assembles from parts of valid trees
    (``with_dec``, ``with_children``, ``with_decs``, ``replace`` above the
    rebuilt vertex's parent, ``b_plus``, extracted and contracted blocks, the
    typed coproducts' moves) and skips the checks.
    """

    __slots__ = ("dec", "children", "ext", "mode", "_key", "__weakref__")

    def __new__(cls, dec=None, children=(), ext=None):
        children = tuple(children)
        _validated_mode(dec, children)
        return cls._trusted(dec, children, ext)

    @classmethod
    def _trusted(cls, dec, children, ext=None) -> "PlanarTree":
        """The live tree of this value, built without checks if there is
        none: ``children`` a tuple of entries whose modes, dimensions and
        noise edges already agree."""
        key = (dec, children, ext)
        ref = _INTERNED.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        return _intern(cls, key, dec, children, ext)

    def __reduce__(self):
        return PlanarTree._trusted, (self.dec, self.children, self.ext)

    def __repr__(self):
        return f"{type(self).__name__}({self.key()!r})"

    def key(self) -> str:
        """Canonical serialization; doubles as the deterministic sort key."""
        if self._key is None:
            dec = self.dec
            if dec is None:
                head = "o"
            elif isinstance(dec, str):
                head = dec
            else:
                head = str(dec[0]) if len(dec) == 1 else "(" + ",".join(str(c) for c in dec) + ")"
            if self.ext is not None:
                head += f"~{self.ext}"
            if self.children:
                inner = ",".join(edge_key(e) + t.key() for e, t in self.children)
                head += "[" + inner + "]"
            self._key = head
        return self._key

    # the rebuilding methods trust their arguments: a decoration of the kind
    # the tree already carries, children that form a valid vertex

    def with_dec(self, dec) -> "PlanarTree":
        return PlanarTree._trusted(dec, self.children, self.ext)

    def with_children(self, children) -> "PlanarTree":
        return PlanarTree._trusted(self.dec, tuple(children), self.ext)

    def with_decs(self, decs, path=()) -> "PlanarTree":
        """The same tree with the decoration at each path in ``decs`` replaced."""
        kids = tuple((edge, sub.with_decs(decs, path + (j,)))
                     for j, (edge, sub) in enumerate(self.children))
        return PlanarTree._trusted(decs.get(path, self.dec), kids, self.ext)

    # vertex addressing: a path is a tuple of child positions from the root

    def subtree(self, path) -> "PlanarTree":
        node = self
        for i in path:
            node = node.children[i][1]
        return node

    def replace(self, path, new: "PlanarTree") -> "PlanarTree":
        """The tree with the subtree at ``path`` replaced by ``new``.

        The parent of ``new`` is validated, which checks where ``new``
        attaches (mode, dimension, noise edge to a leaf); the vertices above
        it only swap one valid child for another and are trusted.
        """
        if not path:
            return new
        i = path[0]
        entries = list(self.children)
        edge, sub = entries[i]
        entries[i] = (edge, sub.replace(path[1:], new))
        make = PlanarTree if len(path) == 1 else PlanarTree._trusted
        return make(self.dec, tuple(entries), self.ext)

    def paths(self):
        """All vertex paths in depth-first (root first, left to right) order."""
        yield ()
        for i, (_, sub) in enumerate(self.children):
            for p in sub.paths():
                yield (i,) + p

    def has_incoming_noise(self, path) -> bool:
        if not path:
            return False
        return is_noise_edge(self.subtree(path[:-1]).children[path[-1]][0])


def forest_mode(forest) -> str:
    return join_modes(*(t.mode for t in forest))


def forest_key(forest) -> str:
    return "{" + " ".join(t.key() for t in forest) + "}"


# ---------------------------------------------------------------------------
# non-planar trees


class NonplanarTree(PlanarTree):
    """Rooted tree without a planar embedding, stored as its canonical
    planar representative: label-mode entries ``(None, child)`` with the
    children sorted by ``np_forest``.

    The sort key is length-lexicographic on the recursive serialization,
    which is total and deterministic.  Non-planar trees are interned like
    planar ones, under a key that names the class, so equality and hashing
    are by identity and a non-planar leaf is not the planar leaf of its
    label.  The constructor validates and sorts; ``_trusted`` builds trees
    the library assembles from parts of valid trees, from their children
    already in canonical order.
    """

    __slots__ = ()

    def __new__(cls, dec=None, children=()):
        for c in children:
            if not isinstance(c, NonplanarTree):
                raise InvalidTree(f"malformed non-planar child {c!r}")
        if dec is not None and not isinstance(dec, str):
            raise InvalidTree(f"non-planar trees carry string labels, got {dec!r}")
        return cls._trusted(dec, np_forest(children))

    @classmethod
    def _trusted(cls, dec, kids: tuple) -> "NonplanarTree":
        """The live tree of this value, built without checks if there is
        none: ``dec`` None or a string, ``kids`` a tuple of trees sorted as
        ``np_forest`` sorts."""
        key = (dec, kids, NonplanarTree)
        ref = _INTERNED.get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        return _intern(cls, key, dec, tuple((None, c) for c in kids), None)

    def __reduce__(self):
        return NonplanarTree._trusted, (self.dec, tuple(c for _, c in self.children))

    def sort_key(self):
        k = self.key()
        return (len(k), k)


def np_forest(trees) -> tuple:
    """Canonical non-planar forest: multiset stored as a sorted tuple."""
    trees = tuple(trees)
    return tuple(sorted(trees, key=NonplanarTree.sort_key)) if len(trees) > 1 else trees


def as_forest(x) -> tuple:
    """A planar or non-planar tree as the forest of that one tree; a forest
    as a tuple."""
    return (x,) if isinstance(x, PlanarTree) else tuple(x)


def to_nonplanar(t: PlanarTree) -> NonplanarTree:
    """The non-planar tree of a planar tree: its plane order forgotten."""
    return NonplanarTree(t.dec, tuple(to_nonplanar(sub) for _, sub in t.children))


def to_planar(t: NonplanarTree) -> PlanarTree:
    """A planar tree of a non-planar tree: its children in canonical order."""
    return PlanarTree(t.dec, tuple((None, to_planar(c)) for _, c in t.children))


# ---------------------------------------------------------------------------
# canonical form and counting


def canonicalize(t):
    """Idempotent canonical form.

    Trees are returned unchanged: planar construction validates the noise
    constraints and non-planar construction sorts children.  A non-planar
    forest is sorted by ``np_forest``; a planar forest keeps its order; a
    forest mixing the two is rejected.
    """
    if isinstance(t, PlanarTree):
        return t
    if isinstance(t, tuple):
        if all(type(x) is PlanarTree for x in t):
            return t
        if all(type(x) is NonplanarTree for x in t):
            return np_forest(t)
    raise InvalidTree(f"cannot canonicalize {t!r}")


def vertex_count(x) -> int:
    if isinstance(x, PlanarTree):
        return 1 + sum(vertex_count(sub) for _, sub in x.children)
    if isinstance(x, tuple):
        return sum(vertex_count(t) for t in x)
    raise InvalidTree(f"cannot count vertices of {x!r}")


# ---------------------------------------------------------------------------
# regularity configuration and grading


@dataclass(frozen=True)
class RegularityConfig:
    """Dimension, per-noise and per-kernel regularities, global truncation.

    ``alphas`` maps a noise id i to the regularity of the i-th driving path;
    ``betas`` maps a kernel id to the regularity gained by convolution.  The
    Hoelder exponent of a rough path is an analytic datum with no finite
    computation attached; it is deliberately not represented here.

    Frozen, with read-only ``alphas``/``betas``: configurations compare by
    content and hash by a value computed once, so they key every cache.
    """

    d: int = 1
    alphas: Mapping = None
    betas: Mapping = None
    truncation: int = 6

    def __post_init__(self):
        for name in ("alphas", "betas"):
            table = {int(k): Fraction(v) for k, v in (getattr(self, name) or {}).items()}
            object.__setattr__(self, name, MappingProxyType(table))
        object.__setattr__(self, "_hash", hash((
            self.d, frozenset(self.alphas.items()), frozenset(self.betas.items()),
            self.truncation)))

    def __hash__(self):
        return self._hash

    def to_json(self) -> str:
        """The config as the ``--config`` JSON that ``cli.Session.from_config``
        reads back, ids in increasing order and rationals as strings."""
        tables = {name: {str(k): str(v) for k, v in sorted(getattr(self, name).items())}
                  for name in ("alphas", "betas")}
        return json.dumps({"d": self.d, **tables, "truncation": self.truncation})

    def alpha(self, i: int) -> Fraction:
        try:
            return self.alphas[i]
        except KeyError:
            raise UnknownDecoration(f"no regularity configured for noise {i}")

    def beta(self, k: int) -> Fraction:
        try:
            return self.betas[k]
        except KeyError:
            raise UnknownDecoration(f"no regularity configured for kernel {k}")


def regularity(x, cfg: RegularityConfig) -> Fraction:
    """Exact grading of a tree or forest under ``cfg``.

    Typed mode: vertex decorations and extended decorations contribute
    their value (a missing extended decoration counts 0), the multi-index
    of an edge subtracts its component sum, noise edges add alpha_i - 1 and
    kernel edges add beta_k.  Plain and label mode, one rule: an edge
    labelled i != 0 adds alpha_i - 1 (a plain edge, or the edge that a
    numeric vertex label stands for in the edge-decorated picture), and
    every other edge adds 1.
    """
    if isinstance(x, tuple):
        return sum((regularity(t, cfg) for t in x), Fraction(0))
    if type(x) is not PlanarTree:
        raise InvalidTree(f"cannot grade {x!r}")
    return _tree_regularity(x, cfg)


@lru_cache(maxsize=None)
def _tree_regularity(t: PlanarTree, cfg: RegularityConfig) -> Fraction:
    return _regularity_typed(t, cfg) if t.mode == "typed" else _regularity_untyped(t, cfg)


def _regularity_typed(t: PlanarTree, cfg) -> Fraction:
    out = Fraction(t.dec.norm if isinstance(t.dec, MultiIndex) else 0)
    if t.ext is not None:
        out += t.ext
    for edge, sub in t.children:
        out -= edge.index.norm
        if edge.is_noise:
            out += cfg.alpha(edge.which) - 1
        else:
            out += cfg.beta(edge.which)
        out += _regularity_typed(sub, cfg)
    return out


def _regularity_untyped(t: PlanarTree, cfg) -> Fraction:
    out = Fraction(0)
    if t.dec not in (None, "0"):
        if not t.dec.isdigit():
            raise UnknownDecoration(f"cannot grade label {t.dec!r}")
        out += cfg.alpha(int(t.dec)) - 1
    for edge, sub in t.children:
        out += (cfg.alpha(edge) - 1 if edge else 1) + _regularity_untyped(sub, cfg)
    return out


# ---------------------------------------------------------------------------
# convenience constructors (used heavily by tests and the parser)


def lt(dec=None, *children):
    """Label-mode tree: lt('a', lt('b'), lt('c')) is a[b,c]."""
    return PlanarTree(dec, tuple((None, c) for c in children))


def pt(*entries):
    """Plain-mode tree from (edge_label, subtree) pairs: pt((0, pt()), (3, pt()))."""
    return PlanarTree(None, tuple((int(e), t) for e, t in entries))


def nt(dec=None, *children):
    return NonplanarTree(dec, tuple(children))
