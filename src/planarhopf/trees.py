"""Decorated planar and non-planar rooted trees, exact grading, canonical forms.

All values are immutable after construction and hashable, so they can be
shared freely between threads and used as dictionary keys.  Planar child
order is the planar embedding and is never normalised; non-planar trees are
canonicalised (children sorted) at construction time.

Three decoration modes exist and are never mixed inside one expression:

* ``label`` -- vertices carry string labels (or nothing), edges undecorated;
* ``plain`` -- vertices undecorated, edges carry small integer labels where
  0 renders as "no decoration";
* ``typed`` -- vertices carry multi-indices in N^d, edges carry a typed
  decoration (kernel or noise kind plus a multi-index).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
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
        return tuple.__new__(MultiIndex, [a + b for a, b in zip(self, other, strict=True)])

    def sub(self, other: "MultiIndex") -> "MultiIndex | None":
        comps = [a - b for a, b in zip(self, other, strict=True)]
        if min(comps, default=0) < 0:
            return None
        return tuple.__new__(MultiIndex, comps)

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


def mi_range(bound: MultiIndex):
    """All multi-indices m with 0 <= m <= bound componentwise."""
    for comps in itertools.product(*(range(b + 1) for b in bound)):
        yield tuple.__new__(MultiIndex, comps)


def mi_range_norm(d: int, max_norm: int):
    """All multi-indices in N^d with component sum <= max_norm."""
    def rec(left, budget):
        if left == 1:
            for c in range(budget + 1):
                yield (c,)
            return
        for c in range(budget + 1):
            for rest in rec(left - 1, budget - c):
                yield (c,) + rest

    if d == 0:
        yield MultiIndex(())
        return
    for comps in rec(d, max_norm):
        yield tuple.__new__(MultiIndex, comps)


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


@dataclass(frozen=True)
class EdgeType:
    """Typed edge decoration: a kernel ("K") or noise ("X") kind plus index."""

    kind: str
    which: int
    index: MultiIndex

    def __post_init__(self):
        if self.kind not in ("K", "X"):
            raise InvalidTree(f"edge kind must be 'K' or 'X', got {self.kind!r}")

    @property
    def is_noise(self) -> bool:
        return self.kind == "X"

    def with_index(self, index: MultiIndex) -> "EdgeType":
        return EdgeType(self.kind, self.which, index)

    def key(self) -> str:
        return f"{self.kind}{self.which}#({','.join(str(c) for c in self.index)})"


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


def _mode_of_edge(edge) -> str:
    if edge is None:
        return "label"
    if isinstance(edge, int):
        return "plain"
    if isinstance(edge, EdgeType):
        return "typed"
    raise InvalidTree(f"unsupported edge decoration {edge!r}")


def _join_modes(a: str, b: str) -> str:
    if a == "" or a == b:
        return b
    if b == "":
        return a
    raise ModeMismatch(f"mixed decoration modes {a!r} and {b!r}")


def join_modes(*modes: str) -> str:
    out = ""
    for m in modes:
        out = _join_modes(out, m)
    return out


# ---------------------------------------------------------------------------
# planar trees


_DEC_MODE = {type(None): "", str: "label", MultiIndex: "typed"}
_EDGE_MODE = {type(None): "label", int: "plain", EdgeType: "typed"}


class PlanarTree:
    """Planar rooted tree with optional vertex/edge decorations.

    ``children`` is a tuple of (edge decoration, subtree) pairs; the stored
    order is the planar embedding.  ``ext`` is the extended decoration, which
    the typed grading adds in; it is None on trees without one.

    The constructor validates; ``_trusted`` builds trees the library
    assembles from parts of valid trees (``with_dec``, ``with_children``,
    ``with_decs``, ``replace`` above the rebuilt vertex's parent, ``b_plus``,
    extracted and contracted blocks, the typed coproducts' moves) and skips
    the checks, deriving the same ``mode`` and hash.
    """

    __slots__ = ("dec", "children", "ext", "mode", "_hash", "_key")

    def __init__(self, dec=None, children=(), ext=None):
        children = tuple(children)
        mode = ""
        if isinstance(dec, str):
            mode = "label"
        elif isinstance(dec, MultiIndex):
            mode = "typed"
        elif dec is not None:
            raise InvalidTree(f"unsupported vertex decoration {dec!r}")
        noise_edges = 0
        dim = len(dec) if isinstance(dec, MultiIndex) else None
        for entry in children:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[1], PlanarTree)):
                raise InvalidTree(f"malformed child entry {entry!r}")
            edge, sub = entry
            mode = _join_modes(mode, _mode_of_edge(edge))
            mode = _join_modes(mode, sub.mode)
            if isinstance(edge, EdgeType):
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
        self.dec = dec
        self.children = children
        self.ext = ext
        self.mode = mode
        self._key = None
        self._hash = hash((dec, children, ext))

    @classmethod
    def _trusted(cls, dec, children, ext=None) -> "PlanarTree":
        """A tree from parts known to form a valid tree: ``children`` a tuple
        of entries whose modes, dimensions and noise edges already agree.

        In a valid tree every edge has the tree's mode, so the first edge
        decides it; a leaf takes the mode of its decoration.
        """
        self = object.__new__(cls)
        self.dec = dec
        self.children = children
        self.ext = ext
        self.mode = _EDGE_MODE[type(children[0][0])] if children else _DEC_MODE[type(dec)]
        self._key = None
        self._hash = hash((dec, children, ext))
        return self

    def __eq__(self, other):
        return (self is other) or (
            isinstance(other, PlanarTree)
            and self._hash == other._hash
            and self.dec == other.dec
            and self.ext == other.ext
            and self.children == other.children
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PlanarTree({self.key()!r})"

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


class NonplanarTree:
    """Rooted tree without a planar embedding; children stored canonically.

    The sort key is length-lexicographic on the recursive serialization,
    which is total and deterministic.
    """

    __slots__ = ("dec", "children", "_hash", "_key")

    def __init__(self, dec=None, children=()):
        for c in children:
            if not isinstance(c, NonplanarTree):
                raise InvalidTree(f"malformed non-planar child {c!r}")
        children = tuple(sorted(children, key=lambda t: t.sort_key()))
        if dec is not None and not isinstance(dec, str):
            raise InvalidTree(f"non-planar trees carry string labels, got {dec!r}")
        self.dec = dec
        self.children = children
        self._key = None
        self._hash = hash((dec, children))

    def __eq__(self, other):
        return isinstance(other, NonplanarTree) and \
            self.dec == other.dec and self.children == other.children

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NonplanarTree({self.key()!r})"

    def key(self) -> str:
        if self._key is None:
            head = self.dec if self.dec is not None else "o"
            if self.children:
                head += "[" + ",".join(t.key() for t in self.children) + "]"
            self._key = head
        return self._key

    def sort_key(self):
        k = self.key()
        return (len(k), k)


def np_forest(trees) -> tuple:
    """Canonical non-planar forest: multiset stored as a sorted tuple."""
    return tuple(sorted(trees, key=lambda t: t.sort_key()))


# ---------------------------------------------------------------------------
# canonical form and counting


def canonicalize(t):
    """Idempotent canonical form.

    Planar trees are returned unchanged (construction already validates the
    noise constraints); non-planar trees are rebuilt with sorted children.
    """
    if isinstance(t, PlanarTree):
        return t
    if isinstance(t, NonplanarTree):
        return NonplanarTree(t.dec, tuple(canonicalize(c) for c in t.children))
    if isinstance(t, tuple):
        out = tuple(canonicalize(x) for x in t)
        if out and isinstance(out[0], NonplanarTree):
            return np_forest(out)
        return out
    raise InvalidTree(f"cannot canonicalize {t!r}")


def vertex_count(x) -> int:
    if isinstance(x, PlanarTree):
        return 1 + sum(vertex_count(sub) for _, sub in x.children)
    if isinstance(x, NonplanarTree):
        return 1 + sum(vertex_count(c) for c in x.children)
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
    kernel edges add beta_k.  Plain mode: undecorated edges contribute +1
    and an edge labelled i contributes alpha_i - 1.  Label mode with numeric
    labels is graded through the edge-decorated picture: each edge
    contributes +1 and each non-zero label i contributes alpha_i - 1.
    """
    if isinstance(x, tuple):
        return sum((regularity(t, cfg) for t in x), Fraction(0))
    if not isinstance(x, PlanarTree):
        raise InvalidTree(f"cannot grade {x!r}")
    return _tree_regularity(x, cfg)


@lru_cache(maxsize=None)
def _tree_regularity(t: PlanarTree, cfg: RegularityConfig) -> Fraction:
    if t.mode == "typed":
        return _regularity_typed(t, cfg)
    if t.mode == "plain":
        return _regularity_plain(t, cfg)
    return _regularity_label(t, cfg)


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


def _regularity_plain(t: PlanarTree, cfg) -> Fraction:
    out = Fraction(0)
    for edge, sub in t.children:
        out += Fraction(1) if edge == 0 else cfg.alpha(edge) - 1
        out += _regularity_plain(sub, cfg)
    return out


def _regularity_label(t: PlanarTree, cfg) -> Fraction:
    out = Fraction(0)
    if t.dec not in (None, "0"):
        if not t.dec.isdigit():
            raise UnknownDecoration(f"cannot grade label {t.dec!r}")
        out += cfg.alpha(int(t.dec)) - 1
    for _, sub in t.children:
        out += 1 + _regularity_label(sub, cfg)
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
