"""Exact linear combinations over arbitrary hashable bases.

A LinComb maps basis elements to nonzero exact rationals, each stored in one
representation: an ``int``, or a ``Fraction`` whose denominator is not 1.
Zero coefficients are never stored, so dict equality is exact equality of
values.  The planar structure constants are integers, so most arithmetic
stays on ``int``; only a non-integral coefficient is a Fraction.  Tensor
sums are LinCombs whose keys are pairs or triples, and monomials of a free
symmetric algebra are Multisets (canonically sorted tuples).  On one basis
element with coefficient 1, ``map_basis`` and ``bilinear`` return one dict
copy of f's image, never the image itself, which may be a shared table entry.
"""

from __future__ import annotations

from fractions import Fraction

from .trees import ModeMismatch, PlanarTree, forest_mode, join_modes


def exact(c):
    """The stored form of an exact rational: an ``int``, or a ``Fraction``
    whose denominator is not 1.  Anything else goes through ``Fraction``."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def basis_key(b) -> str:
    """Deterministic total sort key for every basis element kind we use."""
    if isinstance(b, PlanarTree):
        return b.key()
    if isinstance(b, Multiset):
        return "<" + "|".join(basis_key(x) for x in b) + ">"
    if isinstance(b, tuple):
        return "(" + "|".join(basis_key(x) for x in b) + ")"
    return str(b)


class Tensor(tuple):
    """Basis element of a 2- or 3-fold tensor product.

    Subclasses tuple so destructuring and equality behave as for plain
    tuples; the class only disambiguates rendering from ordered forests.
    """

    def __repr__(self):
        return f"Tensor({tuple(self)!r})"


class Multiset(tuple):
    """Commutative monomial: a multiset stored as a canonically sorted tuple."""

    def __new__(cls, items=()):
        items = tuple(items)
        if len(items) > 1:
            items = sorted(items, key=basis_key)
        return tuple.__new__(cls, items)

    @classmethod
    def _trusted(cls, items) -> "Multiset":
        """The monomial of ``items`` already in canonical order, unsorted."""
        return tuple.__new__(cls, items)

    def __mul__(self, other):
        # multisets are immutable, so an empty factor can hand back the other
        if not other:
            return self
        if not self and type(other) is Multiset:
            return other
        return Multiset(tuple.__add__(self, other))

    def __repr__(self):
        return f"Multiset({tuple(self)!r})"


class LinComb(dict):
    """Finite formal linear combination with exact rational coefficients,
    each a nonzero ``int`` or a ``Fraction`` whose denominator is not 1."""

    def __init__(self, data=()):
        if not data:
            return
        if isinstance(data, LinComb):
            super().__init__(data)
            return
        if isinstance(data, dict):
            data = data.items()
        for b, c in data:
            self.add_term(b, c)

    @classmethod
    def term(cls, basis, coeff=1) -> "LinComb":
        out = cls()
        if type(coeff) is not int:
            coeff = exact(coeff)
        if coeff:
            out[basis] = coeff
        return out

    def add_term(self, basis, coeff):
        if type(coeff) is not int:
            coeff = exact(coeff)
        if not coeff:
            return
        old = self.get(basis)
        if old is not None:
            coeff += old
            if not coeff:
                del self[basis]
                return
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
        self[basis] = coeff

    def iadd_scaled(self, other, coeff=1):
        """self += coeff * other, term by term in other's order: the loop of
        ``add_term``, inlined, with the same stored form."""
        if coeff == 0:
            return self
        get = self.get
        scale = coeff != 1
        for b, c in other.items():
            if scale:
                c = c * coeff
            if type(c) is not int:
                if type(c) is Fraction:
                    if c.denominator == 1:
                        c = c.numerator
                else:
                    c = exact(c)
            if not c:
                continue
            old = get(b)
            if old is not None:
                c += old
                if not c:
                    del self[b]
                    continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
            self[b] = c
        return self

    def __add__(self, other):
        out = LinComb(self)
        out.iadd_scaled(other)
        return out

    def __sub__(self, other):
        out = LinComb(self)
        out.iadd_scaled(other, -1)
        return out

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        return LinComb().iadd_scaled(self, scalar)

    __rmul__ = __mul__

    def map_basis(self, f) -> "LinComb":
        """Linear extension of f (a basis element or a LinComb per basis
        element); one term with coefficient 1 gives one copy of its image."""
        if len(self) == 1:
            (b, c), = self.items()
            if c == 1:
                image = f(b)
                return LinComb(image) if isinstance(image, LinComb) else LinComb.term(image)
        out = LinComb()
        iadd, add = out.iadd_scaled, out.add_term
        for b, c in self.items():
            image = f(b)
            if isinstance(image, LinComb):
                iadd(image, c)
            else:
                add(image, c)
        return out

    def items_sorted(self):
        return sorted(self.items(), key=lambda item: basis_key(item[0]))

    def coefficient(self, basis):
        """The stored coefficient of ``basis`` (an int or a non-integral
        Fraction); 0 when the basis element is absent."""
        return self.get(basis, 0)

    def is_zero(self) -> bool:
        return not self


def aslc(x) -> LinComb:
    """Wrap a bare basis element into a one-term LinComb."""
    return x if isinstance(x, LinComb) else LinComb.term(x)


def bilinear(x, y, f) -> LinComb:
    """Bilinear extension of f(basis, basis) -> LinComb | basis."""
    if not isinstance(x, LinComb):
        x = LinComb.term(x)
    if not isinstance(y, LinComb):
        y = LinComb.term(y)
    if len(x) == 1 == len(y):
        (by, cy), = y.items()
        if cy == 1:
            return x.map_basis(lambda bx: f(bx, by))
    out = LinComb()
    iadd, add = out.iadd_scaled, out.add_term
    for bx, cx in x.items():
        for by, cy in y.items():
            image = f(bx, by)
            if isinstance(image, LinComb):
                iadd(image, cx * cy)
            else:
                add(image, cx * cy)
    return out


def tensor2(x, y) -> LinComb:
    return bilinear(x, y, lambda a, b: Tensor((a, b)))


def _basis_mode(b) -> str:
    """The mode of a planar tree or forest; "" for any other basis element,
    a non-planar tree or forest too."""
    if type(b) is PlanarTree:
        return b.mode
    if isinstance(b, tuple) and all(type(t) is PlanarTree for t in b):
        return forest_mode(b)
    return ""


def pair(x, y) -> Fraction:
    """Kronecker pairing on canonical basis elements, extended bilinearly."""
    x, y = aslc(x), aslc(y)
    modes = [_basis_mode(b) for b in list(x)[:1] + list(y)[:1]]
    try:
        join_modes(*modes)
    except ModeMismatch:
        raise ModeMismatch("pairing arguments use different decoration modes")
    if len(x) > len(y):
        x, y = y, x
    return Fraction(sum(c * y.get(b, 0) for b, c in x.items()))
