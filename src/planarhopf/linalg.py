"""Exact linear combinations over arbitrary hashable bases.

A LinComb maps basis elements to nonzero exact rationals, each stored in one
representation: an ``int``, or a ``Fraction`` whose denominator is not 1.
Zero coefficients are never stored, so dict equality is exact equality of
values.  The planar structure constants are integers, so most arithmetic
stays on ``int``; only a non-integral coefficient is a Fraction.  Tensor
sums are LinCombs whose keys are pairs or triples, and monomials of a free
symmetric algebra are Multisets (canonically sorted tuples).
"""

from __future__ import annotations

from fractions import Fraction

from .trees import ModeMismatch, NonplanarTree, PlanarTree, forest_mode, join_modes


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
    if isinstance(b, (PlanarTree, NonplanarTree)):
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
        return tuple.__new__(cls, tuple(sorted(items, key=basis_key)))

    def __mul__(self, other):
        return Multiset(tuple.__add__(self, other))

    def __repr__(self):
        return f"Multiset({tuple(self)!r})"


class LinComb(dict):
    """Finite formal linear combination with exact rational coefficients,
    each a nonzero ``int`` or a ``Fraction`` whose denominator is not 1."""

    def __init__(self, data=()):
        if isinstance(data, LinComb):
            super().__init__(data)
            return
        super().__init__()
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

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

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
        if coeff == 0:
            return self
        for b, c in other.items():
            self.add_term(b, c * coeff)
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
        return LinComb((b, -c) for b, c in self.items())

    def __mul__(self, scalar):
        if scalar == 0:
            return LinComb()
        return LinComb((b, c * scalar) for b, c in self.items())

    __rmul__ = __mul__

    def map_basis(self, f) -> "LinComb":
        """Linear extension of f; f may return a basis element or a LinComb."""
        out = LinComb()
        for b, c in self.items():
            image = f(b)
            if isinstance(image, LinComb):
                out.iadd_scaled(image, c)
            else:
                out.add_term(image, c)
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
    x, y = aslc(x), aslc(y)
    out = LinComb()
    for bx, cx in x.items():
        for by, cy in y.items():
            image = f(bx, by)
            if isinstance(image, LinComb):
                out.iadd_scaled(image, cx * cy)
            else:
                out.add_term(image, cx * cy)
    return out


def tensor2(x, y) -> LinComb:
    return bilinear(x, y, lambda a, b: Tensor((a, b)))


def _basis_mode(b) -> str:
    if isinstance(b, PlanarTree):
        return b.mode
    if isinstance(b, tuple) and all(isinstance(t, PlanarTree) for t in b):
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
