"""The LinComb accumulate kernel against the per-term ``add_term`` route.

``iadd_scaled``, ``map_basis`` and ``bilinear`` run one inlined loop; the
reference below feeds every term through ``add_term``, the one definition
of the stored form.  Both must agree on content, on insertion order and on
the type of every stored coefficient.  ``Multiset``'s shortcuts are checked
against the sorted construction they skip.
"""

import random
from decimal import Decimal
from fractions import Fraction

from planarhopf.enumeration import forests_up_to
from planarhopf.linalg import LinComb, Multiset, basis_key, bilinear


def ref_iadd_scaled(lc, other, coeff=1):
    if coeff == 0:
        return lc
    for b, c in other.items():
        lc.add_term(b, c * coeff)
    return lc


def ref_map_basis(lc, f):
    out = LinComb()
    for b, c in lc.items():
        image = f(b)
        if isinstance(image, LinComb):
            ref_iadd_scaled(out, image, c)
        else:
            out.add_term(image, c)
    return out


def ref_bilinear(x, y, f):
    out = LinComb()
    for bx, cx in x.items():
        for by, cy in y.items():
            image = f(bx, by)
            if isinstance(image, LinComb):
                ref_iadd_scaled(out, image, cx * cy)
            else:
                out.add_term(image, cx * cy)
    return out


def assert_same(got, want):
    assert list(got.items()) == list(want.items())
    for b, c in got.items():
        assert type(c) is type(want[b])
        assert type(c) is int and c != 0 \
            or type(c) is Fraction and c.denominator != 1, (b, c)


BASIS = "abcde"


def rand_coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))


def rand_lincomb(rng, size=4):
    out = LinComb()
    for _ in range(rng.randint(0, size)):
        out.add_term(rng.choice(BASIS), rand_coeff(rng))
    return out


def test_random_sequences_match_the_per_term_route():
    rng = random.Random(16)
    for _ in range(400):
        got, want = LinComb(), LinComb()
        images = {b: rand_lincomb(rng) if rng.random() < 0.6
                  else rng.choice(BASIS) for b in BASIS}
        pairs = {(x, y): rand_lincomb(rng, 2) if rng.random() < 0.6
                 else x + y for x in BASIS for y in BASIS}
        for _ in range(12):
            op = rng.randrange(4)
            if op == 0:
                b, c = rng.choice(BASIS), rand_coeff(rng)
                got.add_term(b, c)
                want.add_term(b, c)
            elif op == 1:
                other = rand_lincomb(rng)
                k = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2),
                                Fraction(2, 3), 0))
                got.iadd_scaled(other, k)
                ref_iadd_scaled(want, other, k)
            elif op == 2:
                got = got.map_basis(lambda u: images[u[-1]])
                want = ref_map_basis(want, lambda u: images[u[-1]])
            else:
                y = rand_lincomb(rng, 3)
                got = bilinear(got, y, lambda u, v: pairs[u[-1], v])
                want = ref_bilinear(want, y, lambda u, v: pairs[u[-1], v])
            assert_same(got, want)


def test_fractions_that_sum_to_an_integer_are_stored_as_ints():
    got = LinComb.term("a", Fraction(1, 3))
    got.iadd_scaled(LinComb.term("a", Fraction(1, 3)), 2)
    assert got["a"] == 1 and type(got["a"]) is int
    got.iadd_scaled(LinComb.term("b", Fraction(3, 2)), Fraction(2, 3))
    assert got["b"] == 1 and type(got["b"]) is int
    assert_same(got, ref_iadd_scaled(
        ref_iadd_scaled(LinComb.term("a", Fraction(1, 3)),
                        LinComb.term("a", Fraction(1, 3)), 2),
        LinComb.term("b", Fraction(3, 2)), Fraction(2, 3)))


def test_cancellation_deletes_and_reinsertion_goes_last():
    got = LinComb([("x", Fraction(1, 2)), ("y", 2)])
    want = LinComb(got)
    for lc, iadd in ((got, LinComb.iadd_scaled), (want, ref_iadd_scaled)):
        iadd(lc, LinComb.term("x", 1), Fraction(-1, 2))
        assert "x" not in lc
        iadd(lc, LinComb([("z", 1), ("x", 3)]), 1)
    assert list(got) == ["y", "z", "x"]
    assert_same(got, want)


def test_other_coefficients_go_through_exact():
    other = {"a": True, "b": 0, "c": Decimal("1.5"), "d": Decimal("2.0")}
    got = LinComb.term("a", 1).iadd_scaled(other)
    assert_same(got, ref_iadd_scaled(LinComb.term("a", 1), other))
    assert got == {"a": 2, "c": Fraction(3, 2), "d": 2}


def test_scalar_products():
    lc = LinComb([("a", 2), ("b", Fraction(1, 2))])
    assert_same(lc * Fraction(1, 2), LinComb([("a", 1), ("b", Fraction(1, 4))]))
    assert_same(-lc, LinComb([("a", -2), ("b", Fraction(-1, 2))]))
    assert_same(2 * lc, LinComb([("a", 4), ("b", 1)]))
    assert (lc * 0) == {}


def test_multisets_match_the_sorted_construction():
    # construction skips the sort for at most one item and a product with
    # an empty factor hands back the other factor; both must still give the
    # canonically sorted tuple, typed Multiset
    rng = random.Random(11)
    forests = forests_up_to(3, ("a", "b"))
    pools = (forests, [(f, x) for f in forests for x in ("x", "y")])

    def draw(pool):
        return [rng.choice(pool) for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))]

    for _ in range(400):
        pool = rng.choice(pools)
        items, more = draw(pool), draw(pool)
        m, n = Multiset(items), Multiset(more)
        for got, want in ((m, items), (m * n, items + more), (n * m, more + items)):
            assert type(got) is Multiset
            assert tuple(got) == tuple(sorted(want, key=basis_key))


def test_one_term_maps_copy_the_image_once():
    # one basis element with coefficient 1: a new LinComb equal to f's
    # image, so a caller that mutates it leaves a shared table entry alone
    table = {"a": LinComb([("x", Fraction(1, 2)), ("y", -3)])}
    for got in (LinComb.term("a").map_basis(table.get),
                bilinear(LinComb.term("a"), LinComb.term("b"),
                         lambda u, v: table[u]),
                bilinear("a", "b", lambda u, v: table[u])):
        assert type(got) is LinComb and got is not table["a"]
        assert_same(got, table["a"])
        got["z"] = 7
        del got["x"]
        assert_same(table["a"], LinComb([("x", Fraction(1, 2)), ("y", -3)]))
    # a bare basis element as the image becomes a one-term LinComb
    assert_same(LinComb.term("a").map_basis(str.upper), LinComb.term("A"))
    assert_same(bilinear("a", "b", str.__add__), LinComb.term("ab"))


def test_other_operands_go_through_the_term_loop():
    image = LinComb([("x", Fraction(1, 2)), ("y", 2)])
    # a coefficient other than 1 rescales into the stored form
    got = LinComb.term("a", 2).map_basis(lambda b: image)
    assert_same(got, LinComb([("x", 1), ("y", 4)]))
    assert type(got["x"]) is int
    got = bilinear(LinComb.term("a", Fraction(2, 3)), LinComb.term("b", 3),
                   lambda u, v: image)
    assert_same(got, LinComb([("x", 1), ("y", 4)]))
    # several terms whose images cancel store no zero
    two = LinComb([("a", 1), ("b", -1)])
    assert two.map_basis(lambda b: image) == {}
    assert bilinear(two, LinComb.term("c"), lambda u, v: image) == {}
    got = LinComb([("a", Fraction(1, 2)), ("b", Fraction(1, 2))]).map_basis(
        lambda b: image)
    assert_same(got, image)
    assert image == LinComb([("x", Fraction(1, 2)), ("y", 2)])
