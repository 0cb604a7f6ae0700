"""Field axioms and exact arithmetic for Gaussian rationals."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from fraction_pair import FractionPair as P
from nektau.rationals import GaussianRational as G

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(G, fracs, fracs)
nonzero = gaussians.filter(bool)


def test_construction_and_equality():
    assert G(1, 0) == G(F(1)) == 1
    assert G(0, 0) == 0
    assert not G(0, 0)
    assert G(F(1, 2), F(-3, 4)) == G(F(1, 2), F(-3, 4))
    assert G(1, 1) != G(1, -1)


def test_coerce():
    assert G.coerce(3) == G(3)
    assert G.coerce(F(2, 7)) == G(F(2, 7))
    assert G.coerce(G(1, 2)) == G(1, 2)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == G(0)


@given(nonzero)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == G(1)
    assert a / a == G(1)


@given(nonzero)
def test_conjugate_norm(a):
    n = a * a.conjugate()
    assert not n.im
    assert n.re > 0


@given(nonzero, st.integers(min_value=-6, max_value=6))
def test_integer_powers(a, k):
    direct = G(1)
    base = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        direct = direct * base
    assert a**k == direct


def test_imaginary_unit():
    i = G(0, 1)
    assert i * i == G(-1)
    assert i**4 == G(1)
    assert i.inverse() == -i


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        G(0, 0).inverse()


def test_hashable_and_consistent():
    assert hash(G(2, 0)) is not None
    assert len({G(1, 2), G(1, 2), G(2, 1)}) == 2


# -- the integer triple against the Fraction-pair reference ------------------

BIG = 2**210
# zero, small and >200-bit numerators; small and >200-bit denominators
parts = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-50, 50), st.integers(1, 20)),
    st.builds(F, st.integers(-BIG, BIG).filter(lambda n: abs(n) > 2**200),
              st.one_of(st.integers(1, 20), st.integers(1, BIG))),
)
# zero, pure real, pure imaginary and general values
pairs = st.one_of(
    st.tuples(parts, st.just(F(0))),
    st.tuples(st.just(F(0)), parts),
    st.tuples(parts, parts),
)


def canonical(g):
    return (type(g) is G and type(g.a) is int and type(g.b) is int
            and type(g.d) is int and g.d > 0 and gcd(g.a, g.b, g.d) == 1)


def agrees(g, p):
    """g is in lowest terms and equals the reference value p."""
    return canonical(g) and g.re == p.re and g.im == p.im and repr(g) == repr(p)


@given(pairs, pairs)
def test_field_operations_match_fraction_pairs(x, y):
    g1, g2, p1, p2 = G(*x), G(*y), P(*x), P(*y)
    assert agrees(g1, p1) and agrees(g2, p2)
    assert agrees(g1 + g2, p1 + p2)
    assert agrees(g1 - g2, p1 - p2)
    assert agrees(g1 * g2, p1 * p2)
    assert agrees(-g1, -p1)
    assert agrees(g1.conjugate(), p1.conjugate())
    if p2:
        assert agrees(g1 / g2, p1 / p2)
        assert agrees(g2.inverse(), p2.inverse())
    assert (g1 == g2) == (p1 == p2)
    assert hash(g1) == hash(p1)
    assert bool(g1) == bool(p1) and g1.is_zero() == p1.is_zero()


@given(pairs, st.one_of(st.integers(-BIG, BIG), parts))
def test_mixed_operands_match_fraction_pairs(x, r):
    g, p = G(*x), P(*x)
    assert agrees(g + r, p + r) and agrees(r + g, r + p)
    assert agrees(g - r, p - r) and agrees(r - g, r - p)
    assert agrees(g * r, p * r) and agrees(r * g, r * p)
    if r:
        assert agrees(g / r, p / r)
    if p:
        assert agrees(r / g, r / p)
    assert (g == r) == (p == r)
    assert G(r) == r and G(r) == G.coerce(r)


@given(pairs, st.integers(-4, 4))
def test_powers_match_fraction_pairs(x, k):
    g, p = G(*x), P(*x)
    if not p and k < 0:
        with pytest.raises(ZeroDivisionError):
            g**k
    else:
        assert agrees(g**k, p**k)


@given(parts)
def test_real_hash_is_fraction_hash(r):
    assert hash(G(r)) == hash(r)
    assert hash(G(r) * G(0, 1) * G(0, -1)) == hash(r)


def test_float_parts_raise():
    for args in ((0.5,), (1, 0.5), (F(1, 2), 0.0)):
        with pytest.raises(TypeError):
            G(*args)


def test_repr_text():
    assert [repr(G(*x)) for x in ((0,), (F(-3, 4),), (0, F(5, 2)), (1, -1),
                                  (F(1, 3), F(2, 9)))] == [
        "0", "-3/4", "5/2*i", "(1-1*i)", "(1/3+2/9*i)"]


# -- the kernel boundary ------------------------------------------------------

@given(st.integers(-BIG, BIG), st.integers(-BIG, BIG),
       st.integers(-BIG, BIG).filter(bool), st.integers(1, 10**6))
def test_from_ints_reduces_and_normalises_sign(a, b, d, k):
    want = G(F(a, d), F(b, d))
    for args in ((a, b, d), (-a, -b, -d), (a * k, b * k, d * k), (-a * k, -b * k, -d * k)):
        got = G.from_ints(*args)
        assert got == want and canonical(got)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)


def test_from_ints_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        G.from_ints(1, 2, 0)
    zero = G.from_ints(0, 0, -6)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
