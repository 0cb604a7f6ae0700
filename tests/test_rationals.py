"""Field axioms and exact arithmetic for Gaussian rationals."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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
