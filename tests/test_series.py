"""Truncated Puiseux-series ring: arithmetic, exp/inverse, theta, Hirota."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nektau.rationals import GaussianRational as G
from nektau.sampling import ParameterSample
from nektau.series import PuiseuxSeries, hirota, weighted_theta_expand
from nektau.symbols import SymExpr

exps = st.fractions(min_value=0, max_value=3, max_denominator=4)
coef = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def series(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    terms = {}
    for _ in range(n):
        e = draw(exps)
        c = draw(coef)
        if c:
            terms[e] = SymExpr.coerce(c)
    return PuiseuxSeries(terms, F(3))


def ps_eq(a, b):
    E = min(a.trunc, b.trunc)
    d = (a - b).truncate(E)
    return all(not c for _, c in d.items())


def test_zero_one():
    z = PuiseuxSeries.zero(F(2))
    o = PuiseuxSeries.one(F(2))
    assert not list(z.items())
    assert o.coeff(F(0)).rational_value() == G(1)
    assert ps_eq(o * o, o)
    assert ps_eq(z + o, o)


@given(series(), series(), series())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert ps_eq(a + b, b + a)
    assert ps_eq(a * b, b * a)
    assert ps_eq(a * (b + c), a * b + a * c)
    assert ps_eq((a * b) * c, a * (b * c))


@given(series())
def test_truncation_soundness(a):
    t = a.truncate(F(1))
    assert t.trunc == F(1)
    for e, c in t.items():
        assert e <= F(1)
        assert not (c - a.coeff(e))


@given(series())
def test_shift_scale(a):
    s = a.shift(F(1, 2))
    assert all(not (s.coeff(e + F(1, 2)) - c) for e, c in a.items())
    m = a.scale(F(-3))
    assert all(not (m.coeff(e) - c * F(-3)) for e, c in a.items())


@given(series())
def test_theta_is_z_ddz(a):
    th = a.theta()
    for e, c in a.items():
        assert not (th.coeff(e) - c * e)


def test_exp_log_monomial():
    # exp(c z) has coefficients c^k / k!
    a = PuiseuxSeries({F(1): SymExpr.coerce(F(2))}, F(4))
    e = a.exp()
    assert e.coeff(F(0)).rational_value() == G(1)
    assert e.coeff(F(2)).rational_value() == G(2)
    assert e.coeff(F(3)).rational_value() == G(F(4, 3))


def test_exp_homomorphism():
    a = PuiseuxSeries({F(1): SymExpr.coerce(1), F(2): SymExpr.coerce(F(1, 3))}, F(4))
    b = PuiseuxSeries({F(1, 2): SymExpr.coerce(F(-2))}, F(4))
    assert ps_eq((a + b).exp(), a.exp() * b.exp())


@given(series(min_terms=1))
@settings(max_examples=60)
def test_inverse(a):
    v = a.min_exp()
    lead = a.coeff(v)
    if not lead or lead.rational_value() is None:
        return
    inv = a.inverse()
    assert ps_eq(a * inv, PuiseuxSeries.one(min(a.trunc, inv.trunc)))


def test_dilate():
    smp = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8))
    a = PuiseuxSeries({F(0): SymExpr.one(), F(2): SymExpr.coerce(5)}, F(3))
    d = a.dilate(1, smp)  # z -> q z with q = t^dq
    assert d.coeff(F(0)).rational_value() == G(1)
    want = SymExpr.coerce(5) * SymExpr.coerce(F(1, 3) ** 16)
    assert not (d.coeff(F(2)) - want)
    # dilation by q then q^-1 is the identity
    assert ps_eq(d.dilate(-1, smp), a)


# ---------------------------------------------------------------------------
# Hirota derivatives
# ---------------------------------------------------------------------------


@given(series(), series())
@settings(max_examples=40)
def test_hirota_zero_is_product(f, g):
    assert ps_eq(hirota(0, f, g), f * g)


@given(series())
@settings(max_examples=40)
def test_hirota_odd_antisymmetry(f):
    # D^1(f, f) = 0 and D^3(f, f) = 0
    for k in (1, 3):
        d = hirota(k, f, f)
        assert all(not c for _, c in d.items())


@given(series(), series())
@settings(max_examples=40)
def test_hirota_symmetry_signs(f, g):
    # D^k(f, g) = (-1)^k D^k(g, f)
    for k in (1, 2, 3):
        a = hirota(k, f, g)
        b = hirota(k, g, f)
        assert ps_eq(a, b.scale(F((-1) ** k)))


def test_hirota_order_cap():
    f = PuiseuxSeries.one(F(2))
    with pytest.raises(ValueError):
        hirota(5, f, f)


@given(series(), series())
@settings(max_examples=40)
def test_weighted_expand_matches_hirota(f, g):
    # f(e^{w1 a} z) g(e^{w2 a} z) sends z^x z^y to e^{(w1 x + w2 y) a} z^{x+y},
    # so the alpha^k/k! coefficient pairs terms with weight (w1 x + w2 y)^k;
    # at weights (1, -1) this is D^k
    for w1, w2 in ((F(1), F(-1)), (F(2), F(-1, 3))):
        for k in range(4):
            ref = PuiseuxSeries.zero(min(f.trunc, g.trunc))
            for x, a in f.items():
                for y, b in g.items():
                    ref = ref + PuiseuxSeries.monomial(
                        x + y, a * b * (w1 * x + w2 * y) ** k, ref.trunc)
            assert ps_eq(weighted_theta_expand(f, g, w1, w2, k), ref)
            if (w1, w2) == (1, -1):
                assert ps_eq(hirota(k, f, g), ref)


def test_weighted_expand_k0():
    f = PuiseuxSeries({F(1): SymExpr.coerce(2)}, F(3))
    g = PuiseuxSeries({F(1, 2): SymExpr.coerce(3)}, F(3))
    assert ps_eq(weighted_theta_expand(f, g, F(2), F(5), 0), f * g)


def test_dump_sorted_and_exact():
    a = PuiseuxSeries({F(3, 2): SymExpr.coerce(F(1, 7)),
                       F(1, 2): SymExpr.coerce(-2)}, F(2))
    rows = a.dump()
    assert [r["exponent"] for r in rows] == [[1, 2], [3, 2]]
    assert all(isinstance(r["coefficient"], str) for r in rows)
