"""Canonical monomial symbol algebra: exact values, reductions, resonances."""

import gc
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import assume, given, strategies as st

from nektau import symbols
from nektau.rationals import GaussianRational as G
from nektau.symbols import (
    GAMMA,
    MONO_ONE,
    PI,
    POCH,
    RADICAL,
    SIN,
    NonInvertible,
    Resonance,
    SymbolMonomial,
    SymExpr,
    canonical,
    gamma_value,
    mono_mul,
    pi_power,
    poch_value,
    rational_power,
)
from monomial_fields import FieldMonomial, ref_inverse, ref_mono_mul, ref_rational_power
from oracle import numeric_value, sin_pi

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def test_zero_one_basics():
    assert SymExpr.zero().is_zero()
    assert not SymExpr.zero()
    assert SymExpr.one().rational_value() == G(1)
    assert (SymExpr.one() - SymExpr.one()).is_zero()


def test_coerce_and_rational_value():
    e = SymExpr.coerce(F(3, 7))
    assert e.rational_value() == G(F(3, 7))
    assert SymExpr.coerce(G(1, 2)).rational_value() == G(1, 2)
    # a genuine radical has no rational value
    assert rational_power(2, F(1, 2)).rational_value() is None


@given(fracs, fracs, fracs)
def test_distributivity_on_rationals(a, b, c):
    A, B, C = map(SymExpr.coerce, (a, b, c))
    assert (A * (B + C) - (A * B + A * C)).is_zero()


def test_integer_powers_and_inverse():
    r = rational_power(6, F(1, 3))
    assert (r**3).rational_value() == G(6)
    assert (r * r.inverse()).rational_value() == G(1)
    assert (r**0).rational_value() == G(1)
    assert ((r**-2) * r * r).rational_value() == G(1)


def test_noninvertible_sum():
    two_terms = SymExpr.one() + rational_power(2, F(1, 2))
    with pytest.raises(NonInvertible):
        two_terms.inverse()


def test_unit_monomial_product_is_the_mono_mul_route():
    # mono_mul gives a unit's partner back without a product table; a
    # freshly built unit (canonical never makes one) is equal to MONO_ONE
    # but not the same object, and takes the same shortcut
    fresh = SymbolMonomial()
    assert fresh == MONO_ONE and fresh is not MONO_ONE
    unit = SymExpr({fresh: G(3, -1)})
    radical = rational_power(F(12), F(-3, 2)) * G(0, 2)  # 3^(1/2) / 72, a radical monomial
    for other in (radical, radical + gamma_value(F(1, 3)), SymExpr({fresh: G(-2)})):
        ref = SymExpr.zero()
        for m1, c1 in unit.terms.items():
            for m2, c2 in other.terms.items():
                mono, cof = mono_mul(m1, m2)
                ref = ref + SymExpr({mono: c1 * c2 * cof})
        assert (unit * other).terms == ref.terms
        assert (other * unit).terms == ref.terms


# ---------------------------------------------------------------------------
# interning: one live monomial per factors tuple, one product per pair
# ---------------------------------------------------------------------------


def _live_table():
    gc.collect()
    return len(symbols._INTERN)


def test_canonical_returns_one_object_per_factors_tuple():
    exps = {(GAMMA, F(1, 3)): F(1), (RADICAL, 2): F(5, 2), (PI, None): F(-1, 2)}
    m, cof = canonical(exps)
    assert cof == 4
    assert canonical(dict(m.factors))[0] is m
    assert canonical(dict(reversed(list(exps.items()))))[0] is m
    assert canonical({})[0] is MONO_ONE and canonical({(PI, None): F(0)})[0] is MONO_ONE


def test_repeated_mono_mul_returns_identical_objects():
    a, b = gamma_value(F(1, 3)), rational_power(6, F(3, 2)) * pi_power(F(1, 2))
    ((m1, _),), ((m2, _),) = a.terms.items(), b.terms.items()
    first = mono_mul(m1, m2)
    again = mono_mul(m1, m2)
    assert again is first and again[0] is first[0]
    # the same product by the route of the five-field reference
    ref, ref_cof = ref_mono_mul(FieldMonomial(gam=((F(1, 3), F(1)),)),
                                FieldMonomial(rad=((2, F(1, 2)), (3, F(1, 2))),
                                              pi_exp=F(1, 2)))
    assert first[0].render() == ref.render() and first[1] == ref_cof
    assert mono_mul(m2, m1)[0] is first[0]


def test_the_intern_table_keeps_no_monomial_alive():
    # Gamma arguments no other test makes, so no monomial that outlives
    # this test holds these products in its table
    before = _live_table()
    xs = [gamma_value(F(1, k)) * pi_power(F(k, 7)) for k in range(53, 59)]
    prods = [x * y for x in xs for y in xs]
    assert _live_table() > before
    del xs, prods
    assert _live_table() == before


def test_unit_products_leave_the_unit_table_empty():
    g = gamma_value(F(2, 7))
    for x in (SymExpr.one(), SymExpr.from_rational(G(2, -3)), g):
        for y in (SymExpr.from_rational(F(5)), g):
            x * y
            y * x
    ((m, _),) = g.terms.items()
    assert mono_mul(MONO_ONE, m) == (m, 1) and mono_mul(m, MONO_ONE) == (m, 1)
    assert MONO_ONE._products is None


# the five-field route: a monomial per kind in a field of its own
# (monomial_fields.py); small argument pools so symbols meet and cancel
_exps = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_atoms = st.one_of(
    st.tuples(st.just(RADICAL),
              st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
              _exps),
    st.tuples(st.just(PI), st.none(), _exps),
    st.tuples(st.sampled_from((GAMMA, SIN)),
              st.sampled_from((F(1, 3), F(1, 4), F(2, 5))), _exps),
    st.tuples(st.just(POCH),
              st.sampled_from(((F(1), F(2)), (F(2), F(2)), (F(1, 2), F(3, 2)))), _exps),
)
_FIELD = {PI: "pi_exp", GAMMA: "gam", SIN: "sn", POCH: "poch"}


def _both_routes(atom):
    """The atom's canonical monomial and its five-field reference."""
    kind, arg, e = atom
    if kind == RADICAL:
        ((mono, c),) = rational_power(arg, e).terms.items()
        ref, rat = ref_rational_power(arg, e)
        assert c == G(rat)
        return mono, ref
    mono, cof = canonical({(kind, arg): e})
    assert cof == 1
    return mono, FieldMonomial(**{_FIELD[kind]: e if kind == PI else ((arg, e),)})


@given(st.lists(_atoms, min_size=1, max_size=6))
def test_monomials_match_the_five_field_route(atoms):
    mono, ref = _both_routes(atoms[0])
    for i, atom in enumerate(atoms):
        if i:
            other, other_ref = _both_routes(atom)
            mono, cof = mono_mul(mono, other)
            ref, ref_cof = ref_mono_mul(ref, other_ref)
            assert cof == ref_cof
        assert mono.render() == ref.render()
        assert mono.is_one() == (ref.render() == "1")
        ((inv, c),) = SymExpr.monomial(mono).inverse().terms.items()
        inv_ref, inv_cof = ref_inverse(ref)
        assert inv.render() == inv_ref.render() and c == G(inv_cof)
        # m * (1/m) = 1: the inverse's own cofactor undoes the refold
        assert mono_mul(mono, inv) == (MONO_ONE, 1 / inv_cof)


def _integral_fraction(x):
    return isinstance(x, F) and x.denominator == 1


def _fraction_held(mono):
    """The factors of mono holding an integral Fraction as their exponent or
    as a Pochhammer argument."""
    return [(sym, e) for sym, e in mono.factors if _integral_fraction(e)
            or sym[0] == POCH and any(map(_integral_fraction, sym[1]))]


@given(st.lists(_atoms, min_size=1, max_size=4))
def test_integral_exponents_and_pochhammer_arguments_are_ints(atoms):
    # ints and Fractions hash and render alike; ints hash cheaply
    made = [_both_routes(atom)[0] for atom in atoms]
    for value in (gamma_value(F(3, 4)), gamma_value(F(-5, 3)), pi_power(F(2)),
                  poch_value(F(7), F(2), T), poch_value(F(-1), F(-2), T),
                  poch_value(F(1, 2), F(3, 2), T),
                  rational_power(F(12, 5), F(7, 2))):
        made += [m for m in value.terms if not m.is_one()]
    for x in made:
        assert _fraction_held(x) == []
        for y in made:
            assert _fraction_held(mono_mul(x, y)[0]) == []
        ((inv, _),) = SymExpr.monomial(x).inverse().terms.items()
        assert _fraction_held(inv) == []


# ---------------------------------------------------------------------------
# rational powers
# ---------------------------------------------------------------------------


@given(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).filter(bool),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_rational_power_homomorphism(r, e):
    # r^e * r^e == r^(2e), and (r^e)^2 likewise
    lhs = rational_power(r, e) * rational_power(r, e)
    rhs = rational_power(r, 2 * e)
    assert (lhs - rhs).is_zero()


def test_rational_power_negative_base():
    assert rational_power(-2, 2).rational_value() == G(4)
    assert rational_power(-1, F(1, 2)).rational_value() == G(0, 1)
    # a negative integer exponent used to form the sign as a float
    assert rational_power(F(-3, 5), -1).rational_value() == G(F(-5, 3))
    assert rational_power(-2, -2).rational_value() == G(F(1, 4))
    with pytest.raises(NonInvertible):
        rational_power(-2, F(1, 3))
    with pytest.raises(ZeroDivisionError):
        rational_power(0, F(1, 2))


@pytest.mark.parametrize("r", [F(-3, 5), F(-2), F(1), F(12, 7)])
@pytest.mark.parametrize("e", [0, 1, -1, 3, F(-2)])
def test_rational_power_at_an_integer_exponent_is_the_canonical_route(r, e):
    # the rational r^e itself: the sign of r by the parity of e, times the
    # cofactor of the canonical monomial of |r|^e, which is the unit
    exps = {(RADICAL, p): k * e for p, k in symbols._factorint(abs(r.numerator)).items()}
    for p, k in symbols._factorint(r.denominator).items():
        exps[RADICAL, p] = -k * e
    mono, cof = canonical(exps)
    sign = -1 if r < 0 and e % 2 else 1
    assert mono is MONO_ONE
    assert rational_power(r, e).terms == {MONO_ONE: G(sign * cof)}


def test_rational_power_merges_radicals():
    # sqrt(2) * sqrt(8) = 4 exactly
    prod = rational_power(2, F(1, 2)) * rational_power(8, F(1, 2))
    assert prod.rational_value() == G(4)


# ---------------------------------------------------------------------------
# gamma / sin: functional equations and numeric cross-check
# ---------------------------------------------------------------------------


def test_gamma_integers():
    assert gamma_value(1).rational_value() == G(1)
    assert gamma_value(5).rational_value() == G(24)
    with pytest.raises(Resonance):
        gamma_value(0)
    with pytest.raises(Resonance):
        gamma_value(-3)


def test_gamma_half():
    assert (gamma_value(F(1, 2)) - pi_power(F(1, 2))).is_zero()
    # Gamma(3/2) = (1/2) sqrt(pi)
    assert (gamma_value(F(3, 2)) - pi_power(F(1, 2)) * F(1, 2)).is_zero()


@given(st.fractions(min_value=F(-19, 5), max_value=4, max_denominator=7)
       .filter(lambda y: y.denominator != 1))
def test_gamma_shift_equation(y):
    # Gamma(y+1) = y * Gamma(y), canonicalized on both sides
    assert (gamma_value(y + 1) - gamma_value(y) * y).is_zero()


@given(st.fractions(min_value=F(-19, 5), max_value=4, max_denominator=7)
       .filter(lambda y: y.denominator != 1))
def test_gamma_reflection(y):
    # Gamma(y) Gamma(1-y) sin(pi y) = pi
    lhs = gamma_value(y) * gamma_value(1 - y) * sin_pi(y)
    assert (lhs - pi_power(1)).is_zero()


@given(st.fractions(min_value=-4, max_value=4, max_denominator=9)
       .filter(lambda y: y.denominator != 1))
def test_sin_numeric(y):
    with mp.workdps(50):
        got = numeric_value(sin_pi(y), F(1, 3))
        want = mp.sin(mp.pi * mp.mpf(y.numerator) / y.denominator)
        assert abs(got - want) < 1e-30


def test_sin_cos_resonances():
    with pytest.raises(Resonance):
        sin_pi(2)
    assert sin_pi(F(1, 2)).rational_value() == G(1)
    assert sin_pi(F(3, 2)).rational_value() == G(-1)


# ---------------------------------------------------------------------------
# Pochhammer symbol reductions
# ---------------------------------------------------------------------------

T = F(1, 3)


def _num(e):
    return numeric_value(e, T, dps=50)


@given(st.fractions(min_value=-4, max_value=6, max_denominator=3),
       st.fractions(min_value=F(1, 2), max_value=3, max_denominator=2))
def test_poch_shift_reduction_numeric(E, B):
    # upward shifts divide by (1 - t^e); that cofactor is invertible in the
    # monomial algebra only for integer e, so skip the fractional-shift cases
    assume(E <= B or (E.denominator == 1 and B.denominator == 1))
    if E % B == 0 and E <= 0:
        with pytest.raises(Resonance):
            poch_value(E, B, T)
        return
    with mp.workdps(50):
        got = _num(poch_value(E, B, T))
        tt = mp.mpf(1) / 3
        z = mp.power(tt, mp.mpf(E.numerator) / E.denominator) if E else mp.mpf(1)
        q = mp.power(tt, mp.mpf(B.numerator) / B.denominator)
        want = mp.mpf(1)
        for k in range(300):
            want *= 1 - z * q**k
        assert abs(got - want) < 1e-25


def test_poch_negative_base_inversion():
    # (t^E; t^-B) = (t^(E+B); t^B)^-1
    lhs = poch_value(F(2), F(-1), T)
    rhs = poch_value(F(3), F(1), T).inverse()
    assert (lhs - rhs).is_zero()


def test_render_deterministic():
    e = gamma_value(F(2, 5)) * sin_pi(F(1, 5)) + rational_power(3, F(1, 2))
    assert e.render() == e.render()
    assert isinstance(e.render(), str) and e.render()
    # dumps and the benchmark digests serialise this text: one monomial with
    # all five kinds, in kind order, and its inverse, which refolds 2^(-1/3)
    e = (rational_power(F(12, 5), F(1, 2)) * rational_power(2, F(1, 3))
         * gamma_value(F(3, 5)) * poch_value(1, 2, T) * G(2, 1) * pi_power(F(1, 3)))
    assert e.render() == (
        "((4/5+2/5*i))*2^(1/3)*3^(1/2)*5^(1/2)*pi^(4/3)*Gamma(2/5)^(-1)"
        "*sin(pi*2/5)^(-1)*poch(t^1;t^2)^(1)")
    assert e.inverse().render() == (
        "((1/30-1/60*i))*2^(2/3)*3^(1/2)*5^(1/2)*pi^(-4/3)*Gamma(2/5)^(1)"
        "*sin(pi*2/5)^(1)*poch(t^1;t^2)^(-1)")
