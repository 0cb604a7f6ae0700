"""Truncated Puiseux-series ring: arithmetic, exp/inverse, theta, Hirota."""

import gc
import heapq
from fractions import Fraction as F
from math import comb, factorial, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fraction_pair import ref_split
import nektau.series as series_module
from nektau.fourier import FourierSeries
from nektau.identities import POOL_4D_EPS, POOL_SIGMA, Context
from nektau.rationals import GaussianRational as G
from nektau.sampling import ParameterSample
from nektau.series import (PuiseuxSeries, _convolve, _nonzero, _split, _top, hirota,
                           on_lattice, sector_product, solve_recurrence, theta_products,
                           weighted_theta_expand)
from nektau.symbols import (NonInvertible, SymExpr, gamma_value, mono_mul, pi_power,
                            rational_power)

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


@given(st.lists(st.tuples(exps, coef, coef, st.booleans()), max_size=8))
def test_split_matches_fraction_pair_route(terms):
    # complex coefficients over mixed denominators, on two monomials
    sqrt2 = rational_power(2, F(1, 2))
    coeffs = {F(1, 3): SymExpr.from_rational(G(F(1, 2), F(-5, 3))) + sqrt2 * F(7, 4),
              F(5, 2): SymExpr.from_rational(G(0, F(5, 6)))}
    for e, x, y, radical in terms:
        c = SymExpr.from_rational(G(x, y))
        coeffs[e] = coeffs.get(e, SymExpr.zero()) + (c * sqrt2 if radical else c)
    f = PuiseuxSeries(coeffs, F(3))
    L = 2 * lcm(*(e.denominator for e in f.coeffs))
    assert _split(f, L) == ref_split(f, L)


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


# ---------------------------------------------------------------------------
# inverse and exp against the repeated-product routes they replaced
# ---------------------------------------------------------------------------


def ref_inverse(f):
    """Test-only copy of the geometric-sum inverse: c0^{-1} z^{-e0} sum (-r)^k."""
    if not f.coeffs:
        raise ZeroDivisionError("inverse of zero series")
    e0 = f.min_exp()
    c0_inv = f.coeffs[e0].inverse()
    rel_trunc = f.trunc - e0
    r = PuiseuxSeries(
        {e - e0: c * c0_inv for e, c in f.coeffs.items() if e != e0}, rel_trunc)
    out = PuiseuxSeries.one(rel_trunc)
    if not r.is_zero():
        term = PuiseuxSeries.one(rel_trunc)
        for _ in range(int(rel_trunc / r.min_exp()) + 1):
            term = term * (-r)
            if term.is_zero():
                break
            out = out + term
    return PuiseuxSeries(
        {e - e0: c * c0_inv for e, c in out.coeffs.items()}, rel_trunc - e0)


def ref_exp(f):
    """Test-only copy of the exponential-sum exp: sum f^k / k!."""
    if any(e <= 0 for e in f.coeffs):
        raise NonInvertible("exp needs strictly positive exponents")
    if not f.coeffs:
        return PuiseuxSeries.one(f.trunc)
    kmax = int(f.trunc / f.min_exp()) + 1
    out = PuiseuxSeries.one(f.trunc)
    term = PuiseuxSeries.one(f.trunc)
    for k in range(1, kmax + 1):
        term = term * f
        if term.is_zero():
            break
        out = out + term.scale(F(1, factorial(k)))
    return PuiseuxSeries(out.coeffs, f.trunc)


def ps(terms, trunc=F(3)):
    return PuiseuxSeries({F(e): SymExpr.coerce(c) for e, c in terms.items()},
                         trunc)


SQRT2 = rational_power(F(2), F(1, 2))
TWO_TERM = SymExpr.coerce(F(2, 3)) + SQRT2  # 2/3 + 2^{1/2}

# (name, series with positive exponents); exp runs on each, inverse on 1 + f
REF_CASES = [
    ("mixed denominators 1/3 and 1/2",
     ps({F(1, 3): 2, F(1, 2): -1, F(5, 6): F(1, 5), F(7, 4): 3})),
    ("Gaussian coefficients",
     ps({F(1, 2): G(1, F(-2, 3)), F(1): G(0, 1), F(3, 2): G(F(5, 7), 2)})),
    ("multi-term SymExpr coefficients",
     ps({F(1, 3): TWO_TERM, F(1, 2): SQRT2 * G(0, 1), F(2): TWO_TERM * TWO_TERM})),
    ("single monomial", ps({F(2, 3): F(-7, 4)}, F(4))),
    ("step at the bound", ps({F(3, 2): 5}, F(3, 2))),
]


@pytest.mark.parametrize("name,f", REF_CASES, ids=[c[0] for c in REF_CASES])
def test_exp_matches_exponential_sum(name, f):
    assert f.exp() == ref_exp(f)


@pytest.mark.parametrize("name,f", REF_CASES, ids=[c[0] for c in REF_CASES])
def test_inverse_matches_geometric_sum(name, f):
    for lead in (SymExpr.one(), SymExpr.coerce(G(2, -1)), SQRT2 * F(3)):
        g = f + lead
        assert g.inverse() == ref_inverse(g)


@pytest.mark.parametrize("e0", [F(-1, 2), F(-2), F(0), F(1, 3)])
def test_inverse_matches_geometric_sum_at_leading_exponent(e0):
    # negative, zero and positive leading exponents, mixed denominators
    f = ps({e0: G(3, 1), e0 + F(1, 3): -2, e0 + F(1, 2): TWO_TERM,
            e0 + F(5, 4): G(0, F(1, 3))}, F(5, 2))
    inv = f.inverse()
    assert inv == ref_inverse(f)
    assert inv.trunc == f.trunc - 2 * e0
    assert inv.min_exp() == -e0


def test_walk_continues_past_vanishing_coefficients():
    # 1/(1 + z + z^2) = (1 - z)/(1 - z^3) and exp(z - z^2/2) both have a zero
    # coefficient at z^2 followed by nonzero ones
    f = ps({0: 1, 1: 1, 2: 1}, F(6))
    inv = f.inverse()
    assert not inv.coeff(2) and inv.coeff(3) == SymExpr.one()
    assert inv == ref_inverse(f)
    g = ps({1: 1, 2: F(-1, 2)}, F(4))
    e = g.exp()
    assert not e.coeff(2) and e.coeff(3) == SymExpr.coerce(F(-1, 3))
    assert e == ref_exp(g)


mixed_exps = st.fractions(min_value=-1, max_value=3).filter(
    lambda e: e.denominator in (1, 2, 3, 4, 6))
mixed_coef = st.sampled_from(
    [F(1), F(-1), F(3, 5), G(0, 1), G(2, F(-1, 3)), SQRT2, TWO_TERM])


@given(st.dictionaries(mixed_exps, mixed_coef, max_size=4))
@settings(max_examples=60)
def test_inverse_and_exp_match_old_routes(terms):
    f = PuiseuxSeries({e: SymExpr.coerce(c) for e, c in terms.items()}, F(5, 2))
    if f.coeffs and f.coeffs[f.min_exp()].rational_value() is not None:
        assert f.inverse() == ref_inverse(f)
    pos = PuiseuxSeries({e: c for e, c in f.coeffs.items() if e > 0}, f.trunc)
    assert pos.exp() == ref_exp(pos)


def ref_solve_recurrence(steps, top, divide=0):
    """Test-only copy of series.solve_recurrence as it ran on SymExpr
    objects: one SymExpr product and one SymExpr sum per step term."""
    order = sorted(steps.items())
    root = (0, 0)
    b = {}
    heap = [root] if top >= 0 else []
    seen = {root}
    while heap:
        n = heapq.heappop(heap)
        ne, nk = n
        if n == root:
            c = SymExpr.one()
        else:
            c = SymExpr.zero()
            for (xe, xk), s in order:
                if xe > ne:
                    break
                prev = b.get((ne - xe, nk - xk))
                if prev is not None:
                    c = c + s * prev
            if c and divide:
                c = c * G.from_ints(divide, 0, ne)
            if not c:
                continue
        b[n] = c
        for (xe, xk), _ in order:
            m = (ne + xe, nk + xk)
            if m[0] > top:
                break
            if m not in seen:
                seen.add(m)
                heapq.heappush(heap, m)
    return b


def recurrence_calls(run):
    """The (steps, top, divide) of each solve_recurrence call that run()
    makes, each call checked against the SymExpr reference: the same keys,
    in the same order, and the same SymExprs."""
    calls = []

    def checked(steps, top, divide=0):
        got = solve_recurrence(steps, top, divide)
        want = ref_solve_recurrence(steps, top, divide)
        assert list(got) == list(want)
        assert all(got[key].terms == want[key].terms for key in want)
        calls.append((steps, top, divide))
        return got

    with mock.patch.object(series_module, "solve_recurrence", checked):
        run()
    return calls


# a step whose monomials multiply with a cofactor other than 1:
# 2^(1/2) 2^(1/2) = 2, 3^(-1/2) 3^(1/2) = 1, Gamma(2/3) = pi/(sin(pi/3) Gamma(1/3))
COFACTOR_ATOMS = [SQRT2, rational_power(F(3), F(-1, 2)), rational_power(F(3), F(1, 2)),
                  rational_power(F(2, 3), F(1, 4)), gamma_value(F(1, 3)), gamma_value(F(2, 3))]


@st.composite
def radical_series(draw, lead=True):
    """A series whose coefficients hold one to three monomials, radicals
    and Gamma/sin among them, with a single-monomial leading term at z^0
    if lead."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        c = SymExpr.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            c = c + draw(st.sampled_from(COFACTOR_ATOMS)) * G(draw(coef), draw(
                st.sampled_from([F(0), F(0), F(1, 2)])))
        terms[draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))] = c
    if lead:
        terms[F(0)] = draw(st.sampled_from([SymExpr.one(), SQRT2 * G(1, -1), SymExpr.coerce(F(-3))]))
    return PuiseuxSeries(terms, F(5, 2))


@given(radical_series(lead=False))
@settings(max_examples=40, deadline=None)
def test_recurrence_of_exp_is_the_symexpr_recurrence(f):
    ((_, _, divide),) = recurrence_calls(f.exp)
    assert divide == f.L


@given(radical_series())
@settings(max_examples=40, deadline=None)
def test_recurrence_of_the_puiseux_inverse_is_the_symexpr_recurrence(f):
    ((_, _, divide),) = recurrence_calls(f.inverse)
    assert divide == 0


@given(radical_series(), radical_series(lead=False), st.sampled_from([F(1, 2), F(-1), F(2)]))
@settings(max_examples=40, deadline=None)
def test_recurrence_of_the_fourier_inverse_is_the_symexpr_recurrence(f, g, k):
    ((steps, _, _),) = recurrence_calls(FourierSeries({F(0): f, k: g}, F(5, 2)).inverse)
    assert g.is_zero() or {K for _, K in steps} != {0}


def test_recurrence_of_the_inverse_of_a_4d_tau_is_the_symexpr_recurrence():
    # the kiev tau at z^6: Gamma/sin monomials over several sectors, the
    # inverse zeta_from_tau takes
    tau = Context().taus_4d(POOL_SIGMA[0], F(6))("kiev")
    ((steps, _, _),) = recurrence_calls(tau.inverse)
    assert len({m for c in steps.values() for m in c.terms}) == 5


def test_recurrence_with_cofactors_is_the_symexpr_recurrence():
    # steps of two and three monomials whose products fold radicals and
    # Gamma(2/3) into a cofactor other than 1, on all three callers
    c1 = SQRT2 * G(1, -1) + COFACTOR_ATOMS[1] * 3
    c2 = COFACTOR_ATOMS[2] * F(-1, 2) + gamma_value(F(1, 3)) + gamma_value(F(2, 3)) * G(0, 2)
    f = ps({F(1, 3): c1, F(1, 2): c2, F(3, 2): c1 * c2}, F(4))
    lead = PuiseuxSeries.one(F(4))
    runs = [f.exp, (f + lead).inverse,
            FourierSeries({F(0): f + lead, F(1, 2): f, F(-1): f.shift(F(1, 4))}, F(4)).inverse]
    for run in runs:
        ((steps, _, _),) = recurrence_calls(run)
        monos = {m for c in steps.values() for m in c.terms}
        assert any(mono_mul(m1, m2)[1] != 1 for m1 in monos for m2 in monos)


def ref_lattice_inverse(f):
    """Test-only copy of the lattice recurrence PuiseuxSeries.inverse ran on
    its own before it took sector 0 of `sector_inverse`."""
    if not f.xterms:
        raise ZeroDivisionError("inverse of zero series")
    L = f.L
    X0 = min(f.xterms)
    c0_inv = f.xterms[X0].inverse()
    rel_trunc = f.trunc - F(X0, L)
    steps = {(X - X0, 0): -(c * c0_inv)
             for X, c in f.xterms.items() if X != X0}
    b = ref_solve_recurrence(steps, _top(rel_trunc, L))
    return on_lattice(L, _nonzero((n - X0, c * c0_inv) for (n, _), c in b.items()),
                      rel_trunc - F(X0, L))


def assert_same_lattice_inverse(f):
    try:
        want = ref_lattice_inverse(f)
    except (ZeroDivisionError, NonInvertible) as exc:
        with pytest.raises(type(exc)):
            f.inverse()
        return
    got = f.inverse()
    assert (got.xterms, got.L, got.trunc) == (want.xterms, want.L, want.trunc)


@given(series())
@settings(max_examples=60)
def test_inverse_is_the_lattice_recurrence(f):
    assert_same_lattice_inverse(f)


@given(st.dictionaries(mixed_exps, mixed_coef, max_size=4))
@settings(max_examples=60)
def test_inverse_is_the_lattice_recurrence_on_mixed_series(terms):
    assert_same_lattice_inverse(
        PuiseuxSeries({e: SymExpr.coerce(c) for e, c in terms.items()}, F(5, 2)))


def test_zero_series_inverse_and_exp():
    z = PuiseuxSeries.zero(F(2))
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ZeroDivisionError):
        ref_inverse(z)
    assert z.exp() == ref_exp(z) == PuiseuxSeries.one(F(2))


def test_inverse_and_exp_guards():
    with pytest.raises(NonInvertible):  # multi-term leading coefficient
        ps({F(0): TWO_TERM, F(1): 1}).inverse()
    for bad in (F(0), F(-1, 2)):  # exp needs strictly positive exponents
        with pytest.raises(NonInvertible):
            ps({bad: 1, F(1): 2}).exp()


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


# ---------------------------------------------------------------------------
# the integer product kernel against the coefficient-pair loop it replaced
# ---------------------------------------------------------------------------


def ref_mul(f, g):
    """Test-only copy of the old PuiseuxSeries product: one SymExpr product
    per pair of terms, summed per exponent."""
    trunc = min(f.trunc + g.min_exp(), g.trunc + f.min_exp())
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if e > trunc:
                continue
            c = c1 * c2
            if not c:
                continue
            n = out.get(e)
            n = c if n is None else n + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
    return PuiseuxSeries(out, trunc)


def assert_product_is_the_pair_loop(f, g):
    new, ref = f * g, ref_mul(f, g)
    assert new.coeffs == ref.coeffs
    assert new.trunc == ref.trunc


# products of these fold radicals into the cofactor (2^(1/2) 2^(1/2) = 2,
# 3^(-1/2) 3^(-1/2) = 1/3, (2/3)^(1/4) = 2^(1/4) 3^(3/4) / 3) and meet one
# monomial from several pairs (Gamma(2/3) = pi / (sin(pi/3) Gamma(1/3)))
ATOMS = [SymExpr.one(), SQRT2, rational_power(F(3), F(-1, 2)),
         rational_power(F(2, 3), F(1, 4)), gamma_value(F(1, 3)),
         gamma_value(F(2, 3)), pi_power(F(1, 2)), pi_power(F(-1))]


@st.composite
def symbolic_series(draw):
    """A series with negative and fractional exponents, its own bound, and
    coefficients of several monomials over Gaussian numbers."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        c = SymExpr.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            im = draw(st.sampled_from([F(0), F(0), F(1, 3), F(-2)]))
            c = c + draw(st.sampled_from(ATOMS)) * G(draw(coef), im)
        terms[draw(st.fractions(min_value=-2, max_value=3, max_denominator=4))] = c
    return PuiseuxSeries(terms, draw(st.fractions(min_value=-1, max_value=3, max_denominator=3)))


@given(symbolic_series(), symbolic_series())
@settings(max_examples=80)
def test_product_is_the_pair_loop(f, g):
    assert_product_is_the_pair_loop(f, g)
    assert_product_is_the_pair_loop(f, f)


@given(series(), series())
@settings(max_examples=40)
def test_product_of_rational_series_is_the_pair_loop(f, g):
    assert_product_is_the_pair_loop(f, g)


# ((1+i) 2^(1/2) z^(1/2) + 3^(1/2) z) ((1-i) 2^(1/2) z^(1/2) + i 3^(1/2) z):
# 2^(1/2) 3^(1/2) comes from two monomial pairs at z^(3/2) and cancels
# there, (1+i) i + (1-i) = 0; the unit monomial comes from two pairs of
# unequal cofactors, 2 at z^1 and 3 at z^2
SQRT3 = rational_power(F(3), F(1, 2))
ROOTS = PuiseuxSeries({F(1, 2): SQRT2 * G(1, 1), F(1): SQRT3}, F(4))
ROOTS_CONJ = PuiseuxSeries({F(1, 2): SQRT2 * G(1, -1), F(1): SQRT3 * G(0, 1)}, F(4))


@pytest.mark.parametrize("f,g", [
    (ROOTS, ROOTS_CONJ),
    (ROOTS_CONJ, ROOTS),
    (ps({F(-3, 2): SQRT2, 0: 1, F(1, 3): G(0, 1)}), ps({F(-1, 2): SQRT2, F(1, 4): 1})),
    (ps({0: 1, 1: 1}), ps({0: 1, 1: -1})),
    (PuiseuxSeries.zero(F(2)), ROOTS),
    (ROOTS, PuiseuxSeries.zero(F(-1, 2))),
    (PuiseuxSeries.zero(F(1)), PuiseuxSeries.zero(F(3, 2))),
], ids=["cancel across pairs", "swapped", "negative exponents", "cancel in one pair",
        "zero times", "times zero", "zero"])
def test_product_cases(f, g):
    assert_product_is_the_pair_loop(f, g)


def ref_one_sector_product(f, g):
    """Test-only copy of the old one-sector PuiseuxSeries product: its bound
    found on ints over T, then one `_convolve` of the two `_split`s."""
    L = lcm(f.L, g.L)
    T = lcm(L, f.trunc.denominator, g.trunc.denominator)
    t1, t2 = _top(f.trunc, T), _top(g.trunc, T)
    v1 = min(f.xterms) * (T // f.L) if f.xterms else t1
    v2 = min(g.xterms) * (T // g.L) if g.xterms else t2
    B = min(t1 + v2, t2 + v1)
    return on_lattice(L, _convolve([(_split(f, L), _split(g, L))], B // (T // L)), F(B, T))


def assert_product_is_sector_product(f, g):
    # the product is sector 0 of sector_product, with the same bound
    new, ref = f * g, ref_one_sector_product(f, g)
    assert (new.xterms, new.L, new.trunc) == (ref.xterms, ref.L, ref.trunc)
    assert sector_product(f, g) == (new.trunc, {F(0): new})


@given(symbolic_series(), symbolic_series())
@settings(max_examples=80)
def test_product_is_the_one_sector_sector_product(f, g):
    assert_product_is_sector_product(f, g)
    assert_product_is_sector_product(f, f)


@pytest.mark.parametrize("f,g", [
    (ROOTS, ROOTS_CONJ),
    (ps({0: 1, 1: 1}), ps({0: 1, 1: -1})),
    (PuiseuxSeries.zero(F(2)), ROOTS),
    (ROOTS, PuiseuxSeries.zero(F(-1, 2))),
    (PuiseuxSeries.zero(F(1)), PuiseuxSeries.zero(F(3, 2))),
    (ps({F(-3, 2): SQRT2, 0: 1}, F(5, 3)), ps({F(-1, 2): TWO_TERM, F(1, 4): 1}, F(7, 4))),
    (ps({1: 1}, F(1)), ps({F(1, 3): -1}, F(1, 3))),
], ids=["cancel across pairs", "cancel in one pair", "zero times", "times zero", "zero",
        "non-integer bounds, two monomials", "bound at the only term"])
def test_product_is_the_one_sector_sector_product_cases(f, g):
    assert_product_is_sector_product(f, g)
    assert_product_is_sector_product(g, f)


def test_product_cancels_across_monomial_pairs():
    p = ROOTS * ROOTS_CONJ
    assert p.coeff(F(3, 2)) == G(0)  # the two 6^(1/2) terms cancel
    assert F(3, 2) not in p.coeffs
    assert p.coeff(F(1)) == G(4) and p.coeff(F(2)) == G(0, 3)


# ---------------------------------------------------------------------------
# weighted_theta_expand and hirota against the theta-product route, written
# out; their bounds too, in every sector
# ---------------------------------------------------------------------------


def ref_weighted_theta_expand(f, g, w1, w2, k):
    """Test-only copy of the theta-product route: the alpha^k/k! coefficient
    as sum_j C(k,j) w1^j w2^{k-j} theta^j f * theta^{k-j} g, built from k+1
    full products of theta-derivatives."""
    w1, w2 = F(w1), F(w2)
    thf = [f]
    thg = [g]
    for _ in range(k):
        thf.append(thf[-1].theta())
        thg.append(thg[-1].theta())
    out = None
    for j in range(k + 1):
        term = (thf[j] * thg[k - j]).scale(F(comb(k, j)) * w1**j * w2 ** (k - j))
        out = term if out is None else out + term
    return out


E1, E2, _ = POOL_4D_EPS[0]
WEIGHTS = [(F(1), F(-1)), (F(2), F(5)), (F(0), F(3)), (-2 * E1, -2 * E2)]


def assert_identical(new, ref):
    """Same type, coefficients, overall bound and every sector's bound."""
    assert type(new) is type(ref)
    assert new.trunc == ref.trunc
    if isinstance(ref, PuiseuxSeries):
        assert new.coeffs == ref.coeffs
    else:
        assert new.sectors == ref.sectors  # PuiseuxSeries ==: coeffs and bound


def assert_expansions_identical(f, g):
    for w1, w2 in WEIGHTS:
        for k in range(5):
            ref = ref_weighted_theta_expand(f, g, w1, w2, k)
            assert_identical(weighted_theta_expand(f, g, w1, w2, k), ref)
            if (w1, w2) == (1, -1):
                assert_identical(hirota(k, f, g), ref)


@st.composite
def bounded_series(draw):
    """A series with its own bound, with z^0 and negative exponents."""
    trunc = draw(st.sampled_from([F(1), F(3, 2), F(5, 2)]))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = draw(st.fractions(min_value=-1, max_value=trunc, max_denominator=4))
        c = draw(coef)
        if c:
            terms[e] = SymExpr.coerce(c)
    return PuiseuxSeries(terms, trunc)


@st.composite
def bounded_fourier(draw, max_sectors=3):
    """A FourierSeries whose sectors have unequal bounds."""
    sectors = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_sectors))):
        sectors[draw(st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2)]))] = \
            draw(bounded_series())
    return FourierSeries(sectors, draw(st.sampled_from([F(3, 2), F(2)])))


@st.composite
def maybe_z0(draw, strategy):
    """A series of strategy, at times with a z^0 term, which theta drops,
    added in one of its sectors (if it has any)."""
    h = draw(strategy)
    if not draw(st.booleans()):
        return h
    c = SymExpr.coerce(draw(coef.filter(bool)))
    if isinstance(h, PuiseuxSeries):
        return h + PuiseuxSeries.monomial(0, c, h.trunc)
    if not h.sectors:
        return h
    k = draw(st.sampled_from(sorted(h.sectors)))
    sectors = dict(h.sectors)
    sectors[k] = sectors[k] + PuiseuxSeries.monomial(0, c, sectors[k].trunc)
    return FourierSeries(sectors, h.trunc)


@given(maybe_z0(bounded_series()), maybe_z0(bounded_series()), st.booleans())
@settings(max_examples=40)
def test_moment_expansion_is_the_theta_product_route(f, g, same):
    assert_expansions_identical(f, f if same else g)


@given(maybe_z0(bounded_fourier()), maybe_z0(bounded_fourier()))
@settings(max_examples=40)
def test_moment_expansion_is_the_theta_product_route_on_sectors(f, g):
    # a sector of a theta-product may cancel to zero below the overall
    # bound; both routes keep it with its bound (see the test below)
    assert_expansions_identical(f, g)
    assert_expansions_identical(g, f)


def _fs(rows, trunc):
    """FourierSeries from {sector: (bound, {exponent: coefficient})}."""
    return FourierSeries({F(s): PuiseuxSeries(
        {F(e): SymExpr.coerce(c) for e, c in terms.items()}, F(b))
        for s, (b, terms) in rows.items()}, F(trunc))


# sector bounds 2, 3/2 and 5/2 under the overall 5/2; sector -1 holds only
# z^0, which theta drops; Gaussian and two-term coefficients
F_UNEQUAL = _fs({0: (2, {0: 1, F(1, 2): G(3, -1)}),
                 F(1, 2): (F(3, 2), {F(1, 4): -2, 1: SQRT3 + 1}),
                 -1: (F(5, 2), {0: 7})}, F(5, 2))
G_UNEQUAL = _fs({0: (2, {F(1, 2): G(0, 2), 1: -1}),
                 F(-1, 2): (F(3, 2), {0: SQRT3 * 3, F(3, 4): 1})}, F(5, 2))


# theta F_Z0 is zero, but its one sector is known only through z^1, under
# the overall 3, so it stays a sector of theta F_Z0 and theta F_Z0 * G_Z0,
# a product with no terms, lowers the sector bound to 1
F_Z0 = _fs({0: (1, {0: 1})}, 3)
G_Z0 = _fs({0: (5, {0: 1, 1: 1})}, 5)


@pytest.mark.parametrize("f,g", [
    (F_UNEQUAL, G_UNEQUAL),
    (F_Z0, G_Z0),
    (F_UNEQUAL, F_UNEQUAL),
    (G_UNEQUAL, G_UNEQUAL),
    (F_UNEQUAL, FourierSeries.zero(F(2))),
    (FourierSeries.zero(F(2)), FourierSeries.zero(F(3))),
    (PuiseuxSeries({F(0): SymExpr.coerce(4)}, F(2)), PuiseuxSeries.zero(F(3, 2))),
], ids=["unequal bounds", "z^0-only sector", "f is g", "f is g, z^0 term", "times zero", "zero",
        "z^0 only times zero"])
def test_moment_expansion_cases(f, g):
    assert_expansions_identical(f, g)


@pytest.mark.parametrize("f,g", [("plus", "minus"), ("long0", "long0"), ("long1", "long1"),
                                 ("kiev", "kiev"), ("long0", "long1")],
                         ids=["tp-tm", "t0-t0", "t1-t1", "tau-tau", "t0-t1"])
def test_moment_expansion_on_4d_taus(f, g):
    taus = Context().taus_4d(POOL_SIGMA[0], F(3))
    assert_expansions_identical(taus(f), taus(g))


def test_moment_expansion_keeps_the_bound_of_a_cancelled_term():
    # in D^1 = theta f * g - f * theta g, sector 0 of theta f * g is
    # theta f_0 g_0 + theta f_1 g_{-1} = -4 z^2 + 4 z^2 through its bound
    # z^2 (f_1 is known to z^2 and g_{-1} has a z^0 term).  A FourierSeries
    # keeps that zero sector with its bound, so the theta-product route no
    # longer claims sector 0 through z^3: both routes claim z^2
    f = _fs({0: (2, {1: -2, 2: 2}), 1: (2, {2: -2})}, 3)
    g = _fs({0: (2, {1: 2}), -1: (3, {0: -1, 2: 2})}, 3)
    new, ref = hirota(1, f, g), ref_weighted_theta_expand(f, g, 1, -1, 1)
    assert new.trunc == ref.trunc == 3
    assert (new.sector(0).trunc, ref.sector(0).trunc) == (2, 2)
    assert_identical(new, ref)


# ---------------------------------------------------------------------------
# theta_products against full products of theta-derivatives, one per entry
# ---------------------------------------------------------------------------


def ref_theta_products(f, g, poly):
    """Test-only theta-product route: sum c theta^a f * theta^b g over the
    poly {(a, b): c}, one full product per entry."""
    out = None
    for (a, b), c in poly.items():
        fa, gb = f, g
        for _ in range(a):
            fa = fa.theta()
        for _ in range(b):
            gb = gb.theta()
        term = (fa * gb).scale(F(c))
        out = term if out is None else out + term
    return out


# the zeta products of identities.Context.zeta_4d, D^1, and polys with
# zero-coefficient entries and no symmetry under a <-> b
POLYS = [
    {(1, 1): 1},
    {(2, 2): 1, (1, 3): -1},
    {(2, 2): 1, (2, 1): -2, (1, 1): 1},
    {(0, 1): 1},
    {(0, 0): 1},
    {(1, 0): 1, (0, 1): -1},
    {(1, 0): 0, (0, 0): 3},
    {(3, 0): F(2, 3), (0, 2): 0, (1, 2): -1},
    {(2, 0): 0, (1, 1): 0},
]


def assert_theta_products_identical(f, g, polys=POLYS):
    refs = [ref_theta_products(f, g, poly) for poly in polys]
    outs = theta_products(f, g, polys)
    assert len(outs) == len(refs)
    for new, ref in zip(outs, refs):
        assert_identical(new, ref)
    # one poly per call, each cut at its own bounds: the same outputs
    for poly, ref in zip(polys, refs):
        assert_identical(theta_products(f, g, [poly])[0], ref)


polys_st = st.lists(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.sampled_from([F(0), F(1), F(-2), F(3, 5)]),
                    min_size=1, max_size=3),
    min_size=1, max_size=3)


@st.composite
def factored_polys(draw):
    """Polys sharing a common theta-power (a0, b0)."""
    a0, b0 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return [{(a + a0, b + b0): c for (a, b), c in poly.items()}
            for poly in draw(polys_st)]


@given(maybe_z0(bounded_series()), maybe_z0(bounded_series()), st.booleans(),
       factored_polys())
@settings(max_examples=30)
def test_theta_products_are_the_theta_product_route(f, g, same, polys):
    assert_theta_products_identical(f, f if same else g, polys)


@given(maybe_z0(bounded_fourier()), maybe_z0(bounded_fourier()), factored_polys())
@settings(max_examples=30)
def test_theta_products_are_the_theta_product_route_on_sectors(f, g, polys):
    # sectors may cancel (see
    # test_moment_expansion_keeps_the_bound_of_a_cancelled_term)
    assert_theta_products_identical(f, g, polys)
    assert_theta_products_identical(g, f, polys)
    assert_theta_products_identical(f, f, polys)


@pytest.mark.parametrize("f,g", [
    (F_UNEQUAL, G_UNEQUAL),
    (G_UNEQUAL, F_UNEQUAL),
    (F_Z0, G_Z0),
    (F_UNEQUAL, F_UNEQUAL),
    (G_UNEQUAL, G_UNEQUAL),
    (F_UNEQUAL, FourierSeries.zero(F(2))),
    (FourierSeries.zero(F(2)), FourierSeries.zero(F(3))),
    (PuiseuxSeries({F(0): SymExpr.coerce(4)}, F(2)), PuiseuxSeries.zero(F(3, 2))),
], ids=["unequal bounds", "unequal bounds, swapped", "z^0-only sector", "f is g",
        "f is g, z^0 term", "times zero", "zero", "z^0 only times zero"])
def test_theta_products_cases(f, g):
    assert_theta_products_identical(f, g)


def test_theta_products_on_zeta():
    # the series identities.Context.zeta_4d multiplies, at z^3
    ctx = Context()
    z = ctx.zeta_4d(POOL_SIGMA[0], F(3))["zeta"]
    P = ref_theta_products(z, z, POLYS[0])
    assert_theta_products_identical(z, z, POLYS[:3])
    assert_theta_products_identical(P, z, POLYS[3:5])


def test_theta_products_keep_the_bound_of_a_cancelled_term():
    # the case of test_moment_expansion_keeps_the_bound_of_a_cancelled_term,
    # as the poly of D^1 among others in one call
    f = _fs({0: (2, {1: -2, 2: 2}), 1: (2, {2: -2})}, 3)
    g = _fs({0: (2, {1: 2}), -1: (3, {0: -1, 2: 2})}, 3)
    d1 = theta_products(f, g, [{(0, 0): 1}, {(1, 0): 1, (0, 1): -1}])[1]
    assert_identical(d1, hirota(1, f, g))
    assert d1.sector(0).trunc == 2


def test_theta_products_leave_no_reference_cycle():
    # the recursive product closure used to keep each call's theta powers
    # of f and g alive until a full garbage collection
    f = _fs({0: (2, {1: -2, 2: 2}), 1: (2, {2: -2})}, 3)
    gc.collect()
    gc.disable()
    try:
        theta_products(f, f, POLYS[:3])
        assert gc.collect() == 0
    finally:
        gc.enable()


# polys with a common theta-factor; the last has only zero coefficients
FACTORED_POLYS = [
    {(1, 1): 1},
    {(2, 2): 1, (1, 3): -1},
    {(2, 2): 1, (2, 1): -2, (1, 1): 1},
    {(1, 2): 0, (3, 1): F(1, 2)},
    {(2, 1): 0},
]


@pytest.mark.parametrize("f,g", [
    (F_UNEQUAL, G_UNEQUAL),
    (F_Z0, G_Z0),
    (G_Z0, F_Z0),
    (F_UNEQUAL, F_UNEQUAL),
    (G_Z0, G_Z0),
], ids=["unequal bounds", "z^0-only sector", "z^0-only sector, swapped", "f is g",
        "f is g, z^0 terms"])
def test_theta_products_with_a_common_factor(f, g):
    assert_theta_products_identical(f, g, FACTORED_POLYS)


def counting_products(monkeypatch):
    """The list that each PuiseuxSeries product appends to."""
    calls = []
    real = PuiseuxSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(PuiseuxSeries, "__mul__", counting)
    return calls


@pytest.mark.parametrize("same", [False, True])
def test_hirota_forms_no_series_product(monkeypatch, same):
    # D^0..D^4 of one pair are each one pass over the pairs of terms of f
    # and g: no call forms a series product, and none keeps a store
    f = PuiseuxSeries({F(0): SymExpr.one(), F(1, 2): SymExpr.coerce(3),
                       F(1): SymExpr.coerce(F(-2, 5))}, F(3))
    g = f if same else PuiseuxSeries({F(0): SymExpr.coerce(2),
                                      F(3, 4): SymExpr.coerce(-1)}, F(5, 2))
    refs = {k: ref_weighted_theta_expand(f, g, 1, -1, k) for k in range(5)}
    calls = counting_products(monkeypatch)
    for k in (2, 0, 4, 1, 3):
        assert_identical(hirota(k, f, g), refs[k])
    assert calls == []


def test_theta_products_form_no_series_product(monkeypatch):
    # the zeta products of identities.Context.zeta_4d, (theta f)^2 and
    # theta^3 f * theta f among them, in one pass and no series product
    f = PuiseuxSeries({F(1, 2): SymExpr.coerce(3), F(1): SymExpr.coerce(-2),
                       F(2): SymExpr.coerce(F(1, 7))}, F(3))
    refs = [ref_theta_products(f, f, poly) for poly in POLYS[:3]]
    calls = counting_products(monkeypatch)
    for new, ref in zip(theta_products(f, f, POLYS[:3]), refs):
        assert_identical(new, ref)
    assert calls == []
