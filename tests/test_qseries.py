"""Multi-base Pochhammer / theta series: route equivalence and the
shift, period-splitting, square-splitting, inversion, Jacobi-triple-product
and theta-shift identities, each on >= 100 randomized specs."""

import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from nektau import qseries
from nektau.fourier import ps_equal_to_order
from nektau.qseries import (
    PochhammerSpec,
    UnsupportedRegion,
    _poch_exp_coeffs,
    algebraic_fixture,
    pochhammer_series,
    theta_z_series,
)
from nektau.rationals import GaussianRational as G
from nektau.sampling import ParameterSample
from nektau.series import PuiseuxSeries
from nektau.symbols import SymExpr, rational_power

E = F(3)

ts = st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(2, 3)])
zpows = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
coeffs = st.sampled_from(
    [F(1), F(-1), F(2), F(-1, 2), F(3, 5), G(0, 1), G(1, 1), G(0, F(-2, 3))])
base_exp = st.integers(min_value=-3, max_value=3).filter(bool)
pos_base = st.integers(min_value=1, max_value=3)


def ps_eq(a, b):
    Echk = min(a.trunc, b.trunc)
    return ps_equal_to_order(a, b, Echk).ok


def tpow(t, e):
    return rational_power(t, F(e))


@st.composite
def specs(draw, n_bases=(1, 2), positive_only=False):
    n = draw(st.integers(min_value=n_bases[0], max_value=n_bases[1]))
    strat = pos_base if positive_only else base_exp
    bases = tuple(draw(strat) for _ in range(n))
    return PochhammerSpec(draw(coeffs), draw(zpows), bases), draw(ts)


# ---------------------------------------------------------------------------
# route equivalence and spec validation
# ---------------------------------------------------------------------------


@given(specs())
@settings(max_examples=120)
def test_route_equivalence(spec_t):
    spec, t = spec_t
    assert ps_eq(pochhammer_series(spec, t, E, route="shift"),
                 pochhammer_series(spec, t, E, route="exp"))


def test_spec_rejects_degenerate():
    with pytest.raises(UnsupportedRegion):
        PochhammerSpec(F(1), F(0), (1,))
    with pytest.raises(UnsupportedRegion):
        PochhammerSpec(F(1), F(1), (0,))
    with pytest.raises(UnsupportedRegion):
        PochhammerSpec(F(1), F(1), (F(1, 2),))
    with pytest.raises(ValueError):
        pochhammer_series(PochhammerSpec(F(1), F(1), (1,)), F(1, 2), E,
                          route="bogus")


def test_leading_terms():
    s = pochhammer_series(PochhammerSpec(F(1), F(1), (1,)), F(1, 2), E)
    assert s.coeff(F(0)).rational_value() == G(1)
    # coefficient of z in (z; q)_inf is -1/(1-q); here q = 1/2
    assert s.coeff(F(1)).rational_value() == G(-2)


@pytest.mark.parametrize("bases", [(-1, -2), (-1, -1, 2), (-2, -1, -3)])
@pytest.mark.parametrize("route", ["shift", "exp"])
def test_negative_bases_match_inversion_per_base(bases, route):
    # the inversion rule applied once per negative base, as the expansion
    # did before the pairs of inverses were cancelled
    spec = PochhammerSpec(G(1, -2), F(1, 2), bases)
    t = F(2, 5)
    shift = -sum(b for b in bases if b < 0)
    inner = pochhammer_series(
        PochhammerSpec(SymExpr.coerce(spec.coeff) * tpow(t, shift), spec.zpow,
                       tuple(abs(b) for b in bases)), t, E, route)
    want = inner
    for b in bases:
        if b < 0:
            want = want.inverse()
    assert pochhammer_series(spec, t, E, route) == want.truncate(E)


# ---------------------------------------------------------------------------
# the q-Pochhammer identities
# ---------------------------------------------------------------------------


@given(specs())
@settings(max_examples=120)
def test_qshift(spec_t):
    # (w; q1, rest) = (w q1; q1, rest) * (w; rest)
    spec, t = spec_t
    b1, rest = spec.bases[0], spec.bases[1:]
    lhs = pochhammer_series(spec, t, E)
    shifted = PochhammerSpec(
        SymExpr.coerce(spec.coeff) * tpow(t, b1), spec.zpow, spec.bases)
    dropped = PochhammerSpec(spec.coeff, spec.zpow, rest)
    rhs = pochhammer_series(shifted, t, E) * pochhammer_series(dropped, t, E)
    assert ps_eq(lhs, rhs)


@given(specs(), st.sampled_from([2, 3]))
@settings(max_examples=120)
def test_permult(spec_t, n):
    # prod_{i=0}^{n-1} (w q1^i; q1^n, rest) = (w; q1, rest)
    spec, t = spec_t
    b1, rest = spec.bases[0], spec.bases[1:]
    rhs = pochhammer_series(spec, t, E)
    lhs = PuiseuxSeries.one(E)
    for i in range(n):
        fac = PochhammerSpec(
            SymExpr.coerce(spec.coeff) * tpow(t, i * b1),
            spec.zpow, (n * b1,) + rest)
        lhs = (lhs * pochhammer_series(fac, t, E)).truncate(E)
    assert ps_eq(lhs, rhs)


@given(specs())
@settings(max_examples=120)
def test_sqmult(spec_t):
    # (w^2; q1^2, ..) = (w; q1, ..) * (-w; q1, ..)
    spec, t = spec_t
    c = SymExpr.coerce(spec.coeff)
    sq = PochhammerSpec(c * c, 2 * spec.zpow, tuple(2 * b for b in spec.bases))
    lhs = pochhammer_series(sq, t, E)
    rhs = pochhammer_series(spec, t, E) * pochhammer_series(
        PochhammerSpec(-c, spec.zpow, spec.bases), t, E)
    assert ps_eq(lhs, rhs)


@given(specs())
@settings(max_examples=120)
def test_qtrans_against_exponential_formula(spec_t):
    """Negative bases are resolved through the inversion rule; the
    exponential formula handles them directly, giving an independent route."""
    spec, t = spec_t
    via_inversion = pochhammer_series(spec, t, E)
    mmax = int(E / spec.zpow)
    g = _poch_exp_coeffs(spec.bases, t, mmax)
    c = SymExpr.coerce(spec.coeff)
    terms, cpow = {}, SymExpr.one()
    for m in range(mmax + 1):
        if g[m]:
            terms[m * spec.zpow] = cpow * g[m]
        cpow = cpow * c
    direct = PuiseuxSeries(terms, E)
    assert ps_eq(via_inversion, direct)


# ---------------------------------------------------------------------------
# theta identities
# ---------------------------------------------------------------------------

theta_args = st.fractions(min_value=F(-3, 2), max_value=2, max_denominator=4)
theta_bases = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
theta_coeffs = st.sampled_from([F(1), F(-1), F(2), F(-1, 3), G(0, 1)])


@given(theta_coeffs, theta_args, theta_coeffs, theta_bases, ts)
@settings(max_examples=120)
def test_jacobi_triple_product(cw, a, cp, r, t):
    # double-product route == bilateral Jacobi-sum route
    lhs = theta_z_series(cw, a, cp, r, E, route="product")
    rhs = theta_z_series(cw, a, cp, r, E, route="jacobi")
    assert ps_eq(lhs, rhs)


@given(theta_coeffs, theta_args, theta_coeffs, theta_bases)
@settings(max_examples=120)
def test_tshift(cw, a, cp, r):
    # theta(p w; p) = -w^{-1} theta(w; p)
    lhs = theta_z_series(SymExpr.coerce(cw) * SymExpr.coerce(cp), a + r,
                         cp, r, E)
    base = theta_z_series(cw, a, cp, r, E + max(F(0), -a) + abs(a))
    rhs = base.scale(-SymExpr.coerce(cw).inverse()).shift(-a).truncate(E)
    assert ps_eq(lhs, rhs)


@given(theta_coeffs, theta_args, theta_coeffs, theta_bases)
@settings(max_examples=120)
def test_theta_inversion(cw, a, cp, r):
    # theta(w^{-1}; p) = theta(p w; p)
    lhs = theta_z_series(SymExpr.coerce(cw).inverse(), -a, cp, r, E)
    rhs = theta_z_series(SymExpr.coerce(cw) * SymExpr.coerce(cp), a + r,
                         cp, r, E)
    assert ps_eq(lhs, rhs)


@pytest.mark.parametrize("cw,a,cp", [(F(2), 8, F(-1, 3)), (G(0, 1), -6, F(-1))])
def test_jacobi_triple_product_far_argument(cw, a, cp):
    # far-out arguments at r = 1/2: the Jacobi route inverts a long (p;p)_inf
    r, order = F(1, 2), F(4)
    lhs = theta_z_series(cw, a, cp, r, order, route="product")
    rhs = theta_z_series(cw, a, cp, r, order, route="jacobi")
    assert lhs.trunc == rhs.trunc == order and lhs.coeffs
    assert ps_equal_to_order(lhs, rhs, order).ok


def ref_theta_product(arg_coeff, arg_zpow, base_coeff, base_zpow, E):
    """Test-only copy of the old product route: the factors with cp**k,
    multiplied one after another, a constant factor by scaling."""
    E, a, r = F(E), F(arg_zpow), F(base_zpow)
    cw, cp = SymExpr.coerce(arg_coeff), SymExpr.coerce(base_coeff)
    neg_val = sum(
        min(e, 0) for e in
        [a + k * r for k in range(int(max(0, -a) / r) + 1)]
        + [(k + 1) * r - a for k in range(int(max(0, a) / r) + 1)]
    )
    bound = E - neg_val
    factors = []
    k = 0
    while a + k * r <= bound:
        factors.append((a + k * r, cw * cp**k))
        k += 1
    k = 0
    while (k + 1) * r - a <= bound:
        factors.append(((k + 1) * r - a, cp ** (k + 1) * cw.inverse()))
        k += 1
    out = PuiseuxSeries.one(bound)
    for e, c in factors:
        if e == 0:
            out = out.scale(SymExpr.one() - c)
        else:
            out = out * PuiseuxSeries({F(0): SymExpr.one(), e: -c}, bound)
    return out.truncate(E)


# the (a, r) grid and coefficients of the benchmark's qseries workload
THETA_A = (F(-6), F(-5, 2), F(-3, 4), F(1, 4), F(7, 4), F(4))
THETA_R = (F(1, 2), F(1), F(3, 2), F(2))
THETA_COEFFS = (F(1), F(-1), F(2), F(-1, 3), G(0, 1))
THETA_GRID = [(THETA_COEFFS[i % 5], a, THETA_COEFFS[(2 * i + 1) % 5], r)
              for i, (r, a) in enumerate((r, a) for r in THETA_R for a in THETA_A)]
# a constant factor: a = 0 r (zero when cw = 1) and a = 2 r (cp^2 / cw,
# zero when cw = cp^2)
THETA_CONSTANT = [(F(1), F(0), F(2), F(1, 2)), (F(2), F(0), G(0, 1), F(1)),
                  (F(4), F(2), F(2), F(1)), (F(-1, 3), F(3), G(0, 1), F(3, 2))]


@pytest.mark.parametrize("order", [F(2), F(4)])
def test_theta_product_route_is_the_sequential_loop(order):
    for cw, a, cp, r in THETA_GRID + THETA_CONSTANT:
        new = theta_z_series(cw, a, cp, r, order, route="product")
        ref = ref_theta_product(cw, a, cp, r, order)
        assert (new.coeffs, new.trunc) == (ref.coeffs, ref.trunc), (cw, a, cp, r)


def test_theta_product_inverts_cw_only_for_the_second_product():
    # at a = -1, r = 5/2, z^2 the factors cp^(k+1)/cw start at z^(7/2),
    # past the inner bound 3, so a cw with no inverse is never inverted
    cw = SymExpr.one() + rational_power(F(2), F(1, 2))
    new = theta_z_series(cw, F(-1), F(2), F(5, 2), F(2), route="product")
    assert new.coeffs and new == ref_theta_product(cw, F(-1), F(2), F(5, 2), F(2))


def ref_euler_product(cp, r, bound):
    """Test-only (p;p)_inf with p = cp z^r through z^bound: the binomials
    1 - cp^j z^{j r} multiplied one after another."""
    pp = PuiseuxSeries.one(bound)
    j = 1
    while j * r <= bound:
        pp = pp * PuiseuxSeries({F(0): SymExpr.one(), j * r: -(cp**j)}, bound)
        j += 1
    return pp


def ref_theta_jacobi(arg_coeff, arg_zpow, base_coeff, base_zpow, E):
    """Test-only copy of the old Jacobi route: every power of cw and cp by
    repeated squaring, (p;p)_inf multiplied one factor after another."""
    E, a, r = F(E), F(arg_zpow), F(base_zpow)
    cw, cp = SymExpr.coerce(arg_coeff), SymExpr.coerce(base_coeff)
    neg_val = F(0)
    terms = {}
    for direction in (1, -1):
        k = 0 if direction == 1 else -1
        while True:
            e = k * a + F(k * (k - 1), 2) * r
            if e <= E:
                cwk = cw**k if k >= 0 else cw.inverse() ** (-k)
                c = cwk * cp ** (k * (k - 1) // 2) * (-1 if k % 2 else 1)
                terms[e] = terms.get(e, SymExpr.zero()) + c
                neg_val = min(neg_val, e)
            elif (2 * k - 1) * r * direction > 2 * (abs(a) + 1):
                break
            k += direction
    pp = ref_euler_product(cp, r, E - neg_val)
    return (PuiseuxSeries(terms, E) * pp.inverse()).truncate(E)


@pytest.fixture
def no_tree(monkeypatch):
    """qseries._tree_product raises: a route that returns built no
    balanced tree of binomials."""
    def tree(factors, trunc):
        raise AssertionError("the binomial tree was built")

    monkeypatch.setattr(qseries, "_tree_product", tree)


@pytest.mark.parametrize("order", [F(2), F(4)])
def test_theta_jacobi_route_is_the_power_loop(order, no_tree):
    for cw, a, cp, r in THETA_GRID + THETA_CONSTANT:
        new = theta_z_series(cw, a, cp, r, order, route="jacobi")
        ref = ref_theta_jacobi(cw, a, cp, r, order)
        assert (new.coeffs, new.trunc) == (ref.coeffs, ref.trunc), (cw, a, cp, r)


def test_theta_jacobi_inverts_cw_only_for_a_kept_term_below_k_0():
    # at a = -1, r = 5/2, z^2 the terms k < 0 start at z^(7/2), past the
    # bound, so a cw with no inverse is never inverted
    cw = SymExpr.one() + rational_power(F(2), F(1, 2))
    new = theta_z_series(cw, F(-1), F(2), F(5, 2), F(2), route="jacobi")
    assert new.coeffs and new == ref_theta_jacobi(cw, F(-1), F(2), F(5, 2), F(2))


def test_theta_jacobi_passes_no_float_to_fraction(monkeypatch):
    # the sign (-1)^k of the Jacobi sum was Frac((-1) ** k), a float for
    # k < 0; a > 0 keeps terms with k < 0 below the bound
    def exact(*args):
        assert not any(isinstance(x, float) for x in args), args
        return F(*args)

    monkeypatch.setattr(qseries, "Frac", exact)
    new = theta_z_series(1, 4, 2, F(1, 2), 4, route="jacobi")
    monkeypatch.undo()
    assert new == ref_theta_jacobi(1, 4, 2, F(1, 2), 4)
    assert any(e < 0 for e in new.coeffs)


EULER_CP = (F(1), F(-1), F(2), F(-1, 3), G(0, 1), G(1, 1),
            rational_power(F(2), F(1, 2)), rational_power(F(3), F(3, 2)))


@pytest.mark.parametrize("cp", EULER_CP)
def test_the_jacobi_route_divides_by_the_euler_product(cp, monkeypatch):
    # at a = 0 the Jacobi sum has no negative exponent, so the route
    # inverts (p;p)_inf through z^E: the pentagonal sum must be the product
    # of its binomials, term for term and in its bound
    inverted = []
    inverse = PuiseuxSeries.inverse

    def spy(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(PuiseuxSeries, "inverse", spy)
    for r in (F(1, 2), F(2, 3), F(1), F(3, 2)):
        for bound in map(F, range(2, 7)):
            inverted.clear()
            theta_z_series(F(2), F(0), cp, r, bound, route="jacobi")
            (pp,) = inverted
            ref = ref_euler_product(SymExpr.coerce(cp), r, bound)
            assert (pp.coeffs, pp.trunc) == (ref.coeffs, ref.trunc), (r, bound)


def ref_jacobi_fraction_loop(arg_coeff, arg_zpow, base_coeff, base_zpow, E):
    """Test-only copy of the Jacobi route with Fraction exponents, stopped
    by the loose test (2k - 1) r > 2(|a| + 1) in the direction of travel;
    the running powers and Euler's pentagonal sum are those of the route."""
    E, a, r = F(E), F(arg_zpow), F(base_zpow)
    cw, cp = SymExpr.coerce(arg_coeff), SymExpr.coerce(base_coeff)
    neg_val = F(0)
    terms = {}
    for direction in (1, -1):
        if direction == 1:
            k, wk, w_step, pk, p_step = 0, SymExpr.one(), cw, SymExpr.one(), SymExpr.one()
        else:
            k, wk, w_step, pk, p_step = -1, None, None, cp, cp * cp
        while True:
            e = k * a + F(k * (k - 1), 2) * r
            if e <= E:
                if wk is None:
                    w_step = cw.inverse()
                    wk = w_step ** -k
                c = wk * pk
                terms[e] = terms.get(e, SymExpr.zero()) + (-c if k % 2 else c)
                neg_val = min(neg_val, e)
            elif (2 * k - 1) * r * direction > 2 * (abs(a) + 1):
                break
            k += direction
            if wk is not None:
                wk = wk * w_step
            pk = pk * p_step
            p_step = p_step * cp
    summ = PuiseuxSeries(terms, E)
    bound = E - neg_val
    if summ.is_zero() and bound >= 0:
        return PuiseuxSeries.zero(E)
    pent = {F(0): SymExpr.one()}
    j, pn, pj, gain, cp3 = 1, cp, cp, cp, cp * cp * cp
    while (e := F(j * (3 * j - 1), 2) * r) <= bound:
        sign = -1 if j % 2 else 1
        pent[e] = pn * sign
        if e + j * r <= bound:
            pent[e + j * r] = pn * pj * sign
        j += 1
        gain = gain * cp3
        pn, pj = pn * gain, pj * cp
    return (summ * PuiseuxSeries(pent, bound).inverse()).truncate(E)


# 16 arguments x 4 bases x 5 x 5 coefficient pairs: the benchmark's grid
# and its two zeros of theta, (1, -6, -1, 1/2) and (1, 4, -1, 1/2), with
# arguments on both sides of every vertex and on p^Z
JACOBI_GRID = [(cw, a, cp, r)
               for a in (F(-6), F(-4), F(-5, 2), F(-3, 2), F(-1), F(-3, 4), F(-1, 2), F(0),
                         F(1, 4), F(1, 2), F(1), F(3, 2), F(7, 4), F(2), F(3), F(4))
               for r in THETA_R for cw in THETA_COEFFS for cp in THETA_COEFFS]


@pytest.mark.parametrize("order", [F(4), F(-3, 2)])
def test_jacobi_lattice_loop_is_the_fraction_loop(order):
    # at a negative order the term at k = 0 is above the bound: a loop that
    # stopped there, before the vertex, would lose the kept terms past it
    assert len(JACOBI_GRID) == 1600
    assert set(THETA_GRID) <= set(JACOBI_GRID)
    def outcome(route, point):
        try:
            p = route(*point, order)
        except ZeroDivisionError as exc:  # (p;p)_inf known through no z^0
            return type(exc)
        return p.dump(), p.trunc

    for point in JACOBI_GRID:
        assert outcome(partial(theta_z_series, route="jacobi"), point) == \
            outcome(ref_jacobi_fraction_loop, point), point


def ref_poch_base_coeffs(bases, t, mmax):
    """Test-only copy of qseries._poch_base_coeffs in Fractions."""
    if not bases:
        return (F(1), F(-1)) + (F(0),) * max(0, mmax - 1)
    b1, rest = bases[0], bases[1:]
    h = ref_poch_base_coeffs(rest, t, mmax)
    q1 = t ** int(b1)
    g = [F(1)]
    for m in range(1, mmax + 1):
        acc = F(0)
        for j in range(1, min(m, len(h) - 1) + 1):
            if h[j]:
                acc += h[j] * q1 ** (m - j) * g[m - j]
        g.append(acc / (1 - q1**m))
    return tuple(g)


def ref_poch_exp_coeffs(bases, t, mmax):
    """Test-only copy of qseries._poch_exp_coeffs in Fractions: the log
    coefficients, exponentiated by PuiseuxSeries.exp."""
    if mmax < 1:
        return (F(1),)
    log_coeffs = {}
    for m in range(1, mmax + 1):
        denom = F(m)
        for b in bases:
            qm = t ** int(b * m)
            if qm == 1:
                raise UnsupportedRegion("base is a root of unity")
            denom *= 1 - qm
        log_coeffs[F(m)] = F(-1) / denom
    ps = PuiseuxSeries(log_coeffs, F(mmax)).exp()
    return tuple(c.rational_value() if (c := ps.coeff(m)) else F(0) for m in range(mmax + 1))


def criterion_9_specs(n, seed):
    """(spec, t) drawn as acceptance criterion 9 draws them."""
    rng = random.Random(seed)
    coeffs = [F(1), F(-1), F(2), F(-1, 2), F(3, 5), G(0, 1), G(1, 1)]
    return [(PochhammerSpec(rng.choice(coeffs), rng.choice(THETA_R),
                            tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                                  for _ in range(rng.randint(1, 2)))),
             rng.choice([F(1, 2), F(1, 3), F(2, 5), F(3, 7)])) for _ in range(n)]


@pytest.mark.parametrize("order", [F(2), F(4)])
def test_pochhammer_recursions_on_ints_are_the_fraction_recursions(order, monkeypatch):
    specs = criterion_9_specs(200, 9)
    assert any(b < 0 for spec, _ in specs for b in spec.bases)
    for spec, t in specs:
        mmax = int(order / spec.zpow)
        assert qseries._poch_exp_coeffs(spec.bases, t, mmax) == ref_poch_exp_coeffs(
            spec.bases, t, mmax)
        pos = tuple(abs(b) for b in spec.bases)
        assert qseries._poch_base_coeffs(pos, t, mmax) == ref_poch_base_coeffs(pos, t, mmax)
    new = [pochhammer_series(spec, t, order, route) for spec, t in specs
           for route in ("shift", "exp")]
    monkeypatch.setattr(qseries, "_poch_base_coeffs", ref_poch_base_coeffs)
    monkeypatch.setattr(qseries, "_poch_exp_coeffs", ref_poch_exp_coeffs)
    ref = [pochhammer_series(spec, t, order, route) for spec, t in specs
           for route in ("shift", "exp")]
    assert [(p.dump(), p.trunc) for p in new] == [(p.dump(), p.trunc) for p in ref]


def _theta_zero_points(factor):
    """(factor cp^(-k), -k r, cp, r): w = factor p^(-k), a point of
    theta's zero set for factor 1."""
    return [(SymExpr.coerce(cp) ** -k * factor, -k * r, cp, r)
            for k in range(-3, 4) for cp in (F(2), F(-1, 3), G(0, 1))
            for r in (F(1, 2), F(1))]


# the points of THETA_GRID with w in p^Z, where theta is zero
THETA_GRID_ZEROS = [(F(1), F(-6), F(-1), F(1, 2)), (F(1), F(4), F(-1), F(1, 2))]


def test_the_benchmark_grid_holds_two_zeros_of_theta():
    # w = cw z^a lies in p^Z exactly when a = m r and cw = cp^m, m in Z
    zeros = [(cw, a, cp, r) for cw, a, cp, r in THETA_GRID
             if (a / r).denominator == 1
             and SymExpr.coerce(cw) == SymExpr.coerce(cp) ** int(a / r)]
    assert zeros == THETA_GRID_ZEROS


@pytest.mark.parametrize("route", ["product", "jacobi"])
def test_theta_vanishes_on_p_to_the_z_without_a_product(route, no_tree, monkeypatch):
    points = _theta_zero_points(1) + THETA_GRID_ZEROS
    ref = ref_theta_product if route == "product" else ref_theta_jacobi
    refs = [ref(*point, E) for point in points]

    def formed(*args):
        raise AssertionError("a series was multiplied or inverted")

    monkeypatch.setattr(PuiseuxSeries, "__mul__", formed)
    monkeypatch.setattr(PuiseuxSeries, "inverse", formed)
    for point, ref in zip(points, refs):
        new = theta_z_series(*point, E, route=route)
        assert new.is_zero() and new.trunc == E, point
        assert (new.coeffs, new.trunc) == (ref.coeffs, ref.trunc), point


@pytest.mark.parametrize("route", ["product", "jacobi"])
def test_theta_off_its_zero_set_is_the_old_route(route, request):
    if route == "jacobi":
        request.getfixturevalue("no_tree")
    for cw, a, cp, r in _theta_zero_points(2):
        new = theta_z_series(cw, a, cp, r, E, route=route)
        ref = (ref_theta_product if route == "product" else ref_theta_jacobi)(cw, a, cp, r, E)
        assert new.coeffs and (new.coeffs, new.trunc) == (ref.coeffs, ref.trunc), (cw, a, cp, r)


def test_theta_with_a_vanishing_constant_factor_is_zero():
    # theta(1; p) has the factor 1 - w = 0
    new = theta_z_series(F(1), F(0), F(2), F(1, 2), E, route="product")
    assert new.is_zero() and new.trunc == E


def test_theta_needs_positive_base_weight():
    with pytest.raises(UnsupportedRegion):
        theta_z_series(F(1), F(1), F(1), F(0), E)


# ---------------------------------------------------------------------------
# fixtures sanity (full bilinear checks live in the tau/acceptance tests)
# ---------------------------------------------------------------------------


def test_fixture_leading_exponents():
    assert algebraic_fixture("P3_tau_minus", F(2)).min_exp() == F(1, 16)
    assert algebraic_fixture("P3_taupm", F(2)).min_exp() == F(1, 32)
    smp = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8))
    assert algebraic_fixture("qP3_tau", F(2), sample=smp).min_exp() == F(1, 16)
    assert algebraic_fixture(
        "qP3_taupm", F(2), sample=smp).min_exp() == F(1, 32)


def test_fixture_requires_sample():
    with pytest.raises(ValueError):
        algebraic_fixture("qP3_tau", F(2))
    with pytest.raises(ValueError):
        algebraic_fixture("nope", F(2))
