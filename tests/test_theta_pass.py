"""theta_products, weighted_theta_expand and hirota, one pass over the pairs
of terms, against the basis-product route (basis_theta.py) and the Horner
route (horner_theta.py): equal type, bounds, sector sets and terms, with and
without a store of basis products shared by the reference routes, whose
stores agree too."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import basis_theta as basis
import horner_theta as horner
from nektau.identities import POOL_SIGMA, Context
from nektau.rationals import GaussianRational as G
from nektau.series import PuiseuxSeries, hirota, theta_products, weighted_theta_expand
from nektau.symbols import SymExpr
from test_series import (F_UNEQUAL, F_Z0, G_UNEQUAL, G_Z0, POLYS, SQRT3, WEIGHTS, _fs,
                         bounded_fourier, bounded_series, factored_polys, maybe_z0)


def assert_same(new, ref):
    """Same type, overall bound, sector set, and each sector's terms and
    bound."""
    assert type(new) is type(ref)
    assert new.trunc == ref.trunc
    if isinstance(ref, PuiseuxSeries):
        assert new.coeffs == ref.coeffs
    else:
        assert sorted(new.sectors) == sorted(ref.sectors)
        for s, p in ref.sectors.items():
            assert new.sectors[s].trunc == p.trunc
            assert new.sectors[s].coeffs == p.coeffs


def assert_stores_same(new, ref):
    assert sorted(new) == sorted(ref)
    for key, B in ref.items():
        assert_same(new[key], B)


def assert_routes_agree(f, g, polys):
    for new, ref, old in zip(theta_products(f, g, polys), basis.theta_products(f, g, polys),
                             horner.theta_products(f, g, polys)):
        assert_same(new, ref)
        assert_same(new, old)
    ref_store, old_store = {}, {}
    for poly in polys:
        new = theta_products(f, g, [poly])[0]
        assert_same(new, basis.theta_products(f, g, [poly], memo=ref_store)[0])
        assert_same(new, horner.theta_products(f, g, [poly], memo=old_store)[0])
    assert_stores_same(ref_store, old_store)


def assert_expansions_agree(f, g):
    ref_store, old_store = {}, {}
    for w1, w2 in WEIGHTS:
        for k in range(5):
            new = weighted_theta_expand(f, g, w1, w2, k)
            assert_same(new, basis.weighted_theta_expand(f, g, w1, w2, k))
            assert_same(new, basis.weighted_theta_expand(f, g, w1, w2, k, memo=ref_store))
            assert_same(new, horner.weighted_theta_expand(f, g, w1, w2, k, memo=old_store))
            if (w1, w2) == (1, -1):
                assert_same(hirota(k, f, g), horner.hirota(k, f, g))
    assert_stores_same(ref_store, old_store)


@given(maybe_z0(bounded_series()), maybe_z0(bounded_series()), st.booleans(),
       factored_polys())
@settings(max_examples=30)
def test_theta_pass_is_the_horner_route(f, g, same, polys):
    assert_routes_agree(f, f if same else g, polys)


@given(maybe_z0(bounded_fourier()), maybe_z0(bounded_fourier()), factored_polys())
@settings(max_examples=30)
def test_theta_pass_is_the_horner_route_on_sectors(f, g, polys):
    assert_routes_agree(f, g, polys)
    assert_routes_agree(f, f, polys)


@given(maybe_z0(bounded_fourier()), maybe_z0(bounded_fourier()))
@settings(max_examples=20)
def test_expansions_are_the_horner_route(f, g):
    assert_expansions_agree(f, g)
    assert_expansions_agree(f, f)


@pytest.mark.parametrize("f,g", [
    (F_UNEQUAL, G_UNEQUAL), (G_UNEQUAL, F_UNEQUAL), (F_Z0, G_Z0),
    (F_UNEQUAL, F_UNEQUAL), (G_UNEQUAL, G_UNEQUAL), (G_Z0, G_Z0),
])
def test_theta_pass_cases(f, g):
    assert_routes_agree(f, g, POLYS)
    assert_expansions_agree(f, g)


def test_odd_basis_products_of_a_symmetric_pair():
    # f is g: the basis-product route makes B_1 and B_3 from the even
    # products; the one pass has no such case
    f = F_UNEQUAL
    store, old_store = {}, {}
    for k in (3, 1, 4):
        new = hirota(k, f, f)
        assert_same(new, basis.hirota(k, f, f, memo=store))
        assert_same(new, horner.hirota(k, f, f, memo=old_store))
    assert sorted(store) == [(0, 0, j) for j in range(5)]
    assert_stores_same(store, old_store)


def test_fraction_weights_and_zero_entries():
    # Fraction weights, and c = 0 entries that only lower the bounds
    polys = [{(3, 0): F(2, 3), (0, 2): 0, (1, 2): F(-7, 5)},
             {(2, 0): 0, (1, 1): 0},
             {(1, 0): F(1, 6), (0, 1): F(-5, 4), (0, 0): 0}]
    for f, g in ((F_UNEQUAL, G_UNEQUAL), (F_Z0, G_Z0), (F_UNEQUAL, F_UNEQUAL)):
        assert_routes_agree(f, g, polys)
    assert_expansions_agree(PuiseuxSeries({F(1, 3): SymExpr.coerce(G(1, 2)),
                                           F(5, 6): SQRT3}, F(2)),
                            PuiseuxSeries({F(0): SymExpr.coerce(F(3, 7))}, F(3, 2)))


def test_a_sector_that_no_basis_product_holds():
    # sector 1 of f holds only z^0, through the overall bound, so theta f
    # has no sector 1 and neither has any B_j = theta^{1+j} f * g, while the
    # product bounds list it
    f = _fs({0: (3, {F(1, 2): 2}), 1: (3, {0: 5})}, 3)
    g = _fs({0: (F(5, 2), {0: 1, F(1, 4): -3})}, 3)
    poly = {(1, 0): F(3, 2), (2, 0): -1}
    store = {}
    basis.theta_products(f, g, [poly], memo=store)
    _, bounds = basis._product_bounds(f, g, 1, 0)
    assert F(1) in bounds and all(F(1) not in B.sectors for B in store.values())
    assert_routes_agree(f, g, [poly, {(1, 1): 1}])
    # a poly of zero entries takes no B_j at all; its sectors are zero
    # through their bounds, which lie below the overall one
    (out,) = theta_products(F_UNEQUAL, G_UNEQUAL, [{(1, 0): 0, (0, 1): 0}])
    assert out.sectors and all(p.is_zero() and p.trunc < out.trunc
                               for p in out.sectors.values())
    assert_routes_agree(F_UNEQUAL, G_UNEQUAL, [{(1, 0): 0, (0, 1): 0}])


#: the tau pairs whose D^k the 4d-tau checks take (identities.Context.hirota_4d)
TAU_PAIRS = [("plus", "minus"), ("long0", "long0"), ("long1", "long1"), ("kiev", "kiev"),
             ("long0", "long1")]


@pytest.mark.parametrize("EB", [F(6), F(12)])
@pytest.mark.parametrize("sigma", POOL_SIGMA)
def test_4d_tau_forms_are_the_basis_route(sigma, EB):
    # D^k, k <= 4, of the five tau pairs on one store per pair, and the five
    # zeta forms of identities.Context.zeta_4d, on each 4d-tau sample
    ctx = Context()
    taus = ctx.taus_4d(sigma, EB)
    for f, g in TAU_PAIRS:
        store = {}
        for k in range(5):
            assert_same(hirota(k, taus(f), taus(g)),
                        basis.hirota(k, taus(f), taus(g), memo=store))
    forms = ctx.zeta_4d(sigma, EB)
    z = forms["zeta"]
    P, Q, R = basis.theta_products(z, z, [{(1, 1): 1}, {(2, 2): 1, (1, 3): -1},
                                          {(2, 2): 1, (2, 1): -2, (1, 1): 1}])
    P_dz, P_z = basis.theta_products(P, z, [{(0, 1): 1}, {(0, 0): 1}])
    for name, ref in (("P", P), ("Q", Q), ("R", R), ("P dzeta", P_dz), ("P zeta", P_z)):
        assert_same(forms[name], ref)


def test_each_poly_is_cut_at_its_own_bounds():
    # theta f * theta g drops the z^0 terms of F_Z0 and G_Z0, so it is
    # known further than f * g: one call cuts each poly at its own bounds
    # (z^3 and z^4 overall, z^1 and z^2 in sector 0), not at the loosest
    polys = [{(0, 0): 1}, {(1, 1): 1}, {(2, 0): 1, (0, 1): -1}]
    for f, g in ((F_Z0, G_Z0), (F_UNEQUAL, G_UNEQUAL), (G_UNEQUAL, F_UNEQUAL)):
        outs = theta_products(f, g, polys)
        for out, poly in zip(outs, polys):
            trunc, bounds = basis._product_bounds(f, g, min(a for a, _ in poly),
                                                  min(b for _, b in poly))
            assert out.trunc == trunc
            assert {s: p.trunc for s, p in out.sectors.items()} == \
                {s: b for s, b in bounds.items() if s in out.sectors}
    outs = theta_products(F_Z0, G_Z0, polys[:2])
    assert [(out.trunc, out.sectors[0].trunc) for out in outs] == [(3, 1), (4, 2)]
