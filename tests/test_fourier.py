"""Sector-graded series: convolution algebra, leading term, equality reports."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nektau.fourier import (
    EqualityReport,
    FourierSeries,
    fs_equal_to_order,
    hirota,
    ps_equal_to_order,
)
from nektau.identities import POOL_SIGMA, Context
from nektau.rationals import GaussianRational as G
from nektau.series import PuiseuxSeries, weighted_theta_expand
from nektau.symbols import NonInvertible, SymExpr, rational_power
from test_series import ref_mul, symbolic_series

TR = F(3)

exps = st.fractions(min_value=0, max_value=2, max_denominator=4)
coef = st.fractions(min_value=-9, max_value=9, max_denominator=4)
sects = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def fseries(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    out = FourierSeries.zero(TR)
    for _ in range(n):
        k = draw(sects)
        e = draw(exps)
        c = draw(coef)
        if c:
            out = out + FourierSeries.single(
                PuiseuxSeries({e: SymExpr.coerce(c)}, TR), k)
    return out


def fs_eq(a, b):
    return fs_equal_to_order(a, b, min(a.trunc, b.trunc)).ok


def test_single_and_sector():
    ps = PuiseuxSeries({F(1): SymExpr.coerce(2)}, TR)
    fs = FourierSeries.single(ps, F(1, 2))
    assert fs.sector(F(1, 2)).coeff(F(1)).rational_value() == G(2)
    assert not list(fs.sector(F(0)).items())


@given(fseries(), fseries(), fseries())
@settings(max_examples=50)
def test_ring_axioms(a, b, c):
    assert fs_eq(a + b, b + a)
    assert fs_eq(a * b, b * a)
    assert fs_eq(a * (b + c), a * b + a * c)


def test_product_adds_sector_labels():
    p = PuiseuxSeries.one(TR)
    a = FourierSeries.single(p, F(1, 2))
    b = FourierSeries.single(p, F(-3, 2))
    prod = a * b
    assert sorted(prod.sectors) == [F(-1)]


def test_leading_and_inverse():
    p = PuiseuxSeries({F(0): SymExpr.one(), F(1): SymExpr.coerce(3)}, TR)
    fs = FourierSeries.single(p, F(0)) + FourierSeries.single(
        PuiseuxSeries({F(1, 2): SymExpr.coerce(5)}, TR), F(1))
    inv = fs.inverse()
    prod = fs * inv
    one = FourierSeries.single(PuiseuxSeries.one(prod.trunc))
    assert fs_eq(prod, one)


def ref_fs_inverse(fs):
    """Test-only copy of the geometric-sum Fourier inverse it replaced."""
    k0, e0, c0 = fs.leading()
    c0_inv = c0.inverse()
    rel_trunc = fs.trunc - e0
    r_sectors = {}
    for k, ps in fs.sectors.items():
        shifted = PuiseuxSeries(
            {e - e0: c * c0_inv for e, c in ps.coeffs.items()
             if not (k == k0 and e == e0)},
            rel_trunc,
        )
        if not shifted.is_zero():
            r_sectors[k - k0] = shifted
    r = FourierSeries(r_sectors, rel_trunc)
    out = FourierSeries.single(PuiseuxSeries.one(rel_trunc))
    if r.sectors:
        v = min(ps.min_exp() for ps in r.sectors.values())
        if v <= 0:
            raise NonInvertible("non-leading term at the leading exponent")
        term = out
        for _ in range(int(rel_trunc / v) + 1):
            term = term * (-r)
            term = term.truncate(rel_trunc)
            if not term.sectors:
                break
            out = out + term
    return FourierSeries(
        {k - k0: ps.scale(c0_inv).shift(-e0) for k, ps in out.sectors.items()},
        rel_trunc - e0,
    )


def fs_identical(a, b):
    return a.trunc == b.trunc and a.sectors == b.sectors


def fs_of(rows, trunc=TR):
    """FourierSeries from {sector: {exponent: coefficient}}."""
    return FourierSeries(
        {F(k): PuiseuxSeries({F(e): SymExpr.coerce(c) for e, c in terms.items()},
                             trunc)
         for k, terms in rows.items()}, trunc)


SQRT3 = rational_power(F(3), F(1, 2))
FS_CASES = [
    ("half-integer sectors",
     fs_of({0: {0: 1, 1: 3}, F(1, 2): {F(1, 2): 5}, F(-1, 2): {F(1, 2): -2},
            F(3, 2): {F(3, 2): F(1, 7)}})),
    ("mixed denominators",
     fs_of({F(1, 2): {F(-1, 3): G(2, 1), F(1, 6): -1}, F(-1, 2): {F(1, 2): 4},
            1: {F(2, 3): G(0, F(1, 3))}})),
    ("negative leading exponent off sector 0",
     fs_of({F(-3, 2): {-1: SQRT3 * 2, F(1, 4): 1}, F(1, 2): {F(-1, 2): -3}})),
    ("multi-term SymExpr coefficients",
     fs_of({0: {0: G(1, -1), F(1, 2): SQRT3 + 1},
            1: {1: SQRT3 * G(0, 2) - F(1, 2)}})),
    ("single sector", fs_of({2: {F(1, 3): 3, F(1, 2): -1, 1: G(1, 1)}})),
    ("single monomial", fs_of({F(-1, 2): {F(1, 2): F(5, 3)}})),
]


@pytest.mark.parametrize("name,fs", FS_CASES, ids=[c[0] for c in FS_CASES])
def test_inverse_matches_geometric_sum(name, fs):
    inv = fs.inverse()
    assert fs_identical(inv, ref_fs_inverse(fs))
    assert fs_eq(fs * inv, FourierSeries.single(PuiseuxSeries.one(
        min(fs.trunc, inv.trunc))))


@given(fseries())
@settings(max_examples=60)
def test_inverse_matches_geometric_sum_random(fs):
    try:
        want = ref_fs_inverse(fs)
    except (ZeroDivisionError, NonInvertible) as exc:
        with pytest.raises(type(exc)):
            fs.inverse()
        return
    assert fs_identical(fs.inverse(), want)


def test_inverse_guards():
    with pytest.raises(ZeroDivisionError):
        FourierSeries.zero(TR).inverse()
    with pytest.raises(NonInvertible):  # multi-term leading coefficient
        fs_of({0: {0: SQRT3 + 1, 1: 2}}).inverse()
    with pytest.raises(NonInvertible):  # tie across sectors
        fs_of({0: {F(1, 2): 1}, 1: {F(1, 2): 2, 1: 3}}).inverse()


@pytest.mark.parametrize("order", [(0, 1, -1), (-1, 0, 1), (1, -1, 0)])
def test_leading_ignores_a_tie_above_the_minimum(order):
    # sectors 0 and 1 tie at z^{1/2}, above sector -1's z^0; the answer must
    # not depend on which sectors come first
    rows = {0: {F(1, 2): 1}, 1: {F(1, 2): 2}, -1: {0: 3}}
    fs = fs_of({k: rows[k] for k in order})
    k, e, c = fs.leading()
    assert (k, e, c.rational_value()) == (-1, 0, G(3))
    assert fs_eq(fs * fs.inverse(), FourierSeries.single(PuiseuxSeries.one(TR)))


@pytest.mark.parametrize("order", [(0, 1, -1), (-1, 0, 1)])
def test_leading_rejects_a_tie_at_the_minimum(order):
    rows = {0: {0: 1}, 1: {0: 2}, -1: {F(1, 2): 3}}
    with pytest.raises(NonInvertible, match="no unique minimal term"):
        fs_of({k: rows[k] for k in order}).leading()


def test_inverse_rejects_non_leading_term_at_leading_exponent(monkeypatch):
    # leading() rejects ties before this guard runs, so it is reached only
    # when the term named leading is not minimal: stub leading() to do that
    fs = fs_of({0: {0: 1, 1: 2}, 1: {1: 3}})
    monkeypatch.setattr(FourierSeries, "leading",
                        lambda self: (F(1), F(1), self.sector(1).coeff(1)))
    for inverse in (FourierSeries.inverse, ref_fs_inverse):
        with pytest.raises(NonInvertible, match="non-leading term"):
            inverse(fs)


def test_theta_acts_per_sector():
    p = PuiseuxSeries({F(2): SymExpr.coerce(7)}, TR)
    fs = FourierSeries.single(p, F(1))
    th = fs.theta()
    assert th.sector(F(1)).coeff(F(2)).rational_value() == G(14)


# ---------------------------------------------------------------------------
# Hirota on sectors
# ---------------------------------------------------------------------------


@given(fseries())
@settings(max_examples=40)
def test_hirota_d1_self_vanishes(f):
    d = hirota(1, f, f)
    z = FourierSeries.zero(d.trunc)
    assert fs_eq(d, z)


@given(fseries(), fseries())
@settings(max_examples=40)
def test_hirota_k0_is_product(f, g):
    assert fs_eq(hirota(0, f, g), f * g)


def test_weighted_hirota_k0():
    p = PuiseuxSeries({F(1): SymExpr.coerce(2)}, TR)
    f = FourierSeries.single(p, F(1, 2))
    g = FourierSeries.single(p, F(-1, 2))
    out = weighted_theta_expand(f, g, F(1), F(2), 0)
    assert fs_eq(out, f * g)


@given(fseries(), fseries())
@settings(max_examples=40)
def test_hirota_is_sector_bilinear(f, g):
    # D^k of Fourier series equals D^k of every sector pair, summed into
    # the product sector
    for k in range(4):
        ref = FourierSeries.zero(min(f.trunc, g.trunc))
        for k1, p1 in f.sectors.items():
            for k2, p2 in g.sectors.items():
                ref = ref + FourierSeries.single(hirota(k, p1, p2), k1 + k2)
        assert fs_eq(hirota(k, f, g), ref)


# ---------------------------------------------------------------------------
# equality reports
# ---------------------------------------------------------------------------


def test_equality_report_pass_and_fail():
    p = PuiseuxSeries({F(1): SymExpr.coerce(2)}, TR)
    a = FourierSeries.single(p, F(0))
    b = FourierSeries.single(p.scale(3), F(0))
    ok = fs_equal_to_order(a, a, F(2))
    assert ok.ok and not ok.residuals
    bad = fs_equal_to_order(a, b, F(2))
    assert not bad.ok
    sector, exponent, n_terms, rendered = bad.residuals[0]
    assert sector == F(0) and exponent == F(1) and n_terms == 1
    assert isinstance(rendered, str)
    assert "FAIL" in bad.summary()


def test_failed_report_ends_with_its_note():
    # bool_report parts (NY1's constant, determlemma levels, m1chain) fail
    # with no residuals; their note is the only detail they carry
    assert (EqualityReport(False, F(2), [], "constant = (3)").summary()
            == "FAIL through z^2: constant = (3)")
    assert EqualityReport(False, F(2)).summary() == "FAIL through z^2"
    residual = (F(0), F(1), 1, "(1)")
    assert (EqualityReport(False, F(3), [residual], "why").summary()
            == "FAIL through z^3: sector 0 exponent 1: 1 residual term(s); why")
    assert EqualityReport(True, F(2), [], "why").summary() == "pass (exact through z^2)"


def test_equality_raises_beyond_truncation():
    a = FourierSeries.single(PuiseuxSeries.one(F(1)))
    with pytest.raises(ValueError):
        fs_equal_to_order(a, a, F(2))
    p = PuiseuxSeries.one(F(1))
    with pytest.raises(ValueError):
        ps_equal_to_order(p, p, F(2))


def test_equality_raises_beyond_a_sector_bound():
    # known through z^3 overall, but sector 1/2 only through z^1
    a = FourierSeries({F(0): PuiseuxSeries.one(F(3)),
                       F(1, 2): PuiseuxSeries({F(1): SymExpr.coerce(2)}, F(1))}, F(3))
    zero = FourierSeries.zero(F(3))
    assert fs_equal_to_order(a, a, F(1)).ok
    for x, y in ((a, a), (a, zero), (zero, a)):
        with pytest.raises(ValueError, match="only known to 1,"):
            fs_equal_to_order(x, y, F(2))


def _fs(rows, trunc):
    """FourierSeries from {sector: (bound, {exponent: coefficient})}."""
    return FourierSeries({F(k): PuiseuxSeries(
        {F(e): SymExpr.coerce(c) for e, c in terms.items()}, F(b))
        for k, (b, terms) in rows.items()}, F(trunc))


def test_a_zero_sector_keeps_its_own_bound():
    # sector 0 of D^1, sum (x - y) f_x g_y over the sector pairs (0, 0)
    # and (1, -1), is known only through z^1 (f_0 is), where it is
    # 2z - 2z = 0.  It used to be dropped, and sector(0) then read 0
    # through the overall z^3
    f = _fs({0: (1, {1: 1}), 1: (3, {1: 1, 2: -1})}, 3)
    g = _fs({0: (2, {0: 2, 2: -1}), -1: (2, {0: -2})}, 3)
    d1 = hirota(1, f, g)
    assert d1.trunc == 3
    assert d1.sector(0) == PuiseuxSeries.zero(F(1))
    assert F(0) in d1.sectors and d1.sectors[F(0)].is_zero()
    zero = FourierSeries.zero(F(3))
    assert fs_equal_to_order(d1.truncate(1), zero, F(1)).ok is False  # sector 1 is not zero
    with pytest.raises(ValueError, match="only known to 1,"):
        fs_equal_to_order(d1, zero, F(2))
    # the zero sector is no term: leading() and the inverse skip it
    h = _fs({0: (1, {}), 1: (3, {1: 2, 2: 1})}, 3)
    assert F(0) in h.sectors
    assert h.leading() == (F(1), F(1), SymExpr.coerce(2))
    inv = h.inverse()
    assert inv.sector(-1).coeff(F(-1)) == SymExpr.coerce(F(1, 2))
    # a zero sector known through the overall bound is dropped as before
    assert not _fs({0: (3, {}), 1: (3, {1: 2})}, 3).sector(0).coeffs
    assert F(0) not in _fs({0: (3, {}), 1: (3, {1: 2})}, 3).sectors


def test_equal_taus_built_apart_compare_equal():
    # == compares the bound and each sector as a PuiseuxSeries, not identity
    sigma = POOL_SIGMA[0]
    tau = Context().taus_4d(sigma, F(2))("kiev")
    again = Context().taus_4d(sigma, F(2))("kiev")
    assert tau is not again and tau == again and not tau != again
    k, p = max(tau.sectors.items(), key=lambda kp: len(kp[1].coeffs))
    e, c = p.items()[0]
    bumped = PuiseuxSeries({**p.coeffs, e: c + 1}, p.trunc)
    assert tau != FourierSeries({**tau.sectors, k: bumped}, tau.trunc)
    # a bound between a sector's top term and the series' bound keeps its terms
    k, p = next((k, p) for k, p in tau.sectors.items() if p.items()[-1][0] < tau.trunc)
    lower = p.truncate((p.items()[-1][0] + tau.trunc) / 2)
    assert lower.coeffs == p.coeffs
    assert tau != FourierSeries({**tau.sectors, k: lower}, tau.trunc)
    # as does a zero sector kept at a lower bound
    assert tau != FourierSeries({**tau.sectors, F(9): PuiseuxSeries.zero(F(1))}, tau.trunc)
    assert tau != tau.truncate(F(3, 2)) and tau != tau.sector(0)


# ---------------------------------------------------------------------------
# the sector product kernel against the per-sector-pair loop it replaced
# ---------------------------------------------------------------------------


def ref_fs_mul(f, g):
    """Test-only copy of the old FourierSeries product: one PuiseuxSeries
    product (the pair loop ref_mul) and one series sum per sector pair."""
    v_f = min((ps.min_exp() for ps in f.sectors.values()), default=f.trunc)
    v_g = min((ps.min_exp() for ps in g.sectors.values()), default=g.trunc)
    trunc = min(f.trunc + v_g, g.trunc + v_f)
    out = {}
    for k1, p1 in f.sectors.items():
        for k2, p2 in g.sectors.items():
            prod = ref_mul(p1, p2)
            k = k1 + k2
            out[k] = out[k] + prod if k in out else prod
    return FourierSeries(out, trunc)


def assert_product_is_the_sector_pair_loop(f, g):
    new, ref = f * g, ref_fs_mul(f, g)
    assert new.trunc == ref.trunc
    assert new.sectors == ref.sectors  # PuiseuxSeries ==: coeffs and bound


@st.composite
def symbolic_fourier(draw):
    """Up to three sectors, each with its own bound, negative and fractional
    exponents and coefficients over one small set of monomials, so the
    sectors share monomials."""
    keys = draw(st.lists(st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)]),
                         max_size=3, unique=True))
    return FourierSeries({k: draw(symbolic_series()) for k in keys},
                         draw(st.sampled_from([F(0), F(1), F(5, 2)])))


@given(symbolic_fourier(), symbolic_fourier())
@settings(max_examples=60)
def test_product_is_the_sector_pair_loop(f, g):
    assert_product_is_the_sector_pair_loop(f, g)
    assert_product_is_the_sector_pair_loop(f, f)


@given(symbolic_series(), symbolic_series(), st.sampled_from([F(1), F(3)]))
@settings(max_examples=40)
def test_product_keeps_a_cancelled_sector(p, q, trunc):
    # sector 0 of f * g is p q - q p: zero, kept with its bound while that
    # is below the product's
    f = FourierSeries({0: p, 1: q}, trunc)
    g = FourierSeries({0: q, -1: -p}, trunc)
    assert not (f * g).sector(0).coeffs
    assert_product_is_the_sector_pair_loop(f, g)
    assert_product_is_the_sector_pair_loop(g, f)


@pytest.mark.parametrize("name,fs", FS_CASES, ids=[c[0] for c in FS_CASES])
def test_product_cases(name, fs):
    assert_product_is_the_sector_pair_loop(fs, fs)
    for _, other in FS_CASES:
        assert_product_is_the_sector_pair_loop(fs, other)


def test_dump_is_sector_major_sorted():
    p0 = PuiseuxSeries({F(1): SymExpr.coerce(1), F(0): SymExpr.coerce(2)}, TR)
    fs = FourierSeries.single(p0, F(1)) + FourierSeries.single(p0, F(-1))
    rows = fs.dump()
    keys = [(tuple(r["sector"]), tuple(r["exponent"])) for r in rows]
    assert keys == sorted(keys, key=lambda x: (F(*x[0]), F(*x[1])))
