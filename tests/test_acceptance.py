"""Acceptance gate: the ten primary verification criteria, with the stated
truncation orders, sample counts, and wall-clock budgets."""

import random
import time
from fractions import Fraction as F

import nektau.identities as idmod
from nektau.fourier import ps_equal_to_order
from nektau.partitions import enumerate_pairs
from nektau.qseries import (
    PochhammerSpec,
    _poch_exp_coeffs,
    algebraic_fixture,
    pochhammer_series,
    theta_z_series,
)
from nektau.rationals import GaussianRational as G
from nektau.sampling import ParameterSample
from nektau.series import PuiseuxSeries, hirota
from nektau.symbols import SymExpr, rational_power

ELAPSED = {}


def _timed(key, budget_seconds, fn):
    start = time.monotonic()
    fn()
    ELAPSED[key] = time.monotonic() - start
    assert ELAPSED[key] < budget_seconds, (
        f"criterion {key} took {ELAPSED[key]:.1f}s, budget {budget_seconds}s")


def _assert_ok(rep):
    assert rep.ok, rep.id + ": " + "; ".join(
        f"{n}: {r.summary()}" for n, r in rep.parts if not r.ok)


# criterion 1: the order-z^5 product expansion, three validated samples


def test_criterion_1_prdx_order5_three_samples():
    def run():
        for sample in idmod.default_samples("q-painleve", 3):
            rep = idmod.verify("prdx", sample=sample, E=F(5))
            assert rep.status == "conjecture"
            _assert_ok(rep)

    _timed(1, 300, run)


# criterion 2: half-integer powers vanish through z^{7/2} at generic weight


def test_criterion_2_half_power_vanishing():
    def run():
        rep = idmod.verify("halfpow", E=F(7, 2))
        assert rep.status == "conjecture"
        _assert_ok(rep)

    _timed(2, 300, run)


# criterion 3: the 4d mode-sum relation exactly through instanton order 3


def test_criterion_3_blowup_order3():
    def run():
        _assert_ok(idmod.verify("NY", E=F(3)))

    _timed(3, 120, run)


# criterion 4: differential relations -- cubic vanishing, the quartic
# coefficient, and the half-sector coefficient, through order 2


def test_criterion_4_differential_blowups():
    def run():
        for id in ("NY2", "NY4", "NY1"):
            _assert_ok(idmod.verify(id, E=F(2)))

    _timed(4, 120, run)


# criterion 5: 5d mode-sum relations and their symmetric specialization,
# exact through instanton order 3


def test_criterion_5_q_blowups_order3():
    def run():
        for id in ("qNY1", "qNY2", "qNY3", "qNYD12diff"):
            _assert_ok(idmod.verify(id, E=F(3)))

    _timed(5, 120, run)


# criterion 6: bilinear tau equations from the assembled series, plus both
# zeta forms and the squared first-derivative identity, at matching order


def test_criterion_6_bilinear_and_zeta():
    def run():
        _assert_ok(idmod.verify("qTodasg", E=F(3)))
        for id in ("Todasg", "zetac", "zeta3", "KZsq"):
            _assert_ok(idmod.verify(id, E=F(3)))

    _timed(6, 300, run)


# criterion 7: level-1 chain through order 2, level-equivalence identities
# through order 3, and the recursion oracle for k <= 3


def test_criterion_7_chern_simons():
    def run():
        _assert_ok(idmod.verify("m1chain", E=F(2)))
        _assert_ok(idmod.verify("qTodaCSsg", E=F(2)))
        for id in ("20equiv1", "20equiv2", "20equiv12"):
            _assert_ok(idmod.verify(id, E=F(3)))
        _assert_ok(idmod.verify("determlemma", E=F(3)))

    _timed(7, 300, run)


# criterion 8: closed-form fixtures, positive and negative, 12 lattice steps


def _ps_zero(ps, E):
    return all(not c for e, c in ps.items() if e <= E)


def test_criterion_8_algebraic_fixtures():
    def run():
        EB, E = F(3), F(2)
        tp = algebraic_fixture("P3_taupm", EB, sign=+1)
        tm = algebraic_fixture("P3_taupm", EB, sign=-1)
        tau = algebraic_fixture("P3_tau_minus", EB)
        # first-derivative relation: D^1(tau+, tau-) = z^{1/4} tau
        assert _ps_zero(hirota(1, tp, tm) - tau.shift(F(1, 4)), E)
        # second-derivative relation: D^2(tau+, tau-) = 0
        assert _ps_zero(hirota(2, tp, tm), E)
        # the "+" branch (z^{1/2} sign flipped) fails both
        wp = algebraic_fixture("P3_taupm", EB, sign=+1, wrong_branch=True)
        wm = algebraic_fixture("P3_taupm", EB, sign=-1, wrong_branch=True)
        assert not _ps_zero(hirota(2, wp, wm), E)
        assert not _ps_zero(hirota(1, wp, wm) - tau.shift(F(1, 4)), E)
        # continuous Toda lattice: tau_n = z^{n/4} tau, 12 steps
        for n in range(12):
            lhs = hirota(2, tau.shift(F(n, 4)), tau.shift(F(n, 4)))
            rhs = (tau.shift(F(n + 1, 4)) * tau.shift(F(n - 1, 4))) \
                .shift(F(1, 2)).scale(F(-2))
            assert _ps_zero(lhs - rhs, E), f"continuous lattice step {n}"
        # q-fixture with equal neighbours: tau_j = z^{j/4} tau solves
        # tau_j(qz) tau_j(q^-1 z) = tau_j^2 - z^{1/2} tau_{j+1} tau_{j-1}
        smp = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8))
        qtau = algebraic_fixture("qP3_tau", EB, sample=smp)
        for j in range(12):
            tj = qtau.shift(F(j, 4))
            lhs = tj.dilate(1, smp) * tj.dilate(-1, smp)
            rhs = tj * tj - (qtau.shift(F(j + 1, 4))
                             * qtau.shift(F(j - 1, 4))).shift(F(1, 2))
            assert _ps_zero(lhs - rhs, E), f"q lattice step {j}"

    _timed(8, 300, run)


# criterion 9: randomized property suite for the product-series identities,
# >= 100 specs per identity


def _random_spec(rng):
    coeffs = [F(1), F(-1), F(2), F(-1, 2), F(3, 5), G(0, 1), G(1, 1)]
    zpows = [F(1, 2), F(1), F(3, 2), F(2)]
    ts = [F(1, 2), F(1, 3), F(2, 5), F(3, 7)]
    bases = tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                  for _ in range(rng.randint(1, 2)))
    return (PochhammerSpec(rng.choice(coeffs), rng.choice(zpows), bases),
            rng.choice(ts))


def test_criterion_9_random_property_suite():
    def run():
        E = F(2)
        rng = random.Random(0)

        def ps_eq(a, b):
            return ps_equal_to_order(a, b, min(a.trunc, b.trunc)).ok

        for _ in range(100):
            spec, t = _random_spec(rng)
            b1, rest = spec.bases[0], spec.bases[1:]
            c = SymExpr.coerce(spec.coeff)
            lhs = pochhammer_series(spec, t, E)
            # shift rule
            rhs = pochhammer_series(
                PochhammerSpec(c * rational_power(t, F(b1)), spec.zpow,
                               spec.bases), t, E) * pochhammer_series(
                PochhammerSpec(spec.coeff, spec.zpow, rest), t, E)
            assert ps_eq(lhs, rhs)
            # period splitting, n = 2 and 3
            for n in (2, 3):
                prod = PuiseuxSeries.one(E)
                for i in range(n):
                    prod = (prod * pochhammer_series(PochhammerSpec(
                        c * rational_power(t, F(i * b1)), spec.zpow,
                        (n * b1,) + rest), t, E)).truncate(E)
                assert ps_eq(prod, lhs)
            # square splitting
            sq = pochhammer_series(PochhammerSpec(
                c * c, 2 * spec.zpow, tuple(2 * b for b in spec.bases)), t, E)
            assert ps_eq(sq, lhs * pochhammer_series(
                PochhammerSpec(-c, spec.zpow, spec.bases), t, E))
            # inversion rule vs the exponential formula (independent route)
            mmax = int(E / spec.zpow)
            g = _poch_exp_coeffs(spec.bases, t, mmax)
            terms, cpow = {}, SymExpr.one()
            for m in range(mmax + 1):
                if g[m]:
                    terms[m * spec.zpow] = cpow * g[m]
                cpow = cpow * c
            assert ps_eq(lhs, PuiseuxSeries(terms, E))

        # theta identities: triple product and the shift rule
        theta_coeffs = [F(1), F(-1), F(2), F(-1, 3), G(0, 1)]
        for _ in range(100):
            cw = rng.choice(theta_coeffs)
            cp = rng.choice(theta_coeffs)
            a = F(rng.randint(-6, 8), rng.choice([1, 2, 4]))
            r = rng.choice([F(1, 2), F(1), F(3, 2), F(2)])
            prod_route = theta_z_series(cw, a, cp, r, E, route="product")
            assert ps_eq(prod_route,
                         theta_z_series(cw, a, cp, r, E, route="jacobi"))
            shifted = theta_z_series(
                SymExpr.coerce(cw) * SymExpr.coerce(cp), a + r, cp, r, E)
            base = theta_z_series(cw, a, cp, r, E + 2 * abs(a))
            assert ps_eq(shifted, base.scale(
                -SymExpr.coerce(cw).inverse()).shift(-a).truncate(E))

    _timed(9, 600, run)


# criterion 10: performance envelope


def test_criterion_10_performance():
    start = time.monotonic()
    pairs = list(enumerate_pairs(6))
    assert time.monotonic() - start < 1.0
    # sum_{k=0}^{6} p(k) p(6-k) = 65 pairs of total size six
    assert len(pairs) == 65
    # the timed criteria above must jointly fit the 30-minute budget
    assert sum(ELAPSED.values()) < 1800, ELAPSED
