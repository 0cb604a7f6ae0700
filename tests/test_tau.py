"""Tau assembly: sector structure, splitting, Backlund moves, fixtures."""

from fractions import Fraction as F

import pytest

from nektau.fourier import FourierSeries, fs_equal_to_order
from nektau.identities import POOL_QP, POOL_SIGMA
from nektau.qseries import algebraic_fixture
from nektau.sampling import ParameterSample
from nektau.series import PuiseuxSeries
from nektau import tau as taumod
from nektau.nekrasov import Theory4d, Theory5d
from nektau.symbols import NonInvertible, SymExpr
from nektau.tau import (
    KAPPA,
    TauSystem4d,
    TauSystemQ,
    build_tau,
    g_function,
    zeta_from_tau,
)

SIGMA = F(7, 24)
E = F(2)
EB = F(3)
SMP = ParameterSample(t=F(1, 3), dq=8, sigma=F(3, 8))


def fs_eq(a, b, order=E):
    return fs_equal_to_order(a, b.truncate(a.trunc) if b.trunc > a.trunc else b,
                             min(order, a.trunc, b.trunc)).ok


H = F(1, 2)
#: name: (theory, k_step, k_offset, fourier_offset, sector_step, prefactor);
#: 5d theories in units of dq at level 1
RECIPES_4D = {
    "kiev": ((1, -1), (0, 2), (0, 0), 0, 1, None),
    "half": ((1, -1), (0, 2), (0, 1), H, 1, None),
    "plus": ((1, -2), (0, 1), (0, 0), 0, H, None),
    "minus": ((2, -1), (-1, 0), (0, 0), 0, H, None),
    "long0": ((1, -2), (0, 2), (0, 0), 0, 1, None),
    "long1": ((1, -2), (0, 2), (0, 1), H, 1, KAPPA),
    "up": ((1, -1), (0, 2), (0, 1), 0, 1, None),
    "down": ((1, -1), (0, 2), (0, -1), 0, 1, None),
}
RECIPES_Q = {
    "kiev0": ((-1, 1), (0, 2), (0, 0), 0, 1, None),
    "kiev1": ((-1, 1), (0, 2), (0, 1), H, 1, None),
    "plus": ((-1, 2), (0, 1), (0, 0), 0, H, None),
    "minus": ((1, -2), (0, -1), (0, 0), 0, H, None),
    "up": ((-1, 1), (0, 2), (0, 1), 0, 1, None),
    "down": ((-1, 1), (0, 2), (0, -1), 0, 1, None),
    "plus_uq": ((-1, 2), (0, 1), (-1, 0), H / 2, H, None),
    "minus_uq": ((1, -2), (0, -1), (-1, -1), H / 2, H, None),
}


@pytest.mark.parametrize("system,recipes,theory", [
    (TauSystem4d(SIGMA), RECIPES_4D, lambda e1, e2: Theory4d(F(e1), F(e2))),
    (TauSystemQ(SMP, 1), RECIPES_Q, lambda e1, e2: Theory5d(F(8 * e1), F(8 * e2), 1)),
], ids=["4d", "q"])
def test_each_recipe_is_written_once_in_its_table(system, recipes, theory):
    # every lattice path is pinned: another path to the same point would
    # telescope another cocycle expression and change the dumps
    assert list(system.recipes) == list(recipes)
    for name, (th, *fields) in recipes.items():
        spec = system.recipes[name]
        assert spec.base.th == theory(*th), name
        assert [spec.k_step, spec.k_offset, spec.fourier_offset, spec.sector_step,
                spec.prefactor] == fields, name


def test_a_tau_is_built_once_per_memo(monkeypatch):
    built = []
    real = taumod.build_tau
    monkeypatch.setattr(taumod, "build_tau", lambda spec, E: built.append(E) or real(spec, E))
    memo = {}
    tau = TauSystem4d(SIGMA, memo=memo).tau("kiev", E)
    assert TauSystem4d(SIGMA, memo=memo).tau("kiev", E) is tau
    assert TauSystem4d(SIGMA, memo=memo).tau("half", E) is not tau
    assert TauSystemQ(SMP, memo=memo).tau("kiev0", E) is not tau
    assert len(built) == 3
    # without a memo nothing is kept
    s4 = TauSystem4d(SIGMA)
    assert s4.tau("kiev", E) is not s4.tau("kiev", E)
    assert len(built) == 5


def test_kiev_sector_structure():
    tau = TauSystem4d(SIGMA).tau("kiev", E)
    assert all(k.denominator == 1 for k in tau.sectors)
    assert F(0) in tau.sectors
    # the reference sector starts at z^0 with coefficient 1
    assert tau.sector(F(0)).coeff(F(0)).rational_value().re == 1


def test_stability_under_extension():
    s4 = TauSystem4d(SIGMA)
    lo = s4.tau("kiev", E)
    hi = s4.tau("kiev", E + 1)
    assert fs_eq(hi.truncate(E), lo)


def test_splitting_into_short_taus():
    s4 = TauSystem4d(SIGMA)
    assert fs_eq(s4.tau("kiev", EB), s4.tau("plus", EB) * s4.tau("minus", EB))


def test_half_offset_product_has_integer_sectors():
    # parity bookkeeping: two half-integer-offset factors convolve to
    # integer-offset sectors only
    s4 = TauSystem4d(SIGMA)
    tp, tm = s4.tau("plus", E), s4.tau("minus", E)
    assert any(k.denominator == 2 for k in tp.sectors)
    prod = tp * tm
    assert all(k.denominator == 1 for k in prod.sectors)


def test_backlund_is_half_sector_shifted():
    tau1 = TauSystem4d(SIGMA).tau("half", E)
    assert all(k.denominator == 2 for k in tau1.sectors)


def _twice(spec):
    """spec's half step (its k_offset and fourier_offset) taken twice."""
    return spec._replace(k_offset=tuple(2 * k for k in spec.k_offset),
                         fourier_offset=2 * spec.fourier_offset)


def _relabelled(tau, by):
    return FourierSeries({k + by: ps for k, ps in tau.sectors.items()}, tau.trunc)


def test_double_backlund_returns_tau():
    # two half steps are one k_step: the lattice moved alone gives tau with
    # its sectors relabelled down by one, and the sector offset moves them back
    s4 = TauSystem4d(SIGMA)
    tau = s4.tau("kiev", E)
    twice = _twice(s4.recipes["half"])
    assert twice.k_offset == s4.recipes["kiev"].k_step
    assert fs_eq(build_tau(twice._replace(fourier_offset=F(0)), E),
                 _relabelled(tau, -1))
    assert fs_eq(build_tau(twice, E), tau)


def test_fourier_offset_equals_relabel():
    spec = TauSystem4d(SIGMA).recipes["kiev"]
    tau = build_tau(spec, E)
    off = build_tau(spec._replace(fourier_offset=spec.fourier_offset + 1), E)
    shifted = FourierSeries({k + 1: ps for k, ps in tau.sectors.items()}, tau.trunc)
    assert fs_eq(off, shifted)


def test_q_double_backlund_returns_tau():
    sq = TauSystemQ(SMP)
    tau = sq.tau("kiev0", E)
    twice = _twice(sq.recipes["kiev1"])
    assert twice.k_offset == sq.recipes["kiev0"].k_step
    assert fs_eq(build_tau(twice._replace(fourier_offset=F(0)), E),
                 _relabelled(tau, -1))
    assert fs_eq(build_tau(twice, E), tau)


def test_lattice_steps_from_the_offset():
    spec = TauSystem4d(SIGMA).recipes["half"]
    assert spec.lattice(0) == spec.k_offset
    k1, k2 = spec.lattice(1)
    assert (k1 - spec.k_offset[0], k2 - spec.k_offset[1]) == spec.k_step


@pytest.mark.parametrize("sigma", POOL_SIGMA)
def test_4d_half_step_is_sigma_plus_half(sigma):
    # a = -2 sigma: sigma -> sigma + 1/2 is a -> a - 1, one step (0, 1) of
    # eps2 = -1, on the half-integer sectors
    spec = TauSystem4d(sigma).recipes["half"]
    (k1, k2), th = spec.k_offset, spec.base.th
    assert (spec.k_offset, spec.fourier_offset) == ((0, 1), F(1, 2))
    assert k1 * th.e1 + k2 * th.e2 == -1


@pytest.mark.parametrize("smp", POOL_QP, ids=["qp0", "qp1", "qp2"])
def test_q_half_steps_are_u_times_q(smp):
    # u = q^{2 sigma}: sigma -> sigma + 1/2 and u -> u q both move Lu by dq;
    # each recipe writes out its own lattice path to that point
    recipes = TauSystemQ(smp).recipes
    for name, offset, sector in (("kiev1", (0, 1), F(1, 2)),
                                 ("plus_uq", (-1, 0), F(1, 4)),
                                 ("minus_uq", (-1, -1), F(1, 4))):
        spec = recipes[name]
        (k1, k2), th = spec.k_offset, spec.base.th
        assert (spec.k_offset, spec.fourier_offset) == (offset, sector), name
        assert k1 * th.E1 + k2 * th.E2 == smp.dq, name
    for short in ("plus", "minus"):
        short, uq = recipes[short], recipes[short + "_uq"]
        assert (uq.base, uq.k_step, uq.sector_step) == (
            short.base, short.k_step, short.sector_step)


# ---------------------------------------------------------------------------
# zeta and G wrappers
# ---------------------------------------------------------------------------


def test_zeta_of_scaled_tau_adds_constant():
    # multiplying tau by z^K adds K to zeta = theta(tau)/tau
    tau = TauSystem4d(SIGMA).tau("kiev", EB)
    z0 = zeta_from_tau(tau)
    zK = zeta_from_tau(tau.shift(F(5, 3)))
    K = FourierSeries.single(
        PuiseuxSeries({F(0): SymExpr.coerce(F(5, 3))}, z0.trunc))
    assert fs_eq(zK, z0 + K)


def test_g_function_of_equal_taus_is_sqrt_z():
    # G = z^{1/2} tau0^2 / tau1^2 collapses to z^{1/2} when tau0 = tau1
    tau = FourierSeries.single(algebraic_fixture("qP3_tau", EB, sample=SMP))
    G = g_function(tau, tau)
    Echk = min(G.trunc, E)
    rows = [(k, e, c) for k in sorted(G.sectors)
            for e, c in G.sector(k).items() if e <= Echk and c]
    assert rows == [(F(0), F(1, 2), rows[0][2])]
    assert rows[0][2].rational_value().re == 1


def test_zeta_needs_invertible_leading():
    # two sectors tie for the minimal term: no well-defined leading inverse
    one = PuiseuxSeries.one(F(2))
    tied = FourierSeries.single(one, F(0)) + FourierSeries.single(one, F(1))
    with pytest.raises(NonInvertible):
        zeta_from_tau(tied)


# ---------------------------------------------------------------------------
# closed-form fixtures against the bilinear equations (short versions;
# the 12-step lattice sweeps live in the acceptance tests)
# ---------------------------------------------------------------------------


def test_continuous_fixture_toda():
    # tau = z^{1/16} e^{-4 sqrt z} and its sigma +- 1/2 neighbours
    # z^{1/16 +- 1/4} e^{-4 sqrt z} satisfy
    # D^2(tau, tau) = -2 z^{1/2} tau_+ tau_-
    from nektau.series import hirota

    tau = algebraic_fixture("P3_tau_minus", EB)
    up = tau.shift(F(1, 4))
    dn = tau.shift(-F(1, 4))
    lhs = hirota(2, tau, tau)
    rhs = (up * dn).shift(F(1, 2)).scale(F(-2))
    diff = (lhs - rhs).truncate(E)
    assert all(not c for _, c in diff.items())


def test_continuous_fixture_wrong_branch_fails():
    from nektau.series import hirota

    tau = algebraic_fixture("P3_tau_plus_branch", EB)
    # the plus branch satisfies the same equation (z^{1/2} -> -z^{1/2} is a
    # symmetry of D^2), so instead check the two branches differ
    minus = algebraic_fixture("P3_tau_minus", EB)
    diff = (tau - minus).truncate(E)
    assert any(c for _, c in diff.items())


def test_q_fixture_toda_one_step():
    # tau(qz) tau(q^-1 z) = tau(z)^2 - z^{1/2} tau(z)^2 => with tau1 = tau the
    # q-Toda relation reads tau^bar tau^under = tau^2 - z^{1/2} tau^2
    tau = algebraic_fixture("qP3_tau", EB, sample=SMP)
    lhs = tau.dilate(1, SMP) * tau.dilate(-1, SMP)
    rhs = tau * tau - (tau * tau).shift(F(1, 2))
    diff = (lhs - rhs).truncate(E)
    assert all(not c for _, c in diff.items())
