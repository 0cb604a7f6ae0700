"""Instanton sums, classical exponents, one-loop cocycles, relative modes."""

from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from fraction_exponents import classical_exp_4d, classical_exp_5d
from nektau.nekrasov import (
    IncompleteModeRange,
    RelativeZ4d,
    RelativeZ5d,
    Theory4d,
    Theory5d,
    admissible_degree_4d,
    blowup_modes,
    inst_coeff_4d,
    inst_series_4d,
    inst_series_5d,
    memoized,
    mirror_form_4d,
    q_z1loop_ratio,
    z1loop_ratio_4d,
)
from nektau.rationals import GaussianRational as G
from nektau.symbols import SymExpr, ZeroFactor
from oracle import gamma1_exp, numeric_value, z1loop_negation_ratio

E1, E2, A = F(1), F(-3, 7), F(2, 5)


# ---------------------------------------------------------------------------
# order-1 oracle: closed form derived directly from the per-box rules
# ---------------------------------------------------------------------------


def _oracle_4d_order1(e1, e2, a):
    """Sum of the two single-box terms, written out by hand:
    1/(e1 e2 a (-a-e1-e2)) + 1/(e1 e2 (a-e1-e2)(-a))."""
    E = e1 + e2
    return F(1) / (e1 * e2 * a * (-a - E)) + F(1) / (e1 * e2 * (a - E) * (-a))


@given(st.sampled_from([(F(1), F(-3, 7), F(2, 5)),
                        (F(2), F(-5, 3), F(3, 7)),
                        (F(1), F(2, 5), F(3, 8)),
                        (F(3), F(-7, 5), F(11, 13))]))
def test_inst_coeff_4d_order1_oracle(params):
    e1, e2, a = params
    assert inst_coeff_4d(e1, e2, a, 1) == _oracle_4d_order1(e1, e2, a)


def test_inst_coeff_4d_order0():
    assert inst_coeff_4d(E1, E2, A, 0) == 1


def test_inst_coeff_4d_symmetries():
    # even in a, symmetric under swapping e1 <-> e2
    for d in (1, 2):
        assert inst_coeff_4d(E1, E2, A, d) == inst_coeff_4d(E1, E2, -A, d)
        assert inst_coeff_4d(E1, E2, A, d) == inst_coeff_4d(E2, E1, A, d)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@given(_small, _small, _small, st.integers(1, 4))
@settings(max_examples=40)
def test_inst_coeff_4d_mirror_symmetries(e1, e2, a, d):
    # the moves that mirror_form_4d quotients by: swap, total sign flip and
    # a -> -a; a point on a pole raises ZeroFactor at all its images alike
    images = [(e2, e1, a), (-e1, -e2, a), (e1, e2, -a), (-e2, -e1, -a)]
    try:
        z = inst_coeff_4d(e1, e2, a, d)
    except ZeroFactor:
        for image in images:
            with pytest.raises(ZeroFactor):
                inst_coeff_4d(*image, d)
        assume(False)
    for image in images:
        assert inst_coeff_4d(*image, d) == z
        assert mirror_form_4d(*image) == mirror_form_4d(e1, e2, a)


def test_mirrored_series_share_coefficients_and_keep_their_own_errors():
    # (3/5, 2/5) has e-ratio 3/2: N_{lam lam} vanishes from degree 5 on
    assert admissible_degree_4d(F(3, 5), F(2, 5)) == 4
    assert admissible_degree_4d(F(2, 5), F(-3, 5)) is None
    th, a = Theory4d(F(3, 5), F(2, 5)), F(3, 8)
    mirror = Theory4d(F(2, 5), F(3, 5))
    memo = {}
    with pytest.raises(ZeroFactor, match=r"of \(4, 1\)/\(4, 1\)"):
        inst_series_4d(th, a, 5, memo=memo)
    assert sorted(key[-1] for key in memo) == [0, 1, 2, 3, 4]
    # the mirrored caller reads degrees 0..4 from the memo and makes degree 5
    # from its own arguments, so it raises its own message
    with pytest.raises(ZeroFactor, match=r"of \(3, 1, 1\)/\(3, 1, 1\)"):
        inst_series_4d(mirror, -a, 5, memo=memo)
    assert len(memo) == 5
    assert inst_series_4d(mirror, -a, 4, memo=memo) == inst_series_4d(th, a, 4)


def test_inst_coeff_4d_homogeneity():
    # degree-d coefficient scales as lambda^(-4d)
    lam = F(3, 2)
    for d in (1, 2):
        assert inst_coeff_4d(lam * E1, lam * E2, lam * A, d) == \
            inst_coeff_4d(E1, E2, A, d) / lam ** (4 * d)


def test_inst_series_4d_truncation():
    th = Theory4d(E1, E2)
    s2 = inst_series_4d(th, A, F(2))
    s3 = inst_series_4d(th, A, F(3))
    assert s3.truncate(F(2)).coeffs == s2.coeffs


# ---------------------------------------------------------------------------
# 5d order-1 oracle
# ---------------------------------------------------------------------------


def _oracle_5d_order1(t, QE1, QE2, Lu):
    """Hand-written single-box sum: t^{-(E1+E2)} * (term1 + term2) with
    term = 1/((1-t^-E1)(1-t^-E2)(1-t^{+-Lu})(1-t^{-+Lu-E1-E2}))."""
    def p(e):
        return 1 - F(t) ** e
    diag = p(-QE1) * p(-QE2)
    term1 = 1 / (diag * p(Lu) * p(-Lu - QE1 - QE2))
    term2 = 1 / (diag * p(Lu - QE1 - QE2) * p(-Lu))
    return F(t) ** (-(QE1 + QE2)) * (term1 + term2)


def test_inst_coeff_5d_order1_oracle():
    for t, qe1, qe2, lu in [(F(1, 2), 4, -12, 2), (F(1, 3), 8, -20, 6),
                            (F(2, 5), 4, -16, 2)]:
        got = inst_series_5d(Theory5d(F(qe1), F(qe2)), F(lu), t, F(1)).coeff(F(1))
        val = got.rational_value()
        assert val is not None and not val.im
        assert val.re == _oracle_5d_order1(t, qe1, qe2, lu)


# ---------------------------------------------------------------------------
# classical exponents
# ---------------------------------------------------------------------------


def test_classical_exponents():
    assert classical_exp_4d(F(1), F(-1), F(2)) == F(1)
    assert classical_exp_5d(F(4), F(-12), F(2)) == -F(4) / (4 * F(4) * F(-12))


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(_rationals, _rationals.filter(bool), _rationals.filter(bool),
       st.integers(-6, 6), st.integers(-6, 6))
def test_classical_gap_is_the_difference_of_the_fraction_exponents(x0, e1, e2, k1, k2):
    x = x0 + k1 * e1 + k2 * e2
    assert RelativeZ4d(Theory4d(e1, e2), x0).classical_gap(k1, k2) == \
        classical_exp_4d(e1, e2, x) - classical_exp_4d(e1, e2, x0)
    assert RelativeZ5d(Theory5d(e1, e2), x0, F(2, 3)).classical_gap(k1, k2) == \
        classical_exp_5d(e1, e2, x) - classical_exp_5d(e1, e2, x0)


def test_classical_gap_is_quadratic_in_modes():
    th = Theory4d(F(1), F(-2))
    rz = RelativeZ4d(th, F(2, 5))
    # gap(k,0) - 2 gap at k=0 ... second difference constant = 2 e1^2 / (-4 e1 e2)
    d2 = (rz.classical_gap(2, 0) - 2 * rz.classical_gap(1, 0)
          + rz.classical_gap(0, 0))
    assert d2 == -F(1) ** 2 / (2 * F(1) * F(-2))


# ---------------------------------------------------------------------------
# one-loop cocycles
# ---------------------------------------------------------------------------


def test_cocycle_telescoping():
    # a two-step shift equals the product of the one-step shift and the
    # one-step shift from the shifted reference
    e1, e2, a0 = F(1), F(-3, 7), F(2, 5)
    two = z1loop_ratio_4d(e1, e2, a0, 2, 0)
    one_then_one = z1loop_ratio_4d(e1, e2, a0, 1, 0) * z1loop_ratio_4d(
        e1, e2, a0 + e1, 1, 0)
    assert (two - one_then_one).is_zero()


@pytest.mark.parametrize("e1,e2,a0,k1,k2", [
    (F(1), F(-3, 7), F(2, 5), 2, -1), (F(1), F(-1), F(-7, 12), -2, 3),
    (F(-5, 3), F(2), F(3, 7), 1, 2)])
def test_cocycle_is_the_telescoped_gamma1_ratios(e1, e2, a0, k1, k2):
    # sqrt(2 pi) cancels from each step's ratio at one eps, so the cocycle
    # is the telescoped ratios of gamma1_exp, term for term
    ref, x = SymExpr.one(), a0
    for estep, epartner, count in ((e1, e2, k1), (e2, e1, k2)):
        for _ in range(abs(count)):
            if count > 0:
                ref = ref * gamma1_exp(epartner, -x) / gamma1_exp(epartner, x + estep)
                x += estep
            else:
                ref = ref * gamma1_exp(epartner, x) / gamma1_exp(epartner, -x + estep)
                x -= estep
    assert z1loop_ratio_4d(e1, e2, a0, k1, k2).terms == ref.terms


@pytest.mark.parametrize("axis", [0, 1])
def test_memoised_cocycles_telescope_from_their_neighbour(axis):
    # with a memo a cocycle on one axis is one step from the memoised one
    # next to it, made first when missing; it is the direct product, term
    # for term and in the same order
    th, Lu0, t = Theory5d(F(4), F(-12)), F(2), F(1, 2)
    rz = RelativeZ5d(th, Lu0, t, memo={})
    for k in (2, -3, 4, 1, 0, -4, 3, -1, -2):
        k1, k2 = (k, 0) if axis == 0 else (0, k)
        want = q_z1loop_ratio(th.E1, th.E2, Lu0, k1, k2, t)
        assert list(rz.cocycle(k1, k2).terms.items()) == list(want.terms.items())
    assert list(rz.cocycle(1, 1).terms.items()) == \
        list(q_z1loop_ratio(th.E1, th.E2, Lu0, 1, 1, t).terms.items())


def test_cocycle_inverse_shift():
    e1, e2, a0 = F(1), F(-3, 7), F(2, 5)
    prod = z1loop_ratio_4d(e1, e2, a0, 1, 0) * z1loop_ratio_4d(
        e1, e2, a0 + e1, -1, 0)
    assert (prod - 1).is_zero() or prod.rational_value() == G(1)


def test_negation_ratio_numeric_two_cos():
    """The one-loop normalizer ratio of the two half theories at the tau
    reference point a0 = -2 sigma evaluates numerically to 2 cos(pi sigma);
    this is a cyclotomic-unit identity invisible to the monomial algebra,
    so it is checked by high-precision evaluation."""
    for sigma in (F(7, 24), F(5, 24), F(7, 48)):
        expr = z1loop_negation_ratio(F(-2), F(1), -2 * sigma)
        with mp.workdps(40):
            got = numeric_value(expr, F(1, 3))
            ref = 2 * mp.cos(mp.pi * mp.mpf(sigma.numerator) / sigma.denominator)
            assert abs(got - ref) < 1e-25


# ---------------------------------------------------------------------------
# relative modes and blowup mode scan
# ---------------------------------------------------------------------------


def test_relative_mode_reference_is_plain_series():
    th = Theory4d(E1, E2)
    rz = RelativeZ4d(th, A)
    m = rz.mode(0, 0, F(2))
    ref = inst_series_4d(th, A, F(2))
    assert all(not (m.coeff(e) - c) for e, c in ref.items())


def test_relative_modes_are_shared_through_the_memo():
    # objects on one memo return the same mode and cocycle objects; without
    # a memo nothing is kept, so each call builds afresh
    memo = {}
    th4 = Theory4d(F(1), F(-2))
    A, B = (RelativeZ4d(th4, F(2, 5), memo=memo) for _ in range(2))
    assert A.mode(2, 0, 2) is B.mode(2, 0, F(2))
    assert A.cocycle(2, 0) is B.cocycle(2, 0)
    assert A.mode(2, 0, 3) is not A.mode(2, 0, 2)
    th5 = Theory5d(F(4), F(-16))
    C, D = (RelativeZ5d(th5, F(2), F(1, 2), memo=memo) for _ in range(2))
    assert C.mode(0, 2, 1) is D.mode(0, 2, F(1))
    lone = RelativeZ4d(th4, F(2, 5))
    assert lone.mode(2, 0, 2) is not lone.mode(2, 0, 2)
    assert lone.mode(2, 0, 2).coeffs == A.mode(2, 0, 2).coeffs


class _CountedKey:
    """A memo key that counts how often it is hashed."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 1


def test_memoized_hashes_a_key_once_per_hit():
    memo, key, builds = {}, _CountedKey(), []
    build = lambda: builds.append(1) or len(builds)
    assert memoized(memo, key, build) == 1 and key.hashes == 2
    assert memoized(memo, key, build) == 1 and key.hashes == 3
    assert builds == [1] and memo == {key: 1}


def test_blowup_modes_quadratic():
    gap = lambda n: n * n
    assert blowup_modes(F(4), gap) == [-2, -1, 0, 1, 2]
    assert blowup_modes(F(4), gap, offset=F(1, 2)) == [
        F(-3, 2), F(-1, 2), F(1, 2), F(3, 2)]


def test_blowup_modes_guard():
    with pytest.raises(IncompleteModeRange):
        blowup_modes(F(1), lambda n: F(0))
