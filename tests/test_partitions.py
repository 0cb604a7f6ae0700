"""Young-diagram combinatorics and per-box weight factors."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import nektau.identities as idmod
from nektau.nekrasov import _inst_coeff_5d, inst_coeff_4d, inst_coeff_matter
from nektau.partitions import (
    boxes,
    conjugate,
    cs_weight,
    enumerate_pairs,
    n_factor_4d,
    n_factor_5d,
    pair_offsets,
    partitions_of,
)
from nektau.rationals import GaussianRational as G
from nektau.symbols import SymExpr, ZeroFactor, rational_power

# p(0..10) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_counts():
    for n, want in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(n)) == want


def test_partitions_are_valid():
    for n in range(8):
        for lam in partitions_of(n):
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(p > 0 for p in lam)
    # no duplicates
    assert len(set(partitions_of(7))) == len(partitions_of(7))


def test_pair_count():
    # number of pairs of total size d is sum_{k} p(k) p(d-k)
    for d in range(7):
        want = sum(
            PARTITION_COUNTS[k] * PARTITION_COUNTS[d - k] for k in range(d + 1)
        )
        assert sum(1 for _ in enumerate_pairs(d)) == want


def test_pair_enumeration_size6_under_one_second():
    start = time.monotonic()
    pairs = list(enumerate_pairs(6))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert len(pairs) == sum(
        PARTITION_COUNTS[k] * PARTITION_COUNTS[6 - k] for k in range(7)
    )


@given(st.integers(min_value=0, max_value=8))
def test_conjugate_involution(n):
    for lam in partitions_of(n):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def arm_leg(lam, box):
    """Test-only reference: (arm, leg) of box (i, j) (1-based) relative to
    lam, by scanning lam; may be negative."""
    i, j = box
    row = lam[i - 1] if i <= len(lam) else 0
    col = sum(1 for p in lam if p >= j)
    return row - j, col - i


def test_arm_leg_inside_own_diagram():
    lam = (4, 3, 1)
    # box (1,1): arm = 3, leg = 2
    assert arm_leg(lam, (1, 1)) == (3, 2)
    # box (2,3): arm = 0, leg = 0
    assert arm_leg(lam, (2, 3)) == (0, 0)


def test_arm_leg_relative_negative():
    # box of a larger diagram measured against the empty diagram
    assert arm_leg((), (1, 2)) == (-2, -1)


def test_pair_offsets_are_the_arm_leg_offsets():
    # the offsets from row lengths and conjugates, in box order, against
    # arm_leg per box
    for d in range(11):
        for lam, mu in enumerate_pairs(d):
            ref = [(-arm_leg(mu, s)[0] - 1, arm_leg(lam, s)[1]) for s in boxes(lam)]
            ref += [(arm_leg(lam, s)[0], -arm_leg(mu, s)[1] - 1) for s in boxes(mu)]
            assert pair_offsets(lam, mu) == ref, (lam, mu)


def test_boxes_count():
    assert len(list(boxes((3, 2)))) == 5
    assert list(boxes(())) == []


# ---------------------------------------------------------------------------
# weight factors
# ---------------------------------------------------------------------------


def test_n_factor_4d_single_box():
    # lam = [1], mu = []: only the lam-box (1,1) contributes
    # arm_mu = -1, leg_lam = 0, so the factor is a - e2*0 + e1*0 = a
    e1, e2, a = F(1), F(-3, 7), F(2, 5)
    assert n_factor_4d((1,), (), a, e1, e2) == a
    # single box on the mu side: arm_lam = -1, leg_mu = 0, so the factor is
    # a + e2*(-1) - e1*(0+1) = a - e1 - e2
    assert n_factor_4d((), (1,), a, e1, e2) == a - e1 - e2


def test_n_factor_4d_zero_factor():
    # choose a so that the lam-box factor vanishes: a = 0
    with pytest.raises(ZeroFactor):
        n_factor_4d((1,), (), F(0), F(1), F(-1, 2))


def test_n_factor_5d_degenerates_to_4d():
    """5d factor linearized in the lattice spacing reproduces the 4d factor.

    With u = t^A, q_i = t^{E_i}, each binomial is 1 - t^(linear form); as
    t -> 1, (1 - t^x) ~ -x log t, so the product of the linear forms (the 4d
    factor up to sign) is the coefficient of (log t)^{#boxes}.  Checked
    structurally: the 5d factor vanishes iff the 4d factor vanishes, for the
    matching linear substitution.
    """
    e1, e2, a = F(3), F(-2), F(7)
    lam, mu = (2, 1), (1,)
    # generic: both nonzero
    assert n_factor_4d(lam, mu, a, e1, e2) != 0
    assert n_factor_5d(lam, mu, G(1), a, e1, e2, F(1, 2))
    # the mu-side single-box factor a - e1 - e2 vanishing forces both to zero
    bad_a = e1 + e2
    with pytest.raises(ZeroFactor):
        n_factor_4d((), (1,), bad_a, e1, e2)
    with pytest.raises(ZeroFactor):
        n_factor_5d((), (1,), G(1), bad_a, e1, e2, F(1, 2))


def test_n_factor_5d_integer_exponent_guard():
    with pytest.raises(ValueError):
        n_factor_5d((1,), (), G(1), F(1, 2), F(1), F(2), F(1, 3))


def test_cs_weight_levels():
    assert cs_weight((2, 1), 0, G(1), F(0), F(1), F(2), F(1, 3)).rational_value() == G(1)
    assert cs_weight((), 2, G(1), F(0), F(1), F(2), F(1, 3)).rational_value() == G(1)
    with pytest.raises(ValueError):
        cs_weight((1,), 3, G(1), F(0), F(1), F(2), F(1, 3))


def test_cs_weight_multiplicative_in_level():
    lam = (2, 1)
    args = (G(1, 1), F(2), F(4), F(-8), F(1, 3))
    w1 = cs_weight(lam, 1, *args)
    w2 = cs_weight(lam, 2, *args)
    assert (w2 - w1 * w1).is_zero()


# ---------------------------------------------------------------------------
# the integer kernel against the per-factor Fraction / GaussianRational route
# ---------------------------------------------------------------------------


def ref_n_factor_4d(lam, mu, a, e1, e2):
    out = F(1)
    for s in boxes(lam):
        am, _ = arm_leg(mu, s)
        _, ll = arm_leg(lam, s)
        f = a - e2 * (am + 1) + e1 * ll
        if not f:
            raise ZeroFactor(f"4d factor vanished at box {s} of {lam}/{mu}")
        out *= f
    for s in boxes(mu):
        al, _ = arm_leg(lam, s)
        _, lm = arm_leg(mu, s)
        f = a + e2 * al - e1 * (lm + 1)
        if not f:
            raise ZeroFactor(f"4d factor vanished at box {s} of {lam}/{mu}")
        out *= f
    return out


def ref_n_factor_5d(lam, mu, u_coef, u_texp, E1, E2, t):
    out = G(1)
    for s in boxes(lam):
        am, _ = arm_leg(mu, s)
        _, ll = arm_leg(lam, s)
        e = u_texp + E2 * (-am - 1) + E1 * ll
        if e.denominator != 1:
            raise ValueError(f"non-integer t-exponent {e} in 5d factor")
        f = G(1) - u_coef * (t ** e.numerator)
        if not f:
            raise ZeroFactor(f"5d factor vanished at box {s} of {lam}/{mu}")
        out = out * f
    for s in boxes(mu):
        al, _ = arm_leg(lam, s)
        _, lm = arm_leg(mu, s)
        e = u_texp + E2 * al + E1 * (-lm - 1)
        if e.denominator != 1:
            raise ValueError(f"non-integer t-exponent {e} in 5d factor")
        f = G(1) - u_coef * (t ** e.numerator)
        if not f:
            raise ZeroFactor(f"5d factor vanished at box {s} of {lam}/{mu}")
        out = out * f
    return out


def ref_inst_coeff_matter(vs, sigma, sample, d):
    dq, t = sample.dq, sample.t
    E1, E2 = F(-dq), F(dq)
    c0, p0 = vs["0"]
    ct, pt = vs["t"]
    c1, p1 = vs["1"]
    cinf, pinf = vs["inf"]
    total = SymExpr.zero()
    for lam1, lam2 in enumerate_pairs(d):
        diagrams = {1: lam1, -1: lam2}
        num, den = G(1), G(1)
        for eps in (1, -1):
            for epsp in (1, -1):
                a_coef = cinf ** eps * c1.inverse()
                a_texp = dq * (eps * pinf - p1 - epsp * sigma)
                num = num * ref_n_factor_5d((), diagrams[epsp], a_coef, a_texp, E1, E2, t)
                b_coef = c0 ** (-eps) * ct.inverse()
                b_texp = dq * (epsp * sigma - pt - eps * p0)
                num = num * ref_n_factor_5d(diagrams[epsp], (), b_coef, b_texp, E1, E2, t)
                den = den * ref_n_factor_5d(diagrams[eps], diagrams[epsp], G(1),
                                            dq * (eps - epsp) * sigma, E1, E2, t)
        total = total + SymExpr.from_rational(num * den.inverse())
    return total


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ZeroFactor, ValueError) as exc:
        return type(exc).__name__, str(exc)


PAIRS_TO_5 = [pair for n in range(6) for pair in enumerate_pairs(n)]


def _kind(outcome):
    return outcome[0] if isinstance(outcome, tuple) else "value"


# each row names the outcomes it must produce over PAIRS_TO_5
@pytest.mark.parametrize("coef,u_texp,E1,E2,t,kinds", [
    (G(F(2, 3), F(5, 7)), F(-3), F(2), F(-5), F(2, 3), {"value"}),
    (G(F(2, 3), F(5, 7)), F(1), F(-4), F(3), F(3, 5), {"value"}),
    (G(F(-7, 4), F(1, 3)), F(1, 2), F(3, 2), F(-5, 2), F(2, 5), {"value", "ValueError"}),
    (G(F(2, 3), F(5, 7)), F(0), F(1, 3), F(2, 3), F(5, 2), {"value", "ValueError"}),
    (G(1), F(0), F(2), F(2), F(1, 2), {"value", "ZeroFactor"}),
    # a vanishing first box ahead of a non-integer exponent raises ZeroFactor
    (G(1), F(0), F(1), F(1, 2), F(1, 3), {"value", "ZeroFactor", "ValueError"}),
    (G(1), F(1, 2), F(2), F(4), F(1, 3), {"value", "ValueError"}),
])
def test_n_factor_5d_matches_per_factor_route(coef, u_texp, E1, E2, t, kinds):
    seen = set()
    for lam, mu in PAIRS_TO_5:
        got = _outcome(n_factor_5d, lam, mu, coef, u_texp, E1, E2, t)
        assert got == _outcome(ref_n_factor_5d, lam, mu, coef, u_texp, E1, E2, t), (lam, mu)
        seen.add(_kind(got))
    assert seen == kinds


@pytest.mark.parametrize("a,e1,e2,kinds", [
    (F(2, 5), F(1), F(-3, 7), {"value"}),
    (F(-3, 4), F(2, 3), F(5, 6), {"value"}),
    (F(0), F(1), F(1), {"value", "ZeroFactor"}),
    (F(1), F(2), F(-1), {"value", "ZeroFactor"}),
])
def test_n_factor_4d_matches_per_factor_route(a, e1, e2, kinds):
    seen = set()
    for lam, mu in PAIRS_TO_5:
        got = _outcome(n_factor_4d, lam, mu, a, e1, e2)
        assert got == _outcome(ref_n_factor_4d, lam, mu, a, e1, e2), (lam, mu)
        seen.add(_kind(got))
    assert seen == kinds


def test_pair_sums_match_per_factor_route():
    for e1, e2, a in idmod.POOL_4D_EPS[:2]:
        for d in range(5):
            want = sum((1 / (ref_n_factor_4d(l1, l1, F(0), e1, e2)
                             * ref_n_factor_4d(l1, l2, a, e1, e2)
                             * ref_n_factor_4d(l2, l1, -a, e1, e2)
                             * ref_n_factor_4d(l2, l2, F(0), e1, e2))
                        for l1, l2 in enumerate_pairs(d)), F(0))
            assert inst_coeff_4d(e1, e2, a, d) == want
    t, E1, E2, Lu = idmod.POOL_5D[0]
    for d in range(5):
        want = SymExpr.zero()
        for l1, l2 in enumerate_pairs(d):
            den = (ref_n_factor_5d(l1, l1, G(1), F(0), E1, E2, t)
                   * ref_n_factor_5d(l1, l2, G(1), Lu, E1, E2, t)
                   * ref_n_factor_5d(l2, l1, G(1), -Lu, E1, E2, t)
                   * ref_n_factor_5d(l2, l2, G(1), F(0), E1, E2, t))
            want = want + SymExpr.from_rational(den.inverse())
        want = want * rational_power(t, -(E1 + E2) * d)
        assert _inst_coeff_5d(E1, E2, 0, Lu, t, d) == want


def _matter_inputs():
    i1 = G(0, 1)
    out = []
    for inf in ((i1, F(1, 2)), (i1, F(-1, 2)), (G(0, F(5, 3)), F(3))):
        vs = {k: (i1, F(0)) for k in ("0", "t", "1", "inf")}
        vs["inf"] = inf
        out.append(vs)
    return out


@pytest.mark.parametrize("vs", _matter_inputs(), ids=["prdx+", "prdx-", "halfpow"])
def test_inst_coeff_matter_matches_per_factor_route(vs):
    smp = idmod.POOL_QP[0]
    for d in range(7):
        assert inst_coeff_matter(vs, smp.sigma, smp, d) == \
            ref_inst_coeff_matter(vs, smp.sigma, smp, d)


def test_inst_coeff_matter_guards_match_per_factor_route():
    i1 = G(0, 1)
    smp = idmod.POOL_QP[0]
    base = {k: (i1, F(0)) for k in ("0", "t", "1", "inf")}
    # sigma + 1/16 puts the a- and b-type factors on half-integer exponents;
    # a unit mass q^sigma over a unit "1" weight makes 1 - t^0 appear
    cases = [
        (base, smp.sigma + F(1, 16), "ValueError"),
        (dict(base, inf=(G(1), smp.sigma), **{"1": (G(1), F(0))}), smp.sigma,
         "ZeroFactor"),
    ]
    for vs, sigma, kind in cases:
        kinds = []
        for d in range(3):
            got = _outcome(inst_coeff_matter, vs, sigma, smp, d)
            assert got == _outcome(ref_inst_coeff_matter, vs, sigma, smp, d)
            kinds.append(_kind(got))
        assert kinds == ["value", kind, kind]
