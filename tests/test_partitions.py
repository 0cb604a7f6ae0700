"""Young-diagram combinatorics and per-box weight factors."""

import gc
import time
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import hypergeometric
import pair_factors
from diagram_pairs import enumerate_pairs
from fraction_exponents import cs_exponent
import nektau.identities as idmod
from nektau import nekrasov
from nektau.nekrasov import (
    Theory5d,
    _inst_coeff_5d,
    inst_coeff_4d,
    inst_coeff_matter,
    inst_series_5d,
    inst_series_matter,
    kernel_4d,
    kernel_5d,
    matter_kernel,
)
from nektau.partitions import (
    BinomialTable,
    BoxWeights,
    Vanished,
    boxes,
    conjugate,
    mul_factors,
    n_factor_4d,
    n_factor_5d,
    pair_sum,
    partition_table,
)
from nektau.rationals import GaussianRational as G
from nektau.symbols import SymExpr, ZeroFactor, rational_power

# p(0..10) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_counts():
    parts = partition_table(10)
    assert [len(row) for row in parts] == PARTITION_COUNTS
    assert partition_table(0) == [((),)]


def test_partitions_are_valid():
    parts = partition_table(8)
    for n in range(8):
        # a table of a lower order is the same prefix
        assert partition_table(n) == parts[:n + 1]
        row = parts[n]
        assert list(row) == sorted(row, reverse=True)
        for lam in row:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(p > 0 for p in lam)
    # no duplicates
    assert len(set(parts[7])) == len(parts[7])


def test_partition_table_leaves_no_reference_cycle():
    # the recursive builder it replaced left each call's closure in a
    # cycle with its output list until a full garbage collection
    gc.collect()
    gc.disable()
    try:
        partition_table(8)
        list(enumerate_pairs(6))
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    for lam in partition_table(n)[n]:
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
    # the box weights from row lengths and conjugates, in box order, against
    # arm_leg per box; at (e1, e2) = (1, 100) a weight 100 p + q with |q| < 50
    # stands for its offsets (p, q)
    weights = BoxWeights(F(1), F(100))
    for d in range(11):
        for lam, mu in enumerate_pairs(d):
            ref = [(-arm_leg(mu, s)[0] - 1, arm_leg(lam, s)[1]) for s in boxes(lam)]
            ref += [(arm_leg(lam, s)[0], -arm_leg(mu, s)[1] - 1) for s in boxes(mu)]
            assert weights(lam, mu) == [100 * p + q for p, q in ref], (lam, mu)


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
    assert cs_exponent((2, 1), 0, F(0), F(1), F(2)) == 0
    assert cs_exponent((), 2, F(0), F(1), F(2)) == 0
    with pytest.raises(ValueError):
        cs_exponent((1,), 3, F(0), F(1), F(2))


def test_cs_weight_multiplicative_in_level():
    lam = (2, 1)
    args = (F(2), F(4), F(-8))
    assert cs_exponent(lam, 2, *args) == 2 * cs_exponent(lam, 1, *args)
    assert cs_exponent(lam, 1, *args) == \
        sum(-args[0] + args[1] * (1 - i) + args[2] * (1 - j) for i, j in boxes(lam)) \
        - F(3, 2) * (args[1] + args[2])


@pytest.mark.parametrize("m", [3, -1])
def test_a_5d_series_past_level_two_raises(m):
    with pytest.raises(ValueError, match="^Chern-Simons level must be 0, 1 or 2$"):
        inst_series_5d(Theory5d(F(1), F(-1), m), F(1), F(2, 3), 2)


@pytest.mark.parametrize("E1,E2", [(F(1), F(-1)), (F(2), F(-3)), (F(-1), F(4))])
@pytest.mark.parametrize("Lu", [F(3), F(-1, 2), F(5, 3), F(-7, 6)])
def test_chern_simons_keys_are_the_fraction_exponents_over_D(E1, E2, Lu):
    # every diagram of size <= 8 at each level: the first diagram of a pair
    # at u = t^(Lu/2), the second at t^(-Lu/2); opposite signs of E1 and E2
    # keep every diagonal factor nonzero, so every entry holds its key
    D = nekrasov.cs_unit(E1, E2, Lu)
    for m in (0, 1, 2):
        parts, first, second, _, _ = kernel_5d(E1, E2, m, Lu, F(2, 3), 8)
        for lam in (lam for row in parts for lam in row):
            for table, u in ((first, Lu / 2), (second, -Lu / 2)):
                key = table[lam][0]
                assert type(key) is int
                assert key == D * cs_exponent(lam, m, u, E1, E2)


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


def _ref_numerator(*args):
    """ref_n_factor_5d, or 0 where a factor vanishes."""
    try:
        return ref_n_factor_5d(*args)
    except ZeroFactor:
        return G(0)


def ref_matter_terms(vs, sigma, sample, d):
    """The term of each pair (lam1, lam2) of total size d of the
    four-flavour sum, factor by factor: a vanishing numerator factor makes
    the term zero, and the b-type factors after a vanishing a-type one are
    not formed; a vanishing N_{lam mu} raises."""
    dq, t = sample.dq, sample.t
    E1, E2 = F(-dq), F(dq)
    c0, p0 = vs["0"]
    ct, pt = vs["t"]
    c1, p1 = vs["1"]
    cinf, pinf = vs["inf"]
    terms = {}
    for lam1, lam2 in enumerate_pairs(d):
        diagrams = {1: lam1, -1: lam2}
        num, den = G(1), G(1)
        for eps in (1, -1):
            for epsp in (1, -1):
                a_coef = cinf ** eps * c1.inverse()
                a_texp = dq * (eps * pinf - p1 - epsp * sigma)
                a = _ref_numerator((), diagrams[epsp], a_coef, a_texp, E1, E2, t)
                b_coef = c0 ** (-eps) * ct.inverse()
                b_texp = dq * (epsp * sigma - pt - eps * p0)
                b = a and _ref_numerator(diagrams[epsp], (), b_coef, b_texp, E1, E2, t)
                num = num * a * b
                den = den * ref_n_factor_5d(diagrams[eps], diagrams[epsp], G(1),
                                            dq * (eps - epsp) * sigma, E1, E2, t)
        terms[lam1, lam2] = num * den.inverse()
    return terms


def ref_inst_coeff_matter(vs, sigma, sample, d):
    total = SymExpr.zero()
    for term in ref_matter_terms(vs, sigma, sample, d).values():
        total = total + SymExpr.from_rational(term)
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


def ref_inst_coeff_4d(e1, e2, a, d):
    return sum((1 / (ref_n_factor_4d(l1, l1, F(0), e1, e2)
                     * ref_n_factor_4d(l1, l2, a, e1, e2)
                     * ref_n_factor_4d(l2, l1, -a, e1, e2)
                     * ref_n_factor_4d(l2, l2, F(0), e1, e2))
                for l1, l2 in enumerate_pairs(d)), F(0))


def ref_cs_weight(lam, m, u_texp, E1, E2, t):
    """T_lam(u)^m (q1 q2)^{-m|lam|/2}, one box at a time."""
    out = rational_power(t, -(E1 + E2) * m * sum(lam) / 2)
    for i, j in boxes(lam):
        out = out * rational_power(t, m * (-u_texp + E1 * (1 - i) + E2 * (1 - j)))
    return out


def ref_inst_coeff_5d(E1, E2, m, Lu, t, d):
    want = SymExpr.zero()
    for l1, l2 in enumerate_pairs(d):
        den = (ref_n_factor_5d(l1, l1, G(1), F(0), E1, E2, t)
               * ref_n_factor_5d(l1, l2, G(1), Lu, E1, E2, t)
               * ref_n_factor_5d(l2, l1, G(1), -Lu, E1, E2, t)
               * ref_n_factor_5d(l2, l2, G(1), F(0), E1, E2, t))
        want = want + (SymExpr.from_rational(den.inverse())
                       * ref_cs_weight(l1, m, Lu / 2, E1, E2, t)
                       * ref_cs_weight(l2, m, -Lu / 2, E1, E2, t))
    return want * rational_power(t, -(E1 + E2) * d)


def test_pair_sums_match_per_factor_route():
    for e1, e2, a in idmod.POOL_4D_EPS[:2]:
        for d in range(5):
            assert inst_coeff_4d(e1, e2, a, d) == ref_inst_coeff_4d(e1, e2, a, d)
    t, E1, E2, Lu = idmod.POOL_5D[0]
    for d in range(5):
        assert _inst_coeff_5d(E1, E2, 0, Lu, t, d) == ref_inst_coeff_5d(E1, E2, 0, Lu, t, d)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("row", [*idmod.POOL_5D[:2], (F(1, 3), F(2), F(-4), F(1))])
def test_inst_coeff_5d_matches_per_factor_route_at_cs_levels(m, row):
    # the Chern-Simons weights group a coefficient's pairs by t-exponent; at
    # an odd Lu, level 1 and an odd degree the exponents are half-integers
    t, E1, E2, Lu = row
    for d in range(5):
        got = _inst_coeff_5d(E1, E2, m, Lu, t, d)
        assert got == ref_inst_coeff_5d(E1, E2, m, Lu, t, d), d
        if d:
            assert got != _inst_coeff_5d(E1, E2, 0, Lu, t, d)
            assert (got.rational_value() is None) == (Lu == 1 and m == 1 and d % 2 == 1)


# each row names the outcomes it must produce at d <= 3
@pytest.mark.parametrize("kernel,ref,args,kinds", [
    (inst_coeff_4d, ref_inst_coeff_4d, (F(1), F(-1), F(1)), ["value", "ZeroFactor"]),
    (inst_coeff_4d, ref_inst_coeff_4d, (F(2), F(-1), F(1)), ["value", "ZeroFactor"]),
    (inst_coeff_4d, ref_inst_coeff_4d, (F(1), F(-2), F(-3)), ["value", "ZeroFactor"]),
    (_inst_coeff_5d, ref_inst_coeff_5d, (F(1), F(-1), 1, F(2), F(1, 3)),
     ["value", "ZeroFactor"]),
    (_inst_coeff_5d, ref_inst_coeff_5d, (F(2), F(-1), 0, F(-1), F(2, 5)),
     ["value", "ZeroFactor"]),
    (_inst_coeff_5d, ref_inst_coeff_5d, (F(1), F(2), 2, F(1, 2), F(1, 3)),
     ["value", "ValueError"]),
])
def test_pair_sums_raise_the_first_failing_factor(kernel, ref, args, kinds):
    # a vanishing or non-integral factor raises with the box the pair-by-pair
    # product meets first
    seen = []
    for d in range(4):
        got = _outcome(kernel, *args, d)
        assert got == _outcome(ref, *args, d), d
        seen.append(_kind(got))
    assert sorted(set(seen)) == sorted(kinds)


def test_pair_sum_groups_by_key_and_divides_by_the_pair_factors():
    # values (re + im i) / den at a key; each pair factor is 2 or 3 here
    parts = partition_table(1)
    first = {(): (0, 1, 0, 1), (1,): (1, 1, 2, 3)}
    second = {(): (F(1, 2), 5, 0, 1), (1,): (0, 0, -1, 2)}

    def factor(acc, lam, mu, s):
        return acc[0] * (2 if s == 1 else 3), 0, acc[2]

    # ((), (1,)): 1 * (-i/2) / 6 at key 0; ((1,), ()): (1 + 2i)/3 * 5 / 6 at key 3/2
    pair = pair_factors.box_by_box_pair(factor)
    assert pair_sum(1, parts, first, second, factor, pair) == {
        0: [0, F(-1, 12)], F(3, 2): [F(5, 18), F(10, 18)]}
    assert pair_sum(0, parts, first, second, factor, pair) == {F(1, 2): [F(5, 6), 0]}


def test_pair_sum_raises_in_box_by_box_order():
    # in the pair ((1,), (1,)) a failure can sit in lam1's or lam2's own
    # factors ahead of the pair factors (b1, b2), in N_{lam1 lam2} (N12), in
    # lam1's own factors after it (a1), in N_{lam2 lam1} (N21) or in lam2's
    # own factors after that (a2); the first of them in that order is raised
    order = ["b1", "b2", "N12", "a1", "N21", "a2"]
    parts = partition_table(2)
    plain = (0, 1, 0, 1)

    def entry(exc, before, after):
        if before in exc:
            return Vanished(exc[before], None)
        return Vanished(None, exc[after]) if after in exc else plain

    for mask in range(1, 2 ** len(order)):
        failing = [name for k, name in enumerate(order) if mask >> k & 1]
        exc = {name: ZeroFactor(name) for name in failing}
        first = {lam: plain for row in parts for lam in row}
        second = dict(first)
        first[1,] = entry(exc, "b1", "a1")
        second[1,] = entry(exc, "b2", "a2")

        def factor(acc, lam, mu, s):
            name = "N12" if s == 1 else "N21"
            if name in exc and (lam, mu) == ((1,), (1,)):
                raise exc[name]
            return acc

        # ((), (2,)), ((), (1, 1)) and then ((1,), (1,))
        with pytest.raises(ZeroFactor) as info:
            pair_sum(2, parts, first, second, factor,
                     pair_factors.box_by_box_pair(factor))
        assert str(info.value) == failing[0]


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


@pytest.mark.parametrize("k", range(len(idmod.POOL_QP)))
def test_matter_series_matches_per_factor_route_on_every_sample(k):
    # one kernel per series, made through its order, serves each degree; the
    # last input has non-real numerator factors
    smp = idmod.POOL_QP[k]
    complex_vs = {"0": (G(F(2, 3), F(1, 5)), F(0)), "t": (G(1, -2), F(0)),
                  "1": (G(F(-3, 2)), F(1)), "inf": (G(0, F(5, 3)), F(1, 2))}
    for vs in _matter_inputs() + [complex_vs]:
        series = inst_series_matter(vs, smp.sigma, smp, F(5))
        for d in range(6):
            assert series.coeff(F(d)) == ref_inst_coeff_matter(vs, smp.sigma, smp, d), d


def test_matter_coefficient_multiplies_two_pair_factors_per_pair(monkeypatch):
    # every product of box factors reads one BoxWeights list; the one-pass
    # pair factor forms N_{lam1 lam2} N_{lam2 lam1} from the list of the first
    calls = []
    real = BoxWeights.__call__

    def counting(self, lam, mu):
        calls.append((lam, mu))
        return real(self, lam, mu)

    monkeypatch.setattr(BoxWeights, "__call__", counting)
    smp = idmod.POOL_QP[0]
    inst_coeff_matter(_matter_inputs()[0], smp.sigma, smp, 6)
    pairs = list(enumerate_pairs(6))
    diagrams = [lam for row in partition_table(6) for lam in row]
    # per diagram: the a- and b-type numerator lists and N_{lam lam}
    assert len(calls) == len(pairs) + 3 * len(diagrams)
    # the calls on two non-empty diagrams: each pair's pair factor and each
    # diagram's N_{lam lam}
    want = [(l1, l2) for l1, l2 in pairs if l1 and l2]
    want += [(lam, lam) for lam in diagrams if lam]
    assert sorted(c for c in calls if c[0] and c[1]) == sorted(want)


def test_inst_coeff_matter_guards_match_per_factor_route():
    i1 = G(0, 1)
    smp = idmod.POOL_QP[0]
    base = {k: (i1, F(0)) for k in ("0", "t", "1", "inf")}
    # sigma + 1/16 puts the a- and b-type factors on half-integer exponents;
    # a unit mass q^sigma over a unit "1" weight makes 1 - t^0 a numerator
    # factor of every term past degree 0, each of which is then zero
    unit = dict(base, inf=(G(1), smp.sigma), **{"1": (G(1), F(0))})
    cases = [
        (base, smp.sigma + F(1, 16), ["value", "ValueError", "ValueError"]),
        (unit, smp.sigma, [SymExpr.one(), SymExpr.zero(), SymExpr.zero()]),
    ]
    for vs, sigma, want in cases:
        got = [_outcome(inst_coeff_matter, vs, sigma, smp, d) for d in range(3)]
        assert got == [_outcome(ref_inst_coeff_matter, vs, sigma, smp, d) for d in range(3)]
        assert [g if isinstance(w, SymExpr) else _kind(g) for g, w in zip(got, want)] == want


def test_inst_coeff_matter_raises_the_first_failing_factor():
    # at sigma = 1/2, N_{() (2,)} vanishes at box (1, 2) in the pair
    # ((), (2,)), whose later numerator (1 - c0/ct t^{-4}) vanishes at box
    # (1, 1) of (2,)/() too: the pair factor raises.  At degree 1 a
    # numerator of (1,)/() vanishes at box (1, 1), which zeroes its term
    smp = idmod.POOL_QP[0]
    t = smp.t
    vs = {"0": (G(t ** 5), F(0)), "t": (G(t), F(0)), "1": (G(1), F(0)),
          "inf": (G(1), F(0))}
    got = [_outcome(inst_coeff_matter, vs, F(1, 2), smp, d) for d in range(4)]
    assert got == [_outcome(ref_inst_coeff_matter, vs, F(1, 2), smp, d) for d in range(4)]
    assert got[1] == SymExpr.from_rational(G(F(-6561, 5513680)))
    assert got[2:] == [("ZeroFactor", "5d factor vanished at box (1, 2) of ()/(2,)"),
                       ("ZeroFactor", "5d factor vanished at box (1, 2) of ()/(3,)")]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("p0,diagram", [(F(5, 8), lambda d: (d,)), (F(-5, 8), lambda d: (d,)),
                                        (F(11, 8), lambda d: (1,) * d),
                                        (F(-11, 8), lambda d: (1,) * d)],
                         ids=["rows+", "rows-", "columns+", "columns-"])
def test_at_degenerate_masses_one_pair_per_degree_survives(k, p0, diagram):
    # at sigma = 3/8 these masses zero a numerator factor of every second
    # diagram but the empty one and of every first diagram with two rows
    # (p0 = +-5/8) or two columns (+-11/8): the series is the sum over the
    # single-row or single-column pairs alone
    smp = idmod.POOL_QP[k]
    vs = {"0": (G(1), p0), "t": (G(1), F(0)), "1": (G(1), F(3, 8)), "inf": (G(1), F(0))}
    series = inst_series_matter(vs, smp.sigma, smp, F(6))
    for d in range(1, 7):
        terms = ref_matter_terms(vs, smp.sigma, smp, d)
        term = terms.pop((diagram(d), ()))
        assert term and not any(terms.values())
        assert series.coeff(F(d)) == SymExpr.from_rational(term)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("p0,columns", [(F(5, 8), False), (F(-5, 8), False),
                                        (F(11, 8), True), (F(-11, 8), True)],
                         ids=["rows+", "rows-", "columns+", "columns-"])
def test_at_degenerate_masses_the_sum_is_a_basic_hypergeometric_series(k, p0, columns):
    # where one row or one column per degree survives, the four-flavour sum
    # is the 4phi3 of tests/hypergeometric.py, whose parameters are read off
    # the Nekrasov factors of that diagram by hand
    smp = idmod.POOL_QP[k]
    vs = {"0": (G(1), p0), "t": (G(1), F(0)), "1": (G(1), F(3, 8)), "inf": (G(1), F(0))}
    series = inst_series_matter(vs, smp.sigma, smp, F(8))
    want = hypergeometric.single_diagram_series(vs, smp.sigma, smp, 8, columns)
    assert [series.coeff(F(d)) for d in range(9)] == \
        [SymExpr.from_rational(G(c)) for c in want]


# ---------------------------------------------------------------------------
# pair_route and the integer merge against the routes they replaced
# ---------------------------------------------------------------------------


def old_pair_4d(e1, e2, a):
    """N_{lam1 lam2}(a) N_{lam2 lam1}(-a) as two box-by-box products over L."""
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    weights, A = BoxWeights(e1 * L, e2 * L), int(a * L)
    mul = pair_factors.mul_factors_4d
    return lambda l1, l2: F(mul(mul(1, l1, l2, weights, A), l2, l1, weights, -A))


def old_pair_5d(E1, E2, u, t):
    """N_{lam1 lam2}(t^u) N_{lam2 lam1}(t^-u) at the coefficient 1 as two
    box-by-box products."""
    weights, table = BoxWeights(E1, E2), BinomialTable(G(1), t)

    def pair(l1, l2):
        acc = mul_factors((1, 0, 1), l1, l2, weights, table, u)
        re, im, den = mul_factors(acc, l2, l1, weights, table, -u)
        assert im == 0
        return F(re, den)

    return pair


def _routes_4d(e1, e2, a):
    """One kernel_4d's pair_route, the reference pair_4d on the kernel's
    factor, and two box-by-box products."""
    kernel = kernel_4d(e1, e2, a, 0)
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    ref = pair_factors.pair_4d(BoxWeights(e1 * L, e2 * L), int(a * L), kernel[3])
    return kernel[4], ref, old_pair_4d(e1, e2, a)


def _routes_5d(E1, E2, Lu, t):
    """As _routes_4d, of one kernel_5d, with the reference pair_5d."""
    kernel = kernel_5d(E1, E2, 0, Lu, t, 0)
    ref = pair_factors.pair_5d(BoxWeights(E1, E2), t, Lu, kernel[3])
    return kernel[4], ref, old_pair_5d(E1, E2, Lu, t)


def _routes_matter(sigma, smp):
    """As _routes_5d, of one matter_kernel: its u is 2 dq sigma."""
    kernel = matter_kernel(_matter_inputs()[0], sigma, smp, 0)
    E1, E2, u = F(-smp.dq), F(smp.dq), 2 * smp.dq * sigma
    ref = pair_factors.pair_5d(BoxWeights(E1, E2), smp.t, u, kernel[3])
    return kernel[4], ref, old_pair_5d(E1, E2, u, smp.t)


PAIRS_TO_8 = [pair for n in range(9) for pair in enumerate_pairs(n)]
QP = idmod.POOL_QP[0]


def _same_pair_factors(new, ref, old):
    """The outcome kinds of new over PAIRS_TO_8, each the same (num, den),
    or the same exception type and message, as ref's, and the value or
    exception of old."""
    seen = set()
    for lam1, lam2 in PAIRS_TO_8:
        got = _outcome(new, lam1, lam2)
        assert got == _outcome(ref, lam1, lam2), (lam1, lam2)
        kind = got[0] if isinstance(got[0], str) else "value"
        assert (F(*got) if kind == "value" else got) == _outcome(old, lam1, lam2), (lam1, lam2)
        seen.add(kind)
    return seen


# each row names the outcomes it must produce over PAIRS_TO_8
@pytest.mark.parametrize("routes,args,kinds", [
    (_routes_4d, (F(1), F(-3, 7), F(2, 5)), {"value"}),
    (_routes_4d, (F(1), F(1), F(0)), {"value", "ZeroFactor"}),
    (_routes_4d, (F(2), F(-1), F(1)), {"value", "ZeroFactor"}),
    *[(_routes_5d, (E1, E2, Lu, t), {"value"}) for t, E1, E2, Lu in idmod.POOL_5D],
    (_routes_5d, (F(1), F(-1), F(2), F(1, 3)), {"value", "ZeroFactor"}),
    # non-integral u, then non-integral weights: the box-by-box route
    (_routes_5d, (F(2), F(4), F(1, 2), F(1, 3)), {"value", "ValueError"}),
    (_routes_5d, (F(1, 3), F(2, 3), F(0), F(5, 2)), {"value", "ValueError", "ZeroFactor"}),
    (_routes_matter, (QP.sigma, QP), {"value"}),
    (_routes_matter, (F(1, 2), QP), {"value", "ZeroFactor"}),
    (_routes_matter, (F(1, 32), QP), {"value", "ValueError"}),
], ids=["4d", "4d-a0", "4d-zero", "5d-0", "5d-1", "5d-2", "5d-zero", "5d-u", "5d-weights",
        "matter", "matter-zero", "matter-u"])
def test_one_pass_pair_factor_matches_two_box_by_box_products(routes, args, kinds):
    # pair_route forms what the per-dimension pair factors of
    # tests/pair_factors.py form;
    # a vanishing or non-integral product raises what the box-by-box route
    # meets first, with the same type and message
    assert _same_pair_factors(*routes(*args)) == kinds


EPS = st.fractions(-3, 3, max_denominator=3).filter(bool)


@given(EPS, EPS, st.fractions(-4, 4, max_denominator=6))
@settings(max_examples=30)
def test_pair_route_is_the_4d_reference_at_any_point(e1, e2, a):
    _same_pair_factors(*_routes_4d(e1, e2, a))


@given(EPS, EPS, st.fractions(-4, 4, max_denominator=2),
       st.fractions(-3, 3, max_denominator=5).filter(bool))
@settings(max_examples=30)
def test_pair_route_is_the_5d_reference_at_any_point(E1, E2, Lu, t):
    # half-integer E or Lu take the box-by-box route, t = 1 zero products
    _same_pair_factors(*_routes_5d(E1, E2, Lu, t))


def _entries(draw, parts, keys):
    """A first- or second-diagram table: (key, re, im, den) per diagram,
    with zero parts and equal or negative denominators among them."""
    small = st.integers(-3, 3)
    dens = st.sampled_from([1, -1, 2, -2, 3, 6, -6, 35, 12])
    return {lam: (draw(st.sampled_from(keys)), draw(small), draw(small), draw(dens))
            for row in parts for lam in row}


@given(st.data(), st.integers(0, 4))
def test_integer_merge_is_the_fraction_sum(data, d):
    parts = partition_table(d)
    keys = [F(0), F(1, 2)]
    first, second = (_entries(data.draw, parts, keys) for _ in range(2))
    pairs = {p: data.draw(st.sampled_from([(1, 1), (-2, 1), (3, -4), (5, 6), (1, 12)]))
             for p in enumerate_pairs(d, parts)}
    want = {}
    for lam1, lam2 in enumerate_pairs(d, parts):
        (k1, r1, i1, n1), (k2, r2, i2, n2) = first[lam1], second[lam2]
        num, den = pairs[lam1, lam2]
        acc = want.setdefault(k1 + k2, [F(0), F(0)])
        acc[0] += F(r1, n1) * F(r2, n2) * F(den, num) - F(i1, n1) * F(i2, n2) * F(den, num)
        acc[1] += (F(r1, n1) * F(i2, n2) + F(i1, n1) * F(r2, n2)) * F(den, num)
    got = pair_sum(d, parts, first, second, None, lambda l1, l2: pairs[l1, l2])
    assert got == want


def test_integer_merge_keeps_a_one_sided_imaginary_part():
    # five terms at one key: 1/6 over 6, 1/6 over -6, (1 + 2i)/-9 with the
    # imaginary part from the first diagram only, 0, and 1/3 over 6
    parts = partition_table(2)
    first = {(): (0, 1, 0, 1), (1,): (0, 1, 2, -3), (2,): (0, 0, 0, 5), (1, 1): (0, 2, 0, 6)}
    second = {(): (0, 1, 0, 1), (1,): (0, 1, 0, 3), (2,): (0, 1, 0, 6),
              (1, 1): (0, -1, 0, -6)}
    got = pair_sum(2, parts, first, second, None, lambda l1, l2: (1, 1))
    assert got == {0: [F(5, 9), F(-2, 9)]}
