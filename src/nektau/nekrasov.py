"""Gauge-theory building blocks: instanton sums, classical exponents,
one-loop cocycles, and relative partition-function assembly.

Everything is *relative*: a partition function is only ever used through
the ratio of its value at a shifted parameter to its value at a reference
point.  Classical parts become exact rational exponent gaps, and one-loop
parts become finite telescoping products of Gamma-, sine-, and
q-Pochhammer symbols, so the whole object lives in the exact coefficient
algebra.

Conventions: the series variable z carries four units of the mass scale
(scale^4 = z), all multiplicative parameters are powers of one rational base
t (the 5d series and modes take t itself), and 4d equivariant parameters
are literal rationals.

Values are memoised only in a dict the caller passes as ``memo`` (one
verification run's, see identities.Context), each through ``memoized``
under a kind name and the arguments the value depends on: the instanton
coefficients of the series a caller asks for, and each relative mode and
cocycle.  A mode's instanton series lives only in the mode.  Without a
memo nothing is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .partitions import (
    BinomialTable,
    BoxWeights,
    cs_weight,
    enumerate_pairs,
    gaussian_ratio,
    mul_factors_4d,
    mul_factors_5d,
)
from .rationals import GaussianRational
from .sampling import ParameterSample
from .series import PuiseuxSeries
from .symbols import (
    SymExpr,
    gamma_value,
    pi_power,
    poch_value,
    rational_power,
)

Frac = Fraction
HALF = Frac(1, 2)


class IncompleteModeRange(Exception):
    """The requested order needs lattice modes outside the assembled range."""


# ---------------------------------------------------------------------------
# instanton sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theory4d:
    """Equivariant parameters of a 4d rank-2 theory."""

    e1: Frac
    e2: Frac


@dataclass(frozen=True)
class Theory5d:
    """Multiplicative parameters q_i = t^{E_i} plus a level-m modifier."""

    E1: Frac
    E2: Frac
    m: int = 0


def memoized(memo, key, build):
    """build(), made once per memo dict and kept under key: a kind name
    followed by the arguments the value depends on.  memo None keeps
    nothing."""
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _series(order, coeff) -> PuiseuxSeries:
    """The sum of coeff(d) z^d over d <= order, exact through z^order."""
    order = Frac(order)
    return PuiseuxSeries({Frac(d): coeff(d) for d in range(int(order) + 1)}, order)


def inst_coeff_4d(e1: Frac, e2: Frac, a: Frac, d: int) -> Frac:
    """Coefficient of z^d: sum over partition pairs of the inverse
    product of the four pair factors at arguments (0, a, -a, 0).

    Over L = lcm of the denominators of (a, e1, e2) each factor is an
    integer over L, and the four factors of a pair hold 4d boxes, so the
    sum of the inverse integer products is scaled by L^{4d}.
    """
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    A = int(a * L)
    weights = BoxWeights(e1 * L, e2 * L)
    total = Frac(0)
    for lam1, lam2 in enumerate_pairs(d):
        den = mul_factors_4d(1, lam1, lam1, weights, 0)
        den = mul_factors_4d(den, lam1, lam2, weights, A)
        den = mul_factors_4d(den, lam2, lam1, weights, -A)
        den = mul_factors_4d(den, lam2, lam2, weights, 0)
        total += Frac(1, den)
    return total * L ** (4 * d)


def inst_series_4d(th: Theory4d, a: Frac, order, *, memo=None) -> PuiseuxSeries:
    return _series(order, lambda d: memoized(
        memo, ("inst_coeff_4d", th, a, d), lambda: inst_coeff_4d(th.e1, th.e2, a, d)))


def _inst_coeff_5d(E1: Frac, E2: Frac, m: int, Lu: Frac, t: Frac, d: int) -> SymExpr:
    one = GaussianRational(1)
    weights, table = BoxWeights(E1, E2), BinomialTable(one, t)
    total = SymExpr.zero()
    for lam1, lam2 in enumerate_pairs(d):
        den = mul_factors_5d((1, 0, 1), lam1, lam1, weights, table, 0)
        den = mul_factors_5d(den, lam1, lam2, weights, table, Lu)
        den = mul_factors_5d(den, lam2, lam1, weights, table, -Lu)
        den = mul_factors_5d(den, lam2, lam2, weights, table, 0)
        term = SymExpr.from_rational(gaussian_ratio((1, 0, 1), den))
        if m:
            term = term * cs_weight(lam1, m, one, Lu / 2, E1, E2, t)
            term = term * cs_weight(lam2, m, one, -Lu / 2, E1, E2, t)
        total = total + term
    # the degree-d weight carries (q1 q2)^{-d}
    return total * rational_power(t, -(E1 + E2) * d)


def inst_series_5d(th: Theory5d, Lu: Frac, t: Frac, order, *, memo=None) -> PuiseuxSeries:
    return _series(order, lambda d: memoized(
        memo, ("inst_coeff_5d", th, Lu, t, d),
        lambda: _inst_coeff_5d(th.E1, th.E2, th.m, Lu, t, d)))


def inst_coeff_matter(vs, sigma: Frac, sample: ParameterSample, d: int) -> SymExpr:
    """Coefficient of z^d of the four-flavour sum with bases (q^{-1}, q).

    vs: mapping with keys "0", "t", "1", "inf"; each value is a pair
    (coef: GaussianRational, p: Frac) encoding the multiplicative weight
    coef * q^p.  The first diagram of a pair is attached to the +1 label.
    """
    dq = sample.dq
    t = sample.t
    E1, E2 = Frac(-dq), Frac(dq)
    c0, p0 = vs["0"]
    ct, pt = vs["t"]
    c1, p1 = vs["1"]
    cinf, pinf = vs["inf"]

    def gpow(c: GaussianRational, k: int) -> GaussianRational:
        return c ** k if k >= 0 else c.inverse() ** (-k)

    one_tab = BinomialTable(GaussianRational(1), t)
    weights = BoxWeights(E1, E2)
    # per sign pair (eps, epsp): the a- and b-type numerator factors, with
    # their coefficient tables and t-exponents, and the denominator exponent
    signs = [
        (eps, epsp,
         BinomialTable(gpow(cinf, eps) * c1.inverse(), t),
         dq * (eps * pinf - p1 - epsp * sigma),
         BinomialTable(gpow(c0, -eps) * ct.inverse(), t),
         dq * (epsp * sigma - pt - eps * p0),
         dq * (eps - epsp) * sigma)
        for eps in (1, -1) for epsp in (1, -1)
    ]

    total_re, total_im = Frac(0), Frac(0)
    for lam1, lam2 in enumerate_pairs(d):
        diagrams = {1: lam1, -1: lam2}
        num = den = (1, 0, 1)
        for eps, epsp, a_tab, a_texp, b_tab, b_texp, d_texp in signs:
            mu = diagrams[epsp]
            num = mul_factors_5d(num, (), mu, weights, a_tab, a_texp)
            num = mul_factors_5d(num, mu, (), weights, b_tab, b_texp)
            den = mul_factors_5d(den, diagrams[eps], mu, weights, one_tab, d_texp)
        term = gaussian_ratio(num, den)
        total_re += term.re
        total_im += term.im
    return SymExpr.from_rational(GaussianRational(total_re, total_im))


def inst_series_matter(vs, sigma: Frac, sample: ParameterSample, order) -> PuiseuxSeries:
    return _series(order, lambda d: inst_coeff_matter(vs, sigma, sample, d))


# ---------------------------------------------------------------------------
# classical exponents
# ---------------------------------------------------------------------------


def classical_exp_4d(e1: Frac, e2: Frac, a: Frac) -> Frac:
    """z-exponent of the classical factor (z carries 4 scale units)."""
    return -a * a / (4 * e1 * e2)


def classical_exp_5d(E1: Frac, E2: Frac, Lu: Frac) -> Frac:
    """z-exponent of the 5d classical factor."""
    return Frac(-Lu * Lu) / (4 * E1 * E2)


# ---------------------------------------------------------------------------
# one-loop cocycles
# ---------------------------------------------------------------------------

_SQRT_2PI = rational_power(2, HALF) * pi_power(HALF)


def gamma1_exp(eps: Frac, x: Frac) -> SymExpr:
    """Closed form of the single-parameter one-loop exponential.

    For eps < 0 this is (-eps)^{-x/eps-1/2} Gamma(-x/eps) / sqrt(2 pi);
    for eps > 0 it is eps^{-x/eps-1/2} sqrt(2 pi) / Gamma(1 + x/eps).
    """
    if eps < 0:
        return rational_power(-eps, -x / eps - HALF) * gamma_value(-x / eps) / _SQRT_2PI
    return rational_power(eps, -x / eps - HALF) * _SQRT_2PI / gamma_value(1 + x / eps)


def z1loop_ratio_4d(e1: Frac, e2: Frac, a0: Frac, k1: int, k2: int) -> SymExpr:
    """Ratio of 4d one-loop factors: shifted point a0 + k1 e1 + k2 e2
    over reference a0, built by telescoping unit shifts.

    A unit shift of the first argument by +e1 multiplies the pair
    exp(-gamma(x)) exp(-gamma(-x)) by g1(e2, -x) / g1(e2, x + e1).
    """
    out = SymExpr.one()
    x = a0
    for estep, epartner, count in ((e1, e2, k1), (e2, e1, k2)):
        for _ in range(abs(count)):
            if count > 0:
                out = out * gamma1_exp(epartner, -x) / gamma1_exp(epartner, x + estep)
                x += estep
            else:
                out = out * gamma1_exp(epartner, x) / gamma1_exp(epartner, -x + estep)
                x -= estep
    return out


def q_z1loop_ratio(E1: Frac, E2: Frac, Lu0: Frac, k1: int, k2: int, t: Frac) -> SymExpr:
    """Ratio of 5d one-loop factors: u shifted by q1^{k1} q2^{k2} over u.

    One upward q1-step multiplies the double product
    (u; q1, q2)(u^{-1}; q1, q2) by S(-Lu - E1; E2) / S(Lu; E2) where
    S(E; B) is the canonical single-base Pochhammer symbol.
    """
    out = SymExpr.one()
    Lu = Lu0
    for Estep, Epartner, count in ((E1, E2, k1), (E2, E1, k2)):
        for _ in range(abs(count)):
            if count > 0:
                out = out * poch_value(-Lu - Estep, Epartner, t) / poch_value(Lu, Epartner, t)
                Lu += Estep
            else:
                out = out * poch_value(Lu - Estep, Epartner, t) / poch_value(-Lu, Epartner, t)
                Lu -= Estep
    return out


# ---------------------------------------------------------------------------
# relative assembly
# ---------------------------------------------------------------------------


class RelativeZ4d:
    """All mode data of one 4d theory relative to a reference point a0.

    mode(k1, k2, order) returns z^{gap} * cocycle * instanton-series for
    the point a0 + k1 e1 + k2 e2, exact through z^order.  Cocycles are
    kept in memo under ("cocycle", theory, a0, k1, k2) and modes under
    ("mode", theory, a0, k1, k2, order), so objects on one memo share them.
    """

    def __init__(self, th: Theory4d, a0: Frac, *, memo=None):
        self.th = th
        self.a0 = Frac(a0)
        self.memo = memo

    def classical_gap(self, k1: int, k2: int) -> Frac:
        a = self.a0 + k1 * self.th.e1 + k2 * self.th.e2
        return classical_exp_4d(self.th.e1, self.th.e2, a) - classical_exp_4d(
            self.th.e1, self.th.e2, self.a0
        )

    def cocycle(self, k1: int, k2: int) -> SymExpr:
        return memoized(self.memo, ("cocycle", self.th, self.a0, k1, k2),
                        lambda: z1loop_ratio_4d(self.th.e1, self.th.e2, self.a0, k1, k2))

    def mode(self, k1: int, k2: int, order) -> PuiseuxSeries:
        order = Frac(order)

        def build():
            gap = self.classical_gap(k1, k2)
            a = self.a0 + k1 * self.th.e1 + k2 * self.th.e2
            inst = inst_series_4d(self.th, a, order - gap)
            return inst.shift(gap).scale(self.cocycle(k1, k2))

        return memoized(self.memo, ("mode", self.th, self.a0, k1, k2, order), build)


class RelativeZ5d:
    """All mode data of one 5d theory relative to a reference weight Lu0 at
    base t, kept in memo as RelativeZ4d's are, with t after Lu0."""

    def __init__(self, th: Theory5d, Lu0: Frac, t: Frac, *, memo=None):
        self.th = th
        self.Lu0 = Frac(Lu0)
        self.t = t
        self.memo = memo

    def classical_gap(self, k1: int, k2: int) -> Frac:
        """z-exponent gap of the classical factor."""
        Lu = self.Lu0 + k1 * self.th.E1 + k2 * self.th.E2
        return (classical_exp_5d(self.th.E1, self.th.E2, Lu)
                - classical_exp_5d(self.th.E1, self.th.E2, self.Lu0))

    def cocycle(self, k1: int, k2: int) -> SymExpr:
        th, t = self.th, self.t
        return memoized(self.memo, ("cocycle", th, self.Lu0, t, k1, k2),
                        lambda: q_z1loop_ratio(th.E1, th.E2, self.Lu0, k1, k2, t))

    def mode(self, k1: int, k2: int, order) -> PuiseuxSeries:
        order = Frac(order)

        def build():
            zgap = self.classical_gap(k1, k2)
            # the classical base (q1 q2)^{-1} z: -(E1 + E2) t-units per z-unit
            tgap = -(self.th.E1 + self.th.E2) * zgap
            Lu = self.Lu0 + k1 * self.th.E1 + k2 * self.th.E2
            inst = inst_series_5d(self.th, Lu, self.t, order - zgap)
            coeff = self.cocycle(k1, k2) * rational_power(self.t, tgap)
            return inst.shift(zgap).scale(coeff)

        return memoized(self.memo, ("mode", self.th, self.Lu0, self.t, k1, k2, order), build)


def blowup_modes(order, gap_fn, offset: Frac = Frac(0)):
    """All lattice modes n in Z + offset whose classical gap is <= order.

    gap_fn(n) must be a quadratic with positive leading coefficient;
    raises IncompleteModeRange if the scan fails to terminate.
    """
    order = Frac(order)
    out = []
    for sign in (1, -1):
        n = offset if sign == 1 else offset - 1
        steps = 0
        while gap_fn(n) <= order:
            out.append(n)
            n += sign
            steps += 1
            if steps > 64:
                raise IncompleteModeRange("mode scan did not terminate")
    return sorted(out)
