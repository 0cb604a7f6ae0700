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

Each instanton coefficient is a partitions.pair_sum over a kernel: a
partition table, tables of per-diagram factors and the partitions.pair_route
(kernel_4d, kernel_5d, matter_kernel, each a _kernel).  A kernel builds one
table of box factors, a LinearTable in 4d and a BinomialTable of
coefficient 1 in 5d, and every product of box factors it forms reads it:
N_{lam lam}, the box-by-box pair factors and the pair_route.  Each series
builds one kernel for all its degrees, each diagram's entry on first use; a
coefficient called on its own builds one through its degree.

Exponents are kept on ints where they are made per mode and per diagram: a
classical gap is one Fraction from ints fixed per relative object (see
_Relative.classical_gap), and a 5d diagram's key is its Chern-Simons
t-exponent on (1/D)Z, D = cs_unit(E1, E2, Lu), an int.

RelativeZ4d and RelativeZ5d share one cocycle route: the cocycle at a
lattice point is one unit step (a ratio of Gamma or q-Pochhammer values)
from the cocycle at its neighbour towards the reference, the k1 steps
first and the k2 steps after, with or without a memo.

Values are memoised only in a dict the caller passes as ``memo`` (one
verification run's, see identities.Context), each through ``memoized``
under a kind name and the arguments the value depends on: the instanton
coefficients of the series a caller asks for, and each relative mode and
cocycle.  A 4d coefficient is keyed by the normal form of its point under
the mirror symmetries of the sum, so mirrored modes share it; a 5d mode's
instanton series lives only in the mode.  Without a memo nothing is kept.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .partitions import (BinomialTable, BoxWeights, LinearTable, attempt, diagram_entry,
                         diagram_tables, mul_binomials, mul_factors, pair_route, pair_sum,
                         partition_table)
from .rationals import GaussianRational
from .sampling import ParameterSample
from .series import PuiseuxSeries
from .symbols import SymExpr, ZeroFactor, gamma_value, poch_value, rational_power

Frac = Fraction
HALF = Frac(1, 2)


class IncompleteModeRange(Exception):
    """The requested order needs lattice modes outside the assembled range."""


# ---------------------------------------------------------------------------
# instanton sums
# ---------------------------------------------------------------------------


class Theory4d(namedtuple("Theory4d", "e1 e2")):
    """Equivariant parameters of a 4d rank-2 theory."""

    __slots__ = ()


class Theory5d(namedtuple("Theory5d", "E1 E2 m", defaults=(0,))):
    """Multiplicative parameters q_i = t^{E_i} plus a level-m modifier."""

    __slots__ = ()


_MISSING = object()


def memoized(memo, key, build):
    """build(), made once per memo dict and kept under key: a kind name
    followed by the arguments the value depends on.  memo None keeps
    nothing."""
    if memo is None:
        return build()
    val = memo.get(key, _MISSING)
    if val is _MISSING:
        val = memo[key] = build()
    return val


def _series(order, coeff) -> PuiseuxSeries:
    """The sum of coeff(d) z^d over d <= order, exact through z^order."""
    order = Frac(order)
    return PuiseuxSeries({Frac(d): coeff(d) for d in range(int(order) + 1)}, order)


_ONE = (1, 0, 1)


def _inverse_diagonal(lam, weights: BoxWeights, table):
    """1 / N_{lam lam} at u = 0 (4d) or t^0 (5d) as a triple; a real table
    keeps the factor real."""
    re, _, den = mul_factors(_ONE, lam, lam, weights, table, 0)
    return den, 0, re


def _kernel(order: int, weights: BoxWeights, table, u, entries):
    """A pair sum through z^order: (parts, first, second, factor, pair) for
    pair_sum.  entries(lam) is a diagram's pair of entries (see
    partitions.diagram_entry); factor and pair form the pair factors
    N_{lam1 lam2}(u) N_{lam2 lam1}(-u) from the box factors table[+-u +
    weight], box by box and as the pair_route."""

    def factor(acc, lam, mu, s):
        return mul_factors(acc, lam, mu, weights, table, u if s == 1 else -u)

    return (partition_table(order), *diagram_tables(entries), factor,
            pair_route(weights, u, table, factor))


def kernel_4d(e1: Frac, e2: Frac, a: Frac, order: int):
    """The 4d pair sum through z^order at (0, a, -a, 0), a _kernel on a
    LinearTable.

    Over L = lcm of the denominators of (a, e1, e2) each factor is an
    integer over L, the table's entry at u = a L plus the box's weight;
    the diagram tables hold each diagram's inverse integer N_{lam lam}.
    """
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    weights, table = BoxWeights(e1 * L, e2 * L), LinearTable()

    def entries(lam):
        inv = attempt(_inverse_diagonal, lam, weights, table)
        return diagram_entry(0, [inv], []), diagram_entry(0, [], [inv])

    return _kernel(order, weights, table, int(a * L), entries)


def inst_coeff_4d(e1: Frac, e2: Frac, a: Frac, d: int, kernel=None) -> Frac:
    """Coefficient of z^d: sum over partition pairs of the inverse
    product of the four pair factors at arguments (0, a, -a, 0).

    The four factors of a pair hold 4d boxes, each an integer over L (see
    kernel_4d), so the sum of the inverse integer products is scaled by
    L^{4d}.  kernel: a kernel_4d of these inputs through some order >= d,
    made here through d if not given.
    """
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    sums = pair_sum(d, *(kernel or kernel_4d(e1, e2, a, d)))
    return sums[0][0] * L ** (4 * d)


def admissible_degree_4d(e1: Frac, e2: Frac):
    """The highest degree d at which no inst_coeff_4d(e1, e2, a, d) meets a
    vanishing diagonal factor, or None for no such bound.

    N_{lam lam} has the factors e1 leg - e2 (arm + 1) and e2 arm -
    e1 (leg + 1) over its boxes.  With e1/e2 = p/q > 0 in lowest terms one
    vanishes at a box of hook length k (p + q), first in the hook diagram of
    size p + q, and from degree p + q on some pair of each degree holds that
    diagram.  A negative ratio never makes one vanish.
    """
    r = e1 / e2
    return r.numerator + r.denominator - 1 if r > 0 else None


def mirror_form_4d(e1: Frac, e2: Frac, a: Frac):
    """The normal form of (e1, e2, a) under the symmetries of every
    inst_coeff_4d: Z_d(e1, e2, a) = Z_d(e2, e1, a) (transpose every
    diagram) = Z_d(-e1, -e2, a) (negate all 4d box factors, then swap each
    pair) = Z_d(e1, e2, -a) (swap each pair)."""
    return min((e1, e2), (e2, e1), (-e1, -e2), (-e2, -e1)) + (abs(a),)


def inst_series_4d(th: Theory4d, a: Frac, order, *, memo=None) -> PuiseuxSeries:
    """The 4d instanton series through z^order.  Its coefficients are kept
    in memo under the normal form of (e1, e2, a) (`mirror_form_4d`), so
    mirrored points share them; each is made from this call's own
    arguments, on one kernel_4d."""
    key = mirror_form_4d(th.e1, th.e2, a)
    kernel = kernel_4d(th.e1, th.e2, a, int(Frac(order)))
    return _series(order, lambda d: memoized(
        memo, ("inst_coeff_4d", *key, d),
        lambda: inst_coeff_4d(th.e1, th.e2, a, d, kernel)))


def _on(x: Frac, D: int) -> int:
    """x D, for D a multiple of the denominator of x."""
    return x.numerator * (D // x.denominator)


def cs_unit(E1: Frac, E2: Frac, Lu: Frac) -> int:
    """D = 2 lcm of the denominators of (E1, E2, Lu): every Chern-Simons
    t-exponent of kernel_5d, and the degree weight, lies on (1/D)Z."""
    return 2 * lcm(E1.denominator, E2.denominator, Lu.denominator)


def kernel_5d(E1: Frac, E2: Frac, m: int, Lu: Frac, t: Frac, order: int):
    """The 5d pair sum through z^order at u = t^Lu and Chern-Simons level
    m, a _kernel on a BinomialTable of coefficient 1.

    A diagram's key is D times the t-exponent of its Chern-Simons weight
    T_lam(u)^m (q1 q2)^{-m|lam|/2}, an int (D = cs_unit(E1, E2, Lu)), where
    T_lam = prod over boxes (i, j) of u^-1 q1^{1-i} q2^{1-j}, q_i = t^{E_i},
    and u = t^{Lu/2} for the first diagram of a pair, t^{-Lu/2} for the
    second.
    """
    if not 0 <= m <= 2:
        raise ValueError("Chern-Simons level must be 0, 1 or 2")
    weights, table = BoxWeights(E1, E2), BinomialTable(GaussianRational(1), t)
    D = cs_unit(E1, E2, Lu)
    b1, b2, half, S = _on(E1, D), _on(E2, D), _on(Lu, D // 2), _on(E1 + E2, D // 2)

    def entries(lam):
        inv = attempt(_inverse_diagonal, lam, weights, table)
        key = shift = 0
        if m and lam:
            # over the boxes: sum (1 - i) = s1 and sum (1 - j) = s2
            size = sum(lam)
            s1 = -sum(i * p for i, p in enumerate(lam))
            s2 = -sum(p * (p - 1) // 2 for p in lam)
            key, shift = m * (b1 * s1 + b2 * s2 - size * S), m * size * half
        return (diagram_entry(key - shift, [inv], []),
                diagram_entry(key + shift, [], [inv]))

    return _kernel(order, weights, table, Lu, entries)


def _inst_coeff_5d(E1: Frac, E2: Frac, m: int, Lu: Frac, t: Frac, d: int,
                   kernel=None) -> SymExpr:
    """kernel: a kernel_5d of these inputs through some order >= d, made
    here through d if not given."""
    sums = pair_sum(d, *(kernel or kernel_5d(E1, E2, m, Lu, t, d)))
    # keys are t-exponents times D; the degree-d weight carries
    # (q1 q2)^{-d}; integer powers of t are rational and add up as Fractions
    D = cs_unit(E1, E2, Lu)
    base = -_on(E1 + E2, D) * d
    rational = Frac(0)
    total = SymExpr.zero()
    for key, (re, _) in sums.items():
        e = key + base
        k, r = divmod(e, D)
        if r:
            total = total + rational_power(t, Frac(e, D)) * re
        else:
            rational += re * t ** k
    return total + SymExpr.from_rational(rational)


def inst_series_5d(th: Theory5d, Lu: Frac, t: Frac, order, *, memo=None) -> PuiseuxSeries:
    kernel = kernel_5d(th.E1, th.E2, th.m, Lu, t, int(Frac(order)))
    return _series(order, lambda d: memoized(
        memo, ("inst_coeff_5d", th, Lu, t, d),
        lambda: _inst_coeff_5d(th.E1, th.E2, th.m, Lu, t, d, kernel)))


def matter_kernel(vs, sigma: Frac, sample: ParameterSample, order: int):
    """The four-flavour pair sum through z^order, a _kernel on a
    BinomialTable of coefficient 1 at u = q^{2 sigma}.  Each diagram's
    eight numerator products and its N_{lam lam} are made once, on first
    use, from its two numerator weight lists; a pair adds only N_{lam1
    lam2} N_{lam2 lam1}.  A vanishing numerator factor makes the diagram's
    entry zero, with no factor after it formed; a vanishing N_{lam lam} or
    pair factor raises ZeroFactor.

    vs: mapping with keys "0", "t", "1", "inf"; each value is a pair
    (coef: GaussianRational, p: Frac) encoding the multiplicative weight
    coef * q^p.  The first diagram of a pair is attached to the +1 label.
    """
    dq, t = sample.dq, sample.t
    weights = BoxWeights(Frac(-dq), Frac(dq))
    table = BinomialTable(GaussianRational(1), t)
    c0, p0 = vs["0"]
    ct, pt = vs["t"]
    c1, p1 = vs["1"]
    cinf, pinf = vs["inf"]

    # per sign pair (eps, epsp): the a- and b-type numerator factors of the
    # epsp diagram, with their coefficient tables and t-exponents
    signs = {
        (eps, epsp): (BinomialTable(cinf ** eps * c1.inverse(), t),
                      dq * (eps * pinf - p1 - epsp * sigma),
                      BinomialTable(c0 ** -eps * ct.inverse(), t),
                      dq * (epsp * sigma - pt - eps * p0))
        for eps in (1, -1) for epsp in (1, -1)
    }

    def numerator(lam, a_ws, b_ws, a_tab, a_texp, b_tab, b_texp):
        """The a- then b-type product, zero at its first vanishing factor."""
        try:
            num = mul_binomials(_ONE, (), lam, a_ws, weights.integral, a_tab, a_texp)
            return mul_binomials(num, lam, (), b_ws, weights.integral, b_tab, b_texp)
        except ZeroFactor:
            return 0, 0, 1

    def entries(lam):
        ws = weights((), lam), weights(lam, ())
        num = {sign: attempt(numerator, lam, *ws, *tabs) for sign, tabs in signs.items()}
        inv = attempt(_inverse_diagonal, lam, weights, table)
        # the box-by-box order is sign (1, 1), (1, -1), (-1, 1), (-1, -1),
        # each sign's a and b factors then its N; (1, -1) and (-1, 1) hold
        # the pair factors
        return (diagram_entry(0, [num[1, 1], inv], [num[-1, 1]]),
                diagram_entry(0, [num[1, -1]], [num[-1, -1], inv]))

    # N_{lam1 lam2} at sign (1, -1) and N_{lam2 lam1} at (-1, 1)
    return _kernel(order, weights, table, 2 * dq * sigma, entries)


def inst_coeff_matter(vs, sigma: Frac, sample: ParameterSample, d: int,
                      kernel=None) -> SymExpr:
    """Coefficient of z^d of the four-flavour sum with bases (q^{-1}, q).

    kernel: a matter_kernel of these inputs through some order >= d, made
    here through d if not given.
    """
    ((re, im),) = pair_sum(d, *(kernel or matter_kernel(vs, sigma, sample, d))).values()
    return SymExpr.from_rational(GaussianRational(re, im))


def inst_series_matter(vs, sigma: Frac, sample: ParameterSample, order) -> PuiseuxSeries:
    kernel = matter_kernel(vs, sigma, sample, int(Frac(order)))
    return _series(order, lambda d: inst_coeff_matter(vs, sigma, sample, d, kernel))


# ---------------------------------------------------------------------------
# one-loop cocycles
# ---------------------------------------------------------------------------

def _gamma1_free(eps: Frac, x: Frac) -> SymExpr:
    """The single-parameter one-loop exponential without its factor
    sqrt(2 pi)^(-sgn eps), which cancels from a ratio of two values at one
    eps: (-eps)^{-x/eps-1/2} Gamma(-x/eps) for eps < 0 and
    eps^{-x/eps-1/2} / Gamma(1 + x/eps) for eps > 0."""
    if eps < 0:
        return rational_power(-eps, -x / eps - HALF) * gamma_value(-x / eps)
    return rational_power(eps, -x / eps - HALF) / gamma_value(1 + x / eps)


# ---------------------------------------------------------------------------
# relative assembly
# ---------------------------------------------------------------------------


class _Relative:
    """The mode data a 4d and a 5d relative object share, on the lattice
    x0 + k1 e1 + k2 e2 of one theory th: the classical gap and the one-loop
    cocycle of each point.  A subclass gives ref, the theory and reference
    point its memo keys hold after their kind name, its unit step _up and
    its own mode."""

    def __init__(self, th, x0: Frac, e1: Frac, e2: Frac, ref: tuple, memo):
        self.th, self.memo = th, memo
        self._x0, self._e, self._ref = x0, (e1, e2), ref
        # x0 = a/D and e_i = b_i/D over D the lcm of their denominators
        D = lcm(x0.denominator, e1.denominator, e2.denominator)
        b1, b2 = _on(e1, D), _on(e2, D)
        self._gap = _on(x0, D), b1, b2, 4 * b1 * b2

    def _point(self, k1: int, k2: int) -> Frac:
        """x0 + k1 e1 + k2 e2."""
        return self._x0 + k1 * self._e[0] + k2 * self._e[1]

    def classical_gap(self, k1: int, k2: int) -> Frac:
        """The gap of the classical z-exponent -x^2 / (4 e1 e2) (z carries
        four scale units) from x0 to x = x0 + k1 e1 + k2 e2:
        (a^2 - n^2) / (4 b1 b2) with x = n/D, D cancelling."""
        a, b1, b2, den = self._gap
        n = a + k1 * b1 + k2 * b2
        return Frac(a * a - n * n, den)

    def cocycle(self, k1: int, k2: int) -> SymExpr:
        """The one-loop factor at (k1, k2) over the one at (0, 0), kept in
        memo under ("cocycle", *_ref, k1, k2): 1 at (0, 0), else one unit
        step from the cocycle at (k1, k2 -+ 1) if k2 != 0 and at
        (k1 -+ 1, 0) if not, so the k1 steps come first and the k2 steps
        after.  A step down from x is a step up from -x."""

        def build():
            if not (k1 or k2):
                return SymExpr.one()
            e1, e2 = self._e
            s = 1 if (k2 or k1) > 0 else -1
            j1, j2, estep, epartner = (k1, k2 - s, e2, e1) if k2 else (k1 - s, 0, e1, e2)
            num, den = self._up(s * self._point(j1, j2), estep, epartner)
            return self.cocycle(j1, j2) * num / den

        return memoized(self.memo, ("cocycle", *self._ref, k1, k2), build)


class RelativeZ4d(_Relative):
    """All mode data of one 4d theory relative to a reference point a0.

    mode(k1, k2, order) returns z^{gap} * cocycle * instanton-series for
    the point a0 + k1 e1 + k2 e2, exact through z^order.  Cocycles are
    kept in memo under ("cocycle", theory, a0, k1, k2) and modes under
    ("mode", theory, a0, k1, k2, order), so objects on one memo share them.
    """

    def __init__(self, th: Theory4d, a0: Frac, *, memo=None):
        self.a0 = Frac(a0)
        super().__init__(th, self.a0, th.e1, th.e2, (th, self.a0), memo)

    @staticmethod
    def _up(x: Frac, estep: Frac, epartner: Frac):
        """(numerator, denominator) of a unit step from x up by estep: it
        multiplies the pair exp(-gamma(x)) exp(-gamma(-x)) by
        g1(epartner, -x) / g1(epartner, x + estep), a ratio at one eps,
        from which sqrt(2 pi) cancels (`_gamma1_free`)."""
        return _gamma1_free(epartner, -x), _gamma1_free(epartner, x + estep)

    def mode(self, k1: int, k2: int, order) -> PuiseuxSeries:
        order = Frac(order)

        def build():
            gap = self.classical_gap(k1, k2)
            inst = inst_series_4d(self.th, self._point(k1, k2), order - gap, memo=self.memo)
            return inst.shift(gap).scale(self.cocycle(k1, k2))

        return memoized(self.memo, ("mode", *self._ref, k1, k2, order), build)


class RelativeZ5d(_Relative):
    """All mode data of one 5d theory relative to a reference weight Lu0 at
    base t, kept in memo as RelativeZ4d's are, with t after Lu0."""

    def __init__(self, th: Theory5d, Lu0: Frac, t: Frac, *, memo=None):
        self.Lu0, self.t = Frac(Lu0), t
        super().__init__(th, self.Lu0, th.E1, th.E2, (th, self.Lu0, t), memo)

    def _up(self, Lu: Frac, Estep: Frac, Epartner: Frac):
        """(numerator, denominator) of a unit q-step of u = t^Lu up by
        Estep: it multiplies the double product (u; q1, q2)(u^{-1}; q1, q2)
        by S(-Lu - Estep; Epartner) / S(Lu; Epartner), where S(E; B) is the
        canonical single-base Pochhammer symbol."""
        return (poch_value(-Lu - Estep, Epartner, self.t),
                poch_value(Lu, Epartner, self.t))

    def mode(self, k1: int, k2: int, order) -> PuiseuxSeries:
        order = Frac(order)

        def build():
            zgap = self.classical_gap(k1, k2)
            # the classical base (q1 q2)^{-1} z: -(E1 + E2) t-units per z-unit
            tgap = -(self.th.E1 + self.th.E2) * zgap
            inst = inst_series_5d(self.th, self._point(k1, k2), self.t, order - zgap)
            coeff = self.cocycle(k1, k2) * rational_power(self.t, tgap)
            return inst.shift(zgap).scale(coeff)

        return memoized(self.memo, ("mode", *self._ref, k1, k2, order), build)


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
