"""Young-diagram combinatorics and per-box instanton weight factors.

Partitions are tuples of weakly decreasing positive integers.  Arm/leg
lengths are evaluated with the conjugate-profile rule and may be negative
(boxes of one diagram measured against another diagram's profile).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import GaussianRational
from .symbols import SymExpr, ZeroFactor, rational_power

Frac = Fraction


def partitions_of(n: int):
    """All partitions of n as sorted tuples, lexicographically descending."""
    if n == 0:
        return ((),)
    out = []

    def rec(rem, maxpart, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rem, maxpart), 0, -1):
            prefix.append(p)
            rec(rem - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def enumerate_pairs(d: int):
    """All partition pairs with total size d, ordered by (|first|, first, second)."""
    parts = [partitions_of(n) for n in range(d + 1)]
    for d1 in range(d + 1):
        for lam1 in parts[d1]:
            for lam2 in parts[d - d1]:
                yield (lam1, lam2)


def conjugate(lam):
    if not lam:
        return ()
    out = []
    for j in range(1, lam[0] + 1):
        out.append(sum(1 for p in lam if p >= j))
    return tuple(out)


def boxes(lam):
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield (i, j)


def pair_offsets(lam, mu):
    """Offsets (p, q) of the boxes of the pair factor N_{lam mu}.

    The factor at a box has weight a + e2 p + e1 q in 4d and u q2^p q1^q in
    5d.  A lam-box has p = -(arm_mu + 1), q = leg_lam; a mu-box has
    p = arm_lam, q = -(leg_mu + 1).  lam-boxes come first, row by row.  At
    box (i, j) the arm against nu is nu_i - j and the leg nu'_j - i, with
    nu' the conjugate and rows past the end of nu empty.
    """
    lam_c, mu_c = conjugate(lam), conjugate(mu)

    def row(nu, i):
        return nu[i] if i < len(nu) else 0

    # 0-based rows i and columns j: box (i + 1, j + 1)
    out = [(j - row(mu, i), lam_c[j] - i - 1)
           for i, r in enumerate(lam) for j in range(r)]
    out += [(row(lam, i) - j - 1, i - mu_c[j])
            for i, r in enumerate(mu) for j in range(r)]
    return out


class BoxWeights(dict):
    """(lam, mu) -> the weights e2 p + e1 q of the boxes of N_{lam mu}.

    The factor at a box is a + weight in 4d and 1 - c t^{u + weight} in 5d.
    Integer e1, e2 (the ``integral`` case) give int weights.  Entries are
    made on first use and live as long as the table.
    """

    def __init__(self, e1, e2):
        super().__init__()
        self.integral = e1.denominator == 1 and e2.denominator == 1
        self.e1, self.e2 = (int(e1), int(e2)) if self.integral else (e1, e2)

    def __missing__(self, pair):
        e1, e2 = self.e1, self.e2
        val = self[pair] = tuple(e2 * p + e1 * q for p, q in pair_offsets(*pair))
        return val


def _box_of(lam, mu, k):
    """The k-th box of N_{lam mu} in pair_offsets order."""
    return (list(boxes(lam)) + list(boxes(mu)))[k]


def mul_factors_4d(acc: int, lam, mu, weights: BoxWeights, A: int) -> int:
    """acc times the integer numerators A + weight of N_{lam mu}.

    With L a common denominator of (a, e1, e2), A = a L and weights made
    from (e1 L, e2 L), the 4d pair factor is the product over L^{#boxes}.
    """
    for k, w in enumerate(weights[lam, mu]):
        f = A + w
        if not f:
            raise ZeroFactor(
                f"4d factor vanished at box {_box_of(lam, mu, k)} of {lam}/{mu}")
        acc *= f
    return acc


def n_factor_4d(lam, mu, a: Frac, e1: Frac, e2: Frac) -> Frac:
    """Pair factor: prod over lam-boxes of (a - e2(arm_mu+1) + e1 leg_lam)
    times prod over mu-boxes of (a + e2 arm_lam - e1(leg_mu+1))."""
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    num = mul_factors_4d(1, lam, mu, BoxWeights(e1 * L, e2 * L), int(a * L))
    return Frac(num, L ** (sum(lam) + sum(mu)))


class BinomialTable(dict):
    """Exponent e -> (1 - c t^e) as an integer triple (re, im, den).

    The triple stands for (re + im i) / den: with c = (cr + ci i) / cd and
    t^e = n / d in lowest terms, re = cd d - cr n, im = -ci n, den = cd d.
    Entries are made on first use and live as long as the table.
    """

    def __init__(self, coef: GaussianRational, t: Frac):
        super().__init__()
        re, im = coef.re, coef.im
        self.cd = lcm(re.denominator, im.denominator)
        self.cr = re.numerator * (self.cd // re.denominator)
        self.ci = im.numerator * (self.cd // im.denominator)
        self.P, self.R = t.numerator, t.denominator

    def __missing__(self, e: int):
        n, d = (self.P ** e, self.R ** e) if e >= 0 else (self.R ** -e, self.P ** -e)
        val = self[e] = (self.cd * d - self.cr * n, -self.ci * n, self.cd * d)
        return val


def _integer_exponent(e: Frac) -> int:
    if e.denominator != 1:
        raise ValueError(f"non-integer t-exponent {e} in 5d factor")
    return e.numerator


def mul_factors_5d(acc, lam, mu, weights: BoxWeights, table: BinomialTable,
                   u_texp: Frac):
    """acc times the factors (1 - c t^{u_texp + weight}) of N_{lam mu}.

    acc and the result are triples (re, im, den) for (re + im i) / den; the
    coefficient c and the base t are those of table.  Every exponent must be
    an integer: with integral weights that holds exactly when u_texp is one.
    """
    re, im, den = acc
    ws = weights[lam, mu]
    if weights.integral:
        if ws and u_texp.denominator != 1:
            _integer_exponent(u_texp + ws[0])
        u = int(u_texp)
        exps = (u + w for w in ws)
    else:
        exps = (_integer_exponent(u_texp + w) for w in ws)
    for k, e in enumerate(exps):
        fr, fi, fd = table[e]
        if not (fr or fi):
            raise ZeroFactor(
                f"5d factor vanished at box {_box_of(lam, mu, k)} of {lam}/{mu}")
        re, im = re * fr - im * fi, re * fi + im * fr
        den *= fd
    return re, im, den


def n_factor_5d(lam, mu, u_coef: GaussianRational, u_texp: Frac,
                E1: Frac, E2: Frac, t: Frac) -> GaussianRational:
    """Pair factor: prod (1 - u q2^{-arm_mu-1} q1^{leg_lam}) * prod over mu.

    The multiplicative argument is u = u_coef * t^{u_texp}; q_i = t^{E_i}.
    All exponents must land on integers (enforced), so the result is an
    exact Gaussian rational.
    """
    re, im, den = mul_factors_5d(
        (1, 0, 1), lam, mu, BoxWeights(E1, E2),
        BinomialTable(GaussianRational.coerce(u_coef), t), u_texp)
    return GaussianRational(Frac(re, den), Frac(im, den))


def gaussian_ratio(num, den) -> GaussianRational:
    """num / den for triples (re, im, d) standing for (re + im i) / d."""
    nr, ni, nd = num
    dr, di, dd = den
    norm = (dr * dr + di * di) * nd
    return GaussianRational(Frac((nr * dr + ni * di) * dd, norm),
                            Frac((ni * dr - nr * di) * dd, norm))


def cs_weight(lam, m: int, u_coef: GaussianRational, u_texp: Frac,
              E1: Frac, E2: Frac, t: Frac) -> SymExpr:
    """T_lam(u)^m * (q1 q2)^{-m|lam|/2} with T_lam = prod u^-1 q1^{1-i} q2^{1-j}."""
    if not (0 <= m <= 2):
        raise ValueError("Chern-Simons level must be 0, 1 or 2")
    if m == 0 or not lam:
        return SymExpr.one()
    size = sum(lam)
    s1 = sum(1 - i for i, _ in boxes(lam))
    s2 = sum(1 - j for _, j in boxes(lam))
    texp = m * (-size * u_texp + E1 * s1 + E2 * s2) - Frac(m * size, 2) * (E1 + E2)
    coef = (u_coef.inverse()) ** (m * size)
    return rational_power(t, texp) * coef
