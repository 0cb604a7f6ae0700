"""Young-diagram combinatorics, per-box instanton weight factors and the
pair-sum kernel of the instanton sums.

Partitions are tuples of weakly decreasing positive integers.  Arm/leg
lengths are evaluated with the conjugate-profile rule and may be negative
(boxes of one diagram measured against another diagram's profile).

An instanton coefficient sums over pairs of diagrams.  pair_sum takes each
diagram's own factors from a table built once for every diagram up to the
order, and multiplies only the two pair factors N_{lam1 lam2} N_{lam2 lam1}
per pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import GaussianRational
from .symbols import ZeroFactor

Frac = Fraction


def partition_table(n: int):
    """parts[k] = all partitions of k as sorted tuples, lexicographically
    descending, for every k <= n."""
    parts = [((),)]
    for k in range(1, n + 1):
        parts.append(tuple((p,) + rest for p in range(k, 0, -1)
                           for rest in parts[k - p] if not rest or rest[0] <= p))
    return parts


def enumerate_pairs(d: int, parts=None):
    """All partition pairs with total size d, ordered by (|first|, first, second).

    parts: a partition_table of order >= d, made here if not given.
    """
    if parts is None:
        parts = partition_table(d)
    for d1 in range(d + 1):
        for lam1 in parts[d1]:
            for lam2 in parts[d - d1]:
                yield (lam1, lam2)


def conjugate(lam):
    out = []
    # the columns that row i reaches and row i + 1 does not have length i
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - len(out))
    return tuple(out)


def boxes(lam):
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield (i, j)


class BoxWeights:
    """weights(lam, mu) = the weights e2 p + e1 q of the boxes of N_{lam mu}.

    The factor at a box is a + weight in 4d and 1 - c t^{u + weight} in 5d.
    A lam-box has offsets p = -(arm_mu + 1), q = leg_lam; a mu-box has
    p = arm_lam, q = -(leg_mu + 1).  lam-boxes come first, row by row.  At
    box (i, j) the arm against nu is nu_i - j and the leg nu'_j - i, with
    nu' the conjugate and rows past the end of nu empty.

    Integer e1, e2 (the ``integral`` case) give int weights.  Each
    diagram's conjugate is kept as long as the object, never a pair's
    weights.
    """

    def __init__(self, e1, e2):
        self.integral = e1.denominator == 1 and e2.denominator == 1
        self.e1, self.e2 = (int(e1), int(e2)) if self.integral else (e1, e2)
        self.conjugates = {}

    def __call__(self, lam, mu):
        e1, e2 = self.e1, self.e2
        conj = self.conjugates
        lam_c = conj.get(lam) or conj.setdefault(lam, conjugate(lam))
        mu_c = conj.get(mu) or conj.setdefault(mu, conjugate(mu))
        lam_rows = lam + (0,) * (len(mu) - len(lam))
        mu_rows = mu + (0,) * (len(lam) - len(mu))
        # 0-based rows i and columns j: box (i + 1, j + 1)
        out = [e2 * (j - m) + e1 * (lam_c[j] - i - 1)
               for i, (r, m) in enumerate(zip(lam, mu_rows)) for j in range(r)]
        out += [e2 * (l - j - 1) + e1 * (i - mu_c[j])
                for i, (r, l) in enumerate(zip(mu, lam_rows)) for j in range(r)]
        return out


def _box_of(lam, mu, k):
    """The k-th box of N_{lam mu} in BoxWeights order."""
    return (list(boxes(lam)) + list(boxes(mu)))[k]


def mul_factors_4d(acc: int, lam, mu, weights: BoxWeights, A: int) -> int:
    """acc times the integer numerators A + weight of N_{lam mu}.

    With L a common denominator of (a, e1, e2), A = a L and weights made
    from (e1 L, e2 L), the 4d pair factor is the product over L^{#boxes}.
    """
    for k, w in enumerate(weights(lam, mu)):
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
        self.cr, self.ci, self.cd = coef.a, coef.b, coef.d
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
    ws = weights(lam, mu)
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
    return GaussianRational.from_ints(re, im, den)


def cs_exponent(lam, m: int, u_texp: Frac, E1: Frac, E2: Frac) -> Frac:
    """The t-exponent of T_lam(u)^m (q1 q2)^{-m|lam|/2}, where
    T_lam = prod over boxes (i, j) of u^-1 q1^{1-i} q2^{1-j}, u = t^{u_texp}
    and q_i = t^{E_i}."""
    if not (0 <= m <= 2):
        raise ValueError("Chern-Simons level must be 0, 1 or 2")
    if m == 0 or not lam:
        return Frac(0)
    size = sum(lam)
    s1 = sum(1 - i for i, _ in boxes(lam))
    s2 = sum(1 - j for _, j in boxes(lam))
    return m * (-size * u_texp + E1 * s1 + E2 * s2) - Frac(m * size, 2) * (E1 + E2)


# ---------------------------------------------------------------------------
# the pair-sum kernel
# ---------------------------------------------------------------------------


class Vanished:
    """A diagram whose own factors raise: the exception met ahead of the
    pair factors (before), or the one met after them (after)."""

    __slots__ = ("before", "after")

    def __init__(self, before, after):
        self.before, self.after = before, after


def attempt(f, *args):
    """f(*args), or the ZeroFactor or ValueError it raises."""
    try:
        return f(*args)
    except (ZeroFactor, ValueError) as exc:
        return exc


def diagram_entry(key, before, after):
    """One diagram's entry in a pair_sum table.

    before and after list the diagram's own factors, as triples (re, im,
    den) or as the exceptions their attempts returned, in the order the
    box-by-box product meets them ahead of and after the pair factors.  The
    entry is (key, re, im, den) for their product, or a Vanished holding
    the first exception.
    """
    for k, factors in enumerate((before, after)):
        for x in factors:
            if isinstance(x, Exception):
                return Vanished(x, None) if k == 0 else Vanished(None, x)
    re, im, den = 1, 0, 1
    for fr, fi, fd in before + after:
        re, im = re * fr - im * fi, re * fi + im * fr
        den *= fd
    return key, re, im, den


def diagram_tables(parts, entries):
    """The first- and second-diagram tables of pair_sum over every diagram
    of a partition_table: entries(lam) is lam's pair of entries."""
    first, second = {}, {}
    for row in parts:
        for lam in row:
            first[lam], second[lam] = entries(lam)
    return first, second


def pair_sum(d: int, parts, first, second, factor):
    """Sums over the pairs (lam1, lam2) of total size d of
    first[lam1] * second[lam2] / (N_{lam1 lam2} N_{lam2 lam1}), by key.

    first and second map each diagram of parts to (key, re, im, den), for
    the value (re + im i) / den, or to a Vanished.  factor(acc, lam, mu, s)
    is the triple acc times N_{lam mu}, with s = 1 for the first pair factor
    and -1 for the second; pair factors must be real.  Returns
    {key1 + key2: [re, im]} as Fractions.  A pair with a Vanished diagram
    raises what the box-by-box product meets first.
    """
    one = (1, 0, 1)
    sums = {}
    for lam1, lam2 in enumerate_pairs(d, parts):
        x, y = first[lam1], second[lam2]
        if x.__class__ is Vanished or y.__class__ is Vanished:
            _raise_first(x, y, lam1, lam2, factor)
        k1, r1, i1, n1 = x
        k2, r2, i2, n2 = y
        nr, _, nd = factor(factor(one, lam1, lam2, 1), lam2, lam1, -1)
        den = n1 * n2 * nr
        acc = sums.get(k1 + k2)
        if acc is None:
            acc = sums[k1 + k2] = [Frac(0), Frac(0)]
        acc[0] += Frac((r1 * r2 - i1 * i2) * nd, den)
        if i1 or i2:
            acc[1] += Frac((r1 * i2 + i1 * r2) * nd, den)
    return sums


def _raise_first(x, y, lam1, lam2, factor):
    """Raise what the box-by-box product of a pair meets first: lam1's then
    lam2's own factors ahead of the pair factors, N_{lam1 lam2}, lam1's
    after them, N_{lam2 lam1}, lam2's after them."""
    b1, a1 = (x.before, x.after) if x.__class__ is Vanished else (None, None)
    b2, a2 = (y.before, y.after) if y.__class__ is Vanished else (None, None)
    for exc in (b1, b2):
        if exc is not None:
            raise exc
    acc = factor((1, 0, 1), lam1, lam2, 1)
    if a1 is not None:
        raise a1
    factor(acc, lam2, lam1, -1)
    raise a2
