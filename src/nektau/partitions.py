"""Young-diagram combinatorics, per-box instanton weight factors and the
pair-sum kernel of the instanton sums.

Partitions are tuples of weakly decreasing positive integers.  Arm/leg
lengths are evaluated with the conjugate-profile rule and may be negative
(boxes of one diagram measured against another diagram's profile).

A box of N_{lam mu}(u) of weight w gives one factor, table[u + w]: A + w in
4d (a LinearTable) and 1 - c t^{u + w} in 5d (a BinomialTable), each an
integer triple (re, im, den) made on first use.  mul_factors forms such a
product box by box and raises at its first vanishing factor.

An instanton coefficient sums over pairs of diagrams.  pair_sum reads each
diagram's own factors from tables made once per series, each entry on first
use, and forms per pair only its pair factor N_{lam1 lam2}(u) N_{lam2 lam1}(-u).
Each box of N_{lam2 lam1}(-u) has the weight -w - (e1 + e2), where w is the
weight of the same box in N_{lam1 lam2}(u), so pair_route forms that real
product in one pass over one BoxWeights list, a box's two factors read from
the kernel's own table at u + w and -u - w - (e1 + e2).  A vanishing
product, or non-integral weights or u, takes the box-by-box route of two
factor calls, which raises what that product meets first.  The terms of
one key are summed as integer triples (re, im, den), merged pairwise in a
balanced tree, and made into one Fraction per key at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import GaussianRational
from .symbols import ZeroFactor

Frac = Fraction
_ONE = (1, 0, 1)


def partition_table(n: int):
    """parts[k] = all partitions of k as sorted tuples, lexicographically
    descending, for every k <= n."""
    parts = [((),)]
    for k in range(1, n + 1):
        parts.append(tuple((p,) + rest for p in range(k, 0, -1)
                           for rest in parts[k - p] if not rest or rest[0] <= p))
    return parts


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


class LinearTable(dict):
    """Exponent e -> the 4d factor e as an integer triple (e, 0, 1), the
    4d counterpart of BinomialTable; dim names the dimension in a
    ZeroFactor's message.  Entries are made on first use and live as long
    as the table."""

    dim = "4d"

    def __missing__(self, e: int):
        val = self[e] = (e, 0, 1)
        return val


class BinomialTable(dict):
    """Exponent e -> (1 - c t^e) as an integer triple (re, im, den).

    The triple stands for (re + im i) / den: with c = (cr + ci i) / cd and
    t^e = n / d in lowest terms, re = cd d - cr n, im = -ci n, den = cd d.
    Entries are made on first use and live as long as the table.
    """

    dim = "5d"

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


def mul_factors(acc, lam, mu, weights: BoxWeights, table, u_texp):
    """acc times the factors table[u_texp + weight] of N_{lam mu}: A + weight
    in 4d (table a LinearTable, u_texp = A an int) and (1 - c t^{u_texp +
    weight}) in 5d (a BinomialTable of coefficient c and base t).

    acc and the result are triples (re, im, den) for (re + im i) / den.
    Every exponent must be an integer: with integral weights that holds
    exactly when u_texp is one.
    """
    return mul_binomials(acc, lam, mu, weights(lam, mu), weights.integral,
                         table, u_texp)


def mul_binomials(acc, lam, mu, ws, integral: bool, table, u_texp):
    """mul_factors on the weights ws of N_{lam mu}, made once by the
    caller; integral: whether the BoxWeights that made them is.  Exponents
    are made box by box, so a vanishing factor raises ahead of a later
    non-integer exponent."""
    re, im, den = acc
    if integral and u_texp.denominator == 1:
        u, exps = int(u_texp), ws
    else:
        u, exps = 0, (_integer_exponent(u_texp + w) for w in ws)
    for x in exps:
        fr, fi, fd = table[u + x]
        if not (fi or im) and fr:
            re *= fr
        elif fr or fi:
            re, im = re * fr - im * fi, re * fi + im * fr
        else:
            # the first box of this exponent: an earlier one would have raised
            k = ws.index(u + x - u_texp)
            raise ZeroFactor(f"{table.dim} factor vanished at box "
                             f"{_box_of(lam, mu, k)} of {lam}/{mu}")
        den *= fd
    return re, im, den


def n_factor_4d(lam, mu, a: Frac, e1: Frac, e2: Frac) -> Frac:
    """Pair factor: prod over lam-boxes of (a - e2(arm_mu+1) + e1 leg_lam)
    times prod over mu-boxes of (a + e2 arm_lam - e1(leg_mu+1)).

    With L a common denominator of (a, e1, e2), each factor is the integer
    a L + weight, for weights made from (e1 L, e2 L), over L.
    """
    L = lcm(a.denominator, e1.denominator, e2.denominator)
    num, _, _ = mul_factors(_ONE, lam, mu, BoxWeights(e1 * L, e2 * L), LinearTable(),
                            int(a * L))
    return Frac(num, L ** (sum(lam) + sum(mu)))


def n_factor_5d(lam, mu, u_coef: GaussianRational, u_texp: Frac,
                E1: Frac, E2: Frac, t: Frac) -> GaussianRational:
    """Pair factor: prod (1 - u q2^{-arm_mu-1} q1^{leg_lam}) * prod over mu.

    The multiplicative argument is u = u_coef * t^{u_texp}; q_i = t^{E_i}.
    All exponents must land on integers (enforced), so the result is an
    exact Gaussian rational.
    """
    re, im, den = mul_factors(
        _ONE, lam, mu, BoxWeights(E1, E2),
        BinomialTable(GaussianRational.coerce(u_coef), t), u_texp)
    return GaussianRational.from_ints(re, im, den)


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


class _Lazy(dict):
    """key -> make(key), made on first use."""

    __slots__ = ("make",)

    def __missing__(self, key):
        val = self[key] = self.make(key)
        return val


def diagram_tables(entries):
    """The first- and second-diagram tables of pair_sum: entries(lam) is
    lam's pair of entries, made on first use of either side and kept as
    long as the tables."""
    both, first, second = _Lazy(), _Lazy(), _Lazy()
    both.make = entries
    first.make = lambda lam: both[lam][0]
    second.make = lambda lam: both[lam][1]
    return first, second


def pair_route(weights: BoxWeights, u, table, factor):
    """The pair factor N_{lam1 lam2}(u) N_{lam2 lam1}(-u) as (num, den): the
    product over the boxes of weights(lam1, lam2) of a box's two factors,
    table[u + w] in the first and table[-u - w - S] in the second (S = e1 +
    e2 of weights), kept here as (num, den) under w so a box costs one
    lookup.  table is the kernel's own real table of box factors, a
    LinearTable or a BinomialTable of coefficient 1.  Non-integral weights
    or u, or a zero product, take the box-by-box route of two factor calls
    (see pair_sum), which raises what that product meets first."""

    def box_by_box(lam1, lam2):
        num, _, den = factor(factor(_ONE, lam1, lam2, 1), lam2, lam1, -1)
        return num, den

    if not weights.integral or u.denominator != 1:
        return box_by_box
    u, S = int(u), weights.e1 + weights.e2

    def make(w):
        n1, _, d1 = table[u + w]
        n2, _, d2 = table[-u - w - S]
        return n1 * n2, d1 * d2

    by_weight = _Lazy()
    by_weight.make = make
    get = by_weight.__getitem__

    def pair(lam1, lam2):
        num = den = 1
        for n, d in map(get, weights(lam1, lam2)):
            num *= n
            den *= d
        if not num:
            return box_by_box(lam1, lam2)
        return num, den

    return pair


def _add(x, y):
    """The sum of two triples (re, im, den) over the lcm of their
    denominators, with one gcd."""
    a, b, m = x
    c, e, n = y
    if m == n:
        return a + c, b + e, m
    g = gcd(m, n)
    if g == 1:
        return a * n + c * m, (b * n + e * m if b or e else 0), m * n
    mg, ng = m // g, n // g
    return a * ng + c * mg, (b * ng + e * mg if b or e else 0), m * ng


def _push(stack, term):
    """Add term to a balanced binary counter: the top two partial sums are
    merged while they hold equally many terms."""
    n = 1
    while stack and stack[-1][0] == n:
        m, other = stack.pop()
        term, n = _add(other, term), n + m
    stack.append((n, term))


def _total(stack):
    """The sum of a counter's partial sums."""
    total = stack.pop()[1]
    while stack:
        total = _add(stack.pop()[1], total)
    return total


def pair_sum(d: int, parts, first, second, factor, pair):
    """Sums over the pairs (lam1, lam2) of total size d of
    first[lam1] * second[lam2] / (N_{lam1 lam2} N_{lam2 lam1}), by key.

    first and second map each diagram of parts to (key, re, im, den), for
    the value (re + im i) / den, or to a Vanished.  pair(lam1, lam2) is the
    real pair factor as (num, den), a pair_route; factor(acc, lam, mu, s),
    the box-by-box route, is the triple acc times N_{lam mu}, with s = 1
    for the first pair factor and -1 for the second.

    The terms are integer triples, merged in balanced binary counters (one
    gcd per merge, so about log2 of the terms stay alive): those of one
    lam1 by key2 first, each total then times first[lam1] by key1 + key2.
    Returns {key1 + key2: [re, im]}, one Fraction each, in the order the
    pairs first meet the keys.  A pair with a Vanished diagram raises what
    the box-by-box product meets first.
    """
    stacks = {}  # key -> counter of the terms
    for d1 in range(d + 1):
        for lam1 in parts[d1]:
            x = first[lam1]
            groups = {}  # key2 -> counter of lam1's terms without first[lam1]
            for lam2 in parts[d - d1]:
                y = second[lam2]
                if x.__class__ is Vanished or y.__class__ is Vanished:
                    _raise_first(x, y, lam1, lam2, factor)
                k2, r2, i2, n2 = y
                nr, nd = pair(lam1, lam2)
                stack = groups.get(k2)
                if stack is None:
                    stack = groups[k2] = []
                _push(stack, (r2 * nd, i2 * nd, n2 * nr))
            k1, r1, i1, n1 = x
            for k2, stack in groups.items():
                re, im, den = _total(stack)
                stack = stacks.get(k1 + k2)
                if stack is None:
                    stack = stacks[k1 + k2] = []
                _push(stack, (r1 * re - i1 * im, r1 * im + i1 * re, n1 * den))
    sums = {}
    for key, stack in stacks.items():
        re, im, den = _total(stack)
        sums[key] = [Frac(re, den), Frac(im, den)]
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
    acc = factor(_ONE, lam1, lam2, 1)
    if a1 is not None:
        raise a1
    factor(acc, lam2, lam1, -1)
    raise a2
