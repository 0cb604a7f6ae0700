"""Truncated Puiseux series with exact SymExpr coefficients.

A PuiseuxSeries stores its terms on one integer exponent lattice: a positive
int L and a map {int X: SymExpr} (`xterms`), the term at X being the
coefficient of z^(X/L), plus an inclusive truncation bound `trunc` (a
Fraction): every exponent <= trunc with a nonzero coefficient is present and
exact; nothing is claimed above trunc.  All operations track the bound
conservatively.  L need not be least: two series are equal when their terms
agree on the lcm of their lattices.  `coeffs` is a read-only
{Fraction exponent: SymExpr} view, built on demand; `on_lattice` is the
trusted constructor that the kernels here use, and no other module reads
or writes xterms or L.  Every operation works on the ints, and cuts a
lattice at a bound b by floor(b L).

The convolution, the recurrence, the theta pass and the product of
binomials (`binomial_product`, one shift and subtract of a dense row per
binomial) make one object per output coefficient and none per intermediate
term: each sums Gaussian-integer numerators over one lcm denominator and
reduces each output coefficient once (`from_ints`).  One kernel
(`sector_product`) multiplies both Puiseux series, as the single sector 0,
and Fourier series: it finds the product's bounds on ints, then splits each
sector by monomial into numerators over one denominator per monomial, at
integer exponents on (1/L)Z, and convolves them (`_convolve`), so a product
costs one mono_mul per pair of monomials.  Inverses (`sector_inverse`,
sector 0 for a Puiseux series) and exp solve one recurrence
(`solve_recurrence`) on the same integer terms.
Every theta-weighted bilinear form of a pair (f, g) (`theta_products`,
`weighted_theta_expand`, `hirota`) is a theta-combination of the basis
products B_j = theta^j f * g, since x^a y^b = x^a ((x + y) - x)^b, made in
one integer pass over the B_j (theta weighs the term at X by X/L); a
caller may keep the B_j of a pair across calls (`memo=`), so that forms of
one pair share them.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd, lcm
from operator import itemgetter
from types import MappingProxyType

from .rationals import GaussianRational
from .symbols import (MONO_ONE, _ONE, NonInvertible, SymExpr, _expr, _frac, mono_mul,
                      rational_power)

Frac = Fraction
ZERO = Frac(0)
HALF = Frac(1, 2)
from_ints = GaussianRational.from_ints


class PuiseuxSeries:
    __slots__ = ("L", "xterms", "trunc")

    def __init__(self, coeffs, trunc):
        """The series of coeffs {exponent: coefficient}, known through trunc;
        zero coefficients and terms above trunc are dropped."""
        trunc = _frac(trunc)
        kept = []
        for e, c in coeffs.items():
            c = SymExpr.coerce(c)
            if c and e <= trunc:
                kept.append((_frac(e), c))
        L = lcm(*(e.denominator for e, _ in kept))
        _set_L(self, L)
        _set_xterms(self, {e.numerator * (L // e.denominator): c for e, c in kept})
        _set_trunc(self, trunc)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc):
        return PuiseuxSeries({}, trunc)

    @staticmethod
    def one(trunc):
        return PuiseuxSeries({Frac(0): SymExpr.one()}, trunc)

    @staticmethod
    def monomial(e, coeff, trunc):
        return PuiseuxSeries({_frac(e): SymExpr.coerce(coeff)}, trunc)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self):
        """{exponent: coefficient}, a read-only view made on each call."""
        L = self.L
        return MappingProxyType({Frac(X, L): c for X, c in self.xterms.items()})

    def is_zero(self):
        return not self.xterms

    def min_exp(self):
        """Smallest stored exponent; for the zero series the bound itself
        (the valuation is then known only to exceed trunc)."""
        return Frac(min(self.xterms), self.L) if self.xterms else self.trunc

    def coeff(self, e) -> SymExpr:
        e = _frac(e)
        X, r = divmod(e.numerator * self.L, e.denominator)
        return SymExpr.zero() if r else self.xterms.get(X, SymExpr.zero())

    def items(self):
        L, xterms = self.L, self.xterms
        return [(Frac(X, L), xterms[X]) for X in sorted(xterms)]

    def truncate(self, E):
        E = _frac(E)
        if E >= self.trunc:
            return on_lattice(self.L, self.xterms, self.trunc)
        return _with_bound(self, E)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = PuiseuxSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        trunc = min(self.trunc, other.trunc)
        L = lcm(self.L, other.L)
        top = _top(trunc, L)
        out = dict(_terms(self, L, top))
        for X, c in _terms(other, L, top):
            n = out.get(X)
            n = c if n is None else n + c
            if n:
                out[X] = n
            else:
                out.pop(X, None)
        return on_lattice(L, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return on_lattice(self.L, {X: -c for X, c in self.xterms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = PuiseuxSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        return self + (-other)

    def scale(self, c):
        c = SymExpr.coerce(c)
        return on_lattice(self.L, _nonzero((X, cc * c) for X, cc in self.xterms.items()),
                          self.trunc)

    def shift(self, de):
        """Multiply by z^de (exact monomial shift; bound shifts too)."""
        de = _frac(de)
        L = lcm(self.L, de.denominator)
        m, dX = L // self.L, de.numerator * (L // de.denominator)
        return on_lattice(L, {X * m + dX: c for X, c in self.xterms.items()},
                          self.trunc + de)

    def __mul__(self, other):
        """The product: sector 0 of `sector_product`, which finds its bound."""
        if other.__class__ is not PuiseuxSeries:
            if isinstance(other, (int, Frac, SymExpr)):
                return self.scale(other)
            return NotImplemented
        return sector_product(self, other)[1][ZERO]

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def theta(self):
        """Logarithmic derivative z d/dz: acts on the FULL exponent."""
        L = self.L
        return on_lattice(L, {X: c * from_ints(X, 0, L)
                              for X, c in self.xterms.items() if X}, self.trunc)

    def dilate(self, q_exp, sample):
        """z -> q^{q_exp} z with q = t^{dq}: coefficient at z^e gains t^{dq*q_exp*e}."""
        return self.dilate_t(sample.t, sample.dq * _frac(q_exp))

    def dilate_t(self, t, texp):
        """z -> t^texp z: the coefficient at z^e gains t^{texp*e}.  With
        texp = p/q the term at X gains t^k t^(r/(q L)) for (k, r) =
        divmod(p X, q L): the Fraction t^k alone at r = 0, else times one
        rational_power per residue r."""
        texp = _frac(texp)
        if not texp:
            return self
        t = _frac(t)
        p, m = texp.numerator, texp.denominator * self.L
        roots = {}

        def power(X):
            k, r = divmod(p * X, m)
            if not r:
                return t ** k
            root = roots.get(r)
            if root is None:
                root = roots[r] = rational_power(t, Frac(r, m))
            return root * t ** k if k else root

        return on_lattice(self.L, _nonzero((X, c * power(X)) for X, c in self.xterms.items()),
                          self.trunc)

    def exp(self):
        """exp(series); requires strictly positive exponents.

        b = exp f satisfies theta(b) = b * theta(f), so b_0 = 1 and
        n b_n = sum_{x in supp f, x <= n} x f_x b_{n-x}
        (Brent-Kung, "Fast algorithms for manipulating formal power
        series", JACM 1978; Knuth, TAOCP vol. 2, 4.7), solved by
        `solve_recurrence` over the exponents of f.
        """
        L = self.L
        if any(X <= 0 for X in self.xterms):
            raise NonInvertible("exp needs strictly positive exponents")
        steps = {(X, 0): c * from_ints(X, 0, L) for X, c in self.xterms.items()}
        b = solve_recurrence(steps, _top(self.trunc, L), divide=L)
        return on_lattice(L, {n: c for (n, _), c in b.items()}, self.trunc)

    def inverse(self):
        """1/series for a series whose leading coefficient is invertible:
        `sector_inverse` on the single sector 0, led by its least term."""
        if not self.xterms:
            raise ZeroDivisionError("inverse of zero series")
        X0 = min(self.xterms)
        return sector_inverse({ZERO: self}, ZERO, Frac(X0, self.L), self.xterms[X0],
                              self.trunc)[1][ZERO]

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if self.trunc != other.trunc or len(self.xterms) != len(other.xterms):
            return False
        L = lcm(self.L, other.L)
        top = _top(self.trunc, L)
        return dict(_terms(self, L, top)) == dict(_terms(other, L, top))

    def __repr__(self):
        bits = [f"z^({e})*[{c.render()}]" for e, c in self.items()]
        body = " + ".join(bits) if bits else "0"
        return f"<PS {body} + O(z^>{self.trunc})>"

    def dump(self):
        """JSON-ready list of {exponent: [num, den], coefficient: str}."""
        return [
            {"exponent": [e.numerator, e.denominator], "coefficient": c.render()}
            for e, c in self.items()
        ]


_set_L = PuiseuxSeries.L.__set__
_set_xterms = PuiseuxSeries.xterms.__set__
_set_trunc = PuiseuxSeries.trunc.__set__


def on_lattice(L, xterms, trunc):
    """The series with terms {X: c} at exponents X/L, known through trunc,
    taken as given: L is a positive int, trunc a Fraction, and every c is a
    nonzero SymExpr with X/L <= trunc."""
    p = object.__new__(PuiseuxSeries)
    _set_L(p, L)
    _set_xterms(p, xterms)
    _set_trunc(p, trunc)
    return p


def _top(b, L):
    """floor(b L): the largest X with X/L <= b, for a Fraction b."""
    return b.numerator * L // b.denominator


def _terms(p, L, top):
    """The terms (X, c) of p on the lattice (1/L)Z, L a multiple of p.L,
    with X <= top."""
    m = L // p.L
    return ((X * m, c) for X, c in p.xterms.items() if X * m <= top)


def _nonzero(terms):
    """{X: c} of the terms (X, c) with c nonzero."""
    return {X: c for X, c in terms if c}


def _with_bound(p, b):
    """p known through b: its terms at exponents <= b, with bound b."""
    top = _top(b, p.L)
    return on_lattice(p.L, {X: c for X, c in p.xterms.items() if X <= top}, b)


def sector_product(f, g):
    """(bound, sectors) of f * g, f and g each a PuiseuxSeries (the single
    sector 0) or a FourierSeries.

    Sector s of the product is the sum of p * q over the sector pairs
    (k1: p, k2: q) with k1 + k2 = s.  The bounds are those of
    `_product_bounds` at a = b = 0, found on ints (`_int_bounds`) and made
    Fractions once per output sector.  Each sector is split once by
    monomial (`_split`) on (1/L)Z, L the lcm of the lattices of both
    operands, and the pairs of each output sector are convolved together
    (`_convolve`).
    """
    fs, gs = _sectors(f), _sectors(g)
    T, M, top, bounds = _int_bounds(f, g)
    L = lcm(*(p.L for hs in (fs, gs) for p in hs.values()))
    g_split = [(_top(k, M), _split(q, L)) for k, q in gs.items()]
    pairs = {S: [] for S in bounds}
    for k, p in fs.items():
        K1, split1 = _top(k, M), _split(p, L)
        for K2, split2 in g_split:
            pairs[K1 + K2].append((split1, split2))
    step = T // L
    return Frac(top, T), {Frac(S, M): on_lattice(L, _convolve(pairs[S], B // step), Frac(B, T))
                          for S, B in bounds.items()}


def _convolve(pairs, top):
    """{X: SymExpr} of the sum of f * g over the pairs (f, g) of `_split`s
    on one lattice, through X <= top.  A pair of monomials costs one
    mono_mul; its rows are convolved in increasing X, stopping past top,
    and the sums of one output monomial are put over one denominator."""
    groups = {}  # monomial -> [(cofactor numerator, denominator, rows, rows)]
    for split1, split2 in pairs:
        for m1, (d1, *rows1) in split1.items():
            for m2, (d2, *rows2) in split2.items():
                if rows1[0][0] + rows2[0][0] <= top:
                    mono, cof = mono_mul(m1, m2)
                    groups.setdefault(mono, []).append(
                        (cof.numerator, cof.denominator * d1 * d2, rows1, rows2))
    by_X = {}  # X -> monomial -> coefficient
    for mono, group in groups.items():
        den = lcm(*(pair_den for _, pair_den, _, _ in group))
        acc = {}  # X -> [re, im] over den
        for n, pair_den, rows1, rows2 in group:
            w = n * (den // pair_den)
            low = rows2[0][0]
            for X1, a, b in zip(*rows1):
                if X1 + low > top:
                    break
                if w != 1:
                    a, b = a * w, b * w
                for X2, c, d in zip(*rows2):
                    X = X1 + X2
                    if X > top:
                        break
                    t = acc.get(X)
                    if t is None:
                        acc[X] = [a * c - b * d, a * d + b * c]
                    else:
                        t[0] += a * c - b * d
                        t[1] += a * d + b * c
        for X, (re, im) in acc.items():
            if re or im:
                by_X.setdefault(X, {})[mono] = from_ints(re, im, den)
    return {X: _expr(terms) for X, terms in by_X.items()}


def binomial_product(factors, L, trunc):
    """The product of the binomials 1 - c z^(X/L) over the factors (X, c),
    X an int of either sign and c a SymExpr, through trunc, on (1/L)Z.

    The product is kept as dense rows of Gaussian integers, one row
    (den, re, im) per monomial over one denominator, at X from the sum of
    the negative X through max(floor(trunc L), 0).  The factors are taken
    in increasing X, so a term above that top never comes back down.  A
    factor adds to the rows each row shifted by X times -c, one shift and
    subtract per monomial pair (for c on the unit monomial, one per row).
    A row is then divided by the gcd of its denominator and its entries:
    it stays over the least common denominator of its entries, which the
    product of the factors' denominators far exceeds once terms are cut
    above the top.  Each output coefficient is reduced once (`from_ints`)."""
    top = _top(trunc, L)
    low = sum(X for X, _ in factors if X < 0)
    n = max(top, 0) - low + 1
    zeros = [0] * n
    rows = {MONO_ONE: (1, zeros[:-low] + [1] + zeros[1 - low:], zeros)}
    for X, c in sorted(factors, key=itemgetter(0)):
        pad = zeros[:abs(X)]
        if X > 0:
            shifted = [(m, d, (pad + re)[:n], (pad + im)[:n]) for m, (d, re, im) in rows.items()]
        else:
            shifted = [(m, d, (re + pad)[-X:], (im + pad)[-X:]) for m, (d, re, im) in rows.items()]
        out = dict(rows)
        for mc, v in c.terms.items():
            for m, d, sre, sim in shifted:
                mono, cof = mono_mul(mc, m)
                d2 = d * v.d * cof.denominator
                D, tre, tim = out.get(mono, (d2, zeros, zeros))
                den = lcm(D, d2)
                u, w = den // D, den // d2
                p, q = -w * v.a * cof.numerator, -w * v.b * cof.numerator
                out[mono] = (den, [u * x + p * y - q * z for x, y, z in zip(tre, sre, sim)],
                             [u * x + p * z + q * y for x, y, z in zip(tim, sre, sim)])
        for m, (d, re, im) in out.items():
            g = gcd(d, *re, *im) if d > 1 else 1
            if g > 1:
                out[m] = (d // g, [x // g for x in re], [y // g for y in im])
        rows = out
    xterms = {}
    for i in range(top - low + 1):
        terms = {m: from_ints(re[i], im[i], d) for m, (d, re, im) in rows.items()
                 if re[i] or im[i]}
        if terms:
            xterms[low + i] = _expr(terms)
    return on_lattice(L, xterms, trunc)


def sector_inverse(hs, k0, e0, c0, trunc):
    """(bound, sectors) of 1/h, h the {sector: PuiseuxSeries} map hs known
    through trunc, with leading term c0 s^{k0} z^{e0} and every other term
    above z^{e0}; the bound is trunc - 2 e0.  With h = c0 s^{k0} z^{e0}
    (1 + R), 1/(1 + R) = sum b_n, b_0 = 1, b_n = -sum_{x in supp R, x <= n}
    R_x b_{n-x} (Brent-Kung, JACM 1978), solved over (exponent, sector)
    keys as ints on (1/L)Z and (1/M)Z, L and M the lcms of the sectors'
    lattices and of their labels' denominators."""
    c0_inv = c0.inverse()
    minus_c0_inv = -c0_inv
    rel_trunc = trunc - e0
    L = lcm(*(p.L for p in hs.values()))
    M = lcm(*(k.denominator for k in hs))
    X0, K0 = _top(e0, L), _top(k0, M)  # exact: e0 and k0 lie on the lattices
    steps = {}
    for k, p in hs.items():
        K, step = _top(k, M), L // p.L
        for X, c in p.xterms.items():
            X *= step
            if not (K == K0 and X == X0):
                steps[(X - X0, K - K0)] = c * minus_c0_inv
    if any(X <= 0 for X, _ in steps):
        raise NonInvertible("non-leading term at the leading exponent")
    out = {}
    for (n, K), c in solve_recurrence(steps, _top(rel_trunc, L)).items():
        if c := c * c0_inv:
            out.setdefault(K - K0, {})[n - X0] = c
    bound = rel_trunc - e0
    return bound, {Frac(K, M): on_lattice(L, xterms, bound) for K, xterms in out.items()}


def _split(f, L):
    """{monomial: (D, Xs, res, ims)}: the terms of f with that monomial as
    Gaussian integers (re + i im)/D, at integer exponents X on (1/L)Z, L a
    multiple of f.L, in increasing X (parallel lists, so no tuple per
    term).  D is the lcm of the terms' denominators d, and each term
    (a + b i)/d gives re = a D/d, im = b D/d."""
    step = L // f.L
    rows = {}
    for X, c in sorted(f.xterms.items()):
        X *= step
        for m, v in c.terms.items():
            r = rows.get(m)
            if r is None:
                r = rows[m] = ([], [], [], [])
            r[0].append(X)
            r[1].append(v.a)
            r[2].append(v.b)
            r[3].append(v.d)
    out = {}
    for m, (Xs, res, ims, ds) in rows.items():
        D = lcm(*ds)
        out[m] = (D, Xs, [a * (D // d) for a, d in zip(res, ds)],
                  [b * (D // d) for b, d in zip(ims, ds)])
    return out


def solve_recurrence(steps, top, divide=0):
    """Coefficients of the series b with b_0 = 1 and, for n > 0,

        b_n = w_n * sum_{x in steps, x <= n} s_x b_{n-x},

    where w_n = 1/n (the exponent of n) if divide, else 1.

    Keys are (X, K) pairs of ints, an exponent X/L and a sector label, and
    add componentwise; every step key needs X > 0.  The keys n run over
    the additive closure of the step keys and (0, 0) with X <= top, popped from a heap
    in increasing order, so each b_{n-x} is known before b_n; no dense grid
    is formed.  divide is the exponent lattice's L, so that 1/n = L/X, or
    0 for w_n = 1.  A key is pushed only from a nonzero coefficient, which
    reaches every nonzero b_n.  Returns {key: b_n} for the nonzero b_n.

    The steps are read once into Gaussian-integer terms (a + b i)/d, one
    per monomial, and the products that make b_n are summed per monomial
    as integer triples over the lcm of their denominators.
    """
    step_terms = sorted(((x, m, v.a, v.b, v.d) for x, s in steps.items()
                         for m, v in s.terms.items()), key=itemgetter(0))
    root = (0, 0)
    b = {}
    heap = [root] if top >= 0 else []
    seen = {root}
    while heap:
        n = heapq.heappop(heap)
        ne, nk = n
        if n == root:
            c = SymExpr.one()
        else:
            acc = {}  # monomial -> [re, im, den]
            for (xe, xk), m1, sa, sb, sd in step_terms:
                if xe > ne:
                    break
                prev = b.get((ne - xe, nk - xk))
                if prev is None:
                    continue
                for m2, v in prev.terms.items():
                    mono, cof = mono_mul(m1, m2)
                    re, im, den = sa * v.a - sb * v.b, sa * v.b + sb * v.a, sd * v.d
                    if cof is not _ONE:
                        re, im, den = re * cof.numerator, im * cof.numerator, den * cof.denominator
                    t = acc.get(mono)
                    if t is None:
                        acc[mono] = [re, im, den]
                    elif t[2] == den:
                        t[0] += re
                        t[1] += im
                    else:
                        D = lcm(t[2], den)
                        u, w = D // t[2], D // den
                        acc[mono] = [t[0] * u + re * w, t[1] * u + im * w, D]
            w, n_den = (divide, ne) if divide else (1, 1)
            out = {m: from_ints(re * w, im * w, den * n_den)
                   for m, (re, im, den) in acc.items() if re or im}
            if not out:
                continue
            c = _expr(out)
        b[n] = c
        for xe, xk in steps:
            m = (ne + xe, nk + xk)
            if m[0] <= top and m not in seen:
                seen.add(m)
                heapq.heappush(heap, m)
    return b


def theta_products(f, g, polys, *, memo=None):
    """sum c theta^a f * theta^b g over {(a, b): c}, c rational, for each
    poly of polys.

    Since x^a y^b = x^a ((x + y) - x)^b and theta acts on a product as
    x + y, each form is a theta-combination of the basis products
    B_j = theta^{alpha+j} f * theta^beta g:

        theta^a f * theta^b g = sum_i C(b', i) (-1)^i theta^{b'-i} B_{a'+i}

    with a' = a - alpha, b' = b - beta: a poly is sum_j W_j(theta) B_j, a
    polynomial W_j per basis product, made in one integer pass over the B_j
    (`_theta_sum`).  (alpha, beta) is the least (a, b) of the poly set, but
    beta is the poly's own least b where g has a z^0 term, which theta
    drops: each B_j is then known at least as far as every product of the
    poly (see `_product_bounds`).  When f is g and alpha = beta, only the
    even B_j are products; an odd one is 2 B_n = sum_{i<n} C(n,i) (-1)^i
    theta^{n-i} B_i, made by the same pass over the B_i, through the least
    bounds of the B_i (`_least_bounds`).

    Each B_j is formed once per call, or once per memo: a dict of the B_j
    of the pair (f, g) that the caller keeps across calls (one
    verification run's, see identities.Context).  Each output is known
    through the bounds of the sum of its full products theta^a f *
    theta^b g, in every sector; an entry with c = 0 still lowers them.  f
    and g may be PuiseuxSeries or FourierSeries.
    """
    basis = {} if memo is None else memo
    thf = [f]
    thg = thf if f is g else [g]

    def power(ths, n):
        while len(ths) <= n:
            ths.append(ths[-1].theta())
        return ths[n]

    def product(alpha, beta, j):
        B = basis.get((alpha, beta, j))
        if B is None:
            if f is g and alpha == beta and j % 2:
                lower = [product(alpha, beta, i) for i in range(j)]
                B = _theta_form(f, [(B_i, {j - i: HALF * comb(j, i) * (-1) ** i})
                                    for i, B_i in enumerate(lower)], *_least_bounds(lower))
            else:
                B = power(thf, alpha + j) * power(thg, beta)
            basis[alpha, beta, j] = B
        return B

    alpha = min(a for poly in polys for a, _ in poly)
    b0 = min(b for poly in polys for _, b in poly)
    outs = []
    for poly in polys:
        a_min = min(a for a, _ in poly)
        b_min = min(b for _, b in poly)
        beta = b0 if b0 or not _has_z0(g) else b_min
        weights = {}  # j -> {m: coefficient of theta^m B_j}
        for (a, b), c in poly.items():
            for i in range(b - beta + 1):
                w = weights.setdefault(a - alpha + i, {})
                m = b - beta - i
                w[m] = w.get(m, 0) + c * comb(b - beta, i) * (-1) ** i
        parts = []
        for j, w in sorted(weights.items()):
            w = {m: c for m, c in w.items() if c}
            if w:
                parts.append((product(alpha, beta, j), w))
        outs.append(_theta_form(f, parts, *_product_bounds(f, g, a_min, b_min)))
    del product  # it refers to itself; free this call's theta powers now
    return outs


def _least_bounds(hs):
    """The bounds of a sum of the series hs: the least bound, and for each
    sector the least bound of the hs that hold it."""
    bounds = {}
    for h in hs:
        for S, p in _sectors(h).items():
            bounds[S] = min(bounds.get(S, p.trunc), p.trunc)
    return min(h.trunc for h in hs), bounds


def _theta_form(like, parts, trunc, bounds):
    """sum W(theta) B over the parts (B, W), known through trunc and
    through bounds[S] in each sector S, as a series of the type of like
    (`_theta_sum`); a sector no B holds is zero through its bound."""
    parts = [(_sectors(B), w) for B, w in parts]
    if isinstance(like, PuiseuxSeries):
        return _theta_sum(parts, {ZERO: trunc})[ZERO]
    return type(like)(_theta_sum(parts, bounds), trunc)


def _theta_sum(parts, bounds):
    """{S: sector S of sum W(theta) B over the parts (B's sectors, W)},
    through bounds[S] for each sector S of bounds: W is {m: c}, the
    polynomial sum c theta^m with rational c.

    Theta is e on the term at z^e, so the term at X/L of an output is
    sum W(X/L) b over the terms b of the B at X/L.  With D the lcm of the
    denominators of all c and M the highest m, D L^M W(X/L) is an integer:
    each output term sums these times Gaussian-integer numerators over one
    denominator, and is reduced once (`from_ints`).  Only the terms at or
    below the bound are formed.
    """
    D = lcm(*(Frac(c).denominator for _, w in parts for c in w.values()))
    M = max((m for _, w in parts for m in w), default=0)
    out = {}
    for S, bound in bounds.items():
        held = [(hs[S], w) for hs, w in parts if S in hs]
        L = lcm(*(p.L for p, _ in held))
        top = _top(bound, L)
        acc = {}  # X -> monomial -> [(re, im, den)]
        for p, w in held:
            w = [(m, int(c * D) * L ** (M - m)) for m, c in w.items()]
            step = L // p.L
            for X, c in p.xterms.items():
                X *= step
                if X > top:
                    continue
                n = sum(k * X ** m for m, k in w)
                if n:
                    by_mono = acc.setdefault(X, {})
                    for m, v in c.terms.items():
                        by_mono.setdefault(m, []).append((n * v.a, n * v.b, v.d))
        scale = D * L ** M
        xterms = {}
        for X, by_mono in acc.items():
            terms = {}
            for m, nums in by_mono.items():
                den = lcm(*(d for _, _, d in nums))
                re = sum(a * (den // d) for a, _, d in nums)
                im = sum(b * (den // d) for _, b, d in nums)
                if re or im:
                    terms[m] = from_ints(re, im, den * scale)
            if terms:
                xterms[X] = _expr(terms)
        out[S] = on_lattice(L, xterms, bound)
    return out


def _sectors(h):
    """{sector: PuiseuxSeries} of h; a PuiseuxSeries is the single sector 0."""
    return {ZERO: h} if isinstance(h, PuiseuxSeries) else h.sectors


def _has_z0(h):
    return any(0 in p.xterms for p in _sectors(h).values())


def _product_bounds(f, g, a, b):
    """The bound of theta^a f * theta^b g and of each of its sectors:
    sector s is known through the least min(p.trunc + v(q), q.trunc + v(p))
    of its sector pairs, capped at min(f.trunc + v(theta^b g), g.trunc +
    v(theta^a f)), v the valuation (the bound, if zero).  At a = b = 0
    these are the bounds of f * g, which `sector_product` gives it; both
    find them on ints (`_int_bounds`).

    Theta keeps bounds and drops z^0 terms only, so the valuations, and
    these bounds, are the same for every a >= 1 (b >= 1) and least at a = 0
    (b = 0): those of a sum over a poly are those at its least a and b.
    Every basis product B_j = theta^{alpha+j} f * theta^beta g that a poly
    of `theta_products` takes is known at least as far: alpha + j >= a_min,
    and beta = b_min, or beta < b_min and theta^beta g has no z^0 term, so
    that its valuations do not grow under theta.  So is an odd B_n formed
    from B_0 when f is g and alpha = beta: either theta^alpha f has no z^0
    term, or b_min = 0 and, as sector s sums both pairs (k1, k2) and
    (k2, k1), the poly's bounds are those at a = b = 0, the bounds of B_0.
    """
    T, M, top, bounds = _int_bounds(f, g, a, b)
    return Frac(top, T), {Frac(S, M): Frac(B, T) for S, B in bounds.items()}


def _int_bounds(f, g, a=0, b=0):
    """(T, M, top, {S: B}): the bounds of `_product_bounds` as ints, top and
    each B on (1/T)Z and each sector S on (1/M)Z; T is the lcm of the
    lattices and bounds' denominators of f, g and their sectors, M that of
    the sectors' denominators."""
    fs, gs = _sectors(f), _sectors(g)
    ps = [*fs.values(), *gs.values()]
    T = lcm(*(p.L for p in ps), *(p.trunc.denominator for p in ps),
            f.trunc.denominator, g.trunc.denominator)
    M = lcm(*(k.denominator for hs in (fs, gs) for k in hs))

    def valuations(hs, drop0):
        # [(k M, p.trunc T, v T)], v the least exponent of p (above 0 if
        # drop0), or p.trunc if it has none
        out = []
        for k, p in hs.items():
            t = _top(p.trunc, T)
            xs = [X for X in p.xterms if X] if drop0 else p.xterms
            out.append((_top(k, M), t, min(xs) * (T // p.L) if xs else t))
        return out

    fv, gv = valuations(fs, a > 0), valuations(gs, b > 0)
    ft, gt = _top(f.trunc, T), _top(g.trunc, T)
    top = min(ft + min((v for _, _, v in gv), default=gt),
              gt + min((v for _, _, v in fv), default=ft))
    bounds = {}
    for K1, t1, v1 in fv:
        for K2, t2, v2 in gv:
            B = min(t1 + v2, t2 + v1, top)
            if B < bounds.get(K1 + K2, B + 1):
                bounds[K1 + K2] = B
    return T, M, top, bounds


def weighted_theta_expand(f, g, w1, w2, k, *, memo=None):
    """Coefficient of alpha^k/k! in f(e^{w1 alpha} z) g(e^{w2 alpha} z).

    f(e^{w1 alpha} z) g(e^{w2 alpha} z) sends z^x z^y to
    e^{(w1 x + w2 y) alpha} z^{x+y}, so the coefficient is
    sum (w1 x + w2 y)^k f_x g_y = sum_j C(k,j) w1^j w2^{k-j}
    theta^j f * theta^{k-j} g: the theta_products of that poly
    (k = 0 is the product), on the B_j of memo if given.  f and g may be
    PuiseuxSeries or FourierSeries.
    """
    w1, w2 = _frac(w1), _frac(w2)
    poly = {(j, k - j): comb(k, j) * w1**j * w2 ** (k - j) for j in range(k + 1)}
    return theta_products(f, g, [poly], memo=memo)[0]


def hirota(k, f, g, *, memo=None):
    """Hirota derivative D^k in log z, k <= 4: the alpha-expansion above at
    weights (1, -1), sum (x - y)^k f_x g_y (Hirota, The Direct Method in
    Soliton Theory, CUP 2004).  As x - y = 2x - (x + y), this is
    sum_j C(k,j) 2^j (-theta)^{k-j} B_j over B_j = theta^j f * g, applied
    by Horner in theta; memo keeps the B_j of the pair across k."""
    if k > 4:
        raise ValueError("Hirota order limited to 4")
    return weighted_theta_expand(f, g, 1, -1, k, memo=memo)
