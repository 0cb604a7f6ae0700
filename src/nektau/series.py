"""Truncated Puiseux series with exact SymExpr coefficients.

A PuiseuxSeries stores a finite map {rational exponent -> SymExpr} plus an
inclusive truncation bound: every exponent <= trunc with a nonzero
coefficient is present and exact; nothing is claimed above trunc.  All
operations track the bound conservatively.

Products run on integers, whatever the coefficients hold: each operand is
split by monomial into Gaussian-integer numerators over one denominator per
monomial, at integer exponents on the lattice (1/L)Z, so a product costs
one mono_mul per pair of monomials, an integer convolution per pair, and
one pair of Fractions per output coefficient.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, lcm

from .rationals import GaussianRational
from .symbols import NonInvertible, SymExpr, _frac, mono_mul, rational_power

Frac = Fraction
ZERO = Frac(0)


class PuiseuxSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        trunc = _frac(trunc)
        clean = {}
        for e, c in coeffs.items():
            c = SymExpr.coerce(c)
            if c and e <= trunc:
                clean[_frac(e)] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc", trunc)

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

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        """Smallest stored exponent; for the zero series the bound itself
        (the valuation is then known only to exceed trunc)."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, e) -> SymExpr:
        return self.coeffs.get(_frac(e), SymExpr.zero())

    def items(self):
        return sorted(self.coeffs.items())

    def truncate(self, E):
        E = _frac(E)
        if E >= self.trunc:
            return PuiseuxSeries(self.coeffs, min(E, self.trunc))
        return PuiseuxSeries({e: c for e, c in self.coeffs.items() if e <= E}, E)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = PuiseuxSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = out.get(e)
            n = c if n is None else n + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return PuiseuxSeries(out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = PuiseuxSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        return self + (-other)

    def scale(self, c):
        c = SymExpr.coerce(c)
        if not c:
            return PuiseuxSeries({}, self.trunc)
        return PuiseuxSeries({e: cc * c for e, cc in self.coeffs.items()}, self.trunc)

    def shift(self, de):
        """Multiply by z^de (exact monomial shift; bound shifts too)."""
        de = _frac(de)
        return PuiseuxSeries({e + de: c for e, c in self.coeffs.items()}, self.trunc + de)

    def __mul__(self, other):
        """The product, known through min(trunc + v(other), other.trunc + v).

        One integer kernel serves every coefficient kind.  Each operand is
        split by monomial (`_split`): Gaussian-integer numerators (re, im)
        over one denominator per monomial, at integer exponents X = e L, L
        the lcm of both operands' exponent denominators.  A pair of
        monomials costs one mono_mul; its numerator pairs are convolved in
        increasing X, stopping past floor(trunc L).  The sums of one output
        monomial are put over one denominator, so each output coefficient
        is built as one pair of Fractions.
        """
        if isinstance(other, (int, Frac, SymExpr)):
            return self.scale(other)
        trunc = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        L = lcm(*(e.denominator for h in (self, other) for e in h.coeffs))
        top = floor(trunc * L)
        g_split = _split(other, L)
        by_mono = {}  # output monomial -> [(cofactor numerator, denominator, rows, rows)]
        for m1, (d1, *rows1) in _split(self, L).items():
            for m2, (d2, *rows2) in g_split.items():
                if rows1[0][0] + rows2[0][0] <= top:
                    mono, cof = mono_mul(m1, m2)
                    by_mono.setdefault(mono, []).append(
                        (cof.numerator, cof.denominator * d1 * d2, rows1, rows2))
        out = {}
        for mono, pairs in by_mono.items():
            den = lcm(*(pair_den for _, pair_den, _, _ in pairs))
            acc = {}  # X -> [re, im] over den
            for n, pair_den, rows1, rows2 in pairs:
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
                        s = acc.get(X)
                        if s is None:
                            acc[X] = [a * c - b * d, a * d + b * c]
                        else:
                            s[0] += a * c - b * d
                            s[1] += a * d + b * c
            for X, (re, im) in acc.items():
                if re or im:
                    out.setdefault(X, {})[mono] = GaussianRational(Frac(re, den), Frac(im, den))
        return PuiseuxSeries({Frac(X, L): SymExpr(terms) for X, terms in out.items()}, trunc)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def theta(self):
        """Logarithmic derivative z d/dz: acts on the FULL exponent."""
        return PuiseuxSeries(
            {e: c * e for e, c in self.coeffs.items() if e}, self.trunc
        )

    def dilate(self, q_exp, sample):
        """z -> q^{q_exp} z with q = t^{dq}: coefficient at z^e gains t^{dq*q_exp*e}."""
        q_exp = _frac(q_exp)
        if not q_exp:
            return self
        t, dq = sample.t, sample.dq
        return PuiseuxSeries(
            {e: c * rational_power(t, dq * q_exp * e) for e, c in self.coeffs.items()},
            self.trunc,
        )

    def exp(self):
        """exp(series); requires strictly positive exponents.

        b = exp f satisfies theta(b) = b * theta(f), so b_0 = 1 and
        n b_n = sum_{x in supp f, x <= n} x f_x b_{n-x}
        (Brent-Kung, "Fast algorithms for manipulating formal power
        series", JACM 1978; Knuth, TAOCP vol. 2, 4.7), solved by
        `solve_recurrence` over the exponents of f.
        """
        if any(e <= 0 for e in self.coeffs):
            raise NonInvertible("exp needs strictly positive exponents")
        steps = {(e, ZERO): c * e for e, c in self.coeffs.items()}
        b = solve_recurrence(steps, self.trunc, divide=True)
        return PuiseuxSeries({n: c for (n, _), c in b.items()}, self.trunc)

    def inverse(self):
        """1/series for a series whose leading coefficient is invertible.

        With self = c0 z^{e0} (1 + r), 1/(1 + r) = sum b_n z^n where b_0 = 1
        and b_n = -sum_{x in supp r, x <= n} r_x b_{n-x} (Brent-Kung, JACM
        1978), solved by `solve_recurrence` over the exponents of r.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        e0 = self.min_exp()
        c0 = self.coeffs[e0]
        c0_inv = c0.inverse()  # raises NonInvertible for multi-term leading
        rel_trunc = self.trunc - e0
        steps = {(e - e0, ZERO): -(c * c0_inv)
                 for e, c in self.coeffs.items() if e != e0}
        b = solve_recurrence(steps, rel_trunc)
        return PuiseuxSeries(
            {n - e0: c * c0_inv for (n, _), c in b.items()}, rel_trunc - e0
        )

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

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


def _split(f, L):
    """{monomial: (D, Xs, res, ims)}: the terms of f with that monomial as
    Gaussian integers (re + i im)/D, D the lcm of their denominators, at
    integer exponents X = e L, in increasing X (parallel lists, so no
    tuple per term)."""
    rows = {}
    for X, c in sorted((e.numerator * (L // e.denominator), c) for e, c in f.coeffs.items()):
        for m, v in c.terms.items():
            r = rows.get(m)
            if r is None:
                r = rows[m] = ([], [], [])
            r[0].append(X)
            r[1].append(v.re)
            r[2].append(v.im)
    out = {}
    for m, (Xs, res, ims) in rows.items():
        D = lcm(*(x.denominator for x in res), *(x.denominator for x in ims))
        out[m] = (D, Xs, [x.numerator * (D // x.denominator) for x in res],
                  [x.numerator * (D // x.denominator) for x in ims])
    return out


def solve_recurrence(steps, bound, divide=False):
    """Coefficients of the series b with b_0 = 1 and, for n > 0,

        b_n = w_n * sum_{x in steps, x <= n} s_x b_{n-x},

    where w_n = 1/n (the exponent of n) if divide, else 1.

    Keys are (exponent, sector) pairs and add componentwise; every step
    key needs a positive exponent.  The keys n run over the additive
    closure of the step keys with exponent <= bound, popped from a heap in
    increasing order, so each b_{n-x} is known before b_n; no dense grid
    at the lcm of the denominators is formed.  A key is pushed only from a
    nonzero coefficient, which reaches every nonzero b_n.  Returns
    {key: b_n} for the nonzero b_n.
    """
    order = sorted(steps.items())
    root = (ZERO, ZERO)
    b = {}
    heap = [root]
    seen = {root}
    while heap:
        n = heapq.heappop(heap)
        ne, nk = n
        if n == root:
            c = SymExpr.one()
        else:
            c = SymExpr.zero()
            for (xe, xk), s in order:
                if xe > ne:
                    break
                prev = b.get((ne - xe, nk - xk))
                if prev is not None:
                    c = c + s * prev
            if c and divide:
                c = c * (1 / ne)
            if not c:
                continue
        b[n] = c
        for (xe, xk), _ in order:
            m = (ne + xe, nk + xk)
            if m[0] > bound:
                break
            if m not in seen:
                seen.add(m)
                heapq.heappush(heap, m)
    return b


@dataclass(frozen=True)
class BilinearMoments:
    """Coefficient products of two series, summed per (x, y, sector).

    terms[(x, y, s)] = sum over k1 + k2 = s of f_{k1,x} g_{k2,y}, as
    (monomial, re, im) rows of its SymExpr terms, with the keys of one
    (x, y) next to each other, kept for x + y up to the
    product bound min(f.trunc + v(g), g.trunc + v(f)); a PuiseuxSeries is
    the single sector 0.  For f is g the table is
    symmetric, M[s,y,x] = M[s,x,y], and only x <= y is kept.  Every
    theta-product of the pair is a weighted sum over these terms (see
    `theta_products`).

    The bounds are those of the products theta^j f * theta^i g.  They
    depend only on whether j and i are zero, since theta drops the z^0
    term and nothing else: bounds[(a, b)] is the bound of that product with
    a = min(j, 1), b = min(i, 1), and sector_bounds[s][(a, b)] the least
    bound of the sector pairs of s whose two theta-factors are sectors of
    theta^a f and theta^b g: nonzero, or zero below the series' bound.
    """

    terms: dict
    symmetric: bool
    bounds: dict
    sector_bounds: dict


def _sectors(f):
    return {ZERO: f} if isinstance(f, PuiseuxSeries) else f.sectors


def _valuations(sectors, trunc):
    """(v(f), v(theta f)): the least exponent of f and the least nonzero
    one.  A sector with none counts its own bound (the valuation of a zero
    series), and trunc stands for no sector."""
    v = min((ps.min_exp() for ps in sectors), default=trunc)
    v_theta = min((min((e for e in ps.coeffs if e), default=ps.trunc) for ps in sectors),
                  default=trunc)
    return v, v_theta


def _theta_bounds(f_trunc, f_vals, g_trunc, g_vals):
    """{(a, b): bound of theta^a f * theta^b g} for a, b in {0, 1}."""
    return {(a, b): min(f_trunc + g_vals[b], g_trunc + f_vals[a])
            for a in (0, 1) for b in (0, 1)}


def _product_bounds(f, g):
    """The bounds and sector_bounds of BilinearMoments(f, g)."""
    fs, gs = _sectors(f), _sectors(g)
    bounds = _theta_bounds(f.trunc, _valuations(fs.values(), f.trunc),
                           g.trunc, _valuations(gs.values(), g.trunc))
    # per sector: (sector, bound, valuations, theta of it is a sector of
    # theta h: it has a z^e with e != 0, or its bound is below h's)
    fv, gv = ([(k, p.trunc, _valuations((p,), p.trunc), any(p.coeffs) or p.trunc < h.trunc)
               for k, p in hs.items()] for h, hs in ((f, fs), (g, gs)))
    sector_bounds = {}
    for k1, p_trunc, p_vals, p_theta in fv:
        for k2, q_trunc, q_vals, q_theta in gv:
            sb = sector_bounds.setdefault(k1 + k2, {})
            pair = _theta_bounds(p_trunc, p_vals, q_trunc, q_vals)
            for (a, b), bound in pair.items():
                if (p_theta or not a) and (q_theta or not b):
                    sb[a, b] = min(sb.get((a, b), bound), bound)
    return bounds, sector_bounds


def _by_exponent(f):
    """[(x, [(sector, f_{sector,x}), ...]), ...] in increasing x."""
    out = {}
    for k, ps in _sectors(f).items():
        for x, c in ps.coeffs.items():
            out.setdefault(x, []).append((k, c))
    return sorted(out.items())


def _pair_products(f, g, top):
    """(x, y, products) for every pair of exponents x of f and y of g with
    x + y <= top, and x <= y when f is g.  products yields (k1 + k2, rows)
    over the sector pairs, rows the (monomial, re, im) terms of
    f_{k1,x} g_{k2,y}; it forms those products only when it is read."""
    fx = _by_exponent(f)
    gy = fx if f is g else _by_exponent(g)
    for i, (x, cs) in enumerate(fx):
        for y, ds in (gy[i:] if f is g else gy):
            if x + y > top:
                break
            yield x, y, ((k1 + k2, [(m, v.re, v.im) for m, v in (c * d).terms.items()])
                         for k1, c in cs for k2, d in ds)


def bilinear_moments(f, g):
    """The BilinearMoments of f and g (both PuiseuxSeries or both
    FourierSeries), one coefficient product per pair of terms."""
    bounds, sector_bounds = _product_bounds(f, g)
    terms = {}
    # a table can live for a run (identities.Context): one object per
    # monomial, since the products repeat a few
    monos = {}
    for x, y, products in _pair_products(f, g, bounds[0, 0]):
        sums = {}
        for s, rows in products:
            acc = sums.setdefault(s, {})
            for mono, re, im in rows:
                r, i = acc.get(mono, (0, 0))
                acc[monos.setdefault(mono, mono)] = (r + re, i + im)
        for s, acc in sums.items():
            rows = tuple((mono, r, i) for mono, (r, i) in acc.items() if r or i)
            if rows:
                terms[x, y, s] = rows
    return BilinearMoments(terms, f is g, bounds, sector_bounds)


def _theta_pattern(ab):
    """(min(a, 1), min(b, 1)): the bounds of theta^a f * theta^b g."""
    return min(ab[0], 1), min(ab[1], 1)


def _integer_poly(poly, L):
    """The weight sum c x^a y^b of a poly in integers: for x = X/L and
    y = Y/L it is sum n X^a Y^b / den over the rows (a, b, n)."""
    top = max(a + b for a, b in poly)
    den = lcm(*(Fraction(c).denominator for c in poly.values()))
    rows = [(a, b, int(c * den) * L ** (top - a - b)) for (a, b), c in poly.items() if c]
    return rows, den * L**top


def theta_products(f, g, polys, moments=None):
    """sum c theta^a f * theta^b g over {(a, b): c}, for each poly of polys.

    theta^a f * theta^b g sends f_x g_y to x^a y^b f_x g_y at z^{x+y}, so
    an output is sum W(x, y) f_x g_y with W = sum c x^a y^b (0^0 = 1).
    One pass over the exponent pairs of f and g forms each coefficient
    product once and weighs it into every output that keeps its exponent
    at a nonzero weight; when f is g only x <= y is walked, at weight
    W(x, y) + W(y, x) off the diagonal.  moments, if given, is
    bilinear_moments(f, g), whose sums stand in for the products; it holds
    them through the bound of f * g, so it serves the polys whose bound is
    no higher (every expansion of weighted_theta_expand), and others raise
    ValueError.  The sums run per (sector, exponent, monomial) in
    Fractions, weighted by the integer numerator of W over the exponents'
    common denominator and divided by W's denominator once at the end.

    The bounds are those of the sum of the products theta^a f * theta^b g:
    the overall one is the least over all entries of the poly, zero
    coefficients included, and a sector's likewise, capped at the overall
    one.  A sector that is zero below the overall bound is kept with its
    bound, as FourierSeries keeps it.  f and g may be PuiseuxSeries or
    FourierSeries.
    """
    if moments is None:
        bounds, sector_bounds = _product_bounds(f, g)
        symmetric = f is g
    else:
        bounds, sector_bounds = moments.bounds, moments.sector_bounds
        symmetric = moments.symmetric
    truncs = [min(bounds[_theta_pattern(ab)] for ab in poly) for poly in polys]
    if moments is None:
        pairs = _pair_products(f, g, max(truncs))
    elif max(truncs) > bounds[0, 0]:
        raise ValueError(f"the moment table stops at z^{bounds[0, 0]}, "
                         f"asked for z^{max(truncs)}")
    else:
        pairs = ((x, y, ((key[2], rows) for key, rows in group))
                 for (x, y), group in groupby(moments.terms.items(), lambda kv: kv[0][:2]))
    L = lcm(*(e.denominator for h in (f, g) for ps in _sectors(h).values() for e in ps.coeffs))
    weights = [_integer_poly(poly, L) for poly in polys]
    degree = max(n for poly in polys for ab in poly for n in ab)
    powers = {}  # x -> [X^0, ..., X^degree] for X = x L

    def power(x):
        p = powers.get(x)
        if p is None:
            X = x.numerator * (L // x.denominator)
            p = powers[x] = [X**n for n in range(degree + 1)]
        return p

    sums = [{} for _ in polys]  # exponent -> sector -> monomial -> den (re, im)
    for x, y, products in pairs:
        e = x + y
        px, py = power(x), power(y)
        live = []
        for (rows, _), trunc, out in zip(weights, truncs, sums):
            if e <= trunc:
                n = sum(c * px[a] * py[b] for a, b, c in rows)
                if symmetric and x != y:
                    n += sum(c * py[a] * px[b] for a, b, c in rows)
                if n:
                    live.append((n, out.setdefault(e, {})))
        if not live:
            continue
        for s, rows in products:
            for n, by_s in live:
                acc = by_s.setdefault(s, {})
                for mono, re, im in rows:
                    r, i = acc.get(mono, (0, 0))
                    acc[mono] = (r + re * n, i + im * n if im else i)
    return [_assemble(f, out, den, trunc, {_theta_pattern(ab) for ab in poly}, sector_bounds)
            for out, (_, den), trunc, poly in zip(sums, weights, truncs, polys)]


def _assemble(f, sums, den, trunc, patterns, sector_bounds):
    """One output of theta_products, its sums divided by den: bound trunc,
    and each sector's bound the least over the poly's theta-patterns.  A
    sector no term reaches is zero; it is kept while that bound is below
    trunc."""
    out = {}
    for e, by_s in sums.items():
        for s, acc in by_s.items():
            out.setdefault(s, {})[e] = SymExpr({
                mono: GaussianRational(Fraction(r, den), Fraction(i, den))
                for mono, (r, i) in acc.items() if r or i})
    if isinstance(f, PuiseuxSeries):
        return PuiseuxSeries(out.get(ZERO, {}), trunc)
    sectors = {}
    for s, sb in sector_bounds.items():
        bounds = [sb[ab] for ab in patterns if ab in sb]
        if bounds:
            sectors[s] = PuiseuxSeries(out.get(s, {}), min(bounds))
    return type(f)(sectors, trunc)  # caps every sector bound at trunc


def weighted_theta_expand(f, g, w1, w2, k, moments=None):
    """Coefficient of alpha^k/k! in f(e^{w1 alpha} z) g(e^{w2 alpha} z).

    f(e^{w1 alpha} z) g(e^{w2 alpha} z) sends z^x z^y to
    e^{(w1 x + w2 y) alpha} z^{x+y}, so the coefficient is
    sum (w1 x + w2 y)^k f_x g_y = sum_j C(k,j) w1^j w2^{k-j}
    theta^j f * theta^{k-j} g: the theta_products of that poly
    (k = 0 is the product).  moments, if given, is bilinear_moments(f, g),
    shared by expansions of one pair.  f and g may be PuiseuxSeries or
    FourierSeries.
    """
    w1, w2 = _frac(w1), _frac(w2)
    poly = {(j, k - j): comb(k, j) * w1**j * w2 ** (k - j) for j in range(k + 1)}
    return theta_products(f, g, [poly], moments)[0]


def hirota(k, f, g, moments=None):
    """Hirota derivative D^k in log z, k <= 4: the alpha-expansion above at
    weights (1, -1), sum (x - y)^k f_x g_y (Hirota, The Direct Method in
    Soliton Theory, CUP 2004)."""
    if k > 4:
        raise ValueError("Hirota order limited to 4")
    return weighted_theta_expand(f, g, 1, -1, k, moments)
