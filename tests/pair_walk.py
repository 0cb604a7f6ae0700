"""Test-only copy of the one-pass theta-product walk that theta_products
replaced.

It forms sum c theta^a f * theta^b g over {(a, b): c} as sum W(x, y) f_x g_y
with W = sum c x^a y^b (0^0 = 1), walking the exponent pairs (x, y) of f and
g once and weighing each coefficient product into every output that keeps
its exponent; when f is g only x <= y is walked, at weight W(x, y) + W(y, x)
off the diagonal.  The bounds come from the valuations of f, g and of their
theta-derivatives, per sector pair.  The tests check the theta-product
route of nektau.series against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from nektau.fourier import FourierSeries
from nektau.rationals import GaussianRational
from nektau.series import PuiseuxSeries
from nektau.symbols import SymExpr

ZERO = Fraction(0)


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
    """The bounds of theta^a f * theta^b g for a, b in {0, 1}, overall and
    per output sector."""
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
    x + y <= top, and x <= y when f is g; products yields (k1 + k2, rows)
    over the sector pairs, rows the (monomial, re, im) terms of
    f_{k1,x} g_{k2,y}."""
    fx = _by_exponent(f)
    gy = fx if f is g else _by_exponent(g)
    for i, (x, cs) in enumerate(fx):
        for y, ds in (gy[i:] if f is g else gy):
            if x + y > top:
                break
            yield x, y, ((k1 + k2, [(m, v.re, v.im) for m, v in (c * d).terms.items()])
                         for k1, c in cs for k2, d in ds)


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


def pair_walk_theta_products(f, g, polys):
    """sum c theta^a f * theta^b g over {(a, b): c}, for each poly of polys,
    from one pass over the exponent pairs of f and g."""
    bounds, sector_bounds = _product_bounds(f, g)
    truncs = [min(bounds[_theta_pattern(ab)] for ab in poly) for poly in polys]
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
    for x, y, products in _pair_products(f, g, max(truncs)):
        e = x + y
        px, py = power(x), power(y)
        live = []
        for (rows, _), trunc, out in zip(weights, truncs, sums):
            if e <= trunc:
                n = sum(c * px[a] * py[b] for a, b, c in rows)
                if f is g and x != y:
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
    """One output, its sums divided by den: bound trunc, and each sector's
    bound the least over the poly's theta-patterns.  A sector no term
    reaches is zero; it is kept while that bound is below trunc."""
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
    return FourierSeries(sectors, trunc)  # caps every sector bound at trunc
