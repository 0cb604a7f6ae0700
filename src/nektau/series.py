"""Truncated Puiseux series with exact SymExpr coefficients.

A PuiseuxSeries stores a finite map {rational exponent -> SymExpr} plus an
inclusive truncation bound: every exponent <= trunc with a nonzero
coefficient is present and exact; nothing is claimed above trunc.  All
operations track the bound conservatively.

Products of Puiseux and Fourier series alike run on one integer kernel,
`sector_product`, whatever the coefficients hold: each sector of an operand
is split by monomial into Gaussian-integer numerators over one denominator
per monomial, at integer exponents on the lattice (1/L)Z, so a product
costs one mono_mul per pair of monomials, an integer convolution per pair
of monomials and sectors, and one pair of Fractions per output
coefficient.  Every theta-weighted bilinear product (`theta_products`,
`weighted_theta_expand`, `hirota`) is a sum of such products of
theta-derivatives.
"""

from __future__ import annotations

import heapq
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
        """The product, known through min(trunc + v(other), other.trunc + v):
        `sector_product` on the single sector 0."""
        if isinstance(other, (int, Frac, SymExpr)):
            return self.scale(other)
        trunc = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        return sector_product({ZERO: self}, {ZERO: other}, trunc)[ZERO]

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


def sector_product(fs, gs, trunc):
    """The product of two {sector: PuiseuxSeries} maps, as one such map.

    Sector s of the product is the sum of p * q over the sector pairs
    (k1: p, k2: q) with k1 + k2 = s, known through the least bound
    min(p.trunc + v(q), q.trunc + v(p)) of those pairs, capped at trunc.

    One integer kernel serves every coefficient kind.  Each sector is split
    once by monomial (`_split`): Gaussian-integer numerators (re, im) over
    one denominator per monomial, at integer exponents X = e L, L the lcm
    of every exponent denominator of both operands.  A pair of monomials
    costs one mono_mul, shared by all sector pairs that meet it; its
    numerator pairs are convolved in increasing X, stopping past
    floor(bound L) of the output sector.  The sums of one output
    (sector, monomial) are put over one denominator, so each output
    coefficient is built as one pair of Fractions.
    """
    L = lcm(*(e.denominator for hs in (fs, gs) for p in hs.values() for e in p.coeffs))
    bounds = {}
    for k1, p in fs.items():
        for k2, q in gs.items():
            b = min(p.trunc + q.min_exp(), q.trunc + p.min_exp(), trunc)
            s = k1 + k2
            bounds[s] = min(bounds.get(s, b), b)
    tops = {s: floor(b * L) for s, b in bounds.items()}
    f_split = [(k, _split(p, L)) for k, p in fs.items()]
    g_split = [(k, _split(q, L)) for k, q in gs.items()]
    monos = {}  # (m1, m2) -> mono_mul(m1, m2)
    groups = {}  # (sector, monomial) -> [(cofactor numerator, denominator, rows, rows)]
    for k1, split1 in f_split:
        for k2, split2 in g_split:
            s = k1 + k2
            top = tops[s]
            for m1, (d1, *rows1) in split1.items():
                for m2, (d2, *rows2) in split2.items():
                    if rows1[0][0] + rows2[0][0] <= top:
                        mc = monos.get((m1, m2))
                        if mc is None:
                            mc = monos[m1, m2] = mono_mul(m1, m2)
                        mono, cof = mc
                        groups.setdefault((s, mono), []).append(
                            (cof.numerator, cof.denominator * d1 * d2, rows1, rows2))
    out = {s: {} for s in bounds}  # sector -> X -> monomial -> coefficient
    for (s, mono), pairs in groups.items():
        top = tops[s]
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
                    t = acc.get(X)
                    if t is None:
                        acc[X] = [a * c - b * d, a * d + b * c]
                    else:
                        t[0] += a * c - b * d
                        t[1] += a * d + b * c
        by_X = out[s]
        for X, (re, im) in acc.items():
            if re or im:
                by_X.setdefault(X, {})[mono] = GaussianRational(Frac(re, den), Frac(im, den))
    return {s: PuiseuxSeries({Frac(X, L): SymExpr(terms) for X, terms in out[s].items()},
                             bounds[s])
            for s in bounds}


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


def theta_products(f, g, polys):
    """sum c theta^a f * theta^b g over {(a, b): c}, for each poly of polys.

    Each theta-power of f and g, and each distinct product theta^a f *
    theta^b g, is formed once per call (when f is g, theta^a f * theta^b f
    and theta^b f * theta^a f are one product); each output adds its
    products scaled by c.  An entry with c = 0 still adds its product's
    bounds, so the bounds of an output are those of the sum of its full
    products, in every sector.  f and g may be PuiseuxSeries or
    FourierSeries.
    """
    def powers(h, n):
        out = [h]
        for _ in range(n):
            out.append(out[-1].theta())
        return out

    a_top = max(a for poly in polys for a, _ in poly)
    b_top = max(b for poly in polys for _, b in poly)
    if f is g:
        thf = thg = powers(f, max(a_top, b_top))
    else:
        thf, thg = powers(f, a_top), powers(g, b_top)
    products = {}
    outs = []
    for poly in polys:
        out = None
        for (a, b), c in poly.items():
            key = (min(a, b), max(a, b)) if f is g else (a, b)
            p = products.get(key)
            if p is None:
                p = products[key] = thf[key[0]] * thg[key[1]]
            term = p if c == 1 else p.scale(c)
            out = term if out is None else out + term
        outs.append(out)
    return outs


def weighted_theta_expand(f, g, w1, w2, k):
    """Coefficient of alpha^k/k! in f(e^{w1 alpha} z) g(e^{w2 alpha} z).

    f(e^{w1 alpha} z) g(e^{w2 alpha} z) sends z^x z^y to
    e^{(w1 x + w2 y) alpha} z^{x+y}, so the coefficient is
    sum (w1 x + w2 y)^k f_x g_y = sum_j C(k,j) w1^j w2^{k-j}
    theta^j f * theta^{k-j} g: the theta_products of that poly
    (k = 0 is the product).  f and g may be PuiseuxSeries or
    FourierSeries.
    """
    w1, w2 = _frac(w1), _frac(w2)
    poly = {(j, k - j): comb(k, j) * w1**j * w2 ** (k - j) for j in range(k + 1)}
    return theta_products(f, g, [poly])[0]


def hirota(k, f, g):
    """Hirota derivative D^k in log z, k <= 4: the alpha-expansion above at
    weights (1, -1), sum (x - y)^k f_x g_y (Hirota, The Direct Method in
    Soliton Theory, CUP 2004)."""
    if k > 4:
        raise ValueError("Hirota order limited to 4")
    return weighted_theta_expand(f, g, 1, -1, k)
