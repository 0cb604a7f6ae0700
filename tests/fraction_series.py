"""Reference series for the tests: every exponent a Fraction key.

`FractionSeries` is PuiseuxSeries as it was before a series stored one
integer exponent lattice: a dict {Fraction exponent: SymExpr}, every bound,
valuation and sector sum done in Fraction arithmetic, with its product
kernel (`sector_product`, `_split`), its recurrence (`solve_recurrence`,
keyed by Fraction pairs) and `theta_products`.  `FractionFourier` is
FourierSeries over it, and `ref_dilate_t` the plain-series dilation that
identities kept beside PuiseuxSeries.dilate.  `ref_of` carries a package
series over; the tests compare the package against these, operation by
operation.
"""

from __future__ import annotations

import heapq
from fractions import Fraction as Frac
from math import comb, floor, lcm

from nektau.fourier import FourierSeries
from nektau.rationals import GaussianRational
from nektau.symbols import NonInvertible, SymExpr, _frac, mono_mul, rational_power

ZERO = Frac(0)
HALF = Frac(1, 2)


class FractionSeries:
    """A truncated Puiseux series as {Fraction exponent: SymExpr} and a bound."""

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
        raise AttributeError("FractionSeries is immutable")

    @staticmethod
    def zero(trunc):
        return FractionSeries({}, trunc)

    @staticmethod
    def one(trunc):
        return FractionSeries({Frac(0): SymExpr.one()}, trunc)

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, e) -> SymExpr:
        return self.coeffs.get(_frac(e), SymExpr.zero())

    def items(self):
        return sorted(self.coeffs.items())

    def truncate(self, E):
        E = _frac(E)
        if E >= self.trunc:
            return FractionSeries(self.coeffs, min(E, self.trunc))
        return FractionSeries({e: c for e, c in self.coeffs.items() if e <= E}, E)

    def __add__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = FractionSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = out.get(e)
            n = c if n is None else n + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return FractionSeries(out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return FractionSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            other = FractionSeries({Frac(0): SymExpr.coerce(other)}, self.trunc)
        return self + (-other)

    def scale(self, c):
        c = SymExpr.coerce(c)
        if not c:
            return FractionSeries({}, self.trunc)
        return FractionSeries({e: cc * c for e, cc in self.coeffs.items()}, self.trunc)

    def shift(self, de):
        de = _frac(de)
        return FractionSeries({e + de: c for e, c in self.coeffs.items()}, self.trunc + de)

    def __mul__(self, other):
        if isinstance(other, (int, Frac, SymExpr)):
            return self.scale(other)
        trunc = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        return sector_product({ZERO: self}, {ZERO: other}, trunc)[ZERO]

    __rmul__ = __mul__

    def theta(self):
        return FractionSeries({e: c * e for e, c in self.coeffs.items() if e}, self.trunc)

    def dilate(self, q_exp, sample):
        q_exp = _frac(q_exp)
        if not q_exp:
            return self
        t, dq = sample.t, sample.dq
        return FractionSeries(
            {e: c * rational_power(t, dq * q_exp * e) for e, c in self.coeffs.items()},
            self.trunc,
        )

    def exp(self):
        if any(e <= 0 for e in self.coeffs):
            raise NonInvertible("exp needs strictly positive exponents")
        steps = {(e, ZERO): c * e for e, c in self.coeffs.items()}
        b = solve_recurrence(steps, self.trunc, divide=True)
        return FractionSeries({n: c for (n, _), c in b.items()}, self.trunc)

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        e0 = self.min_exp()
        c0 = self.coeffs[e0]
        c0_inv = c0.inverse()
        rel_trunc = self.trunc - e0
        steps = {(e - e0, ZERO): -(c * c0_inv)
                 for e, c in self.coeffs.items() if e != e0}
        b = solve_recurrence(steps, rel_trunc)
        return FractionSeries(
            {n - e0: c * c0_inv for (n, _), c in b.items()}, rel_trunc - e0
        )

    def __eq__(self, other):
        if not isinstance(other, FractionSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    def dump(self):
        return [
            {"exponent": [e.numerator, e.denominator], "coefficient": c.render()}
            for e, c in self.items()
        ]


def ref_dilate_t(ps, t, texp):
    """z -> t^texp z on a plain series."""
    if not texp:
        return ps
    return FractionSeries(
        {e: c * rational_power(t, texp * e) for e, c in ps.coeffs.items()},
        ps.trunc,
    )


def sector_product(fs, gs, trunc):
    """The product of two {sector: FractionSeries} maps: sector s through
    the least min(p.trunc + v(q), q.trunc + v(p)) of its sector pairs,
    capped at trunc, on one integer kernel at L the lcm of every exponent
    denominator."""
    L = lcm(*(e.denominator for hs in (fs, gs) for p in hs.values() for e in p.coeffs))
    f_vals = [(k, p.trunc, p.min_exp()) for k, p in fs.items()]
    g_vals = [(k, q.trunc, q.min_exp()) for k, q in gs.items()]
    bounds = {}
    for k1, p_trunc, p_val in f_vals:
        for k2, q_trunc, q_val in g_vals:
            b = min(p_trunc + q_val, q_trunc + p_val, trunc)
            s = k1 + k2
            bounds[s] = min(bounds.get(s, b), b)
    tops = {s: floor(b * L) for s, b in bounds.items()}
    f_split = [(k, _split(p, L)) for k, p in fs.items()]
    g_split = [(k, _split(q, L)) for k, q in gs.items()]
    monos = {}
    groups = {}
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
    out = {s: {} for s in bounds}
    from_ints = GaussianRational.from_ints
    for (s, mono), pairs in groups.items():
        top = tops[s]
        den = lcm(*(pair_den for _, pair_den, _, _ in pairs))
        acc = {}
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
                by_X.setdefault(X, {})[mono] = from_ints(re, im, den)
    return {s: FractionSeries({Frac(X, L): SymExpr(terms) for X, terms in out[s].items()},
                              bounds[s])
            for s in bounds}


def _split(f, L):
    """{monomial: (D, Xs, res, ims)} of f at X = e L, read off each
    exponent's numerator and denominator."""
    rows = {}
    for X, c in sorted((e.numerator * (L // e.denominator), c) for e, c in f.coeffs.items()):
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


def solve_recurrence(steps, bound, divide=False):
    """b_0 = 1, b_n = w_n sum_{x in steps, x <= n} s_x b_{n-x}, w_n = 1/n
    if divide; keys are (exponent, sector) pairs of Fractions."""
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
    """sum c theta^a f * theta^b g over {(a, b): c}, for each poly of polys,
    from the basis products B_j = theta^{alpha+j} f * theta^beta g, each
    output cut to the bounds of the sum of its full products."""
    basis = {}
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
                B = product(alpha, beta, 0)
                for i in range(1, j):
                    B = B.theta() + product(alpha, beta, i).scale(comb(j, i) * (-1) ** i)
                B = B.theta().scale(HALF)
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
        terms = {}
        for (a, b), c in poly.items():
            for i in range(b - beta + 1):
                jm = (a - alpha + i, b - beta - i)
                terms[jm] = terms.get(jm, 0) + c * comb(b - beta, i) * (-1) ** i
        out = None
        for m in range(max(m for _, m in terms), -1, -1):
            if out is not None:
                out = out.theta()
            for (j, mj), d in sorted(terms.items()):
                if mj == m and d:
                    term = product(alpha, beta, j)
                    term = term if d == 1 else term.scale(d)
                    out = term if out is None else out + term
        outs.append(_cut(f, out, *_product_bounds(f, g, a_min, b_min)))
    del product
    return outs


def _sectors(h):
    return {ZERO: h} if isinstance(h, FractionSeries) else h.sectors


def _has_z0(h):
    return any(ZERO in p.coeffs for p in _sectors(h).values())


def _product_bounds(f, g, a, b):
    def valuations(h, n):
        return {k: (p.trunc, min((e for e in p.coeffs if e or not n), default=p.trunc))
                for k, p in _sectors(h).items()}

    fv, gv = valuations(f, a), valuations(g, b)
    trunc = min(f.trunc + min((v for _, v in gv.values()), default=g.trunc),
                g.trunc + min((v for _, v in fv.values()), default=f.trunc))
    bounds = {}
    for k1, (t1, v1) in fv.items():
        for k2, (t2, v2) in gv.items():
            s = k1 + k2
            bounds[s] = min(bounds.get(s, trunc), t1 + v2, t2 + v1)
    return trunc, bounds


def _cut(like, h, trunc, bounds):
    sectors = {} if h is None else _sectors(h)
    zero = FractionSeries({}, trunc)
    if isinstance(like, FractionSeries):
        return FractionSeries(sectors.get(ZERO, zero).coeffs, trunc)
    return type(like)({s: FractionSeries(sectors.get(s, zero).coeffs, b)
                       for s, b in bounds.items()}, trunc)


class FractionFourier:
    """FourierSeries over FractionSeries sectors."""

    __slots__ = ("sectors", "trunc")

    def __init__(self, sectors, trunc):
        trunc = _frac(trunc)
        clean = {}
        for k, ps in sectors.items():
            ps = ps.truncate(trunc) if ps.trunc > trunc else ps
            if not ps.is_zero() or ps.trunc < trunc:
                clean[_frac(k)] = ps
        object.__setattr__(self, "sectors", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("FractionFourier is immutable")

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = dict(self.sectors)
        for k, ps in other.sectors.items():
            out[k] = out[k] + ps if k in out else ps
        return FractionFourier(out, trunc)

    def scale(self, c):
        return FractionFourier({k: ps.scale(c) for k, ps in self.sectors.items()}, self.trunc)

    def __mul__(self, other):
        v_self = min((ps.min_exp() for ps in self.sectors.values()), default=self.trunc)
        v_other = min((ps.min_exp() for ps in other.sectors.values()), default=other.trunc)
        trunc = min(self.trunc + v_other, other.trunc + v_self)
        return FractionFourier(sector_product(self.sectors, other.sectors, trunc), trunc)

    def theta(self):
        return FractionFourier({k: ps.theta() for k, ps in self.sectors.items()}, self.trunc)

    def leading(self):
        mins = {k: ps.min_exp() for k, ps in self.sectors.items() if not ps.is_zero()}
        if not mins:
            raise ZeroDivisionError("inverse of zero series")
        e = min(mins.values())
        at_min = [k for k, v in mins.items() if v == e]
        if len(at_min) > 1:
            raise NonInvertible("no unique minimal term across sectors")
        k = at_min[0]
        return k, e, self.sectors[k].coeff(e)

    def inverse(self):
        k0, e0, c0 = self.leading()
        c0_inv = c0.inverse()
        rel_trunc = self.trunc - e0
        steps = {}
        for k, ps in self.sectors.items():
            for e, c in ps.coeffs.items():
                if not (k == k0 and e == e0):
                    steps[(e - e0, k - k0)] = -(c * c0_inv)
        if any(e <= 0 for e, _ in steps):
            raise NonInvertible("non-leading term at the leading exponent")
        out = {}
        for (n, k), c in solve_recurrence(steps, rel_trunc).items():
            out.setdefault(k - k0, {})[n - e0] = c * c0_inv
        trunc = rel_trunc - e0
        return FractionFourier(
            {k: FractionSeries(coeffs, trunc) for k, coeffs in out.items()}, trunc
        )


def ref_of(h):
    """The reference copy of a PuiseuxSeries or FourierSeries."""
    if isinstance(h, FourierSeries):
        return FractionFourier({k: ref_of(p) for k, p in h.sectors.items()}, h.trunc)
    return FractionSeries(dict(h.coeffs), h.trunc)


def same(new, ref):
    """new (a package series) holds the terms and bounds of ref."""
    if isinstance(ref, FractionFourier):
        return (isinstance(new, FourierSeries) and new.trunc == ref.trunc
                and sorted(new.sectors) == sorted(ref.sectors)
                and all(same(new.sectors[k], p) for k, p in ref.sectors.items()))
    return dict(new.coeffs) == ref.coeffs and new.trunc == ref.trunc
