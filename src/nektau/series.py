"""Truncated Puiseux series with exact SymExpr coefficients.

A PuiseuxSeries stores a finite map {rational exponent -> SymExpr} plus an
inclusive truncation bound: every exponent <= trunc with a nonzero
coefficient is present and exact; nothing is claimed above trunc.  All
operations track the bound conservatively.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb

from .symbols import NonInvertible, SymExpr, _frac, rational_power

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
        if isinstance(other, (int, Frac, SymExpr)):
            return self.scale(other)
        trunc = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > trunc:
                    continue
                c = c1 * c2
                if not c:
                    continue
                n = out.get(e)
                n = c if n is None else n + c
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        return PuiseuxSeries(out, trunc)

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


def weighted_theta_expand(f, g, w1, w2, k):
    """Coefficient of alpha^k/k! in f(e^{w1 alpha} z) g(e^{w2 alpha} z).

    Equals sum_j C(k,j) w1^j w2^{k-j} theta^j f * theta^{k-j} g.  Only theta,
    products, scale and sums are used, so f and g may be PuiseuxSeries or
    FourierSeries (where the product convolves sectors).
    """
    w1, w2 = _frac(w1), _frac(w2)
    thf = [f]
    thg = [g]
    for _ in range(k):
        thf.append(thf[-1].theta())
        thg.append(thg[-1].theta())
    out = None
    for j in range(k + 1):
        term = (thf[j] * thg[k - j]).scale(Frac(comb(k, j)) * w1**j * w2 ** (k - j))
        out = term if out is None else out + term
    return out


def hirota(k, f, g):
    """Hirota derivative D^k in log z, k <= 4: the alpha-expansion above at
    weights (1, -1)."""
    if k > 4:
        raise ValueError("Hirota order limited to 4")
    return weighted_theta_expand(f, g, 1, -1, k)
