"""Truncated Puiseux series with exact SymExpr coefficients.

A PuiseuxSeries stores a finite map {rational exponent -> SymExpr} plus an
inclusive truncation bound: every exponent <= trunc with a nonzero
coefficient is present and exact; nothing is claimed above trunc.  All
operations track the bound conservatively.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .symbols import NonInvertible, SymExpr, _frac, rational_power

Frac = Fraction


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

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return PuiseuxSeries.one(self.trunc)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

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
        """exp(series); requires strictly positive exponents."""
        if any(e <= 0 for e in self.coeffs):
            raise NonInvertible("exp needs strictly positive exponents")
        if not self.coeffs:
            return PuiseuxSeries.one(self.trunc)
        m = self.min_exp()
        kmax = int(self.trunc / m) + 1
        out = PuiseuxSeries.one(self.trunc)
        term = PuiseuxSeries.one(self.trunc)
        for k in range(1, kmax + 1):
            term = term * self
            if term.is_zero():
                break
            out = out + term.scale(Frac(1, factorial(k)))
        return PuiseuxSeries(out.coeffs, self.trunc)

    def inverse(self):
        """1/series for a series whose leading coefficient is invertible."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        e0 = self.min_exp()
        c0 = self.coeffs[e0]
        c0_inv = c0.inverse()  # raises NonInvertible for multi-term leading
        # self = c0 z^{e0} (1 + r), inverse = z^{-e0} c0^{-1} sum (-r)^k
        rel_trunc = self.trunc - e0
        r = PuiseuxSeries(
            {e - e0: c * c0_inv for e, c in self.coeffs.items() if e != e0}, rel_trunc
        )
        out = PuiseuxSeries.one(rel_trunc)
        if not r.is_zero():
            kmax = int(rel_trunc / r.min_exp()) + 1
            term = PuiseuxSeries.one(rel_trunc)
            for _ in range(kmax):
                term = term * (-r)
                if term.is_zero():
                    break
                out = out + term
        return PuiseuxSeries(
            {e - e0: c * c0_inv for e, c in out.coeffs.items()}, rel_trunc - e0
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
