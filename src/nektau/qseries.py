"""Truncated q-Pochhammer and theta series plus closed-form series fixtures.

A multi-base Pochhammer (w; q_1, .., q_N)_inf with w = coeff * z^zpow and
q_k = t^{b_k} is expanded as an exact PuiseuxSeries by two independent
routes (exponential formula and base-peeling recursion); bases with
|q_k| > 1 (negative t-exponent) are first rewritten through the inversion
rule (w; q^{-1}, ..) = (w q; q, ..)^{-1}.  An odd number of them leaves a
reciprocal, 1/(x; q)_inf = sum_m x^m/(q; q)_m, which each route builds in
its own recursion: the peeling from the base case 1/(1 - w) = sum_m w^m in
place of 1 - w, the exponential formula from negated log coefficients.

theta(w; p) = (w; p)_inf (p/w; p)_inf, with w and p monomials in z and p of
positive z-weight, is expanded by two routes that share no series kernel:
the finite product of the binomial factors that reach z^E, one step each on
integer rows (series.binomial_product), and the Jacobi
triple-product sum sum_k (-1)^k p^{k(k-1)/2} w^k divided by (p; p)_inf,
which Euler's pentagonal theorem gives as sum_k (-1)^k p^{k(3k-1)/2}
(Andrews, The Theory of Partitions, 1976, ch. 1; Gasper-Rahman, Basic
Hypergeometric Series, 2nd ed., 2004, ch. 1).  theta vanishes exactly when
w is in p^Z; either route returns the zero series as soon as it sees this,
as a zero constant factor or a zero sum, before any series product.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .rationals import ONE, GaussianRational
from .series import PuiseuxSeries, binomial_product
from .symbols import SymExpr, _frac

Frac = Fraction
from_ints = GaussianRational.from_ints


class UnsupportedRegion(Exception):
    """Base exponent 0 (root of unity) or non-lattice exponent."""


class PochhammerSpec(namedtuple("PochhammerSpec", "coeff zpow bases")):
    """(coeff * z^zpow ; t^{b_1}, .., t^{b_N})_inf.

    coeff is a single-monomial exact coefficient; zpow must be positive so
    that truncation in z is finite; bases are nonzero integer t-exponents.
    """

    __slots__ = ()

    def __new__(cls, coeff, zpow, bases):
        zpow = _frac(zpow)
        bases = tuple(_frac(b) for b in bases)
        if zpow <= 0:
            raise UnsupportedRegion("need a positive z-power in the argument")
        for b in bases:
            if not b:
                raise UnsupportedRegion("base exponent 0: base degenerates to 1")
            if b.denominator != 1:
                raise UnsupportedRegion(f"base t-exponent {b} is not an integer")
        return super().__new__(cls, coeff, zpow, bases)


def _tpow(t: Frac, e: Frac) -> Frac:
    if e.denominator != 1:
        raise UnsupportedRegion(f"non-integer t-exponent {e}")
    return t ** e.numerator


def _poch_base_coeffs(bases, t: Frac, mmax: int, power: int = 1):
    """Coefficients g_0..g_mmax of (w; t^{b_1}, ..)_inf^power, power 1 or
    -1, as a w-series, for bases with positive exponents, by peeling the
    first base: (w; q1, rest)^power = (w; rest)^power (w q1; q1, rest)^power,
    so g_m (1 - q1^m) = sum_{j >= 1} h_j q1^{m-j} g_{m-j}, h the
    coefficients of (w; rest)^power, each g_m summed on ints (q1 = P/Q) and
    reduced once.  With no base left the factor is 1 - w, or its
    reciprocal sum_m w^m."""
    if not bases:
        if power == -1:
            return (ONE,) * (mmax + 1)
        return (ONE, -ONE) + (from_ints(0, 0, 1),) * max(0, mmax - 1)
    h = _poch_base_coeffs(bases[1:], t, mmax, power)
    q1 = _tpow(t, bases[0])
    P = [q1.numerator ** i for i in range(mmax + 1)]
    Q = [q1.denominator ** i for i in range(mmax + 1)]
    g = [ONE]
    for m in range(1, mmax + 1):
        num, den = 0, 1
        for j in range(1, min(m, len(h) - 1) + 1):
            if h[j]:
                x, y = h[j], g[m - j]
                d = x.d * Q[m - j] * y.d
                num, den = num * d + x.a * P[m - j] * y.a * den, den * d
        g.append(from_ints(num * Q[m], 0, den * (Q[m] - P[m])))
    return tuple(g)


def _poch_exp_coeffs(bases, t: Frac, mmax: int, power: int = 1):
    """Same coefficients from the exponential formula
    log = -power sum_m w^m / (m prod_k (1 - q_k^m)): each log coefficient
    -power prod_k Q_k^m / (m prod_k (Q_k^m - P_k^m)), q_k = P_k/Q_k, made
    on ints and reduced once, and the log exponentiated by
    PuiseuxSeries.exp."""
    qs = [_tpow(t, b) for b in bases]
    log_coeffs = {}
    for m in range(1, mmax + 1):
        n, d = -power, m
        for q in qs:
            Pm, Qm = q.numerator ** m, q.denominator ** m
            if Pm == Qm:
                raise UnsupportedRegion("base is a root of unity")
            n, d = n * Qm, d * (Qm - Pm)
        log_coeffs[m] = from_ints(n, 0, d)
    ps = PuiseuxSeries(log_coeffs, Frac(max(mmax, 0))).exp()
    return tuple(ps.coeff(m).rational_value() for m in range(max(mmax, 0) + 1))


def pochhammer_series(spec: PochhammerSpec, t: Frac, E, route: str = "shift") -> PuiseuxSeries:
    """Exact truncated expansion of the multi-base Pochhammer symbol.

    route: "shift" peels bases by the one-step shift rule; "exp" uses the
    exponential formula.  Bases with negative exponent are rewritten by the
    inversion rule, and each route builds the reciprocal it may leave in
    its own recursion.
    """
    E = _frac(E)
    coeff = SymExpr.coerce(spec.coeff)
    neg = [b for b in spec.bases if b < 0]
    if neg:
        # (w; q^{-1}, ..) = (w q; q, ..)^{-1}, applied per negative base: the
        # argument gains every q, and the inverses cancel in pairs
        coeff = coeff * _tpow(t, -sum(neg))
    bases, power = tuple(map(abs, spec.bases)), (-1) ** len(neg)
    mmax = int(E / spec.zpow)
    if route == "shift":
        base_coeffs = _poch_base_coeffs(bases, t, mmax, power)
    elif route == "exp":
        base_coeffs = _poch_exp_coeffs(bases, t, mmax, power)
    else:
        raise ValueError(f"unknown route {route!r}")
    out = {}
    cpow = SymExpr.one()
    for m in range(mmax + 1):
        if base_coeffs[m]:
            out[m * spec.zpow] = cpow * base_coeffs[m]
        if m < mmax:
            cpow = cpow * coeff
    return PuiseuxSeries(out, E)


# ---------------------------------------------------------------------------
# theta with a z-weighted base (bilateral sum truncates on the lattice)
# ---------------------------------------------------------------------------


def theta_z_series(arg_coeff, arg_zpow, base_coeff, base_zpow, E,
                   route: str = "product") -> PuiseuxSeries:
    """theta(w; p) with w = arg_coeff z^{arg_zpow}, p = base_coeff z^{base_zpow}.

    The base must carry a positive z-weight so both the doubly infinite
    product (w;p)(p/w;p) and the bilateral Jacobi sum truncate exactly.
    """
    E = _frac(E)
    a, r = _frac(arg_zpow), _frac(base_zpow)
    if r <= 0:
        raise UnsupportedRegion("theta base needs a positive z-weight")
    cw = SymExpr.coerce(arg_coeff)
    cp = SymExpr.coerce(base_coeff)
    # exponents X/D on the lattice of a = A/D and r = R/D, cut at top/D
    D = lcm(a.denominator, r.denominator)
    A, R = a.numerator * (D // a.denominator), r.numerator * (D // r.denominator)
    top = E.numerator * D // E.denominator
    if route == "product":
        # the binomials 1 - c z^{X/D}: c = cw cp^k at X = A + k R and
        # cp^(k+1)/cw at X = (k+1) R - A, from running powers of cp.  With
        # negative X allowed, a factor still reaches z^E in the product
        # while X is at most top minus the sum N of the negative X; a
        # constant factor (X = 0) with c = 1 is zero
        N = sum(range(A, 0, R)) + sum(range(R - A, 0, R))
        starts = [(A, cw)]
        if R - A <= top - N:
            starts.append((R - A, cp * cw.inverse()))
        factors = []
        for X, c in starts:
            while X <= top - N:
                if not X and c == SymExpr.one():
                    # w in p^Z: theta vanishes, no product is formed
                    return PuiseuxSeries.zero(E)
                factors.append((X, c))
                X += R
                c = c * cp
        return binomial_product(factors, D, E)
    if route == "jacobi":
        # (p;p)_inf^{-1} sum_k (-1)^k p^{k(k-1)/2} w^k at exponents X/D,
        # X = k A + k(k-1)/2 R for a = A/D, r = R/D.  X grows past the
        # vertex k = 1/2 - a/r, where (2k - 1) R + 2A has the sign of the
        # direction, so a term there above the bound ends it.  Each
        # direction steps k by one with running powers: w^k gains w^{+-1},
        # and p^{k(k-1)/2} gains p^k upward and p^{1-k} downward; w^{-1} is
        # formed at the first kept term with k < 0
        low = 0
        terms = {}
        for direction in (1, -1):
            if direction == 1:
                k, wk, w_step, pk, p_step = 0, SymExpr.one(), cw, SymExpr.one(), SymExpr.one()
            else:
                k, wk, w_step, pk, p_step = -1, None, None, cp, cp * cp
            while True:
                X = k * A + k * (k - 1) // 2 * R
                if X <= top:
                    if wk is None:
                        w_step = cw.inverse()
                        wk = w_step ** -k
                    c = wk * pk
                    terms[X] = terms.get(X, SymExpr.zero()) + (-c if k % 2 else c)
                    low = min(low, X)
                elif ((2 * k - 1) * R + 2 * A) * direction > 0:
                    break
                k += direction
                if wk is not None:
                    wk = wk * w_step
                pk = pk * p_step
                p_step = p_step * cp
        if not any(terms.values()):
            # w in p^Z: the terms cancel in pairs k, 1 - 2m - k (w = p^m);
            # or no term lies at or below E.  (p;p)_inf, 1 at z^0, divides
            # zero to zero
            return PuiseuxSeries.zero(E)
        bound = E - Frac(low, D)
        # (p;p)_inf through the bound by Euler's pentagonal theorem,
        # sum_k (-1)^k p^{k(3k-1)/2}: the terms k = j and k = -j sit at
        # X = j(3j-1)/2 R and that plus j R.  Running powers: p^{j(3j-1)/2}
        # gains p^{3j-2}, and the k = -j term is it times p^j
        top -= low
        pent = {0: SymExpr.one()}
        j, pn, pj, gain, cp3 = 1, cp, cp, cp, cp * cp * cp
        while (X := j * (3 * j - 1) // 2 * R) <= top:
            sign = -1 if j % 2 else 1
            pent[X] = pn * sign
            if X + j * R <= top:
                pent[X + j * R] = pn * pj * sign
            j += 1
            gain = gain * cp3
            pn, pj = pn * gain, pj * cp
        summ = PuiseuxSeries({Frac(X, D): c for X, c in terms.items()}, E)
        pp = PuiseuxSeries({Frac(X, D): c for X, c in pent.items()}, bound)
        return (summ * pp.inverse()).truncate(E)
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# closed-form series fixtures (algebraic solutions)
# ---------------------------------------------------------------------------


def _exp_monomial(c, e, E) -> PuiseuxSeries:
    return PuiseuxSeries({_frac(e): SymExpr.coerce(c)}, _frac(E)).exp()


def algebraic_fixture(name: str, E, *, sample=None, sign: int = 1,
                      wrong_branch: bool = False) -> PuiseuxSeries:
    """Closed-form truncated series solving the continuous / q Toda systems.

    names:
      P3_tau_minus       z^{1/16} e^{-4 z^{1/2}}
      P3_tau_plus_branch z^{1/16} e^{+4 z^{1/2}}
      P3_taupm           z^{1/32} e^{sign*2 z^{1/4} - 2 z^{1/2}}
                         (wrong_branch flips the z^{1/2} term's sign)
      qP3_tau            z^{1/16} (s q^{1/2} z^{1/2}; q^{1/2}, q^{1/2})_inf
      qP3_taupm          z^{1/32} (q^{1/2} z^{1/2}; q^{1/2}, q)_inf
                                  / (sign q^{1/4} z^{1/4}; q^{1/2})_inf
    q-fixtures need a parameter sample (q = t^dq with 4 | dq).
    """
    E = _frac(E)
    if name == "P3_tau_minus":
        return _exp_monomial(-4, Frac(1, 2), E).shift(Frac(1, 16))
    if name == "P3_tau_plus_branch":
        return _exp_monomial(4, Frac(1, 2), E).shift(Frac(1, 16))
    if name == "P3_taupm":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        s2 = 2 if wrong_branch else -2
        body = PuiseuxSeries(
            {Frac(1, 4): SymExpr.from_rational(Frac(2 * sign)),
             Frac(1, 2): SymExpr.from_rational(Frac(s2))}, E
        ).exp()
        return body.shift(Frac(1, 32))
    if sample is None:
        raise ValueError("q-fixtures need a parameter sample")
    t, dq = sample.t, sample.dq
    if name == "qP3_tau":
        s = Frac(sign) * _tpow(t, Frac(dq, 2))
        spec = PochhammerSpec(s, Frac(1, 2), (Frac(dq, 2), Frac(dq, 2)))
        return pochhammer_series(spec, t, E).shift(Frac(1, 16))
    if name == "qP3_taupm":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        num = pochhammer_series(
            PochhammerSpec(_tpow(t, Frac(dq, 2)), Frac(1, 2), (Frac(dq, 2), Frac(dq))), t, E)
        den = pochhammer_series(
            PochhammerSpec(Frac(sign) * _tpow(t, Frac(dq, 4)), Frac(1, 4), (Frac(dq, 2),)), t, E)
        return (num * den.inverse()).truncate(E).shift(Frac(1, 32))
    raise ValueError(f"unknown fixture {name!r}")
