"""Reference four-flavour coefficients for the tests at degenerate masses: a
basic hypergeometric series, a route that builds no Young diagram.

The four-flavour term of a pair (lam1, lam2) is a product of Nekrasov
factors with q1 = q^{-1}, q2 = q (see nekrasov.matter_kernel),

    N_{lam mu}(u) = prod_{s in lam} (1 - u q2^{-a_mu(s)-1} q1^{l_lam(s)})
                    prod_{s in mu} (1 - u q2^{a_lam(s)} q1^{-l_mu(s)-1}),

over the numerators N_{() lam_e'}(A_e) N_{lam_e' ()}(B_e) and the
denominators N_{lam_e lam_e'}(x^{(e-e')/2}), e, e' = +-1 (lam_1 = lam1,
lam_-1 = lam2), with the masses and x = q^{2 sigma}

    A_e = c_inf^e / c_1 q^{e p_inf - p_1 - sigma},
    B_e = c_0^{-e} / c_t q^{sigma - p_t - e p_0}.

When only the pairs ((n), ()) survive, every factor of the row (n) is read
off its boxes s = (1, j): a_(n)(s) = n - j, l_(n)(s) = 0, a_()(s) = -j and
l_()(s) = -1.  The numerators of the empty diagram and N_{() ()} are 1, so
the term of z^n is

    prod_e (A_e; q^{-1})_n (B_e; q)_n
    / ((q; q)_n (q^{-1}; q^{-1})_n (x; q)_n (x^{-1}; q^{-1})_n),

with (a; b)_n = prod_{j<n} (1 - a b^j).  Turning each base q^{-1} round,
(a; q^{-1})_n = (-a)^n q^{-n(n-1)/2} (a^{-1}; q)_n, the q-powers cancel and
the series is the 4phi3

    4phi3(A_+^{-1}, A_-^{-1}, B_+, B_-; q, x, x; q, A_+ A_- q x z)

(Gasper-Rahman, Basic Hypergeometric Series, 2nd ed., 2004, ch. 1).  The
column (1^n) is the row's transpose: a and l trade places and so do q1 and
q2, so its series is the same with the base q^{-1} in place of q, at the
same A_e, B_e and x.
"""

from __future__ import annotations

from fractions import Fraction as Frac


def _real(c) -> Frac:
    """A real GaussianRational as a Fraction."""
    assert c.b == 0, c
    return Frac(c.a, c.d)


def poch(a: Frac, b: Frac, n: int) -> Frac:
    """The q-shifted factorial (a; b)_n = prod_{j<n} (1 - a b^j)."""
    out = Frac(1)
    for j in range(n):
        out *= 1 - a * b ** j
    return out


def phi(uppers, lowers, base: Frac, w: Frac, order: int):
    """The coefficients of z^0 .. z^order of the r+1 phi r series
    sum_n (uppers; base)_n / ((base; base)_n (lowers; base)_n) (w z)^n."""
    assert len(uppers) == len(lowers) + 1
    out = []
    for n in range(order + 1):
        num, den = Frac(1), poch(base, base, n)
        for a in uppers:
            num *= poch(a, base, n)
        for b in lowers:
            den *= poch(b, base, n)
        out.append(num / den * w ** n)
    return out


def parameters(vs, sigma: Frac, sample, columns: bool = False):
    """(A, B, x, base) of the single-row series, or of the single-column
    one with columns: A and B map e = +-1 to A_e and B_e, base is q or
    q^{-1}, all as Fractions.

    vs maps "0", "t", "1", "inf" to (coef, p) for coef q^p, each coef a
    real GaussianRational; q = t^dq of sample and every power of q met must
    be an integer power of t.
    """
    t, dq = sample.t, sample.dq

    def q_power(p):
        e = dq * p
        assert e.denominator == 1, p
        return t ** int(e)

    (c0, p0), (ct, pt), (c1, p1), (cinf, pinf) = (
        (_real(c), p) for c, p in (vs["0"], vs["t"], vs["1"], vs["inf"]))
    A = {e: cinf ** e / c1 * q_power(e * pinf - p1 - sigma) for e in (1, -1)}
    B = {e: c0 ** -e / ct * q_power(sigma - pt - e * p0) for e in (1, -1)}
    q = q_power(Frac(1))
    return A, B, q_power(2 * sigma), 1 / q if columns else q


def single_diagram_series(vs, sigma: Frac, sample, order: int, columns: bool = False):
    """The coefficients through z^order of the four-flavour sum over the
    pairs ((n), ()) alone, or ((1^n), ()) with columns, as Fractions; vs as
    in parameters."""
    A, B, x, q = parameters(vs, sigma, sample, columns)
    return phi([1 / A[1], 1 / A[-1], B[1], B[-1]], [q, x, x], q, A[1] * A[-1] * q * x, order)
