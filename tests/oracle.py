"""Numeric oracle for the tests: high-precision evaluation of exact values.

The package computes in exact arithmetic only.  The tests cross-check its
canonical symbols against mpmath here, and build the exact values whose
only use is such a cross-check: sin(pi*y), the single-parameter one-loop
exponential and the one-loop negation ratio.  It also holds the direct
one-loop cocycle products, z1loop_ratio_4d and q_z1loop_ratio: each
multiplies the whole chain of unit steps from the reference, k1 steps
first, and the package's one telescoping route (RelativeZ4d/5d.cocycle)
is checked against them term for term and in order.
"""

from __future__ import annotations

from fractions import Fraction as Frac

import mpmath as mp

from nektau.nekrasov import _gamma1_free
from nektau.symbols import (
    GAMMA, PI, POCH, RADICAL, SIN, Resonance, SymExpr, canonical, pi_power, poch_value,
    rational_power,
)


def _mpf(x: Frac):
    return mp.mpf(x.numerator) / x.denominator


def numeric_value(expr: SymExpr, t: Frac, dps=60):
    """Evaluate a SymExpr with mpmath at the sample base t."""
    with mp.workdps(dps):
        tt = _mpf(t)
        total = mp.mpc(0)
        for m, c in expr.terms.items():
            v = mp.mpc(_mpf(c.re), _mpf(c.im))
            for (kind, arg), e in m.factors:
                v *= mp.power(_symbol_num[kind](tt, arg), _mpf(e))
            total += v
        return total


def _poch_num(tt, ab):
    """(tt^a; tt^b)_inf by its product, to the working precision."""
    a, b = ab
    z = mp.power(tt, _mpf(a))
    q = mp.power(tt, _mpf(b))
    out = mp.mpf(1)
    while abs(z) > mp.mpf(10) ** (-mp.mp.dps - 10):
        out *= (1 - z)
        z *= q
    return out


#: the value of each symbol kind at the base tt, by its argument
_symbol_num = {
    RADICAL: lambda tt, p: mp.mpf(p),
    PI: lambda tt, _: +mp.pi,
    GAMMA: lambda tt, y: mp.gamma(_mpf(y)),
    SIN: lambda tt, y: mp.sin(mp.pi * _mpf(y)),
    POCH: _poch_num,
}


def sin_pi(y) -> SymExpr:
    """sin(pi*y) for rational y, canonicalized to an argument in (0,1/2)."""
    y = Frac(y)
    if y.denominator == 1:
        raise Resonance(f"sin(pi*{y}) = 0")
    k = y.numerator // y.denominator
    y -= k
    sign = -1 if k % 2 else 1
    if y == Frac(1, 2):
        return SymExpr.from_rational(sign)
    if y > Frac(1, 2):
        y = 1 - y
    return SymExpr.monomial(canonical({(SIN, y): Frac(1)})[0], sign)


def gamma1_exp(eps: Frac, x: Frac) -> SymExpr:
    """Closed form of the single-parameter one-loop exponential.

    For eps < 0 this is (-eps)^{-x/eps-1/2} Gamma(-x/eps) / sqrt(2 pi);
    for eps > 0 it is eps^{-x/eps-1/2} sqrt(2 pi) / Gamma(1 + x/eps).
    sqrt(2 pi) is made per call: a module constant's monomial would keep
    the products of a run in its table (see symbols.mono_mul).
    """
    sqrt_2pi = rational_power(2, Frac(1, 2)) * pi_power(Frac(1, 2))
    g = _gamma1_free(eps, x)
    return g / sqrt_2pi if eps < 0 else g * sqrt_2pi


def z1loop_negation_ratio(e1: Frac, e2: Frac, a: Frac) -> SymExpr:
    """Ratio of one-loop factors for (-e1, -e2) over (e1, e2) at the same a.

    Negating both parameters equals shifting both arguments down by
    e1 + e2, which telescopes into four single-parameter factors.
    """
    return (
        gamma1_exp(e2, a)
        * gamma1_exp(e1, a - e1)
        * gamma1_exp(e2, -a)
        * gamma1_exp(e1, -a - e1)
    )


def z1loop_ratio_4d(e1: Frac, e2: Frac, a0: Frac, k1: int, k2: int) -> SymExpr:
    """Ratio of 4d one-loop factors: shifted point a0 + k1 e1 + k2 e2
    over reference a0, built by telescoping unit shifts.

    A unit shift of the first argument by +e1 multiplies the pair
    exp(-gamma(x)) exp(-gamma(-x)) by g1(e2, -x) / g1(e2, x + e1), a
    ratio at one eps, from which sqrt(2 pi) cancels (`_gamma1_free`).
    """
    out = SymExpr.one()
    x = a0
    for estep, epartner, count in ((e1, e2, k1), (e2, e1, k2)):
        for _ in range(abs(count)):
            if count > 0:
                out = out * _gamma1_free(epartner, -x) / _gamma1_free(epartner, x + estep)
                x += estep
            else:
                out = out * _gamma1_free(epartner, x) / _gamma1_free(epartner, -x + estep)
                x -= estep
    return out


def _q_step(out: SymExpr, Lu: Frac, Estep: Frac, Epartner: Frac, up: bool,
            t: Frac) -> SymExpr:
    """out times the one-loop ratio of one q-step of u = t^Lu along Estep,
    up (one S(-Lu - Estep; Epartner) / S(Lu; Epartner), see q_z1loop_ratio)
    or down."""
    if up:
        return out * poch_value(-Lu - Estep, Epartner, t) / poch_value(Lu, Epartner, t)
    return out * poch_value(Lu - Estep, Epartner, t) / poch_value(-Lu, Epartner, t)


def q_z1loop_ratio(E1: Frac, E2: Frac, Lu0: Frac, k1: int, k2: int, t: Frac) -> SymExpr:
    """Ratio of 5d one-loop factors: u shifted by q1^{k1} q2^{k2} over u.

    One upward q1-step multiplies the double product
    (u; q1, q2)(u^{-1}; q1, q2) by S(-Lu - E1; E2) / S(Lu; E2) where
    S(E; B) is the canonical single-base Pochhammer symbol.
    """
    out = SymExpr.one()
    Lu = Lu0
    for Estep, Epartner, count in ((E1, E2, k1), (E2, E1, k2)):
        for _ in range(abs(count)):
            out = _q_step(out, Lu, Estep, Epartner, count > 0, t)
            Lu += Estep if count > 0 else -Estep
    return out
