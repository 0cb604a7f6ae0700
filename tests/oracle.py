"""Numeric oracle for the tests: high-precision evaluation of exact values.

The package computes in exact arithmetic only.  The tests cross-check its
canonical symbols against mpmath here, and build the two exact values whose
only use is such a cross-check: sin(pi*y) and the one-loop negation ratio.
"""

from __future__ import annotations

from fractions import Fraction as Frac

import mpmath as mp

from nektau.nekrasov import gamma1_exp
from nektau.symbols import GAMMA, PI, POCH, RADICAL, SIN, Resonance, SymExpr, canonical


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
