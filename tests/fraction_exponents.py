"""Reference exponents for the tests, in Fraction arithmetic.

`classical_exp_4d`, `classical_exp_5d` and `cs_exponent` are the classical
z-exponents and the Chern-Simons t-exponent of a diagram as the package
computed them before they moved onto ints (`classical_gap` of
`nekrasov.RelativeZ4d/5d`, the diagram keys of `nekrasov.kernel_5d`).  The
tests compare the package against them.
"""

from __future__ import annotations

from fractions import Fraction

from nektau.partitions import boxes

Frac = Fraction


def classical_exp_4d(e1: Frac, e2: Frac, a: Frac) -> Frac:
    """z-exponent of the classical factor (z carries 4 scale units)."""
    return -a * a / (4 * e1 * e2)


def classical_exp_5d(E1: Frac, E2: Frac, Lu: Frac) -> Frac:
    """z-exponent of the 5d classical factor."""
    return Frac(-Lu * Lu) / (4 * E1 * E2)


def cs_exponent(lam, m: int, u_texp: Frac, E1: Frac, E2: Frac) -> Frac:
    """The t-exponent of T_lam(u)^m (q1 q2)^{-m|lam|/2}, where
    T_lam = prod over boxes (i, j) of u^-1 q1^{1-i} q2^{1-j}, u = t^{u_texp}
    and q_i = t^{E_i}."""
    if not (0 <= m <= 2):
        raise ValueError("Chern-Simons level must be 0, 1 or 2")
    if m == 0 or not lam:
        return Frac(0)
    size = sum(lam)
    s1 = sum(1 - i for i, _ in boxes(lam))
    s2 = sum(1 - j for _, j in boxes(lam))
    return m * (-size * u_texp + E1 * s1 + E2 * s2) - Frac(m * size, 2) * (E1 + E2)
