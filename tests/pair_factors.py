"""Reference pair factors for the tests: one route per dimension.

`pair_4d` and `pair_5d` are the pair factors N_{lam1 lam2}(u) N_{lam2
lam1}(-u) read from per-dimension tables of what a box gives to both
factors, `PairLinears` in 4d and `PairBinomials` in 5d: the tables the
kernels built before `partitions.pair_route` read a box's two factors from
the kernel's own table of box factors.  `mul_factors_4d` is the 4d
box-by-box product the 4d kernel kept beside the 5d one, and
`box_by_box_pair` is the fallback of both, the route of two factor calls.
The tests compare pair_route against these, pair by pair, value or
exception.
"""

from __future__ import annotations

from fractions import Fraction as Frac

from nektau.partitions import BoxWeights, _box_of
from nektau.symbols import ZeroFactor

_ONE = (1, 0, 1)


def mul_factors_4d(acc: int, lam, mu, weights: BoxWeights, A: int) -> int:
    """acc times the integer numerators A + weight of N_{lam mu}.

    With L a common denominator of (a, e1, e2), A = a L and weights made
    from (e1 L, e2 L), the 4d pair factor is the product over L^{#boxes}.
    """
    for k, w in enumerate(weights(lam, mu)):
        f = A + w
        if not f:
            raise ZeroFactor(
                f"4d factor vanished at box {_box_of(lam, mu, k)} of {lam}/{mu}")
        acc *= f
    return acc


class PairLinears(dict):
    """PairBinomials in 4d, with P = R = 1: e -> (-e(e + S), 0, 0), a box's
    factors e in N_{lam1 lam2} and -(e + S) in N_{lam2 lam1}.  Entries are
    made on first use and live as long as the table."""

    P = R = 1

    def __init__(self, S: int):
        super().__init__()
        self.S = S

    def __missing__(self, e: int):
        val = self[e] = (-e * (e + self.S), 0, 0)
        return val


class PairBinomials(dict):
    """Exponent e -> (1 - t^e)(1 - t^{-e-S}) as an integer triple (num, r,
    p) for num / (R^r P^p), with t = P / R in lowest terms.  Entries are
    made on first use and live as long as the table."""

    def __init__(self, t: Frac, S: int):
        super().__init__()
        self.P, self.R, self.S = t.numerator, t.denominator, S

    def _binomial(self, e):
        P, R = self.P, self.R
        return (R ** e - P ** e, e, 0) if e >= 0 else (P ** -e - R ** -e, 0, -e)

    def __missing__(self, e: int):
        n1, r1, p1 = self._binomial(e)
        n2, r2, p2 = self._binomial(-e - self.S)
        val = self[e] = (n1 * n2, r1 + r2, p1 + p2)
        return val


def box_by_box_pair(factor):
    """The pair factor N_{lam1 lam2} N_{lam2 lam1} as (num, den) from two
    factor calls (see pair_sum): the route that raises what the box-by-box
    product meets first."""

    def pair(lam1, lam2):
        num, _, den = factor(factor(_ONE, lam1, lam2, 1), lam2, lam1, -1)
        return num, den

    return pair


def _table_pair(weights: BoxWeights, u: int, table, factor):
    """The pair factor over integral weights as (num, den), a box of
    weight w giving table[u + w], a triple (num, r, p) for num / (R^r P^p).
    A zero product takes the route of factor."""
    fallback = box_by_box_pair(factor)
    P, R = table.P, table.R

    def pair(lam1, lam2):
        num, r, p = 1, 0, 0
        for w in weights(lam1, lam2):
            n, dr, dp = table[u + w]
            num *= n
            r += dr
            p += dp
        if not num:
            return fallback(lam1, lam2)
        return num, R ** r * P ** p

    return pair


def pair_4d(weights: BoxWeights, A: int, factor):
    """The 4d pair factor N_{lam1 lam2}(A) N_{lam2 lam1}(-A) over integral
    weights, as (num, 1): a box of weight w gives (A + w) in the first and
    -(A + w + e1 + e2) in the second, one PairLinears entry.  A zero
    product takes the route of factor, the 4d box-by-box one."""
    return _table_pair(weights, A, PairLinears(weights.e1 + weights.e2), factor)


def pair_5d(weights: BoxWeights, t: Frac, u: Frac, factor):
    """The 5d pair factor N_{lam1 lam2}(t^u) N_{lam2 lam1}(t^-u) at the
    coefficient 1, as (num, den): a box of weight w gives (1 - t^e)(1 -
    t^{-e-e1-e2}) with e = u + w, one PairBinomials entry.  Non-integral
    weights or u, or a zero product, take the route of factor, the 5d
    box-by-box one."""
    if not weights.integral or u.denominator != 1:
        return box_by_box_pair(factor)
    return _table_pair(weights, int(u), PairBinomials(t, weights.e1 + weights.e2), factor)
