"""Reference pair factors for the tests: one route per dimension.

`pair_4d` and `pair_5d` are the pair factors N_{lam1 lam2}(u) N_{lam2
lam1}(-u) as the kernels formed them before `partitions.pair_route` read
what a box gives from a per-series table: two loops over one BoxWeights
list, the 4d one with its own product and odd-box sign, the 5d one building
its PairBinomials inside.  `box_by_box_pair` is their fallback, the route of
two factor calls.  The tests compare pair_route against these, pair by pair,
value or exception.
"""

from __future__ import annotations

from fractions import Fraction as Frac

from nektau.partitions import BoxWeights, PairBinomials

_ONE = (1, 0, 1)


def box_by_box_pair(factor):
    """The pair factor N_{lam1 lam2} N_{lam2 lam1} as (num, den) from two
    factor calls (see pair_sum): the route that raises what the box-by-box
    product meets first."""

    def pair(lam1, lam2):
        num, _, den = factor(factor(_ONE, lam1, lam2, 1), lam2, lam1, -1)
        return num, den

    return pair


def pair_4d(weights: BoxWeights, A: int, factor):
    """The 4d pair factor N_{lam1 lam2}(A) N_{lam2 lam1}(-A) over integral
    weights, as (num, 1): a box of weight w in the first gives A + w and
    the same box in the second -(A + w + e1 + e2).  A zero product takes
    the route of factor, the 4d box-by-box one."""
    S = weights.e1 + weights.e2
    fallback = box_by_box_pair(factor)

    def pair(lam1, lam2):
        ws = weights(lam1, lam2)
        num = 1
        for w in ws:
            f = A + w
            num *= f * (f + S)
        if not num:
            return fallback(lam1, lam2)
        return (-num if len(ws) & 1 else num), 1

    return pair


def pair_5d(weights: BoxWeights, t: Frac, u: Frac, factor):
    """The 5d pair factor N_{lam1 lam2}(t^u) N_{lam2 lam1}(t^-u) at the
    coefficient 1, as (num, den): a box of weight w gives (1 - t^e)(1 -
    t^{-e-e1-e2}) with e = u + w.  Non-integral weights or u, or a zero
    product, take the route of factor, the 5d box-by-box one."""
    fallback = box_by_box_pair(factor)
    if not weights.integral or u.denominator != 1:
        return fallback
    table = PairBinomials(t, weights.e1 + weights.e2)
    P, R, u = t.numerator, t.denominator, int(u)

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
