"""The product kernel as it was before a product became the theta-form
{(0, 0): 1} of series.theta_products: `sector_product`, which finds the
bounds of f * g on ints and convolves the split rows of each output sector
(`_convolve`).  It reads the package's shared helpers (`_int_bounds`,
`_sector_pairs`, `_mono_groups`), so it differs from the package only in the
loop over pairs of terms; the tests compare every product with it."""

from fractions import Fraction as Frac

from nektau.fourier import FourierSeries
from nektau.rationals import GaussianRational
from nektau.series import (PuiseuxSeries, _int_bounds, _mono_groups, _sector_pairs, _sectors,
                           on_lattice)
from nektau.symbols import _expr

from_ints = GaussianRational.from_ints


def sector_product(f, g):
    """(bound, sectors) of f * g, f and g each a PuiseuxSeries (the single
    sector 0) or a FourierSeries: each output sector's pairs of splits
    convolved together through its bound."""
    fs, gs = _sectors(f), _sectors(g)
    T, M, top, bounds = _int_bounds(f, g, fs, gs)
    L, pairs = _sector_pairs(fs, gs, M)
    step = T // L
    return Frac(top, T), {Frac(S, M): on_lattice(L, _convolve(pairs[S], B // step), Frac(B, T))
                          for S, B in bounds.items()}


def _convolve(pairs, top):
    """{X: SymExpr} of the sum of f * g over the pairs (f, g) of `_split`s
    on one lattice, through X <= top.  The rows of each pair of monomials
    (`_mono_groups`) are convolved in increasing X, stopping past top, and
    the sums of one output monomial are put over one denominator."""
    by_X = {}  # X -> monomial -> coefficient
    for mono, (den, group) in _mono_groups(pairs, top).items():
        acc = {}  # X -> [re, im] over den
        for w, rows1, rows2 in group:
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
        for X, (re, im) in acc.items():
            if re or im:
                by_X.setdefault(X, {})[mono] = from_ints(re, im, den)
    return {X: _expr(terms) for X, terms in by_X.items()}


def ref_product(f, g):
    """f * g by `sector_product`: sector 0 of a product of two
    PuiseuxSeries, else a FourierSeries."""
    trunc, sectors = sector_product(f, g)
    if isinstance(f, PuiseuxSeries) and isinstance(g, PuiseuxSeries):
        return sectors[Frac(0)]
    return FourierSeries(sectors, trunc)
