"""Reference theta-forms for the tests: the basis products applied by Horner.

`theta_products` is the basis-product route of basis_theta.py as it was
before each poly became one integer pass over its basis products: the poly is applied by Horner in
theta over whole series (theta, scale and add, one coefficient object at a
time), an odd basis product of a symmetric pair is built the same way from
the lower ones, and each output is then cut to the bounds of its products
(`_cut`).  `weighted_theta_expand` and `hirota` are the package's forms on
it.  The tests compare the basis-product route against these, store
included.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from math import comb

from basis_theta import _has_z0, _product_bounds
from nektau.series import PuiseuxSeries, _sectors, _with_bound, on_lattice

ZERO = Frac(0)
HALF = Frac(1, 2)


def theta_products(f, g, polys, *, memo=None):
    """sum c theta^a f * theta^b g over {(a, b): c}, for each poly of polys,
    by Horner in theta over the basis products B_j = theta^{alpha+j} f *
    theta^beta g (see basis_theta.theta_products)."""
    basis = {} if memo is None else memo
    thf = [f]
    thg = thf if f is g else [g]

    def power(ths, n):
        while len(ths) <= n:
            ths.append(ths[-1].theta())
        return ths[n]

    def product(alpha, beta, j):
        B = basis.get((alpha, beta, j))
        if B is None:
            if f is g and alpha == beta and j % 2:
                B = product(alpha, beta, 0)
                for i in range(1, j):
                    B = B.theta() + product(alpha, beta, i).scale(comb(j, i) * (-1) ** i)
                B = B.theta().scale(HALF)
            else:
                B = power(thf, alpha + j) * power(thg, beta)
            basis[alpha, beta, j] = B
        return B

    alpha = min(a for poly in polys for a, _ in poly)
    b0 = min(b for poly in polys for _, b in poly)
    outs = []
    for poly in polys:
        a_min = min(a for a, _ in poly)
        b_min = min(b for _, b in poly)
        beta = b0 if b0 or not _has_z0(g) else b_min
        terms = {}  # (j, m) -> coefficient of theta^m B_j
        for (a, b), c in poly.items():
            for i in range(b - beta + 1):
                jm = (a - alpha + i, b - beta - i)
                terms[jm] = terms.get(jm, 0) + c * comb(b - beta, i) * (-1) ** i
        out = None
        for m in range(max(m for _, m in terms), -1, -1):
            if out is not None:
                out = out.theta()
            for (j, mj), d in sorted(terms.items()):
                if mj == m and d:
                    term = product(alpha, beta, j)
                    term = term if d == 1 else term.scale(d)
                    out = term if out is None else out + term
        outs.append(_cut(f, out, *_product_bounds(f, g, a_min, b_min)))
    del product  # it refers to itself; free this call's theta powers now
    return outs


def _cut(like, h, trunc, bounds):
    """h (None for zero) cut to the bound trunc and to the sector bounds,
    as a series of the type of like; a sector h lacks is zero through its
    bound."""
    sectors = {} if h is None else _sectors(h)
    zero = on_lattice(1, {}, trunc)
    if isinstance(like, PuiseuxSeries):
        return _with_bound(sectors.get(ZERO, zero), trunc)
    return type(like)({s: _with_bound(sectors.get(s, zero), b)
                       for s, b in bounds.items()}, trunc)


def weighted_theta_expand(f, g, w1, w2, k, *, memo=None):
    """sum_j C(k,j) w1^j w2^{k-j} theta^j f * theta^{k-j} g."""
    w1, w2 = Frac(w1), Frac(w2)
    poly = {(j, k - j): comb(k, j) * w1**j * w2 ** (k - j) for j in range(k + 1)}
    return theta_products(f, g, [poly], memo=memo)[0]


def hirota(k, f, g, *, memo=None):
    """D^k in log z: the expansion above at weights (1, -1)."""
    return weighted_theta_expand(f, g, 1, -1, k, memo=memo)
