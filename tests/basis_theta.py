"""Reference theta-forms for the tests: the basis-product route.

`theta_products` is series.theta_products as it was before each form became
one pass over the pairs of terms of f and g: each poly is a
theta-combination of the basis products B_j = theta^{alpha+j} f *
theta^beta g, formed as full series products, kept in a store `memo` that
the caller may share across calls, and applied in one integer pass over the
B_j (`_theta_sum`); when f is g and alpha = beta the odd B_j are made from
the even ones.  `weighted_theta_expand` and `hirota` are the package's
forms on it.  The tests compare the package's one-pass forms against these,
with and without a shared store.
"""

from __future__ import annotations

from fractions import Fraction as Frac
from math import comb, lcm

from nektau.rationals import GaussianRational
from nektau.series import PuiseuxSeries, _int_bounds, _sectors, _top, on_lattice
from nektau.symbols import _expr, _frac

ZERO = Frac(0)
HALF = Frac(1, 2)
from_ints = GaussianRational.from_ints


def theta_products(f, g, polys, *, memo=None):
    """sum c theta^a f * theta^b g over {(a, b): c}, c rational, for each
    poly of polys.

    Since x^a y^b = x^a ((x + y) - x)^b and theta acts on a product as
    x + y, each form is a theta-combination of the basis products
    B_j = theta^{alpha+j} f * theta^beta g:

        theta^a f * theta^b g = sum_i C(b', i) (-1)^i theta^{b'-i} B_{a'+i}

    with a' = a - alpha, b' = b - beta: a poly is sum_j W_j(theta) B_j, a
    polynomial W_j per basis product, made in one integer pass over the B_j
    (`_theta_sum`).  (alpha, beta) is the least (a, b) of the poly set, but
    beta is the poly's own least b where g has a z^0 term, which theta
    drops.  Each B_j is then known at least as far as every product of the
    poly, as the bounds of `_product_bounds` grow under theta only where a
    z^0 term is dropped: alpha + j >= a_min, and beta = b_min, or
    beta < b_min and theta^beta g has no z^0 term.  When f is g and
    alpha = beta, only the even B_j are products; an odd one is
    2 B_n = sum_{i<n} C(n,i) (-1)^i theta^{n-i} B_i, made by the same pass
    over the B_i, through the least bounds of the B_i (`_least_bounds`).
    It too is known far enough: either theta^alpha f has no z^0 term, or
    b_min = 0 and, as sector s sums both pairs (k1, k2) and (k2, k1), the
    poly's bounds are those at a = b = 0, the bounds of B_0.

    Each B_j is formed once per call, or once per memo: a dict of the B_j
    of the pair (f, g) that the caller keeps across calls.  Each output is
    known through the bounds of the sum of its full products theta^a f *
    theta^b g, in every sector; an entry with c = 0 still lowers them.  f
    and g may be PuiseuxSeries or FourierSeries.
    """
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
                lower = [product(alpha, beta, i) for i in range(j)]
                B = _theta_form(f, [(B_i, {j - i: HALF * comb(j, i) * (-1) ** i})
                                    for i, B_i in enumerate(lower)], *_least_bounds(lower))
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
        weights = {}  # j -> {m: coefficient of theta^m B_j}
        for (a, b), c in poly.items():
            for i in range(b - beta + 1):
                w = weights.setdefault(a - alpha + i, {})
                m = b - beta - i
                w[m] = w.get(m, 0) + c * comb(b - beta, i) * (-1) ** i
        parts = []
        for j, w in sorted(weights.items()):
            w = {m: c for m, c in w.items() if c}
            if w:
                parts.append((product(alpha, beta, j), w))
        outs.append(_theta_form(f, parts, *_product_bounds(f, g, a_min, b_min)))
    del product  # it refers to itself; free this call's theta powers now
    return outs


def _least_bounds(hs):
    """The bounds of a sum of the series hs: the least bound, and for each
    sector the least bound of the hs that hold it."""
    bounds = {}
    for h in hs:
        for S, p in _sectors(h).items():
            bounds[S] = min(bounds.get(S, p.trunc), p.trunc)
    return min(h.trunc for h in hs), bounds


def _theta_form(like, parts, trunc, bounds):
    """sum W(theta) B over the parts (B, W), known through trunc and
    through bounds[S] in each sector S, as a series of the type of like
    (`_theta_sum`); a sector no B holds is zero through its bound."""
    parts = [(_sectors(B), w) for B, w in parts]
    if isinstance(like, PuiseuxSeries):
        return _theta_sum(parts, {ZERO: trunc})[ZERO]
    return type(like)(_theta_sum(parts, bounds), trunc)


def _theta_sum(parts, bounds):
    """{S: sector S of sum W(theta) B over the parts (B's sectors, W)},
    through bounds[S] for each sector S of bounds: W is {m: c}, the
    polynomial sum c theta^m with rational c.

    Theta is e on the term at z^e, so the term at X/L of an output is
    sum W(X/L) b over the terms b of the B at X/L.  With D the lcm of the
    denominators of all c and M the highest m, D L^M W(X/L) is an integer:
    each output term sums these times Gaussian-integer numerators over one
    denominator, and is reduced once (`from_ints`).  Only the terms at or
    below the bound are formed.
    """
    D = lcm(*(Frac(c).denominator for _, w in parts for c in w.values()))
    M = max((m for _, w in parts for m in w), default=0)
    out = {}
    for S, bound in bounds.items():
        held = [(hs[S], w) for hs, w in parts if S in hs]
        L = lcm(*(p.L for p, _ in held))
        top = _top(bound, L)
        acc = {}  # X -> monomial -> [(re, im, den)]
        for p, w in held:
            w = [(m, int(c * D) * L ** (M - m)) for m, c in w.items()]
            step = L // p.L
            for X, c in p.xterms.items():
                X *= step
                if X > top:
                    continue
                n = sum(k * X ** m for m, k in w)
                if n:
                    by_mono = acc.setdefault(X, {})
                    for m, v in c.terms.items():
                        by_mono.setdefault(m, []).append((n * v.a, n * v.b, v.d))
        scale = D * L ** M
        xterms = {}
        for X, by_mono in acc.items():
            terms = {}
            for m, nums in by_mono.items():
                den = lcm(*(d for _, _, d in nums))
                re = sum(a * (den // d) for a, _, d in nums)
                im = sum(b * (den // d) for _, b, d in nums)
                if re or im:
                    terms[m] = from_ints(re, im, den * scale)
            if terms:
                xterms[X] = _expr(terms)
        out[S] = on_lattice(L, xterms, bound)
    return out


def _product_bounds(f, g, a, b):
    """The bound of theta^a f * theta^b g and of each of its sectors, as
    Fractions: those of series._int_bounds."""
    T, M, top, bounds = _int_bounds(f, g, _sectors(f), _sectors(g), a, b)
    return Frac(top, T), {Frac(S, M): Frac(B, T) for S, B in bounds.items()}


def _has_z0(h):
    return any(0 in p.xterms for p in _sectors(h).values())


def weighted_theta_expand(f, g, w1, w2, k, *, memo=None):
    """Coefficient of alpha^k/k! in f(e^{w1 alpha} z) g(e^{w2 alpha} z).

    f(e^{w1 alpha} z) g(e^{w2 alpha} z) sends z^x z^y to
    e^{(w1 x + w2 y) alpha} z^{x+y}, so the coefficient is
    sum (w1 x + w2 y)^k f_x g_y = sum_j C(k,j) w1^j w2^{k-j}
    theta^j f * theta^{k-j} g: the theta_products of that poly
    (k = 0 is the product), on the B_j of memo if given.  f and g may be
    PuiseuxSeries or FourierSeries.
    """
    w1, w2 = _frac(w1), _frac(w2)
    poly = {(j, k - j): comb(k, j) * w1**j * w2 ** (k - j) for j in range(k + 1)}
    return theta_products(f, g, [poly], memo=memo)[0]


def hirota(k, f, g, *, memo=None):
    """Hirota derivative D^k in log z, k <= 4: the alpha-expansion above at
    weights (1, -1), sum (x - y)^k f_x g_y (Hirota, The Direct Method in
    Soliton Theory, CUP 2004).  As x - y = 2x - (x + y), this is
    sum_j C(k,j) 2^j (-theta)^{k-j} B_j over B_j = theta^j f * g, applied
    by Horner in theta; memo keeps the B_j of the pair across k."""
    if k > 4:
        raise ValueError("Hirota order limited to 4")
    return weighted_theta_expand(f, g, 1, -1, k, memo=memo)
