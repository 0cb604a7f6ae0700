"""Reference symbol monomials for the tests: five parallel fields.

`FieldMonomial` is SymbolMonomial as it was before a monomial became one
exponent map (radicals, the pi exponent, Gamma, sine and Pochhammer symbols
each in a field of their own), with its product `ref_mono_mul`, its inverse
`ref_inverse` and the radical fold of `ref_rational_power`, each normalising
on its own.  The tests compare the package's monomials against these,
operation by operation.
"""

from __future__ import annotations

from fractions import Fraction as Frac

from nektau.symbols import _factorint


class FieldMonomial:
    """A canonical symbol monomial stored as five fields."""

    __slots__ = ("rad", "pi_exp", "gam", "sn", "poch")

    def __init__(self, rad=(), pi_exp=Frac(0), gam=(), sn=(), poch=()):
        object.__setattr__(self, "rad", tuple(sorted(rad)))
        object.__setattr__(self, "pi_exp", pi_exp)
        object.__setattr__(self, "gam", tuple(sorted(gam)))
        object.__setattr__(self, "sn", tuple(sorted(sn)))
        object.__setattr__(self, "poch", tuple(sorted(poch)))

    def __setattr__(self, name, value):
        raise AttributeError("FieldMonomial is immutable")

    def render(self) -> str:
        bits = []
        for p, e in self.rad:
            bits.append(f"{p}^({e})")
        if self.pi_exp:
            bits.append(f"pi^({self.pi_exp})")
        for y, e in self.gam:
            bits.append(f"Gamma({y})^({e})")
        for y, e in self.sn:
            bits.append(f"sin(pi*{y})^({e})")
        for (a, b), e in self.poch:
            bits.append(f"poch(t^{a};t^{b})^({e})")
        return "*".join(bits) if bits else "1"


def _merge_pairs(p1, p2):
    """Add exponent maps given as sorted (key, exp) tuples, dropping zeros."""
    out = dict(p1)
    for k, e in p2:
        ne = out.get(k, Frac(0)) + e
        if ne:
            out[k] = ne
        else:
            out.pop(k, None)
    return tuple(sorted(out.items()))


def _fold_radicals(exps):
    """(radical pairs with exponents in (0, 1), the folded rational)."""
    rat = Frac(1)
    rad = []
    for p, pe in exps:
        k = pe.numerator // pe.denominator
        fe = pe - k
        if k:
            rat *= Frac(p) ** k
        if fe:
            rad.append((p, fe))
    return tuple(rad), rat


def ref_mono_mul(m1: FieldMonomial, m2: FieldMonomial):
    """Product of two monomials: (monomial, rational cofactor)."""
    rad, cof = _fold_radicals(_merge_pairs(m1.rad, m2.rad))
    mono = FieldMonomial(
        rad,
        m1.pi_exp + m2.pi_exp,
        _merge_pairs(m1.gam, m2.gam),
        _merge_pairs(m1.sn, m2.sn),
        _merge_pairs(m1.poch, m2.poch),
    )
    return mono, cof


def ref_inverse(m: FieldMonomial):
    """1/m: every exponent negated, radicals refolded by a product with 1."""
    neg = lambda pairs: tuple((k, -e) for k, e in pairs)
    inv = FieldMonomial(neg(m.rad), -m.pi_exp, neg(m.gam), neg(m.sn), neg(m.poch))
    return ref_mono_mul(inv, FieldMonomial())


def ref_rational_power(r: Frac, e: Frac):
    """r^e for rational r > 0: (radical monomial, rational cofactor)."""
    exps = {}
    for p, k in _factorint(r.numerator).items():
        exps[p] = exps.get(p, Frac(0)) + k * e
    for p, k in _factorint(r.denominator).items():
        exps[p] = exps.get(p, Frac(0)) - k * e
    rad, rat = _fold_radicals(exps.items())
    return FieldMonomial(rad=rad), rat
