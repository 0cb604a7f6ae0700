"""Canonical transcendental-symbol algebra over Q(i).

A SymExpr is a finite Q(i)-linear combination of SymbolMonomial values.  A
monomial is one exponent map, a sorted tuple of (symbol, exponent) pairs.  A
symbol is (kind, argument), its kinds numbered in render order:

  * RADICAL   prime radicals        p^e            with e in (0,1), p prime
  * PI        pi^e                                 (argument None)
  * GAMMA     gamma symbols         Gamma(y)^e     with y rational in (0, 1/2)
  * SIN       sine symbols          sin(pi*y)^e    with y rational in (0, 1/2)
  * POCH      Pochhammer symbols    (t^E; t^B)_inf^e    with 0 < E <= B

All arguments are rational, all exponents rational (the half-integer ones the
pipelines produce are a subset).  Symbol arguments are canonicalized eagerly
by the constructors below.  Every monomial is then made by one routine,
`canonical(exps) -> (monomial, cofactor)`, which drops zero exponents,
folds the integer part of each radical exponent into the rational cofactor,
and stores every integral exponent and Pochhammer argument as an int (an
int hashes, compares and renders as the equal Fraction does, and hashes
without a Python-level call); products add exponent maps and inverses
negate them before it.  It returns the one live monomial of its factors,
from a weak table that keeps none alive, and `mono_mul` keeps each product
in a table on its first factor, so a product of two monomials is made once
while they live.  An empty term map is zero, but the canonical form is not
unique: values related only by product identities such as
(x;q) = (x;q^2)(xq;q^2) or Gauss's multiplication formula for Gamma keep
different term maps, so two equal values may compare unequal.

Canonicalization rules:

  Gamma(y+1) = y*Gamma(y); Gamma(1/2) = pi^(1/2);
  Gamma(y) = pi / (sin(pi*y) * Gamma(1-y)) for y in (1/2, 1)   [reflection]
  (z; q^(-1))_inf = (z*q; q)_inf^(-1); (z; q)_inf = (1-z) * (z*q; q)_inf

Sine symbols arise only from the Gamma reflection, whose argument 1 - y is
already in (0, 1/2).

A symbol argument landing on a zero/pole locus raises Resonance; the sample
pools are chosen so that no check reaches one.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import WeakValueDictionary

from .rationals import GaussianRational

Frac = Fraction


class Resonance(Exception):
    """A symbol argument hit a pole/zero locus (resonant sample)."""


class ZeroFactor(Exception):
    """An exact factor vanished where the construction needs it nonzero."""


class NonInvertible(Exception):
    """Inverse requested of a SymExpr that is not a monomial multiple."""


def _frac(x) -> Frac:
    return x if x.__class__ is Frac else Frac(x)


def _factorint(n: int):
    """Prime factorization of a positive integer as a dict prime -> power."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


#: symbol kinds, numbered in render order; a symbol is (kind, argument)
RADICAL, PI, GAMMA, SIN, POCH = range(5)
_RENDER = ("{}^({})", "pi^({1})", "Gamma({})^({})", "sin(pi*{})^({})",
           "poch(t^{0[0]};t^{0[1]})^({1})")


class SymbolMonomial:
    """Immutable canonical symbol monomial: `factors` is the sorted tuple of
    its (symbol, exponent) pairs; `_products` is its table of products, made
    by `mono_mul` on first use.  Built by `canonical` (see module
    docstring)."""

    __slots__ = ("factors", "_hash", "_products", "__weakref__")

    def __init__(self, factors=()):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(factors))
        object.__setattr__(self, "_products", None)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolMonomial is immutable")

    def is_one(self):
        return not self.factors

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SymbolMonomial):
            return NotImplemented
        return self._hash == other._hash and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def render(self) -> str:
        return "*".join(_RENDER[k].format(arg, e)
                        for (k, arg), e in self.factors) or "1"

    def __repr__(self):
        return f"<mono {self.render()}>"


MONO_ONE = SymbolMonomial()
_ONE = Frac(1)

#: factors tuple -> the live monomial of those factors; it keeps none alive
_INTERN = WeakValueDictionary()


def canonical(exps):
    """The monomial of an exponent map {symbol: exponent}, and its rational
    cofactor: zero exponents are dropped, the integer part (floor) of each
    radical exponent is folded into the cofactor, leaving it in (0, 1), and
    every integral exponent and Pochhammer argument is stored as an int.
    Equal factors give one monomial object, and a cofactor 1 is `_ONE`."""
    cof = _ONE
    factors = []
    for sym, e in sorted(exps.items()):
        kind = sym[0]
        if kind == RADICAL:
            k = e.numerator // e.denominator
            if k:
                cof *= Frac(sym[1]) ** k
                e -= k
        elif e.__class__ is Frac and e.denominator == 1:
            e = e.numerator
        if e:
            if kind == POCH and any(map(_integral_fraction, sym[1])):
                sym = POCH, tuple(map(_integral, sym[1]))
            factors.append((sym, e))
    if not factors:
        return MONO_ONE, cof
    factors = tuple(factors)
    mono = _INTERN.get(factors)
    if mono is None:
        mono = _INTERN[factors] = SymbolMonomial(factors)
    return mono, cof


def _integral_fraction(x):
    return x.__class__ is Frac and x.denominator == 1


def _integral(x):
    """x, as an int when it is an integral Fraction."""
    return x.numerator if _integral_fraction(x) else x


def mono_mul(m1: SymbolMonomial, m2: SymbolMonomial):
    """Product of canonical monomials: (monomial, rational cofactor).

    A unit factor gives the other back and touches no table; any other
    product is made once and kept in m1's table of products."""
    if not m1.factors:
        return m2, _ONE
    if not m2.factors:
        return m1, _ONE
    table = m1._products
    if table is None:
        table = {}
        object.__setattr__(m1, "_products", table)
    out = table.get(m2)
    if out is None:
        exps = dict(m1.factors)
        for sym, e in m2.factors:
            e1 = exps.get(sym)
            exps[sym] = e if e1 is None else e1 + e
        out = table[m2] = canonical(exps)
    return out


class SymExpr:
    """Finite Q(i)-linear combination of canonical symbol monomials.  Its
    term map is never changed once built, so results are built on their
    fresh maps (`_expr`) and one zero and one unit are shared."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        _set_terms(self, dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("SymExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return ZERO

    @staticmethod
    def one():
        return ONE

    @staticmethod
    def from_rational(x):
        return SymExpr.monomial(MONO_ONE, x)

    @staticmethod
    def coerce(x):
        if x.__class__ is SymExpr:
            return x
        return SymExpr.from_rational(x)

    @staticmethod
    def monomial(mono, coeff=1):
        c = GaussianRational.coerce(coeff)
        return _expr({mono: c}) if c else ZERO

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def rational_value(self):
        """The Q(i) value if this expression is a pure number, else None."""
        if not self.terms:
            return GaussianRational(0)
        if len(self.terms) == 1 and MONO_ONE in self.terms:
            return self.terms[MONO_ONE]
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = SymExpr.coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = terms.get(m)
            nc = c if nc is None else nc + c
            if nc:
                terms[m] = nc
            else:
                terms.pop(m, None)
        return _expr(terms)

    __radd__ = __add__

    def __neg__(self):
        return _expr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-SymExpr.coerce(other))

    def __rsub__(self, other):
        return SymExpr.coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not SymExpr:
            if other.__class__ is not GaussianRational:
                if not isinstance(other, (int, Frac)):
                    return NotImplemented
                other = GaussianRational.coerce(other)
            if not other:
                return ZERO
            return _expr({m: c * other for m, c in self.terms.items()})
        if len(self.terms) == 1 == len(other.terms):
            ((m1, c1),), ((m2, c2),) = self.terms.items(), other.terms.items()
            mono, cof = mono_mul(m1, m2)
            c = c1 * c2
            return _expr({mono: c if cof is _ONE else c * cof})
        if not self.terms or not other.terms:
            return ZERO
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, cof = mono_mul(m1, m2)
                c = c1 * c2
                if cof is not _ONE:
                    c = c * cof
                nc = out.get(mono)
                nc = c if nc is None else nc + c
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return _expr(out)

    __rmul__ = __mul__

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("inverse of zero SymExpr")
        if len(self.terms) != 1:
            raise NonInvertible(f"cannot invert {len(self.terms)}-term SymExpr")
        ((m, c),) = self.terms.items()
        mono, cof = canonical({sym: -e for sym, e in m.factors})
        cc = c.inverse()
        if cof is not _ONE:
            cc = cc * cof
        return _expr({mono: cc})

    def __truediv__(self, other):
        if isinstance(other, (int, Frac, GaussianRational)):
            return self * GaussianRational.coerce(other).inverse()
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if other.__class__ is not SymExpr:
            if not isinstance(other, (int, Frac, GaussianRational)):
                return NotImplemented
            other = SymExpr.from_rational(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: m.render()):
            c = self.terms[m]
            bits.append(f"({c!r})*{m.render()}" if not m.is_one() else f"({c!r})")
        return " + ".join(bits)

    def __repr__(self):
        return f"<SymExpr {self.render()}>"


_set_terms = SymExpr.terms.__set__


def _expr(terms):
    """The SymExpr of a fresh term map {monomial: nonzero coefficient},
    taken as given: no copy is made, so no caller may keep and change it."""
    x = object.__new__(SymExpr)
    _set_terms(x, terms)
    return x


ZERO = _expr({})
ONE = _expr({MONO_ONE: GaussianRational(1)})


# ---------------------------------------------------------------------------
# canonical symbol constructors
# ---------------------------------------------------------------------------


def rational_power(r, e) -> SymExpr:
    """r^e for rational r != 0 as a canonical SymExpr: the rational r^e
    itself at an integer e.

    Negative r is supported for integer and half-integer e (the latter via
    the Gaussian unit); deeper roots of negative rationals never arise.
    """
    r = _frac(r)
    if not r:
        raise ZeroDivisionError("0 cannot be raised to a symbolic power")
    if e.denominator == 1:
        return SymExpr.from_rational(r ** e.numerator)
    e = _frac(e)
    coeff = GaussianRational(1)
    if r < 0:
        if e.denominator == 2:
            coeff = GaussianRational(0, 1) ** (2 * e % 4).numerator
        else:
            raise NonInvertible(f"unsupported root (-)^{e}")
        r = -r
    if r == 1:
        return SymExpr.from_rational(coeff)
    exps = {(RADICAL, p): k * e for p, k in _factorint(r.numerator).items()}
    for p, k in _factorint(r.denominator).items():
        exps[RADICAL, p] = -k * e
    return _monomial(exps, coeff)


def _monomial(exps, coeff=1) -> SymExpr:
    """coeff times the canonical monomial of the exponent map exps."""
    mono, cof = canonical(exps)
    return SymExpr.monomial(mono, coeff * cof)


def pi_power(e) -> SymExpr:
    if not e:
        return SymExpr.one()
    return _monomial({(PI, None): e})


def gamma_value(y) -> SymExpr:
    """Gamma(y) for rational y, canonicalized (see module docstring)."""
    y = _frac(y)
    if y.denominator == 1:
        if y <= 0:
            raise Resonance(f"Gamma({y}) pole")
        out = Frac(1)
        for k in range(2, y.numerator):
            out *= k
        return SymExpr.from_rational(out)
    c = Frac(1)
    while y > 1:
        y -= 1
        c *= y
    while y < 0:
        c /= y
        y += 1
    # now y in (0,1), non-integer
    if y == Frac(1, 2):
        return pi_power(Frac(1, 2)) * c
    if y > Frac(1, 2):
        # reflection: Gamma(y) = pi / (sin(pi y) Gamma(1-y)), sin arg mirrored
        y1 = 1 - y
        return _monomial({(PI, None): 1, (GAMMA, y1): -1, (SIN, y1): -1}, c)
    return _monomial({(GAMMA, y): 1}, c)


def poch_value(E, B, t) -> SymExpr:
    """(t^E; t^B)_inf as a canonical symbol times its exact cofactor.

    Negative bases go through (z; q^(-1))_inf = (z q; q)_inf^(-1); the
    argument exponent is then shifted into (0, B] by (z;q) = (1-z)(zq;q).
    Cofactors (1 - t^e) with fractional e come out as two-term SymExprs, so
    callers needing invertibility must sample integer exponents.
    """
    E, B, t = _frac(E), _frac(B), _frac(t)
    if B == 0:
        raise ValueError("Pochhammer base exponent must be nonzero")
    if B < 0:
        return poch_value(E - B, -B, t).inverse()
    expr = ONE

    def one_minus_t_pow(e):
        if e == 0:
            raise Resonance(f"Pochhammer value vanishes ((t^{e}) = 1)")
        return ONE - rational_power(t, e)

    while E > B:
        E -= B
        # (z q; q)_inf = (z; q)_inf / (1 - z)
        expr = expr * one_minus_t_pow(E).inverse()
    while E <= 0:
        # (z; q)_inf = (1 - z)(z q; q)_inf
        expr = expr * one_minus_t_pow(E)
        E += B
    return expr * _monomial({(POCH, (_integral(E), _integral(B))): 1})
