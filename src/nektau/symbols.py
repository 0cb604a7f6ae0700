"""Canonical transcendental-symbol algebra over Q(i).

A SymExpr is a finite Q(i)-linear combination of SymbolMonomial values.  A
monomial is a product of canonical symbols:

  * prime radicals        p^e            with e in (0,1), p prime
  * pi^e
  * gamma symbols         Gamma(y)^e     with y rational in (0, 1/2)
  * sine symbols          sin(pi*y)^e    with y rational in (0, 1/2)
  * Pochhammer symbols    (t^E; t^B)_inf^e    with 0 < E <= B

All arguments are rational, all exponents rational (the half-integer ones the
pipelines produce are a subset).  Symbols are canonicalized eagerly at
construction time, so monomial multiplication is pure exponent addition (with
integer radical overflow folded back into the coefficient).  An empty term
map is zero, but the canonical form is not unique: values related only by
product identities such as (x;q) = (x;q^2)(xq;q^2) or Gauss's
multiplication formula for Gamma keep different term maps, so two equal
values may compare unequal.

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

from .rationals import GaussianRational

Frac = Fraction


class Resonance(Exception):
    """A symbol argument hit a pole/zero locus (resonant sample)."""


class ZeroFactor(Exception):
    """An exact factor vanished where the construction needs it nonzero."""


class NonInvertible(Exception):
    """Inverse requested of a SymExpr that is not a monomial multiple."""


def _frac(x) -> Frac:
    return x if isinstance(x, Frac) else Frac(x)


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


class SymbolMonomial:
    """Immutable canonical symbol monomial (see module docstring)."""

    __slots__ = ("rad", "pi_exp", "gam", "sn", "poch", "_hash")

    def __init__(self, rad=(), pi_exp=Frac(0), gam=(), sn=(), poch=()):
        object.__setattr__(self, "rad", tuple(sorted(rad)))
        object.__setattr__(self, "pi_exp", pi_exp)
        object.__setattr__(self, "gam", tuple(sorted(gam)))
        object.__setattr__(self, "sn", tuple(sorted(sn)))
        object.__setattr__(self, "poch", tuple(sorted(poch)))
        object.__setattr__(
            self,
            "_hash",
            hash((self.rad, self.pi_exp, self.gam, self.sn, self.poch)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("SymbolMonomial is immutable")

    def is_one(self):
        return not (self.rad or self.pi_exp or self.gam or self.sn or self.poch)

    def __eq__(self, other):
        if not isinstance(other, SymbolMonomial):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.rad == other.rad
            and self.pi_exp == other.pi_exp
            and self.gam == other.gam
            and self.sn == other.sn
            and self.poch == other.poch
        )

    def __hash__(self):
        return self._hash

    def inverse_key(self):
        neg = lambda pairs: tuple((k, -e) for k, e in pairs)
        return SymbolMonomial(
            neg(self.rad), -self.pi_exp, neg(self.gam), neg(self.sn), neg(self.poch)
        )

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

    def __repr__(self):
        return f"<mono {self.render()}>"


MONO_ONE = SymbolMonomial()


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


def mono_mul(m1: SymbolMonomial, m2: SymbolMonomial):
    """Product of canonical monomials: (monomial, rational cofactor).

    Exponent addition keeps every argument canonical; the only normalization
    needed afterwards is folding integer radical exponents into the cofactor.
    """
    rad = _merge_pairs(m1.rad, m2.rad)
    cof = Frac(1)
    fixed = []
    for p, e in rad:
        k = e.numerator // e.denominator  # floor
        fe = e - k
        if k:
            cof *= Frac(p) ** k
        if fe:
            fixed.append((p, fe))
    mono = SymbolMonomial(
        tuple(fixed),
        m1.pi_exp + m2.pi_exp,
        _merge_pairs(m1.gam, m2.gam),
        _merge_pairs(m1.sn, m2.sn),
        _merge_pairs(m1.poch, m2.poch),
    )
    return mono, cof


class SymExpr:
    """Finite Q(i)-linear combination of canonical symbol monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("SymExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return SymExpr()

    @staticmethod
    def one():
        return SymExpr({MONO_ONE: GaussianRational(1)})

    @staticmethod
    def from_rational(x):
        c = GaussianRational.coerce(x)
        return SymExpr({MONO_ONE: c}) if c else SymExpr()

    @staticmethod
    def coerce(x):
        if isinstance(x, SymExpr):
            return x
        return SymExpr.from_rational(x)

    @staticmethod
    def monomial(mono, coeff=1):
        c = GaussianRational.coerce(coeff)
        return SymExpr({mono: c}) if c else SymExpr()

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
        return SymExpr(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-SymExpr.coerce(other))

    def __rsub__(self, other):
        return SymExpr.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Frac, GaussianRational)):
            c0 = GaussianRational.coerce(other)
            if not c0:
                return SymExpr()
            return SymExpr({m: c * c0 for m, c in self.terms.items()})
        if not isinstance(other, SymExpr):
            return NotImplemented
        if not self.terms or not other.terms:
            return SymExpr()
        out = {}
        for m1, c1 in self.terms.items():
            one1 = m1.is_one()
            for m2, c2 in other.terms.items():
                # a canonical monomial times the unit is itself; is_one, not
                # `is MONO_ONE`, since mono_mul builds fresh unit monomials
                if one1:
                    mono, cof = m2, 1
                elif m2.is_one():
                    mono, cof = m1, 1
                else:
                    mono, cof = mono_mul(m1, m2)
                c = c1 * c2
                if cof != 1:
                    c = c * cof
                nc = out.get(mono)
                nc = c if nc is None else nc + c
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return SymExpr(out)

    __rmul__ = __mul__

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("inverse of zero SymExpr")
        if len(self.terms) != 1:
            raise NonInvertible(f"cannot invert {len(self.terms)}-term SymExpr")
        ((m, c),) = self.terms.items()
        inv_m = m.inverse_key()
        # inverse_key may leave non-canonical radical exponents (in (-1,0));
        # run them through mono_mul with the unit to refold.
        mono, cof = mono_mul(inv_m, MONO_ONE)
        cc = c.inverse()
        if cof != 1:
            cc = cc * cof
        return SymExpr({mono: cc})

    def __truediv__(self, other):
        if isinstance(other, (int, Frac, GaussianRational)):
            return self * GaussianRational.coerce(other).inverse()
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = SymExpr.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Frac, GaussianRational)):
            other = SymExpr.from_rational(other)
        if not isinstance(other, SymExpr):
            return NotImplemented
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


# ---------------------------------------------------------------------------
# canonical symbol constructors
# ---------------------------------------------------------------------------


def rational_power(r, e) -> SymExpr:
    """r^e for rational r != 0 as a canonical SymExpr.

    Negative r is supported for integer and half-integer e (the latter via
    the Gaussian unit); deeper roots of negative rationals never arise.
    """
    r = _frac(r)
    e = _frac(e)
    if not r:
        raise ZeroDivisionError("0 cannot be raised to a symbolic power")
    coeff = GaussianRational(1)
    if r < 0:
        if e.denominator == 1:
            coeff = GaussianRational((-1) ** e.numerator)
        elif e.denominator == 2:
            coeff = GaussianRational(0, 1) ** (2 * e % 4).numerator
        else:
            raise NonInvertible(f"unsupported root (-)^{e}")
        r = -r
    if e == 0 or r == 1:
        return SymExpr.from_rational(coeff)
    exps = {}
    for p, k in _factorint(r.numerator).items():
        exps[p] = exps.get(p, Frac(0)) + k * e
    for p, k in _factorint(r.denominator).items():
        exps[p] = exps.get(p, Frac(0)) - k * e
    rat = Frac(1)
    rad = []
    for p, pe in exps.items():
        k = pe.numerator // pe.denominator
        fe = pe - k
        if k:
            rat *= Frac(p) ** k
        if fe:
            rad.append((p, fe))
    return SymExpr.monomial(SymbolMonomial(rad=tuple(rad)), coeff * rat)


def pi_power(e) -> SymExpr:
    e = _frac(e)
    if not e:
        return SymExpr.one()
    return SymExpr.monomial(SymbolMonomial(pi_exp=e))


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
        mono = SymbolMonomial(pi_exp=Frac(1), gam=((y1, Frac(-1)),), sn=((y1, Frac(-1)),))
        return SymExpr.monomial(mono, c)
    return SymExpr.monomial(SymbolMonomial(gam=((y, Frac(1)),)), c)


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
    expr = SymExpr.one()
    one = SymExpr.one()

    def one_minus_t_pow(e):
        if e == 0:
            raise Resonance(f"Pochhammer value vanishes ((t^{e}) = 1)")
        return one - rational_power(t, e)

    while E > B:
        E -= B
        # (z q; q)_inf = (z; q)_inf / (1 - z)
        expr = expr * one_minus_t_pow(E).inverse()
    while E <= 0:
        # (z; q)_inf = (1 - z)(z q; q)_inf
        expr = expr * one_minus_t_pow(E)
        E += B
    return expr * SymExpr.monomial(SymbolMonomial(poch=(((E, B), Frac(1)),)))
