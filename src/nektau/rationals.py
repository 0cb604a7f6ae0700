"""Exact Gaussian-rational arithmetic: the base coefficient field Q(i).

A value (a + b i)/d is three ints with d > 0 and gcd(a, b, d) = 1.  The form
is unique, so equality compares the ints, and (0, 0, 1) is the zero.  Every
operation works on the ints and reduces once: a sum over equal denominators
adds the numerators, a product with a real factor takes Henrici's cross gcds
(its result needs no further reduction), and a product of two non-real
factors divides by one gcd of the three ints.  The integer kernels read and
write the triple directly (`from_ints`); `re` and `im` are Fractions made on
demand.  All operations are exact; there is no floating point anywhere in
this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _ratio(x):
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """An element (a + b i)/d of Q(i), d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        d = lcm(q, s)
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "GaussianRational":
        """(a + b i)/d for ints with d != 0, brought to lowest terms."""
        if d <= 0:
            if not d:
                raise ZeroDivisionError("Gaussian rational with denominator 0")
            a, b, d = -a, -b, -d
        return _reduced(a, b, d)

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        n, d = _ratio(x)
        return _make(n, 0, d)

    # -- parts -------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        if d == f:
            return _reduced(a + c, b + e, d)
        g = gcd(d, f)
        if g == 1:
            return _make(a * f + c * d, b * f + e * d, d * f)
        # only a factor of g = gcd(d, f) can divide the sum (Knuth 4.5.1)
        d //= g
        a, b = a * (f // g) + c * d, b * (f // g) + e * d
        g = gcd(a, b, g)
        return _make(a // g, b // g, d * (f // g))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        if e:
            if b:
                return _reduced(a * c - b * e, a * e + b * c, d * f)
            a, b, d, c, f = c, e, f, a, d
        # (a + b i)/d times the real c/f: cross gcds leave lowest terms
        g, h = gcd(c, d), gcd(a, b, f)
        c //= g
        return _make(a // h * c, b // h * c, d // g * (f // h))

    __rmul__ = __mul__

    def conjugate(self):
        return _make(self.a, -self.b, self.d)

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of Gaussian-rational zero")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
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

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return f"{re}"
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a, b, d):
    """The value (a + b i)/d of ints already in lowest terms, d > 0."""
    x = object.__new__(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a, b, d):
    """The value (a + b i)/d of ints with d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


ONE = GaussianRational(1)
