"""Reference Q(i) arithmetic for the tests: each value a pair of Fractions.

`FractionPair` is GaussianRational as it was before coefficients became one
reduced integer triple (re and im stored as two Fractions, every operation
done in Fraction arithmetic), and `ref_split` is `series._split` as it read
those pairs.  The tests compare the package against both, operation by
operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionPair:
    """An element re + im*i of Q(i), stored as two Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    @staticmethod
    def coerce(x) -> "FractionPair":
        if isinstance(x, FractionPair):
            return x
        return FractionPair(_frac(x))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = FractionPair.coerce(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionPair.coerce(other))

    def __rsub__(self, other):
        return FractionPair.coerce(other) - self

    def __mul__(self, other):
        other = FractionPair.coerce(other)
        return FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of Gaussian-rational zero")
        return FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * FractionPair.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FractionPair.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionPair(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPair(other)
        if not isinstance(other, FractionPair):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def ref_split(f, L):
    """series._split by way of each coefficient's (re, im) Fractions."""
    rows = {}
    for X, c in sorted((e.numerator * (L // e.denominator), c) for e, c in f.coeffs.items()):
        for m, v in c.terms.items():
            r = rows.get(m)
            if r is None:
                r = rows[m] = ([], [], [])
            r[0].append(X)
            r[1].append(v.re)
            r[2].append(v.im)
    out = {}
    for m, (Xs, res, ims) in rows.items():
        D = lcm(*(x.denominator for x in res), *(x.denominator for x in ims))
        out[m] = (D, Xs, [x.numerator * (D // x.denominator) for x in res],
                  [x.numerator * (D // x.denominator) for x in ims])
    return out
