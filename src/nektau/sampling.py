"""Parameter samples: one rational base t carrying all multiplicative data.

Every multiplicative parameter of a computation (q, q^{1/2}, q^{1/4}, u,
Lambda-shifts) is a power of a single rational t with 0 < t < 1, so all
exponent arithmetic is exact rational arithmetic.  The expansion variable's
formal power s is never sampled; it stays a formal Fourier grading.

The samples a run uses come from the fixed q-Painleve pool of identities.py,
chosen away from the Gamma, sine and Pochhammer zero and pole loci.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

Frac = Fraction


class ParameterSample(namedtuple("ParameterSample", "t dq sigma")):
    """Rational sample point; see module docstring.

    t:     global base, 0 < t < 1
    dq:    q = t^dq with dq a positive multiple of 4 (so q^{1/4} is a t-power)
    sigma: num/den with den | dq, so u = q^{2 sigma} has integer t-exponent
    """

    __slots__ = ()

    def __new__(cls, t: Frac, dq: int = 4, sigma: Frac = Frac(1, 4)):
        if not (0 < t < 1):
            raise ValueError("need 0 < t < 1")
        if not (dq > 0 and dq % 4 == 0 and dq % sigma.denominator == 0):
            raise ValueError("dq must be a positive multiple of 4 and of den(sigma)")
        return super().__new__(cls, t, dq, sigma)

    @property
    def u_exp(self) -> Frac:
        # u = q^{2 sigma}
        return Frac(2 * self.dq) * self.sigma

    def describe(self):
        # reports also carry fixed fields: the 4d point of the self-dual
        # theory, eps = (1, -1) and a = -2 sigma, and seed 0
        a = -2 * self.sigma
        return {
            "t": [self.t.numerator, self.t.denominator],
            "dq": self.dq,
            "sigma": [self.sigma.numerator, self.sigma.denominator],
            "eps1": [1, 1],
            "eps2": [-1, 1],
            "a": [a.numerator, a.denominator],
            "seed": 0,
        }
