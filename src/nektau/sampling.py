"""Parameter samples: one rational base t carrying all multiplicative data.

Every multiplicative parameter of a computation (q, q^{1/2}, q^{1/4}, u,
Lambda-shifts) is a power of a single rational t with 0 < t < 1, so all
exponent arithmetic is exact rational arithmetic.  4d samples additionally
fix literal rational (eps1, eps2, a).  The expansion variable's formal power
s is never sampled; it stays a formal Fourier grading.

Samples are validated against the demand set of the planned computation:
no Gamma argument at a non-positive integer, no sine argument at an integer,
no theta/Pochhammer argument on its zero locus, and no vanishing
determinant-style denominator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .symbols import Resonance, gamma_value, poch_value, sin_pi, theta_value

Frac = Fraction


@dataclass(frozen=True)
class ParameterSample:
    """Rational sample point; see module docstring.

    t:     global base, 0 < t < 1
    dq:    q = t^dq with dq a positive multiple of 4 (so q^{1/4} is a t-power)
    sigma: num/den with den | dq, so u = q^{2 sigma} has integer t-exponent
    eps1, eps2, a: 4d equivariant parameters (literal rationals)
    """

    t: Frac
    dq: int = 4
    sigma: Frac = Frac(1, 4)
    eps1: Frac = Frac(1)
    eps2: Frac = Frac(-1)
    a: Frac = None
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.t < 1):
            raise ValueError("need 0 < t < 1")
        if self.dq > 0 and self.dq % 4 == 0 and self.dq % self.sigma.denominator == 0:
            pass
        elif self.dq == 0:
            pass  # rejected later by validation (root-of-unity proxy)
        else:
            raise ValueError("dq must be a positive multiple of 4 and of den(sigma)")
        if self.a is None:
            object.__setattr__(self, "a", -2 * self.sigma * self.eps1)

    # t-exponents of multiplicative parameters
    @property
    def q_exp(self) -> int:
        return self.dq

    @property
    def u_exp(self) -> Frac:
        # u = q^{2 sigma}
        return Frac(2 * self.dq) * self.sigma

    def describe(self):
        return {
            "t": [self.t.numerator, self.t.denominator],
            "dq": self.dq,
            "sigma": [self.sigma.numerator, self.sigma.denominator],
            "eps1": [self.eps1.numerator, self.eps1.denominator],
            "eps2": [self.eps2.numerator, self.eps2.denominator],
            "a": [self.a.numerator, self.a.denominator],
            "seed": self.seed,
        }


@dataclass
class RejectionReason:
    symbol: str
    detail: str

    def __bool__(self):
        return False


@dataclass
class ValidatedSample:
    sample: ParameterSample

    def __bool__(self):
        return True


def sample_validate(sample: ParameterSample, demands):
    """Dry-run scan over the demand set; accept or name the offender.

    demands: iterable of tuples —
      ("gamma", y) ("sin", y) ("theta", a, b) ("poch", E, B) ("nonzero", v)
    """
    if sample.dq == 0:
        return RejectionReason("base", "dq = 0: q is a root of unity (1)")
    for d in demands:
        kind = d[0]
        try:
            if kind == "gamma":
                y = Frac(d[1])
                if y.denominator == 1 and y <= 0:
                    return RejectionReason("gamma", f"Gamma({y}) pole")
                gamma_value(y)
            elif kind == "sin":
                sin_pi(Frac(d[1]))
            elif kind == "theta":
                theta_value(Frac(d[1]), Frac(d[2]), sample.t)
            elif kind == "poch":
                poch_value(Frac(d[1]), Frac(d[2]), sample.t)
            elif kind == "nonzero":
                if not d[1]:
                    return RejectionReason("nonzero", f"vanishing factor: {d[2] if len(d) > 2 else d[1]}")
            else:
                return RejectionReason("demand", f"unknown demand kind {kind!r}")
        except Resonance as exc:
            return RejectionReason(kind, str(exc))
    return ValidatedSample(sample)


_T_POOL = [Frac(1, 3), Frac(2, 5), Frac(1, 2), Frac(3, 7), Frac(2, 7), Frac(3, 5)]
_SIGMA_POOL = [Frac(1, 4), Frac(3, 4), Frac(1, 2), Frac(5, 4), Frac(1, 8), Frac(3, 8)]


def sample_stream(seed: int, count: int, *, dq: int = 8, sigma_den=None):
    """Deterministic stream of candidate 5d samples (validation is separate)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        t = _T_POOL[rng.randrange(len(_T_POOL))]
        sig = _SIGMA_POOL[rng.randrange(len(_SIGMA_POOL))]
        if sigma_den is not None:
            sig = Frac(sig.numerator % (2 * sigma_den) or 1, sigma_den)
        d = dq
        while d % sig.denominator:
            d *= 2
        out.append(ParameterSample(t=t, dq=d, sigma=sig, seed=seed + k))
    return out
