"""Fourier-graded series: finite maps sector k in (1/2)Z -> PuiseuxSeries.

The sector index is the formal s-power of a tau function; products convolve
sectors on the integer kernel of series.py, so the Hirota derivative of
series.py, re-exported here, is sector-bilinear on FourierSeries.  Sector
keys are Fractions; the product and the inverse work on ints instead, each
sector label k as k M on the lattice (1/M)Z, M the lcm of the sector
denominators, and each exponent on the series' integer lattice (1/L)Z.
Equality testing produces a structural report (which sector, which
exponent, what residual) rather than a bare boolean.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .series import (PuiseuxSeries, _top, hirota, on_lattice,  # noqa: F401  (hirota re-exported)
                     sector_product, solve_recurrence)
from .symbols import NonInvertible, SymExpr, _frac

Frac = Fraction


class FourierSeries:
    __slots__ = ("sectors", "trunc")

    def __init__(self, sectors, trunc):
        trunc = _frac(trunc)
        clean = {}
        for k, ps in sectors.items():
            ps = ps.truncate(trunc) if ps.trunc > trunc else ps
            # a zero sector is kept while its own bound is below trunc, so
            # sector(k) does not claim it is zero through trunc
            if not ps.is_zero() or ps.trunc < trunc:
                clean[_frac(k)] = ps
        object.__setattr__(self, "sectors", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("FourierSeries is immutable")

    @staticmethod
    def zero(trunc):
        return FourierSeries({}, trunc)

    @staticmethod
    def single(ps: PuiseuxSeries, k=0):
        return FourierSeries({_frac(k): ps}, ps.trunc)

    def sector(self, k) -> PuiseuxSeries:
        return self.sectors.get(_frac(k), PuiseuxSeries.zero(self.trunc))

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = dict(self.sectors)
        for k, ps in other.sectors.items():
            out[k] = out[k] + ps if k in out else ps
        return FourierSeries(out, trunc)

    def __neg__(self):
        return FourierSeries({k: -ps for k, ps in self.sectors.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return FourierSeries({k: ps.scale(c) for k, ps in self.sectors.items()}, self.trunc)

    def shift(self, de):
        """Multiply by z^{de}."""
        return FourierSeries({k: ps.shift(de) for k, ps in self.sectors.items()}, self.trunc + _frac(de))

    def __mul__(self, other):
        """The product, known through min over cross valuations; sector s
        through the least bound of its sector pairs (`sector_product`)."""
        if isinstance(other, (int, Frac, SymExpr)):
            return self.scale(other)
        v_self = min((ps.min_exp() for ps in self.sectors.values()), default=self.trunc)
        v_other = min((ps.min_exp() for ps in other.sectors.values()), default=other.trunc)
        trunc = min(self.trunc + v_other, other.trunc + v_self)
        return FourierSeries(sector_product(self.sectors, other.sectors, trunc), trunc)

    __rmul__ = __mul__

    def theta(self):
        return FourierSeries({k: ps.theta() for k, ps in self.sectors.items()}, self.trunc)

    def dilate(self, q_exp, sample):
        return FourierSeries(
            {k: ps.dilate(q_exp, sample) for k, ps in self.sectors.items()}, self.trunc
        )

    def truncate(self, E):
        return FourierSeries(self.sectors, min(self.trunc, _frac(E)))

    def leading(self):
        """(sector, exponent, coefficient) of the unique minimal term.

        Minimality is in the z-exponent.  Two sectors tied at the minimal
        exponent are rejected, since the inverse would then not have a
        single leading monomial; ties above it do not matter.
        """
        mins = {k: ps.min_exp() for k, ps in self.sectors.items() if not ps.is_zero()}
        if not mins:
            raise ZeroDivisionError("inverse of zero series")
        e = min(mins.values())
        at_min = [k for k, v in mins.items() if v == e]
        if len(at_min) > 1:
            raise NonInvertible("no unique minimal term across sectors")
        k = at_min[0]
        return k, e, self.sectors[k].coeff(e)

    def inverse(self):
        """1/series when a unique minimal monomial (sector, exponent) exists.

        With series = c0 s^{k0} z^{e0} (1 + R), the coefficients of
        1/(1 + R) follow the recurrence of `PuiseuxSeries.inverse`
        (Brent-Kung, JACM 1978) over (exponent, sector) keys, as int pairs:
        b_n = -sum_{x in supp R, x <= n} R_x b_{n-x}.
        """
        k0, e0, c0 = self.leading()
        c0_inv = c0.inverse()
        rel_trunc = self.trunc - e0
        # exponents on (1/L)Z and sector labels on (1/M)Z, both as ints;
        # e0 and k0 lie on them, so _top is exact
        L = lcm(*(ps.L for ps in self.sectors.values()))
        M = lcm(*(k.denominator for k in self.sectors))
        X0, K0 = _top(e0, L), _top(k0, M)
        steps = {}
        for k, ps in self.sectors.items():
            K, step = _top(k, M), L // ps.L
            for X, c in ps.xterms.items():
                X *= step
                if not (K == K0 and X == X0):
                    steps[(X - X0, K - K0)] = -(c * c0_inv)
        if any(X <= 0 for X, _ in steps):
            raise NonInvertible("non-leading term at the leading exponent")
        out = {}
        for (n, K), c in solve_recurrence(steps, _top(rel_trunc, L)).items():
            if c := c * c0_inv:
                out.setdefault(K - K0, {})[n - X0] = c
        trunc = rel_trunc - e0
        return FourierSeries(
            {Frac(K, M): on_lattice(L, xterms, trunc) for K, xterms in out.items()}, trunc
        )

    def __repr__(self):
        return f"<FS sectors={sorted(self.sectors)} trunc={self.trunc}>"

    def dump(self):
        out = []
        for k in sorted(self.sectors):
            for e, c in self.sectors[k].items():
                out.append(
                    {
                        "sector": [k.numerator, k.denominator],
                        "exponent": [e.numerator, e.denominator],
                        "coefficient": c.render(),
                    }
                )
        return out


class EqualityReport(namedtuple("EqualityReport", [
        "ok", "checked_order",
        "residuals",  # [(sector, exponent, n_terms, render)]; () if not given
        "note",
], defaults=((), ""))):
    __slots__ = ()

    def summary(self):
        if self.ok:
            return f"pass (exact through z^{self.checked_order})"
        head = self.residuals[:4]
        bits = ", ".join(
            f"sector {s} exponent {e}: {n} residual term(s)" for s, e, n, _ in head
        )
        more = "" if len(self.residuals) <= 4 else f" (+{len(self.residuals)-4} more)"
        # a report with no residuals (bool_report) says why only in its note
        detail = "; ".join(d for d in (bits + more, self.note) if d)
        fail = f"FAIL through z^{self.checked_order}"
        return f"{fail}: {detail}" if detail else fail


def fs_equal_to_order(a: FourierSeries, b: FourierSeries, E) -> EqualityReport:
    """Structural residual test: a - b must vanish for exponents <= E.

    Raises ValueError when either series, or any sector it stores, is
    known only below E.
    """
    E = _frac(E)
    known = min(ps.trunc for s in (a, b) for ps in (s, *s.sectors.values()))
    if known < E:
        raise ValueError(f"series only known to {known}, asked to compare to {E}")
    diff = a - b
    residuals = []
    for k in sorted(diff.sectors):
        for e, c in diff.sectors[k].items():
            if e <= E and c:
                residuals.append((k, e, len(c.terms), c.render()))
    return EqualityReport(not residuals, E, residuals)


def ps_equal_to_order(a: PuiseuxSeries, b: PuiseuxSeries, E) -> EqualityReport:
    return fs_equal_to_order(FourierSeries.single(a), FourierSeries.single(b), E)
