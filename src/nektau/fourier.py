"""Fourier-graded series: finite maps sector k in (1/2)Z -> PuiseuxSeries.

The sector index is the formal s-power of a tau function; products and
inverses run on the sector kernels of series.py (`sector_product`,
`sector_inverse`), which alone read the integer lattices of sectors and
exponents, so the Hirota derivative of series.py, re-exported here, is
sector-bilinear on FourierSeries.  Sector keys are Fractions.  `==`
compares bounds and sectors; equality testing through an order produces a
structural report (which sector, which exponent, what residual) rather
than a bare boolean.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .series import (PuiseuxSeries, hirota,  # noqa: F401  (hirota re-exported)
                     sector_inverse, sector_product)
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
        return FourierSeries({k: ps.dilate(q_exp, sample) for k, ps in self.sectors.items()},
                             self.trunc)

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
        """1/series when a unique minimal monomial (sector, exponent) exists:
        `sector_inverse`, led by `leading`."""
        trunc, sectors = sector_inverse(self.sectors, *self.leading(), self.trunc)
        return FourierSeries(sectors, trunc)

    def __eq__(self, other):
        """Same bound and sectors, each a PuiseuxSeries with its own bound."""
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.sectors == other.sectors

    def __repr__(self):
        return f"<FS sectors={sorted(self.sectors)} trunc={self.trunc}>"

    def dump(self):
        return [{"sector": [k.numerator, k.denominator],
                 "exponent": [e.numerator, e.denominator],
                 "coefficient": c.render()}
                for k in sorted(self.sectors) for e, c in self.sectors[k].items()]


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
        bits = ", ".join(f"sector {s} exponent {e}: {n} residual term(s)"
                         for s, e, n, _ in head)
        more = "" if len(self.residuals) <= 4 else f" (+{len(self.residuals)-4} more)"
        # a report with no residuals (bool_report) says why only in its note
        detail = "; ".join(d for d in (bits + more, self.note) if d)
        fail = f"FAIL through z^{self.checked_order}"
        return f"{fail}: {detail}" if detail else fail


def fs_equal_to_order(a: FourierSeries, b: FourierSeries, E) -> EqualityReport:
    """Structural residual test: a - b must vanish for exponents <= E; a
    difference is formed only in the sectors where a and b differ.

    Raises ValueError when either series, or any sector it stores, is
    known only below E.
    """
    E = _frac(E)
    known = min(ps.trunc for s in (a, b) for ps in (s, *s.sectors.values()))
    if known < E:
        raise ValueError(f"series only known to {known}, asked to compare to {E}")
    residuals = []
    for k in sorted(a.sectors.keys() | b.sectors.keys()):
        if (p := a.sector(k)) != (q := b.sector(k)):
            residuals += [(k, e, len(c.terms), c.render()) for e, c in (p - q).items() if e <= E]
    return EqualityReport(not residuals, E, residuals)


def ps_equal_to_order(a: PuiseuxSeries, b: PuiseuxSeries, E) -> EqualityReport:
    return fs_equal_to_order(FourierSeries.single(a), FourierSeries.single(b), E)
