"""Tau functions as Fourier-graded series over relative partition functions.

A tau function is a bilateral sum over a mode lattice: sector s^{sector(j)}
carries the relative mode series of the underlying theory at a lattice
point.  All series built here are *relative* to the j=0 normalization of
their theory; products of taus built from compatible systems share a
common normalizer, so bilinear identities can be checked directly on the
relative series.

The central 4d system fixes eps = (1, -1) for the self-dual theory and the
pair (1, -2) / (2, -1) for the two decoupled halves; the q-system fixes
q1 = q^{-1}, q2 = q and the halves (q^{-1}, q^2) / (q, q^{-2}).  Each
system writes its taus once, as one name -> TauSpec table (recipes), and
builds one through tau(name, E) on first use, once per memo.

The Backlund moves sigma -> sigma + 1/2 (4d: a -> a - 1) and u -> u q
(q-system: Lu -> Lu + dq) are fixed shifts of the mode lattice, written out
in each recipe as a k_offset with the half-sector fourier_offset.  The
lattice path is part of the recipe: another (k1, k2) reaching the same
point telescopes a different (equal-valued) cocycle expression.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .fourier import FourierSeries
from .nekrasov import RelativeZ4d, RelativeZ5d, Theory4d, Theory5d, blowup_modes, memoized
from .rationals import GaussianRational
from .sampling import ParameterSample
from .symbols import SymExpr, _frac

Frac = Fraction
HALF = Frac(1, 2)


class TauSpec(namedtuple("TauSpec", "base k_step k_offset fourier_offset sector_step prefactor",
                          defaults=((0, 0), Frac(0), Frac(1), None))):
    """Recipe for one tau function.

    Mode index j runs over Z; mode j sits in sector
    fourier_offset + j*sector_step and uses the lattice point
    k_offset + j*k_step of the underlying relative theory.
    """

    __slots__ = ()

    def lattice(self, j: int):
        return (self.k_offset[0] + j * self.k_step[0],
                self.k_offset[1] + j * self.k_step[1])

    def gap(self, j) -> Frac:
        """The classical gap of mode j: the least z-exponent of its sector."""
        return self.base.classical_gap(*self.lattice(int(j)))


def build_tau(spec: TauSpec, E) -> FourierSeries:
    """Assemble the tau as a FourierSeries exact through z^E.

    Scans mode indices in both directions until the classical gap exceeds
    E; raises IncompleteModeRange if the scan fails to close.
    """
    E = _frac(E)
    sectors = {}
    for j in blowup_modes(E, spec.gap):
        j = int(j)
        ps = spec.base.mode(*spec.lattice(j), E)
        if spec.prefactor is not None:
            ps = ps.scale(spec.prefactor)
        k = spec.fourier_offset + j * spec.sector_step
        sectors[k] = sectors[k] + ps if k in sectors else ps
    return FourierSeries(sectors, E)


# ---------------------------------------------------------------------------
# concrete tau systems
# ---------------------------------------------------------------------------

# odd-mode unit of the parity tau: the global branch (see identities.py)
KAPPA = SymExpr.from_rational(GaussianRational(0, -1))


class TauSystem:
    """A family of taus on common theories, set up by each subclass:
    recipes maps each name to its TauSpec, key names the system, and
    tau(name, E) builds the tau named so through z^E once per memo.

    A comparison through z^E reads the taus through depth(E) = E - min(0,
    v), v the least sector exponent of the system's taus: a product f g is
    known through min(f.trunc + v(g), g.trunc + v(f)), so every product,
    D^k or theta-product of two taus built to that depth is known through
    z^E (theta keeps bounds), and so is zeta_from_tau of kiev, whose
    inverse is led by a z^0 term.  At the pool samples v is -1/24 (4d,
    sigma = 7/24) or -1/8 (q, sigma = 3/8), else 0.  A side that still
    falls short makes fourier.fs_equal_to_order raise, never pass."""

    def taus(self, E):
        """name -> the tau named so, through depth(E)."""
        depth = self.depth(E)
        return lambda name: self.tau(name, depth)

    def depth(self, E) -> Frac:
        """E - min(0, v), v the least classical gap of the modes the
        recipes sum (those at gaps <= 0 suffice): no instanton work."""
        return _frac(E) - min(0, *(spec.gap(j) for spec in self.recipes.values()
                                   for j in blowup_modes(0, spec.gap, 0)))

    def tau(self, name: str, E) -> FourierSeries:
        """The tau named so, kept in memo under ("tau", *key, name, E)."""
        return memoized(self.memo, ("tau", *self.key, name, E),
                        lambda: build_tau(self.recipes[name], E))


class TauSystem4d(TauSystem):
    """The 4d tau functions at a common reference sigma (eps1 = 1).

    All recipes share the reference a0 = -2 sigma, so products of the two
    half-theory taus and the self-dual tau live over the same normalizer.
    """

    def __init__(self, sigma: Frac, *, memo=None):
        a0 = -2 * _frac(sigma)
        rc = RelativeZ4d(Theory4d(Frac(1), Frac(-1)), a0, memo=memo)
        rp = RelativeZ4d(Theory4d(Frac(1), Frac(-2)), a0, memo=memo)
        rm = RelativeZ4d(Theory4d(Frac(2), Frac(-1)), a0, memo=memo)
        kiev = TauSpec(rc, k_step=(0, 2))
        self.key, self.memo = ("4d", sigma), memo
        self.recipes = {
            # self-dual tau: sector n carries the mode at sigma + n
            "kiev": kiev,
            # its s^{1/2}-shifted companion at sigma + 1/2: a = a0 + e2 = a0 - 1
            "half": kiev._replace(k_offset=(0, 1), fourier_offset=HALF),
            # half-theory taus: sector n/2 carries the mode at sigma + n
            "plus": TauSpec(rp, k_step=(0, 1), sector_step=HALF),
            "minus": TauSpec(rm, k_step=(-1, 0), sector_step=HALF),
            # parity taus: sector n in Z + i/2 carries the mode at sigma + 2n.
            # Only the (1, -2) half-theory appears; the trig normalizer of the
            # other half is divided out, leaving a Gaussian unit on the odd
            # lattice.  Its sign is the branch of the square root: KAPPA = -i.
            "long0": TauSpec(rp, k_step=(0, 2)),
            "long1": TauSpec(rp, k_step=(0, 2), k_offset=(0, 1), fourier_offset=HALF,
                             prefactor=KAPPA),
            # tau at sigma +/- 1/2 with unchanged sector grading
            "up": kiev._replace(k_offset=(0, 1)),
            "down": kiev._replace(k_offset=(0, -1)),
        }


class TauSystemQ(TauSystem):
    """The q-deformed tau functions at a common reference u = q^{2 sigma}.

    The sample fixes q = t^{dq}; the self-dual theory is (q^{-1}, q) with
    optional level m, and the half-theories are (q^{-1}, q^2) / (q, q^{-2}).
    """

    def __init__(self, sample: ParameterSample, m: int = 0, *, memo=None):
        dq, Lu0, t = sample.dq, sample.u_exp, sample.t
        rc = RelativeZ5d(Theory5d(Frac(-dq), Frac(dq), m), Lu0, t, memo=memo)
        rp = RelativeZ5d(Theory5d(Frac(-dq), Frac(2 * dq), m), Lu0, t, memo=memo)
        rm = RelativeZ5d(Theory5d(Frac(dq), Frac(-2 * dq), m), Lu0, t, memo=memo)
        kiev0 = TauSpec(rc, k_step=(0, 2))
        plus = TauSpec(rp, k_step=(0, 1), sector_step=HALF)
        minus = TauSpec(rm, k_step=(0, -1), sector_step=HALF)
        self.key, self.memo = ("q", sample, m), memo
        self.recipes = {
            # self-dual taus: sector n in Z + j/2 carries the mode at u q^{2n}
            "kiev0": kiev0,
            "kiev1": kiev0._replace(k_offset=(0, 1), fourier_offset=HALF),
            # half-theory taus: sector n/2 carries the mode at u q^{2n}
            "plus": plus,
            "minus": minus,
            # the self-dual tau at u q^{+/-1} with unchanged sector grading
            "up": kiev0._replace(k_offset=(0, 1)),
            "down": kiev0._replace(k_offset=(0, -1)),
            # half-theory taus at u q on s^{1/4}-shifted sectors: Lu0 + dq is
            # Lu0 - E1 of the (q^{-1}, q^2) half and Lu0 - E1 - E2 of the other
            "plus_uq": plus._replace(k_offset=(-1, 0), fourier_offset=HALF / 2),
            "minus_uq": minus._replace(k_offset=(-1, -1), fourier_offset=HALF / 2),
        }


# ---------------------------------------------------------------------------
# derived objects
# ---------------------------------------------------------------------------


def g_function(tau0: FourierSeries, tau1: FourierSeries) -> FourierSeries:
    """z^{1/2} tau0^2 / tau1^2."""
    return ((tau0 * tau0) * (tau1 * tau1).inverse()).shift(HALF)


def zeta_from_tau(tau: FourierSeries) -> FourierSeries:
    """Logarithmic derivative theta(tau)/tau in log z.

    Series built relative to the n=0 normalization miss the reference
    classical exponent; callers add that rational offset themselves.
    """
    return tau.theta() * tau.inverse()
