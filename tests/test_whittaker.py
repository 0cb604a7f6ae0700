"""The 4d instanton coefficients against the Whittaker-vector norm
(tests/whittaker.py), a route that shares no arm/leg formula with the
kernel or with the per-factor references of test_partitions.py."""

from fractions import Fraction as F

import pytest

import nektau.identities as idmod
from nektau import nekrasov
from nektau.nekrasov import admissible_degree_4d, inst_coeff_4d
from whittaker import whittaker_coeff_4d

TOP = 6


def _degrees(e1, e2):
    """0 .. TOP, or through admissible_degree_4d where that is lower."""
    top = admissible_degree_4d(e1, e2)
    return range((TOP if top is None else min(TOP, top)) + 1)


def _assert_norms(e1, e2, a):
    for d in _degrees(e1, e2):
        assert inst_coeff_4d(e1, e2, a, d) == whittaker_coeff_4d(e1, e2, a, d), (e1, e2, a, d)


@pytest.mark.parametrize("e1,e2,a", [
    (F(1), F(-1), F(-7, 12)),
    (F(2), F(-1), F(-5, 12)),
    (F(1), F(-3, 7), F(12, 5)),
    # positive ratio: admissible through degree 4
    (F(3, 5), F(2, 5), F(3, 8)),
])
def test_inst_coeff_4d_is_the_whittaker_norm(e1, e2, a):
    _assert_norms(e1, e2, a)


def _catalog_points(monkeypatch):
    """Every (e1, e2, a) at which the 4d checks build an instanton series,
    each check at its default order on every sample of its pool."""
    points = set()
    build = nekrasov.kernel_4d

    def recording(e1, e2, a, order):
        points.add((e1, e2, a))
        return build(e1, e2, a, order)

    monkeypatch.setattr(nekrasov, "kernel_4d", recording)
    for domain in ("4d-eps", "4d-tau"):
        for sample in idmod.default_samples(domain, 3):
            ctx = idmod.Context()
            for entry in idmod.CATALOG.values():
                if entry.domain == domain:
                    idmod.verify(entry.id, sample, ctx=ctx)
    return points


def test_every_catalog_4d_theory_is_the_whittaker_norm(monkeypatch):
    # the 4d-tau systems' (1, -1), (1, -2) and (2, -1) at a0 = -2 sigma and
    # their lattice shifts, and each 4d-eps point's central and blowup
    # theories (blowup_modes' a), through degree 6 or the admissible one
    points = _catalog_points(monkeypatch)
    monkeypatch.undo()
    theories = {(F(1), F(-1)), (F(1), F(-2)), (F(2), F(-1))}
    theories |= {th for e1, e2, _ in idmod.POOL_4D_EPS
                 for th in ((e1, e2), (e1, e2 - e1), (e1 - e2, e2))}
    assert {(e1, e2) for e1, e2, _ in points} == theories
    for point in sorted(points):
        _assert_norms(*point)
