"""Identity catalog: order/sample stability, mutation sensitivity, reports."""

import importlib.resources
import itertools
import json
from collections import defaultdict
from fractions import Fraction as F

import pytest

import nektau.identities as idmod
from nektau.cli import main
from nektau.fourier import EqualityReport, FourierSeries
from nektau.rationals import GaussianRational
from nektau.series import PuiseuxSeries, _sectors
from nektau.symbols import SymExpr
from nektau.tau import TauSystem4d, TauSystemQ, zeta_from_tau
from test_theta_pass import assert_same

THEOREM_IDS = [
    id for id, e in idmod.CATALOG.items() if e.status in ("theorem", "derived")
]
CONJECTURE_IDS = [
    id for id, e in idmod.CATALOG.items() if e.status == "conjecture"
]


def test_catalog_is_nonempty_and_typed():
    assert len(idmod.CATALOG) >= 40
    for id, e in idmod.CATALOG.items():
        assert e.id == id
        assert e.status in ("theorem", "derived", "conjecture")
        assert e.anchor
        assert e.domain in idmod._POOLS
        assert e.default_order > 0


def test_manifest_matches_shipped_data_file():
    shipped = json.loads(
        importlib.resources.files("nektau")
        .joinpath("catalog_manifest.json").read_text())
    assert shipped == idmod.manifest()


# ---------------------------------------------------------------------------
# order and sample stability (theorem entries must pass at >= 3 samples
# and >= 2 truncation orders)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("id", THEOREM_IDS)
def test_theorem_passes_three_samples_two_orders(id):
    entry = idmod.CATALOG[id]
    samples = idmod.default_samples(entry.domain, 3)
    assert len(set(samples)) == 3
    orders = (F(1), F(2)) if id != "determlemma" else (F(2), F(3))
    for k, sample in enumerate(samples):
        for E in orders:
            rep = idmod.verify(id, sample=sample, E=E)
            assert rep.ok, (
                f"{id} failed at sample #{k} order {E}: "
                + "; ".join(r.summary() for _, r in rep.parts if not r.ok))


@pytest.mark.parametrize("id", CONJECTURE_IDS)
def test_conjectures_hold_at_low_order(id):
    rep = idmod.verify(id, E=F(2))
    assert rep.status == "conjecture"
    assert rep.ok


def test_m1_chain_passes_at_two_orders():
    for E in (F(1), F(2)):
        rep = idmod.verify("m1chain", E=E)
        assert rep.ok and rep.id == "m1chain"


# ---------------------------------------------------------------------------
# mutation sensitivity: a corrupted instanton coefficient must be caught
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("id,exponent", [
    ("NY", F(1)), ("NY", F(2)), ("qNY1", F(1)), ("qNY2", F(2)),
    ("NYtaupm", F(1)), ("qNYtaupm", F(1)),
])
def test_mutation_breaks_theorems(id, exponent):
    rep = idmod.verify(id, E=F(2), ctx=idmod.Context(corrupt=exponent))
    assert not rep.ok
    # the corruption belongs to that context: a fresh one verifies cleanly
    assert idmod.verify(id, E=F(1)).ok


def test_mutation_failure_localizes_residual():
    rep = idmod.verify("NY", E=F(2), ctx=idmod.Context(corrupt=F(1)))
    residuals = [r for _, part in rep.parts for r in part.residuals]
    assert residuals
    sector, exponent, n_terms, rendered = residuals[0]
    assert n_terms >= 1 and isinstance(rendered, str)


#: the j = 1 parts of the q-blowup entries whose left side is not zero
#: (qNY2's is: there the half-offset sum itself vanishes, so a sign flip
#: cannot show); --corrupt-coefficient reaches only qNY1's
HALF_OFFSET_PARTS = {
    "qNY1": ["half-unit downward dilation, offset j=1"],
    "qNY3": ["half-unit upward dilation, offset j=1"],
    "qNYCShi": ["downward quarter dilation", "upward quarter dilation"],
    "qNYD12diff": ["z^{j/4} Z at offset j=1"],
}


@pytest.mark.parametrize("id,k", [(id, k) for id in HALF_OFFSET_PARTS
                                  for k in range(3)])
def test_negated_half_offset_side_fails(id, k):
    entry = idmod.CATALOG[id]
    sample = idmod._POOLS[entry.domain][k]
    E = entry.default_order
    sides = {name: rest for name, *rest in entry.run(sample, E, idmod.Context())}
    for name in HALF_OFFSET_PARTS[id]:
        lhs, rhs = sides[name]
        assert idmod._compare(lhs, rhs, E).ok
        assert not idmod._compare(lhs.scale(-1), rhs, E).ok, name


# ---------------------------------------------------------------------------
# verify() plumbing
# ---------------------------------------------------------------------------


def test_verify_unknown_id():
    with pytest.raises(KeyError):
        idmod.verify("no-such-identity")


def test_default_samples_deterministic_rotation():
    a = idmod.default_samples("4d-tau", 2, seed=0)
    b = idmod.default_samples("4d-tau", 2, seed=0)
    assert a == b
    c = idmod.default_samples("4d-tau", 2, seed=1)
    assert c[0] == a[1]


def test_report_serialization_quarantines_timing():
    rep = idmod.verify("NYtaupm", E=F(1))
    d = rep.to_dict()
    assert "elapsed_seconds" not in d
    assert d["order"] == [1, 1]
    assert all(set(p) == {"name", "ok", "detail", "residual_count"}
               for p in d["parts"])


def _stub_entry(id, status, parts):
    base = idmod.CATALOG[id]
    return base._replace(run=lambda sample, E, ctx: parts, status=status)


def _fs(coeffs, trunc, sector=F(0)):
    """A one-sector FourierSeries with rational coefficients."""
    return FourierSeries.single(PuiseuxSeries(
        {F(e): SymExpr.coerce(F(c)) for e, c in coeffs.items()}, trunc), sector)


def test_sides_of_a_failing_part_report_sector_and_exponent(monkeypatch):
    # a run_* returns (name, lhs, rhs); verify compares them and the report
    # points at the first differing (sector, exponent) through z^E only
    lhs = _fs({0: 1, 1: 2, 3: 5}, F(4), F(1, 2))
    rhs = _fs({0: 1, 1: 3}, F(4), F(1, 2))
    monkeypatch.setitem(idmod.CATALOG, "NYtaupm",
                        _stub_entry("NYtaupm", "theorem", [("stub", lhs, rhs)]))
    rep = idmod.verify("NYtaupm", E=F(2))
    assert not rep.ok
    [(name, part)] = rep.parts
    assert name == "stub" and part.checked_order == 2
    assert [r[:2] for r in part.residuals] == [(F(1, 2), F(1))]


def test_puiseux_and_fourier_sides_both_compare(monkeypatch):
    ps = PuiseuxSeries({F(0): SymExpr.one(), F(1, 2): SymExpr.coerce(F(3))}, F(2))
    parts = [("puiseux", ps, ps),
             ("fourier", FourierSeries.single(ps, F(1, 2)),
              FourierSeries.single(ps, F(1, 2))),
             ("decided", EqualityReport(True, F(0)))]
    monkeypatch.setitem(idmod.CATALOG, "NYtaupm",
                        _stub_entry("NYtaupm", "theorem", parts))
    rep = idmod.verify("NYtaupm", E=F(1))
    assert rep.ok
    assert [(n, p.summary()) for n, p in rep.parts] == [
        ("puiseux", "pass (exact through z^1)"),
        ("fourier", "pass (exact through z^1)"),
        ("decided", "pass (exact through z^0)")]
    bad = [("puiseux", ps, ps.shift(F(1, 2)))]
    monkeypatch.setitem(idmod.CATALOG, "NYtaupm",
                        _stub_entry("NYtaupm", "theorem", bad))
    [(_, part)] = idmod.verify("NYtaupm", E=F(1)).parts
    assert [r[:2] for r in part.residuals] == [(0, 0), (0, F(1, 2)), (0, 1)]


def test_a_side_known_below_the_order_is_an_error_result(monkeypatch, tmp_path, capsys):
    # a side built through z^{1/2} cannot decide a comparison through z^1:
    # the run records an error result and exits 3, never a pass or a FAIL
    short = PuiseuxSeries({F(0): SymExpr.one()}, F(1, 2))
    monkeypatch.setitem(idmod.CATALOG, "NYtaupm", _stub_entry(
        "NYtaupm", "theorem", [("stub", short, PuiseuxSeries.one(F(2)))]))
    rp = tmp_path / "r.json"
    assert main(["verify", "--id", "NYtaupm", "--order", "1", "--report", str(rp)]) == 3
    [res] = json.loads(rp.read_text())["results"]
    assert res["ok"] is False and res["parts"] == []
    assert res["error"] == {"type": "ValueError",
                            "message": "series only known to 1/2, asked to compare to 1"}
    assert "NYtaupm [theorem] order 1: ERROR" in capsys.readouterr().out


def test_zeta3_failure_reports_normalization_diagnosis(monkeypatch):
    bad = [("stub", EqualityReport(False, F(2),
                                   [(F(0), F(0), 1, "(1)")], ""))]
    monkeypatch.setitem(idmod.CATALOG, "zeta3",
                        _stub_entry("zeta3", "theorem", bad))
    rep = idmod.verify("zeta3", E=F(1))
    assert not rep.ok
    assert "diagnosis" in rep.note and "normalization" in rep.note


def test_conjecture_failure_reports_minimal_coefficient(monkeypatch):
    bad = [("stub", EqualityReport(False, F(2),
                                   [(F(1, 2), F(3), 1, "(7)"),
                                    (F(0), F(1), 1, "(5)")], ""))]
    monkeypatch.setitem(idmod.CATALOG, "prdx",
                        _stub_entry("prdx", "conjecture", bad))
    rep = idmod.verify("prdx", E=F(1))
    assert not rep.ok
    assert "finding: minimal failing coefficient" in rep.note
    # the residual at the smallest exponent is the one reported
    assert "exponent 1" in rep.note and "(5)" in rep.note


def test_context_shares_taus_within_itself_only():
    sigma = idmod.POOL_SIGMA[0]
    ctx = idmod.Context()
    tau = ctx.taus_4d(sigma, F(2))("kiev")
    assert ctx.taus_4d(sigma, F(2))("kiev") is tau
    assert ctx.taus_4d(sigma, F(3))("kiev") is not tau
    assert ctx.taus_4d(sigma, F(2))("half") is not tau
    assert idmod.Context().taus_4d(sigma, F(2))("kiev") is not tau


class MarginContext(idmod.Context):
    """A Context that builds each tau through E + margin, at a fixed margin
    over the comparison order z^E: 1 for every check, and 2 for qG, read
    before the depth rule (TauSystem.depth)."""

    __slots__ = ("margin",)

    def __init__(self, margin):
        super().__init__()
        self.margin = margin

    def taus_4d(self, sigma, E):
        system = TauSystem4d(sigma, memo=self.memo)
        return lambda name: system.tau(name, E + self.margin)

    def taus_q(self, sample, m, E):
        system = TauSystemQ(sample, m, memo=self.memo)
        return lambda name: system.tau(name, E + self.margin)


#: the checks that read taus: the 4d-tau domain, and the q-painleve checks
#: that call Context.taus_q
TAU_4D_IDS = [id for id, e in idmod.CATALOG.items() if e.domain == "4d-tau"]
TAU_Q_IDS = ["qNYtaupm", "qNYD2diff", "qNYD1diff", "qNYD2diffp", "qNYD4diff", "qTodasg",
             "qG", "cd-system", "qNYDCS2diff", "qNYDCS1diff", "qTodaCSsg", "m1chain"]


def _cut_parts(parts, E):
    """Each part of a run, its sides cut at z^E, or its report; raises
    ValueError where a side is known only below z^E."""
    out = []
    for name, *sides in parts:
        if len(sides) == 2:
            idmod._compare(*sides, E)
            sides = [side.truncate(E) for side in sides]
        out.append((name, sides))
    return out


def assert_margin_free(ids, sample, E=None):
    """The parts of each check at the depth rule are those at the old
    margin, cut at z^E (by default the check's own order)."""
    ctx, old = idmod.Context(), {1: MarginContext(1), 2: MarginContext(2)}
    for id in ids:
        entry = idmod.CATALOG[id]
        order = entry.default_order if E is None else E
        got = _cut_parts(entry.run(sample, order, ctx), order)
        assert got == _cut_parts(entry.run(sample, order, old[1 + (id == "qG")]), order), id
        assert all(rep.ok for _, rep in idmod.verify(id, sample, order, ctx).parts), id


@pytest.mark.parametrize("E", [F(1), F(2), F(7, 2), F(4), F(6), F(8)])
@pytest.mark.parametrize("sigma", idmod.POOL_SIGMA)
def test_4d_taus_at_the_depth_rule_give_the_parts_of_the_old_margin(sigma, E):
    assert_margin_free(TAU_4D_IDS, sigma, E)


@pytest.mark.parametrize("sigma", [F(k, 48) for k in (-23, -17, -14, -10, -7, 1, 7, 10, 14,
                                                      17, 23)])
def test_4d_depth_rule_holds_across_sigma(sigma):
    # the least sector exponent reaches -11/48 at sigma = +-23/48
    assert_margin_free(TAU_4D_IDS, sigma, F(4))


@pytest.mark.parametrize("E", [None, F(3), F(5)], ids=["default", "3", "5"])
@pytest.mark.parametrize("k", range(len(idmod.POOL_QP)))
def test_q_taus_at_the_depth_rule_give_the_parts_of_the_old_margin(k, E):
    assert_margin_free(TAU_Q_IDS, idmod.POOL_QP[k], E)


@pytest.mark.parametrize("system,depths", [
    (lambda k: TauSystem4d(idmod.POOL_SIGMA[k]), [F(1, 24), 0, 0]),
    (lambda k: TauSystemQ(idmod.POOL_QP[k]), [F(1, 8), 0, F(1, 8)]),
], ids=["4d", "q"])
def test_depth_lifts_by_the_least_sector_exponent(system, depths):
    # the lift -v is sigma - 1/4 where sigma > 1/4: the mode at sigma - 1/2
    # sits at (sigma - 1/2)^2 - sigma^2
    for k, lift in enumerate(depths):
        assert system(k).depth(F(3)) == 3 + lift


def test_every_tau_check_reads_taus_through_the_context():
    # the id lists above cover each check that asks the Context for taus
    class Recording(idmod.Context):
        __slots__ = ("asked",)

        def taus_4d(self, sigma, E):
            self.asked = True
            return super().taus_4d(sigma, E)

        def taus_q(self, sample, m, E):
            self.asked = True
            return super().taus_q(sample, m, E)

    reading = set()
    for id, entry in idmod.CATALOG.items():
        if entry.domain in ("4d-tau", "q-painleve") and id not in ("prdx", "halfpow"):
            ctx = Recording()
            entry.run(idmod.default_samples(entry.domain, 1)[0], F(1), ctx)
            if getattr(ctx, "asked", False):
                reading.add(id)
    assert reading == set(TAU_4D_IDS + TAU_Q_IDS)


def ref_zeta_products(sigma, E, ctx):
    """Test-only copy of the product route zetac and zeta3 took before
    their theta-products came from one pass: full products of the
    theta-derivatives of zeta, and of z = zeta + sigma^2 for zeta3.
    Returns the pieces of Context.zeta_4d and the sides of both checks."""
    zr = zeta_from_tau(ctx.taus_4d(sigma, E)("kiev"))
    zp = zr.theta()
    zpp = zp.theta()
    zppp = zpp.theta()
    pieces = {"P": zp * zp, "Q": zpp * zpp - zp * zppp, "R": (zpp - zp) * (zpp - zp),
              "P dzeta": zp * zp * zp, "P zeta": zp * zp * zr}
    zetac = (zp * zp * zp).scale(-2) + zpp * zpp - zp * zppp + zp.shift(1).scale(2)
    z = zr + FourierSeries.single(
        PuiseuxSeries({F(0): SymExpr.coerce(sigma * sigma)}, zr.trunc))
    zp = z.theta()
    zpp = zp.theta()
    zeta3 = ((zpp - zp) * (zpp - zp),
             (zp * zp * (z - zp)).scale(4) - zp.shift(1).scale(4))
    return pieces, (zetac, FourierSeries.zero(zetac.trunc)), zeta3


@pytest.mark.parametrize("sigma", idmod.POOL_SIGMA)
def test_zeta_products_are_the_product_route(sigma):
    ctx = idmod.Context()
    pieces, zetac, zeta3 = ref_zeta_products(sigma, F(3), ctx)
    zs = ctx.zeta_4d(sigma, F(3))
    pairs = [(zs[k], ref) for k, ref in pieces.items()]
    for run, ref in ((idmod.run_zetac, zetac), (idmod.run_zeta3, zeta3)):
        [(_, *sides)] = run(sigma, F(3), ctx)
        pairs += zip(sides, ref)
    for new, ref in pairs:
        # coefficients, overall bound and every sector's bound
        assert (new.trunc, new.sectors) == (ref.trunc, ref.sectors)
    # none is vacuous but zetac's sides, which vanish
    assert all(new.sectors for new, _ in pairs[:5] + pairs[7:])


def test_determ_recursion_singular_sample():
    with pytest.raises(idmod.SingularSystem):
        idmod.verify("determlemma", sample=(F(1, 2), F(4), F(4), F(2)), E=2)


def test_determ_recursion_seed_level():
    # the seed is checked along with level 1; order 0 would check the seed
    # alone, which is below the entry's lowest meaningful order
    rep = idmod.verify("determlemma", E=1)
    assert rep.ok
    assert any("level-0" in name or "seed" in name for name, _ in rep.parts)
    with pytest.raises(ValueError, match="below the lowest meaningful order 1"):
        idmod.verify("determlemma", E=0)


def ref_run_determlemma(sample, E, ctx):
    """Test-only copy of the determining recursion's old route: each level
    takes twelve mode sums, with the unknowns set to 0 and 1 in turn."""
    t, E1, E2, Lu = sample
    A, B = idmod._pair_5d(t, E1, E2, Lu, ctx.memo, 2)
    xs = (F(-1, 2), F(-1, 4), F(0))
    parts = [("seed: both level-0 coefficients are 1",
              idmod.bool_report(
                  A.mode(0, 0, F(0)).coeff(F(0)).rational_value() == GaussianRational(1)
                  and B.mode(0, 0, F(0)).coeff(F(0)).rational_value()
                  == GaussianRational(1), 0))]
    for k in range(1, int(E) + 1):
        Ek = F(k)
        true1 = A.mode(0, 0, Ek).coeff(Ek)
        true2 = B.mode(0, 0, Ek).coeff(Ek)

        def coeff_sum(x, c1, c2):
            dilated = idmod._dilated(t, 4 * x * E1, 4 * x * E2)

            def pair(n, f, g):
                if n == 0:
                    f = PuiseuxSeries({**f.coeffs, Ek: SymExpr.coerce(c1)}, Ek)
                    g = PuiseuxSeries({**g.coeffs, Ek: SymExpr.coerce(c2)}, Ek)
                return dilated(n, f, g)

            return idmod._mode_sum(A, B, Ek, F(0), pair).coeff(Ek)

        rows, rhs = [], []
        for xa, xb in ((xs[1], xs[2]), (xs[0], xs[2])):
            base = coeff_sum(xa, 0, 0) - coeff_sum(xb, 0, 0)
            a = (coeff_sum(xa, 1, 0) - coeff_sum(xb, 1, 0) - base).rational_value()
            b = (coeff_sum(xa, 0, 1) - coeff_sum(xb, 0, 1) - base).rational_value()
            rows.append((a, b))
            rhs.append(SymExpr.zero() - base)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        inv = SymExpr.from_rational(det.inverse())
        c1 = (rhs[0] * rows[1][1] - rhs[1] * rows[0][1]) * inv
        c2 = (rhs[1] * rows[0][0] - rhs[0] * rows[1][0]) * inv
        parts.append((f"level {k}: first half-theory coefficient",
                      idmod.bool_report(not (c1 - true1), k)))
        parts.append((f"level {k}: second half-theory coefficient",
                      idmod.bool_report(not (c2 - true2), k)))
    return parts


@pytest.mark.parametrize("sample", idmod.POOL_5D)
def test_determ_recursion_matches_the_twelve_sum_solve(sample):
    # the unknowns enter one pair term at t-power weights, so three mode
    # sums per level give the system the twelve sums gave
    ctx = idmod.Context()
    for E in range(2, 6):
        got = idmod.run_determlemma(sample, F(E), ctx)
        want = ref_run_determlemma(sample, F(E), ctx)
        assert got == want
        assert all(r.ok for _, r in got)


def assert_truncates_to(lo, hi):
    """hi, known at least as far as lo in each sector, equals lo there."""
    assert lo.trunc <= hi.trunc
    lo_s, hi_s = _sectors(lo), _sectors(hi)
    for s in lo_s.keys() | hi_s.keys():
        p = lo_s.get(s, PuiseuxSeries.zero(lo.trunc))
        q = hi_s.get(s, PuiseuxSeries.zero(hi.trunc))
        assert p.trunc <= q.trunc
        assert q.truncate(p.trunc).coeffs == p.coeffs


#: the memo kinds keyed by an order, and the place of the order in the key:
#: ("mode", ..., order), ("tau", ..., depth), ("hirota", sigma, E, f, g, k)
#: and ("zeta_4d", sigma, E)
ORDER_AT = {"mode": -1, "tau": -1, "hirota": 2, "zeta_4d": 2}
#: the memo kinds that no order keys: a relative mode's one-loop cocycle
#: and the instanton coefficients, one per degree
NOT_ORDERED = {"cocycle", "inst_coeff_4d", "inst_coeff_5d"}


def test_modes_and_taus_built_deeper_truncate_to_the_shallower():
    # keeping one value per key at its deepest order and truncating on
    # read is sound only if the value built at E equals the value built at
    # E' > E truncated to E: every catalog id on sample 0 at its default
    # order and one above, on one memo.  Modes and taus are truncated to
    # the shallower order; Hirota derivatives and the zeta series are
    # compared through each sector's shallower bound.  Every memo kind is
    # named here, so that a kind added or removed updates this test
    ctx = idmod.Context()
    for id, entry in idmod.CATALOG.items():
        sample = idmod.default_samples(entry.domain, 1)[0]
        for E in (entry.default_order, entry.default_order + 1):
            entry.run(sample, E, ctx)
    assert {key[0] for key in ctx.memo} == ORDER_AT.keys() | NOT_ORDERED
    by_order = defaultdict(dict)
    for key, value in ctx.memo.items():
        if key[0] in ORDER_AT:
            i = ORDER_AT[key[0]] % len(key)
            by_order[key[:i] + key[i + 1:]][key[i]] = value
    compared = defaultdict(int)
    for rest, orders in by_order.items():
        for lo, hi in itertools.pairwise(sorted(orders)):
            lo_v, hi_v = orders[lo], orders[hi]
            if rest[0] in ("mode", "tau"):
                assert_same(lo_v, hi_v.truncate(lo))
            elif rest[0] == "hirota":
                assert_truncates_to(lo_v, hi_v)
            else:
                for name in lo_v.keys() & hi_v.keys():
                    assert_truncates_to(lo_v[name], hi_v[name])
            compared[rest[0]] += 1
    assert compared["mode"] + compared["tau"] >= 20
    assert all(compared[kind] for kind in ("hirota", "zeta_4d")), compared
