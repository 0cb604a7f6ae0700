"""Inputs and one pass of each benchmark workload.

A pass runs inside a fresh interpreter (child.py), so every cache of the
package starts empty without the benchmark reaching in to clear it.

catalog  the full default ``nektau verify``: every check at its default
         order on one sample each.  The seed rotates the sample pools.
tau4d    the theorem/derived checks of the ``4d-tau`` domain at order z^6
         on one sigma sample (rotated by the seed).
qseries  Pochhammer specs (drawn from the seed) on the shift and exp
         routes and a fixed grid of theta specs on the product and jacobi
         routes at order z^4; each spec is computed on both routes and the
         two results are compared.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from fractions import Fraction as F

#: inputs repeat with this period in the seed: the catalog and tau4d sample
#: pools hold three samples each, and qseries draws one of three spec sets,
#: so every input has reference digests recorded (reference.json)
ROTATIONS = {"catalog": 3, "tau4d": 3, "qseries": 3}

TAU4D_IDS = (
    "NYdiffIS", "NYdiffHIS1", "NYdiffHIS3", "NYtaupm", "NYtau01", "NYD2diff",
    "NYD4diff", "NYD1diff", "NYD3diff", "Todasg", "doubleprop", "zetac",
    "zeta3", "KZsq",
)
TAU4D_ORDER = "6"

QSERIES_ORDER = F(4)
N_POCHHAMMER = 32
#: theta specs are a fixed grid of (a, r) points over the criterion-9 range,
#: each with a fixed coefficient pair; a = -6 at r = 1/2 keeps one large
#: series inverse (~70% of a pass) in every pass.  Drawing a, r or the
#: coefficients instead lets that one spec decide the length of a pass
#: (3.3-5.5 s over the coefficient pairs; a = 8, r = 1/2 alone takes ~10 s),
#: so the seed draws only the Pochhammer specs.
THETA_A = (F(-6), F(-5, 2), F(-3, 4), F(1, 4), F(7, 4), F(4))
THETA_R = (F(1, 2), F(1), F(3, 2), F(2))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error():
    return traceback.format_exc(limit=3)


class CliJob:
    """One ``nektau verify`` run, exactly as a user starts it."""

    def __init__(self, argv, out_dir):
        self.report = str(out_dir / "report.json")
        self.argv = argv + ["--report", self.report]
        self.error = None

    def run(self):
        from nektau import cli

        try:
            cli.main(self.argv)
        except Exception:
            self.error = _error()

    def checks(self):
        """One entry per report result; the timing block is left out."""
        if self.error is not None:
            return []
        with open(self.report) as f:
            results = json.load(f)["results"]
        return [
            {"key": f"{r['id']}#{r['sample_index']}", "ok": r["ok"], "digest": digest(r)}
            for r in results
        ]


def qseries_specs(seed: int):
    """(label, family, args) for one spec set at order z^4.

    Pochhammer specs follow the criterion-9 distribution, stratified on the
    z-power, which sets most of a spec's cost: each value takes a quarter.
    """
    from nektau.qseries import PochhammerSpec
    from nektau.rationals import GaussianRational as G

    rng = random.Random(seed % ROTATIONS["qseries"])
    coeffs = [F(1), F(-1), F(2), F(-1, 2), F(3, 5), G(0, 1), G(1, 1)]
    zpows = [F(1, 2), F(1), F(3, 2), F(2)]
    ts = [F(1, 2), F(1, 3), F(2, 5), F(3, 7)]
    out = []
    for i in range(N_POCHHAMMER):
        bases = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 2)))
        c, zpow, t = rng.choice(coeffs), zpows[i % len(zpows)], rng.choice(ts)
        label = f"poch({c}; {zpow}; {bases}; t={t})"
        out.append((label, "pochhammer", (PochhammerSpec(c, zpow, bases), t)))
    theta_coeffs = [F(1), F(-1), F(2), F(-1, 3), G(0, 1)]
    for i, (r, a) in enumerate((r, a) for r in THETA_R for a in THETA_A):
        cw, cp = theta_coeffs[i % 5], theta_coeffs[(2 * i + 1) % 5]
        out.append((f"theta({cw}; {a}; {cp}; {r})", "theta", (cw, a, cp, r)))
    return out


class QseriesJob:
    ROUTES = {"pochhammer": ("shift", "exp"), "theta": ("product", "jacobi")}

    def __init__(self, seed, corrupt):
        self.specs = qseries_specs(seed)
        self.corrupt = corrupt
        self.results = []
        self.error = None  # failures are recorded per spec in checks()

    def _compute(self, family, args, route):
        from nektau import qseries  # attribute lookup, so tracing sees it

        if family == "pochhammer":
            spec, t = args
            return qseries.pochhammer_series(spec, t, QSERIES_ORDER, route)
        cw, a, cp, r = args
        return qseries.theta_z_series(cw, a, cp, r, QSERIES_ORDER, route=route)

    def run(self):
        from nektau import fourier
        from nektau.series import PuiseuxSeries

        for _, family, args in self.specs:
            try:
                x, y = (self._compute(family, args, route) for route in self.ROUTES[family])
                if self.corrupt:
                    x = x + PuiseuxSeries.monomial(F(1), 1, x.trunc)
                ok = fourier.ps_equal_to_order(x, y, min(x.trunc, y.trunc)).ok
                self.results.append((x, y, ok, None))
            except Exception:
                self.results.append((None, None, False, _error()))

    def checks(self):
        out = []
        for i, ((label, _, _), (x, y, ok, err)) in enumerate(zip(self.specs, self.results)):
            key = f"{i:02d} {label}"
            if err is not None:
                out.append({"key": key, "ok": False, "error": err})
            else:
                out.append({"key": key, "ok": ok, "digest": digest(
                    [x.dump(), str(x.trunc), y.dump(), str(y.trunc)])})
        return out


def make_job(workload: str, seed: int, corrupt: bool, out_dir):
    """Generate the inputs of one pass (this is part of set-up)."""
    corrupt_args = ["--corrupt-coefficient"] if corrupt else []
    if workload == "catalog":
        return CliJob(["verify", "--seed", str(seed)] + corrupt_args, out_dir)
    if workload == "tau4d":
        ids = [arg for i in TAU4D_IDS for arg in ("--id", i)]
        return CliJob(["verify", *ids, "--order", TAU4D_ORDER, "--seed", str(seed)]
                      + corrupt_args, out_dir)
    if workload == "qseries":
        return QseriesJob(seed, corrupt)
    raise ValueError(f"unknown workload {workload!r}")
