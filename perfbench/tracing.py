"""Layer tracing for one benchmark pass, installed from outside the package.

Wrappers are set on the module and class attributes through which callers
look names up, so nothing under ``src/`` knows about them.  Calls into a
layer's public functions become spans (name, start, end, parent), kept in
flat arrays and written once when the pass ends.  The ring-level methods
(``GaussianRational``/``SymExpr`` multiply and inverse, ``rational_power``)
run hundreds of thousands of times per pass, so they only add to a count
and an aggregate time.  Span self time excludes that time and the time of
the hooks that count work at a child span's or ring call's boundary; traced
times still carry the wrappers' own cost, which ``trace.overhead_frac``
sizes.

``summarize`` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
from array import array
from time import perf_counter

DEGREES = range(11)  # nekrasov.inst_coeff_matter.d0_s .. d10_s


class Tracer:
    def __init__(self):
        self.ids = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # time inside a span that is not its own code: outermost ring calls
        # and the counting hooks of its child spans
        self.sp_excluded = array("d")
        self.stack = []
        self.ring_depth = 0
        self.ring_stats = {}  # name -> [calls, seconds]
        self.counters = {}
        self.maxima = {}
        self.seen = {}  # argument keys per repeat_frac family

    # -- recording ---------------------------------------------------------

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def repeat(self, family, key):
        seen = self.seen.setdefault(family, set())
        self.add(family + ".calls")
        if key in seen:
            self.add(family + ".repeats")
        else:
            seen.add(key)

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; name may be a function of
        the call's (args, kwargs)."""
        ids, stack = self.ids, self.stack
        names, parents = self.sp_name, self.sp_parent
        starts, ends, excluded = self.sp_start, self.sp_end, self.sp_excluded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.ring_depth:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            nid = ids.setdefault(label, len(ids))
            if before is not None:
                h0 = perf_counter()
                before(args, kwargs)
                if stack:
                    excluded[stack[-1]] += perf_counter() - h0
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            excluded.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[i] = t1
                stack.pop()
            if after is not None:
                after(args, kwargs, out, t1 - t0)
                if stack:
                    excluded[stack[-1]] += perf_counter() - t1
            return out

        return wrapper

    def ring(self, name, fn, before=None):
        """Wrap a ring-level method: count calls and aggregate time only."""
        stat = self.ring_stats.setdefault(name, [0, 0.0])
        active = [False]
        stack, excluded = self.stack, self.sp_excluded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if before is not None:
                h0 = perf_counter()
                before(args)
                if not self.ring_depth and stack:
                    excluded[stack[-1]] += perf_counter() - h0
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            outer = not self.ring_depth
            self.ring_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.ring_depth -= 1
                active[0] = False
                stat[1] += dt
                if outer and stack:
                    excluded[stack[-1]] += dt

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path):
        doc = {
            "names": sorted(self.ids, key=self.ids.get),
            "spans": {
                "name": self.sp_name.tolist(),
                "parent": self.sp_parent.tolist(),
                "start": self.sp_start.tolist(),
                "end": self.sp_end.tolist(),
                "excluded": self.sp_excluded.tolist(),
            },
            "ring": self.ring_stats,
            "counters": self.counters,
            "maxima": self.maxima,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _rebind(old, new):
    """Point every nektau module attribute bound to old at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nektau" or mod_name.startswith("nektau."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _rebind_method(cls, attr, new):
    old = cls.__dict__[attr]
    for other, value in list(cls.__dict__.items()):
        if value is old:  # __rmul__ = __mul__ aliases
            setattr(cls, other, new)


def _bits(x):
    """Largest numerator/denominator bit length of an exact number."""
    re = getattr(x, "re", None)
    if re is None:
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    im = x.im
    return max(re.numerator.bit_length(), re.denominator.bit_length(),
               im.numerator.bit_length(), im.denominator.bit_length())


def install():
    """Wrap the layer boundaries of the imported nektau package."""
    from nektau import fourier, identities, nekrasov, partitions, qseries, symbols, tau
    from nektau.fourier import FourierSeries
    from nektau.nekrasov import RelativeZ4d, RelativeZ5d
    from nektau.rationals import GaussianRational
    from nektau.series import PuiseuxSeries
    from nektau.symbols import MONO_ONE, SymExpr

    tr = Tracer()

    def fn(module, attr, wrapped):
        _rebind(getattr(module, attr), wrapped)

    # partitions: per-pair instanton factors
    def nf5_before(args, kwargs):
        lam, mu = args[0], args[1]
        tr.add("partitions.n_factor_5d.factors", sum(lam) + sum(mu))
        tr.repeat("partitions.n_factor_5d", args)

    fn(partitions, "n_factor_5d",
       tr.span("partitions.n_factor_5d", partitions.n_factor_5d, nf5_before))
    fn(partitions, "n_factor_4d",
       tr.span("partitions.n_factor_4d", partitions.n_factor_4d))

    # rationals: Q(i) ring
    def gr_mul_before(args):
        a, b = args
        tr.peak("rationals.mul.bits_max", max(_bits(a), _bits(b)))

    _rebind_method(GaussianRational, "__mul__",
                   tr.ring("rationals.mul", GaussianRational.__mul__, gr_mul_before))
    _rebind_method(GaussianRational, "inverse",
                   tr.ring("rationals.inverse", GaussianRational.inverse))

    # symbols: SymExpr ring
    def pure(x):
        terms = getattr(x, "terms", None)
        return terms is None or not terms or (len(terms) == 1 and MONO_ONE in terms)

    def sym_mul_before(args):
        if pure(args[0]) and pure(args[1]):
            tr.add("symbols.mul.pure")

    _rebind_method(SymExpr, "__mul__",
                   tr.ring("symbols.mul", SymExpr.__mul__, sym_mul_before))
    _rebind_method(SymExpr, "inverse", tr.ring("symbols.inverse", SymExpr.inverse))
    fn(symbols, "rational_power",
       tr.ring("symbols.rational_power", symbols.rational_power))

    # nekrasov: instanton coefficients, series and relative modes
    def coeff_bits(c):
        return max((_bits(v) for v in c.terms.values()), default=0)

    def matter_after(args, kwargs, out, dt):
        d = args[3]
        if d in DEGREES:
            tr.add(f"nekrasov.inst_coeff_matter.d{d}_s", dt)
        tr.peak("nekrasov.coeff_bits_max", coeff_bits(out))

    def series_before(args, kwargs):
        tr.repeat("nekrasov.inst_series", repr(args))

    def series_after(args, kwargs, out, dt):
        for c in out.coeffs.values():
            tr.peak("nekrasov.coeff_bits_max", coeff_bits(c))

    fn(nekrasov, "inst_coeff_matter",
       tr.span("nekrasov.inst_coeff_matter", nekrasov.inst_coeff_matter,
               after=matter_after))
    for attr in ("inst_series_4d", "inst_series_5d", "inst_series_matter"):
        fn(nekrasov, attr, tr.span("nekrasov." + attr, getattr(nekrasov, attr),
                                   series_before, series_after))
    for cls in (RelativeZ4d, RelativeZ5d):
        _rebind_method(cls, "mode", tr.span("nekrasov.mode", cls.mode))

    # series: truncated Puiseux series
    def ps_mul_before(args, kwargs):
        a, b = args
        if not isinstance(b, PuiseuxSeries):
            return
        trunc = min(a.trunc + b.min_exp(), b.trunc + a.min_exp())
        eb = sorted(b.coeffs)
        kept = sum(bisect.bisect_right(eb, trunc - e) for e in a.coeffs)
        tr.add("series.mul.pairs", len(a.coeffs) * len(eb))
        tr.add("series.mul.kept", kept)

    _rebind_method(PuiseuxSeries, "__mul__",
                   tr.span("series.mul", PuiseuxSeries.__mul__, ps_mul_before))
    for attr in ("inverse", "exp", "dilate", "theta"):
        _rebind_method(PuiseuxSeries, attr,
                       tr.span("series." + attr, getattr(PuiseuxSeries, attr)))

    # fourier: sector-graded series and the comparing phase
    def equal_before(args, kwargs):
        a, b, E = args
        n = 0
        for k in set(a.sectors) | set(b.sectors):
            keys = set(a.sector(k).coeffs) | set(b.sector(k).coeffs)
            n += sum(1 for e in keys if e <= E)
        tr.add("fourier.equal.coeffs_compared", n)

    _rebind_method(FourierSeries, "__mul__",
                   tr.span("fourier.mul", FourierSeries.__mul__))
    _rebind_method(FourierSeries, "inverse",
                   tr.span("fourier.inverse", FourierSeries.inverse))
    fn(fourier, "hirota", tr.span("fourier.hirota", fourier.hirota))
    fn(fourier, "fs_equal_to_order",
       tr.span("fourier.equal", fourier.fs_equal_to_order, equal_before))

    # qseries: the two independent routes of each family
    def routed(family, pos, default):
        def label(args, kwargs):
            route = kwargs.get("route", args[pos] if len(args) > pos else default)
            return f"qseries.{family}.{route}"
        return label

    fn(qseries, "pochhammer_series",
       tr.span(routed("pochhammer", 3, "shift"), qseries.pochhammer_series))
    fn(qseries, "theta_z_series",
       tr.span(routed("theta", 5, "product"), qseries.theta_z_series))

    # tau: the building phase
    for attr in ("build_tau", "g_function", "zeta_from_tau"):
        fn(tau, attr, tr.span("tau." + attr, getattr(tau, attr)))

    # identities: catalog assembly
    fn(identities, "verify", tr.span("identities.verify", identities.verify))
    return tr


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _span_totals(doc):
    """Per span name: calls, outermost inclusive seconds, and self seconds."""
    names = doc["names"]
    sp = doc["spans"]
    name, parent = sp["name"], sp["parent"]
    dur = [e - s for s, e in zip(sp["start"], sp["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i, nid in enumerate(name):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += dur[i] - child[i] - sp["excluded"][i]
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:  # no enclosing span of the same name
            row["s"] += dur[i]
    return out


def summarize(doc):
    """Per-layer metric values from a written trace."""
    spans = _span_totals(doc)
    ring, cnt, mx = doc["ring"], doc["counters"], doc["maxima"]

    def sp(n, key):
        return spans.get(n, {}).get(key, 0)

    def rg(n, idx):
        return ring.get(n, [0, 0.0])[idx]

    def frac(num, den):
        return cnt.get(num, 0) / den if den else 0.0

    m = {
        "partitions.n_factor_5d.calls": sp("partitions.n_factor_5d", "calls"),
        "partitions.n_factor_5d.s": sp("partitions.n_factor_5d", "s"),
        "partitions.n_factor_5d.factors": cnt.get("partitions.n_factor_5d.factors", 0),
        "partitions.n_factor_5d.repeat_frac": frac(
            "partitions.n_factor_5d.repeats", cnt.get("partitions.n_factor_5d.calls", 0)),
        "partitions.n_factor_4d.calls": sp("partitions.n_factor_4d", "calls"),
        "partitions.n_factor_4d.s": sp("partitions.n_factor_4d", "s"),
        "rationals.mul.calls": rg("rationals.mul", 0),
        "rationals.mul.s": rg("rationals.mul", 1),
        "rationals.inverse.calls": rg("rationals.inverse", 0),
        "rationals.mul.bits_max": mx.get("rationals.mul.bits_max", 0),
        "nekrasov.inst_coeff_matter.calls": sp("nekrasov.inst_coeff_matter", "calls"),
        "nekrasov.inst_coeff_matter.s": sp("nekrasov.inst_coeff_matter", "s"),
    }
    for d in DEGREES:
        key = f"nekrasov.inst_coeff_matter.d{d}_s"
        m[key] = cnt.get(key, 0.0)
    m.update({
        "nekrasov.inst_series_5d.s": sp("nekrasov.inst_series_5d", "s"),
        "nekrasov.inst_series_4d.s": sp("nekrasov.inst_series_4d", "s"),
        "nekrasov.mode.calls": sp("nekrasov.mode", "calls"),
        "nekrasov.mode.s": sp("nekrasov.mode", "s"),
        "nekrasov.inst_series.repeat_frac": frac(
            "nekrasov.inst_series.repeats", cnt.get("nekrasov.inst_series.calls", 0)),
        "nekrasov.coeff_bits_max": mx.get("nekrasov.coeff_bits_max", 0),
        "series.mul.calls": sp("series.mul", "calls"),
        "series.mul.s": sp("series.mul", "s"),
        "series.mul.self_s": sp("series.mul", "self_s"),
        "series.mul.pairs": cnt.get("series.mul.pairs", 0),
        "series.mul.kept_frac": frac("series.mul.kept", cnt.get("series.mul.pairs", 0)),
        "series.inverse.calls": sp("series.inverse", "calls"),
        "series.inverse.s": sp("series.inverse", "s"),
        "series.exp.s": sp("series.exp", "s"),
        "series.dilate.s": sp("series.dilate", "s"),
        "series.theta.s": sp("series.theta", "s"),
        "symbols.mul.calls": rg("symbols.mul", 0),
        "symbols.mul.s": rg("symbols.mul", 1),
        "symbols.mul.pure_rational_frac": frac("symbols.mul.pure", rg("symbols.mul", 0)),
        "symbols.inverse.calls": rg("symbols.inverse", 0),
        "symbols.rational_power.calls": rg("symbols.rational_power", 0),
        "symbols.rational_power.s": rg("symbols.rational_power", 1),
        "fourier.mul.calls": sp("fourier.mul", "calls"),
        "fourier.mul.s": sp("fourier.mul", "s"),
        "fourier.inverse.s": sp("fourier.inverse", "s"),
        "fourier.hirota.s": sp("fourier.hirota", "s"),
        "fourier.equal.s": sp("fourier.equal", "s"),
        "fourier.equal.coeffs_compared": cnt.get("fourier.equal.coeffs_compared", 0),
        "qseries.pochhammer.shift_s": sp("qseries.pochhammer.shift", "s"),
        "qseries.pochhammer.exp_s": sp("qseries.pochhammer.exp", "s"),
        "qseries.theta.product_s": sp("qseries.theta.product", "s"),
        "qseries.theta.jacobi_s": sp("qseries.theta.jacobi", "s"),
        "tau.build_tau.calls": sp("tau.build_tau", "calls"),
        "tau.build_tau.s": sp("tau.build_tau", "s"),
        "tau.build_tau.self_s": sp("tau.build_tau", "self_s"),
        "tau.g_function.s": sp("tau.g_function", "s"),
        "tau.zeta_from_tau.s": sp("tau.zeta_from_tau", "s"),
        "identities.verify.calls": sp("identities.verify", "calls"),
        "identities.verify.self_s": sp("identities.verify", "self_s"),
    })
    return m
