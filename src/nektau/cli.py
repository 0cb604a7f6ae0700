"""Command-line driver: select identities, orders, samples; emit reports.

Subcommands
-----------
list    print the identity catalog (id, status, anchor formula).
verify  run catalog checks and write a deterministic JSON/CSV report.
        Exit code 0 iff every theorem- and derived-status check passed, 1
        when one of them failed, 2 on a configuration error (found before
        any computation, e.g. a config-file key that is not a flag's, a
        value of the wrong type, an empty selection, a repeated id, `all`
        beside other ids, an unknown dump selector, an order below an
        entry's lowest meaningful order or past the order at which a 4d
        theory of a sample would meet a vanishing factor, a
        --corrupt-coefficient exponent above the order of every selected
        check, more samples than its pool holds or a report path in a
        directory that does not exist; the same holds for dump and
        oracle, and a dump of Z4d past the sample's admissible degree),
        3 on an internal error: an
        exception raised inside a check (Resonance, ZeroFactor,
        NonInvertible, ...) becomes an error result that carries the
        exception's type and message, whatever the check's status, and 3
        wins over 1; an exception that escapes any command (dump and
        oracle included) prints its traceback to stderr and exits 3
        too.  --fail-fast stops at the first result that sets a
        nonzero exit code.  Conjecture-status outcomes are recorded in the
        report but never affect the exit code.
dump    print an exact truncated series (a tau named in tau.py's recipe
        tables as tau4d:<name> or tauq:<name>, a partition function, or a
        closed-form fixture) as JSON.  Byte-identical across runs with
        the same arguments; a higher-order dump extends a lower-order one
        per sector.
oracle  run the catalog entry determlemma, the two-route coefficient
        recursion cross-check, to an integer depth k >= 1 (any other depth
        is a configuration error, exit 2).

Every id that verify accepts is a catalog entry (identities.CATALOG): each
returns the sides of its parts and identities.verify compares them.
Checks run in run contexts (identities.Context) whose memo is the only
cache: the instanton coefficients, relative modes, one-loop cocycles, taus,
Hirota derivatives D^k and the zeta series with its theta-products built
by one check are reused by the later checks of its family
(IdentityCheck.family) in the same run, each made once, and are dropped
when the run ends.  Two families share no memo
value but one: the kiev tau, which the 4d-tau and 4d-zeta checks of a
sample both read, so the 4d-tau domain on one sample runs as two groups.
The (family, sample index) groups of a run are shared out between this
process and forked workers, one process per usable CPU
(os.sched_getaffinity) and at most one per group, each with its own
context, so a shared value is built once in each process that reads it;
the reports come back in job order, so the report, stdout and exit code
are those of one process.  A run of one group, a run under --fail-fast
(which stops in job order) or a platform without os.fork runs in this
process alone; a worker that dies makes verify exit 3.  dump and
oracle never fork and keep no memo.  --corrupt-coefficient sets the
contexts' corruption setting: the central series of a few theorem entries
gains +1 at that z-exponent before it is compared, so those checks must
fail.

Determinism: the seed fully determines the sample sequence; timing data is
quarantined in a separate report section so residual sections are diffable.
Environment override: NEKTAU_SEED (seed; a value that is not an integer is a
configuration error for every command).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from fractions import Fraction as Frac

# csv, pickle and traceback are imported in the functions that use them
# (--format csv, forked runs, the error paths), so that a run without them
# does not pay for them in set-up time and memory

from . import identities as idmod
from .nekrasov import Theory4d, Theory5d, inst_series_4d, inst_series_5d
from .qseries import algebraic_fixture
from .tau import TauSystem4d, TauSystemQ

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class RunConfig:
    """The settings of one verify run, as build_config merges them."""

    __slots__ = ("identities", "order", "samples", "seed", "report", "format",
                 "fail_fast", "corrupt")

    def __init__(self, identities=(), order: Frac | None = None, samples: int = 1,
                 seed: int = 0, report: str | None = None, format: str = "json",
                 fail_fast: bool = False, corrupt: Frac | None = None):
        self.identities = list(identities)
        self.order = order
        self.samples = samples
        self.seed = seed
        self.report = report
        self.format = format
        self.fail_fast = fail_fast
        self.corrupt = corrupt  # debug: perturb one coefficient at this exponent

    def to_dict(self):
        return {
            "identities": list(self.identities),
            "order": None if self.order is None
            else [self.order.numerator, self.order.denominator],
            "samples": self.samples,
            "seed": self.seed,
            "format": self.format,
            "fail_fast": self.fail_fast,
            "corrupt": None if self.corrupt is None
            else [self.corrupt.numerator, self.corrupt.denominator],
        }


def _parse_fraction(text: str, name: str) -> Frac:
    try:
        return Frac(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from exc


def _parse_order(text: str, name: str = "order") -> Frac:
    v = _parse_fraction(text, name)
    if v <= 0:
        raise ConfigError(f"{name} must be positive, got {text!r}")
    return v


def _seed(default) -> int:
    """NEKTAU_SEED if set and non-empty, else default, as an int."""
    seed = os.environ.get("NEKTAU_SEED") or default
    try:
        return int(seed)
    except ValueError as exc:
        raise ConfigError(f"bad seed {seed!r}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON type of each config-file key: (description, check)
_CONFIG_TYPES = {
    "identities": ("a string or a list of strings",
                   lambda v: isinstance(v, str) or (
                       isinstance(v, list) and all(isinstance(i, str) for i in v))),
    "order": ("a number, a string or a [num, den] pair",
              lambda v: isinstance(v, (int, float, str)) or (
                  isinstance(v, list) and len(v) == 2)),
    "samples": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "report": ("a string", lambda v: isinstance(v, str)),
    "format": ("a string", lambda v: isinstance(v, str)),
    "failFast": ("a boolean", lambda v: isinstance(v, bool)),
}


def _check_report_path(path):
    """Reject a report path that cannot be written, before any computation."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ConfigError(f"report path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"report directory {parent!r} does not exist")


def build_config(args) -> RunConfig:
    """Merge config file, flags, and env overrides; reject unknown ids."""
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_TYPES))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}; "
                              f"choose from: {', '.join(_CONFIG_TYPES)}")
        for key, (want, ok) in _CONFIG_TYPES.items():
            if key in data and not ok(data[key]):
                raise ConfigError(f"config {key!r} must be {want}, got {data[key]!r}")
    ids = data.get("identities", "all")
    if args.id:
        ids = args.id
    if ids == "all" or ids == ["all"]:
        ids = list(idmod.CATALOG)
    if isinstance(ids, str):
        ids = [ids]
    if "all" in ids:
        raise ConfigError("`all` must be the only id")
    if not ids:
        raise ConfigError("no identity selected")
    unknown = [i for i in ids if i not in idmod.CATALOG]
    if unknown:
        raise ConfigError(f"unknown identity id(s): {', '.join(unknown)}")
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"repeated identity id(s): {', '.join(repeated)}")
    order = data.get("order")
    if args.order is not None:
        order = args.order
    if order is not None:
        if isinstance(order, list):
            order = f"{order[0]}/{order[1]}"
        order = _parse_order(str(order))
    samples = args.samples if args.samples is not None else data.get("samples", 1)
    if samples < 1:
        raise ConfigError("--samples must be >= 1")
    for domain in sorted({idmod.CATALOG[id].domain for id in ids}):
        try:
            idmod.default_samples(domain, samples)
        except ValueError as exc:
            raise ConfigError(f"--samples {samples}: {exc}") from exc
    seed = _seed(args.seed if args.seed is not None else data.get("seed", 0))
    for id in ids:
        entry = idmod.CATALOG[id]
        try:
            idmod.check_order(id, order or entry.default_order,
                              idmod.default_samples(entry.domain, samples, seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    report = args.report if args.report else data.get("report")
    _check_report_path(report)
    fmt = args.format if args.format else data.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    corrupt = None
    if getattr(args, "corrupt_coefficient", None) is not None:
        corrupt = _parse_order(args.corrupt_coefficient, "--corrupt-coefficient")
        top = max(order or idmod.CATALOG[id].default_order for id in ids)
        if corrupt > top:
            raise ConfigError(
                f"--corrupt-coefficient {corrupt} lies above {top}, the highest "
                "order of the selected checks: no check would compare it")
    return RunConfig(ids, order, samples, seed, report, fmt,
                     args.fail_fast or data.get("failFast", False), corrupt)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _run_one(id: str, sample, order, ctx):
    """One check's report; an exception raised inside the check becomes an
    error result that carries its type and message, with the traceback on
    stderr."""
    entry = idmod.CATALOG[id]
    E = order or entry.default_order
    t0 = time.monotonic()
    try:
        return idmod.verify(id, sample=sample, E=E, ctx=ctx)
    except Exception as exc:
        import traceback

        traceback.print_exc(file=sys.stderr)
        return idmod.VerificationReport(
            id=id, status=entry.status, ok=False, order=E,
            sample=idmod.describe_sample(entry.domain, sample), parts=[],
            elapsed=time.monotonic() - t0, error=(type(exc).__name__, str(exc)))


def _exit_code(rep) -> int:
    """3 for a check that raised, 1 for a failed theorem or derived check,
    else 0."""
    if rep.error is not None:
        return 3
    return 1 if rep.status in ("theorem", "derived") and not rep.ok else 0


#: ms that the checks of each family (IdentityCheck.family) take together
#: at their default orders on one sample: the report's timing of
#: `taskset -c 0 nektau verify --seed 0 --report r.json`, summed over each
#: family's checks, median of 15 runs.  A forked run hands out the heaviest
#: groups first and keeps the first in this process: 4d-tau before 4d-zeta
FAMILY_MS = {
    "doubled-base": 92, "q-painleve": 45, "5d-chern-simons": 26, "q-chern-simons": 26,
    "4d-tau": 20, "5d-generic": 16, "4d-eps": 15, "halfpow": 9, "4d-zeta": 5,
    "20equiv1": 2,
}
_RECORD = 4  # bytes of one group index in the work queue


def _groups(jobs):
    """The job indices of each (family, sample index) pair, heaviest family
    first, then in job order."""
    groups = {}
    for i, (id, k, _) in enumerate(jobs):
        groups.setdefault((idmod.CATALOG[id].family, k), []).append(i)
    order = sorted(groups, key=lambda g: -FAMILY_MS[g[0]])
    return [groups[g] for g in order]


def _workers(cfg: RunConfig, n_groups: int) -> int:
    """Processes for a run: one per usable CPU, at most one per group; one
    under --fail-fast, which stops in job order, or without os.fork or
    os.sched_getaffinity."""
    if cfg.fail_fast or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_groups)


def _run_forked(jobs, groups, order, ctx, n):
    """(job index, report) for every job, the groups shared out between
    this process and n - 1 forked workers.

    The group indices go into one pipe, heaviest first, and every process
    pulls from it until it is empty; this process takes the first before
    any worker starts.  Each worker runs its groups in its own copy of ctx
    and sends back its pairs, pickled, on a pipe of its own.  A worker that
    dies or sends back short makes this raise."""

    def run(g):
        return [(i, _run_one(jobs[i][0], jobs[i][2], order, ctx)) for i in groups[g]]

    def pull():
        while record := os.read(queue, _RECORD):
            yield int.from_bytes(record, "little")

    import pickle

    queue, w = os.pipe()
    os.write(w, b"".join(g.to_bytes(_RECORD, "little") for g in range(len(groups))))
    os.close(w)
    share = pull()
    first = next(share)
    sys.stdout.flush()
    sys.stderr.flush()
    readers, statuses, sent = {}, {}, []
    try:
        for _ in range(n - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    for f in readers.values():  # the earlier workers' pipes
                        f.close()
                    data = pickle.dumps([pair for g in share for pair in run(g)])
                    with os.fdopen(w, "wb") as f:
                        f.write(data)
                    status = 0
                except Exception:
                    import traceback

                    traceback.print_exc(file=sys.stderr)
                finally:
                    sys.stderr.flush()
                    os._exit(status)
            os.close(w)
            readers[pid] = os.fdopen(r, "rb")
        results = run(first) + [pair for g in share for pair in run(g)]
        sent = [(pid, f.read()) for pid, f in readers.items()]
    finally:
        os.close(queue)
        for pid, f in readers.items():
            f.close()
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, data in sent:
        if statuses[pid]:
            raise RuntimeError(f"verify worker {pid} ended with exit code "
                               f"{os.waitstatus_to_exitcode(statuses[pid])}")
        results += pickle.loads(data)
    if len(results) != len(jobs):
        raise RuntimeError(f"verify workers returned {len(results)} of {len(jobs)} results")
    return results


def run_verify(cfg: RunConfig):
    """Execute the configured checks, in forked workers too (see module
    docstring); returns (exit_code, report, results)."""
    jobs = []
    for id in cfg.identities:
        domain = idmod.CATALOG[id].domain
        samples = idmod.default_samples(domain, cfg.samples, seed=cfg.seed)
        for k, sample in enumerate(samples):
            jobs.append((id, k, sample))

    # one context per process: the checks of a family share instanton sums
    # and taus, and two families share nothing but the kiev tau of 4d-tau
    # and 4d-zeta
    ctx = idmod.Context(corrupt=cfg.corrupt)
    groups = _groups(jobs)
    n = _workers(cfg, len(groups))
    if n > 1:
        results = [rep for _, rep in sorted(_run_forked(jobs, groups, cfg.order, ctx, n),
                                            key=lambda pair: pair[0])]
    else:
        results = []
        for id, _, sample in jobs:
            rep = _run_one(id, sample, cfg.order, ctx)
            results.append(rep)
            if cfg.fail_fast and _exit_code(rep):
                break
    jobs = jobs[: len(results)]

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "results": [
            dict(r.to_dict(), sample_index=jobs[i][1])
            for i, r in enumerate(results)
        ],
        "timing": {
            "elapsed_seconds": {
                f"{jobs[i][0]}#{jobs[i][1]}": results[i].elapsed
                for i in range(len(results))
            }
        },
    }
    return max(map(_exit_code, results), default=0), report, results


def _report_csv(report) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "status", "sample_index", "order_num", "order_den",
                "ok", "failed_parts", "note"])
    for r in report["results"]:
        failed = ";".join(p["name"] for p in r["parts"] if not p["ok"])
        note = r["note"]
        if "error" in r:
            error = f"error: {r['error']['type']}: {r['error']['message']}"
            note = f"{note}; {error}" if note else error
        w.writerow([r["id"], r["status"], r["sample_index"],
                    r["order"][0], r["order"][1],
                    int(r["ok"]), failed, note])
    return buf.getvalue()


def _emit_report(report, cfg: RunConfig):
    if cfg.report:
        _write_report(cfg.report, _report_csv(report) if cfg.format == "csv"
                      else json.dumps(report, indent=2) + "\n")


def _write_report(path, text):
    with open(path, "w") as f:
        f.write(text)


def cmd_verify(args) -> int:
    cfg = build_config(args)
    code, report, results = run_verify(cfg)
    _emit_report(report, cfg)
    for r in results:
        print(r.summary())
        if r.error is not None:
            print(f"  error: {r.error[0]}: {r.error[1]}")
        if not r.ok:
            for name, part in r.parts:
                if not part.ok:
                    print(f"  {name}: {part.summary()}")
            if r.note:
                print(f"  note: {r.note}")
    n_fail = sum(1 for r in results if not r.ok)
    print(f"{len(results)} check(s), {n_fail} failure(s); exit {code}")
    return code


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    entries = idmod.manifest()
    for e in entries:
        n, d = e["default_order"]
        order = f"{n}" if d == 1 else f"{n}/{d}"
        print(f"{e['id']:<14} {e['status']:<10} order {order:<4} {e['anchor']}")
    print(f"{len(entries)} catalog entries")
    return 0


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

#: dump prefix -> (sample domain, tau system on one sample of it)
_TAU_DUMPS = {"tau4d": ("4d-tau", TauSystem4d), "tauq": ("q-painleve", TauSystemQ)}

DUMP_SELECTORS = [
    *(f"{prefix}:{name}" for prefix, (domain, system) in _TAU_DUMPS.items()
      for name in system(idmod.default_samples(domain, 1)[0]).recipes),
    "Z4d", "Z5d",
    "fixture:P3_tau_minus", "fixture:P3_tau_plus_branch", "fixture:P3_taupm",
    "fixture:qP3_tau", "fixture:qP3_taupm",
]


def _resolve_dump(selector: str, order: Frac, seed: int):
    """Build the requested series; returns (sample_descriptor, dump_rows)."""
    if selector not in DUMP_SELECTORS:
        raise ConfigError(f"unknown dump selector {selector!r}; "
                          f"choose from: {', '.join(DUMP_SELECTORS)}")
    prefix, _, name = selector.partition(":")
    if prefix in _TAU_DUMPS:
        domain, system = _TAU_DUMPS[prefix]
        sample = idmod.default_samples(domain, 1, seed=seed)[0]
        fs = system(sample).tau(name, order)
        return idmod.describe_sample(domain, sample), fs.dump()
    if selector == "Z4d":
        e1, e2, a = idmod.default_samples("4d-eps", 1, seed=seed)[0]
        th = Theory4d(e1, e2)
        if msg := idmod.inadmissible(f"Z4d at order {order}", th, int(order), (e1, e2, a)):
            raise ConfigError(msg)
        ps = inst_series_4d(th, a, order)
        return idmod.describe_sample("4d-eps", (e1, e2, a)), ps.dump()
    if selector == "Z5d":
        t, E1, E2, Lu = idmod.default_samples("5d-generic", 1, seed=seed)[0]
        ps = inst_series_5d(Theory5d(E1, E2), Lu, t, order)
        return idmod.describe_sample("5d-generic", (t, E1, E2, Lu)), ps.dump()
    if name.startswith("qP3"):
        smp = idmod.default_samples("q-painleve", 1, seed=seed)[0]
        ps = algebraic_fixture(name, order, sample=smp)
        return idmod.describe_sample("q-painleve", smp), ps.dump()
    return {}, algebraic_fixture(name, order).dump()


def cmd_dump(args) -> int:
    order = _parse_order(args.order) if args.order else Frac(2)
    seed = _seed(args.seed or 0)
    _check_report_path(args.report)
    sample, rows = _resolve_dump(args.selector, order, seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "selector": args.selector,
        "order": [order.numerator, order.denominator],
        "seed": seed,
        "sample": sample,
        "series": rows,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.report:
        _write_report(args.report, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    # determlemma's lowest order, not positivity, bounds the depth
    kmax = _parse_fraction(args.order or "2", "--order")
    if kmax.denominator != 1:
        raise ConfigError(f"--order must be an integer depth, got {args.order!r}")
    try:
        idmod.check_order("determlemma", kmax)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = _seed(args.seed or 0)
    _check_report_path(args.report)
    sample = idmod.default_samples("5d-generic", 1, seed=seed)[0]
    try:
        rep = idmod.verify("determlemma", sample=sample, E=kmax)
    except idmod.SingularSystem as exc:
        raise ConfigError(f"singular sample: {exc}") from exc
    print(rep.summary())
    for name, part in rep.parts:
        print(f"  {name}: {part.summary()}")
    if args.report:
        _write_report(args.report, json.dumps(
            {"schema_version": SCHEMA_VERSION, "result": rep.to_dict()}, indent=2) + "\n")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nektau",
        description="Exact order-by-order verification of bilinear "
                    "tau-function identities.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity catalog")

    pv = sub.add_parser("verify", help="run catalog checks")
    pv.add_argument("--id", action="append",
                    help="catalog id (repeatable); default: all")
    pv.add_argument("--order", help="truncation order N or N/D")
    pv.add_argument("--samples", type=int, help="samples per identity")
    pv.add_argument("--seed", type=int, help="sample-sequence seed")
    pv.add_argument("--report", help="write the report to this path")
    pv.add_argument("--format", choices=["json", "csv"])
    pv.add_argument("--fail-fast", action="store_true")
    pv.add_argument("--config", help="JSON run-config file")
    pv.add_argument("--corrupt-coefficient", nargs="?", const="1",
                    metavar="N[/D]",
                    help="debug: perturb one instanton coefficient at this "
                         "z-exponent before checking")

    pd = sub.add_parser("dump", help="dump an exact truncated series")
    pd.add_argument("selector", help=f"one of: {', '.join(DUMP_SELECTORS)}")
    pd.add_argument("--order", help="truncation order N or N/D (default 2)")
    pd.add_argument("--seed", type=int, help="sample choice seed")
    pd.add_argument("--report", help="write the dump to this path")

    po = sub.add_parser("oracle", help="run the coefficient-recursion "
                                       "cross-check")
    po.add_argument("--order", help="maximum recursion depth k, at least 1 (default 2)")
    po.add_argument("--seed", type=int, help="sample choice seed")
    po.add_argument("--report", help="write the result to this path")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "verify": cmd_verify,
        "dump": cmd_dump,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
