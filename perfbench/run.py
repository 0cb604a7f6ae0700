"""nektau benchmark: cold verification passes, checked against references.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload tau4d --corrupt-coefficient
    python3 perfbench/run.py --record-reference        # rewrite reference.json

Every pass runs in a fresh child interpreter (child.py), one at a time, so
the package's caches start empty.  ``--trace 0`` runs set-up probes and then
cold passes for about ``--seconds`` and reports the end-to-end metrics named
in BENCHMARK.json.  ``--trace 1`` runs plain and traced passes in turn and
reports the per-layer metrics (tracing.py).

Each check's output digest and verdict are compared with reference.json,
recorded at the commit that defined the benchmark; a mismatch, an exception
or a lost child counts as a failed check.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import ROTATIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("catalog", "tau4d", "qseries")
SETUP_PROBES = 6
#: seconds per cold pass, measured when the benchmark was defined (2-core
#: VM, CPython 3.11).  The pass count of a run follows from these and
#: --seconds alone, so which inputs a run measures does not move with the
#: speed of the code under test.
NOMINAL_PASS_S = {"catalog": 15.0, "tau4d": 5.3, "qseries": 5.0}
#: plain/traced pass pairs of a --trace 1 run; a catalog pair takes 35-50 s
TRACE_PAIRS = 2
#: a run of one workload ends well inside 180 s
RUN_DEADLINE_S = 170.0
POLL_S = 0.01


class Pass:
    """Outcome of one child interpreter."""

    def __init__(self, t_spawn, status, rusage, doc, stderr, timed_out):
        self.doc = doc or {}
        self.ok = (not timed_out and os.waitstatus_to_exitcode(status) == 0
                   and doc is not None and not self.doc.get("error"))
        detail = "timed out" if timed_out else self.doc.get("error") or stderr
        # last line of the traceback or message, for the summary
        self.problem = None if self.ok else (detail.strip().splitlines() or ["child failed"])[-1]
        self.setup_s = self.doc["t_ready"] - t_spawn if doc else None
        self.wall_s = (self.doc["t_done"] - self.doc["t_ready"]
                       if "t_done" in self.doc else None)
        self.peak_rss_mb = rusage.ru_maxrss / 1024
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.elapsed = time.monotonic() - t_spawn


def _reap(proc, timeout):
    """Wait for proc and return (status, rusage, timed_out); the child is
    killed at the timeout, and on any error here, before this returns."""
    end = time.monotonic() + timeout
    try:
        while time.monotonic() < end:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, rusage, False
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.kill()
    _, status, rusage = os.wait4(proc.pid, 0)
    return status, rusage, True


def run_child(workload, seed, mode, corrupt, deadline, keep_trace=None) -> Pass:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    job = json.dumps({"workload": workload, "seed": seed, "mode": mode,
                      "out": str(work), "corrupt": corrupt})
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEKTAU_")}
    try:
        with open(work / "stderr.txt", "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), job],
                                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            status, rusage, timed_out = _reap(proc, max(1.0, deadline - time.monotonic()))
            proc.returncode = os.waitstatus_to_exitcode(status)
        doc = None
        if (work / "pass.json").is_file():
            with open(work / "pass.json") as f:
                doc = json.load(f)
        stderr = (work / "stderr.txt").read_text()
        if keep_trace is not None and (work / "trace.json").is_file():
            shutil.move(str(work / "trace.json"), keep_trace)
        return Pass(t_spawn, status, rusage, doc, stderr, timed_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Gate:
    """Counts checks and failures against the recorded references."""

    def __init__(self, workload):
        with open(REFERENCE) as f:
            self.ref = json.load(f)[workload]
        self.rotations = ROTATIONS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, p: Pass, seed):
        ref = self.ref[str(seed % self.rotations)]
        got = {c["key"]: c for c in p.doc.get("checks", [])}
        keys = set(ref) | set(got)
        bad = keys if not p.ok else {
            k for k in keys
            if k not in ref or k not in got or "error" in got[k]
            or [got[k]["ok"], got[k]["digest"]] != ref[k]
        }
        self.attempted += len(keys)
        self.failed += len(bad)
        if p.problem:
            self.problems.append(p.problem)
        elif bad:
            self.problems += sorted(bad)[:3]


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def per_input_mean(passes, attr):
    """Mean over the pool inputs of each input's median pass value."""
    by_input = {}
    for k, p in passes:
        by_input.setdefault(k, []).append(getattr(p, attr))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def plan_passes(seconds, pass_s, rotations):
    """The number of whole cycles over the inputs nearest to ``seconds`` at
    ``pass_s`` a pass, and at least one, in passes."""
    return rotations * max(1, round(seconds / (pass_s * rotations)))


def measure(workload, seed, seconds, corrupt):
    """End-to-end metrics over set-up probes and cold passes.

    Pass k of a run takes input seed + k, so the passes cycle through the
    rotated pool.  The inputs differ in cost (tau4d: 4.6-6.5 s per pass), so
    a run measures whole cycles.  A pass that would end past the deadline is
    not started.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    rotations = ROTATIONS[workload]
    gate = Gate(workload)
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        p = run_child(workload, seed, "setup", corrupt, deadline)
        if p.ok:
            setups.append(p.setup_s)
    for k in range(plan_passes(seconds, NOMINAL_PASS_S[workload], rotations)):
        if passes and time.monotonic() + p.elapsed > deadline:
            break
        p = run_child(workload, seed + k, "run", corrupt, deadline)
        gate.check(p, seed + k)
        if not p.ok:
            break
        passes.append((k % rotations, p))
        setups.append(p.setup_s)
    values = {}
    if passes and p.ok:
        values = {
            "wall_s": per_input_mean(passes, "wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": per_input_mean(passes, "peak_rss_mb"),
        }
    detail = {"setup_probes": SETUP_PROBES,
              "wall_s": [p.wall_s for _, p in passes], "setup_s": setups,
              "peak_rss_mb": [p.peak_rss_mb for _, p in passes],
              "cpu_s": [p.cpu_s for _, p in passes]}
    return gate, values, detail


def measure_traced(workload, seed, corrupt):
    """Per-layer metrics from traced passes, alternating with plain ones.

    All passes take input seed.  Each per-layer value is the median over the
    traced passes; ``trace.overhead_frac`` is the median traced wall time
    over the median plain wall time, minus one.  A pair that would end past
    the deadline is not started.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    gate = Gate(workload)
    plain, traced, layers = [], [], []
    for i in range(TRACE_PAIRS):
        if plain and time.monotonic() + p.elapsed + t.elapsed > deadline:
            break
        p = run_child(workload, seed, "run", corrupt, deadline)
        gate.check(p, seed)
        trace_file = OUT / f"trace-{workload}-{i}.json"
        t = run_child(workload, seed, "trace", corrupt, deadline, keep_trace=trace_file)
        gate.check(t, seed)
        if not (p.ok and t.ok):
            break
        plain.append(p)
        traced.append(t)
        with open(trace_file) as f:
            layers.append(tracing.summarize(json.load(f)))
    values = {}
    if layers and p.ok and t.ok:
        values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        values["cli.cpu_s"] = statistics.median(p.cpu_s for p in plain)
        values["trace.overhead_frac"] = (statistics.median(t.wall_s for t in traced)
                                         / statistics.median(p.wall_s for p in plain) - 1)
    detail = {"plain_wall_s": [p.wall_s for p in plain],
              "traced_wall_s": [t.wall_s for t in traced]}
    return gate, values, detail


def run_workload(workload, seed, seconds, traced, corrupt, spec):
    if traced:
        gate, values, detail = measure_traced(workload, seed, corrupt)
        declared = spec["per_layer"]
    else:
        gate, values, detail = measure(workload, seed, seconds, corrupt)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    fail_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_frac {fail_frac:.6g} ({gate.failed} of {gate.attempted} checks)")
    for problem in gate.problems[:5]:
        print(f"{workload} failed: {problem}")
    record = {"workload": workload, "seed": seed, "trace": traced,
              "corrupt": corrupt, "machine": machine(), "fail_frac": fail_frac,
              "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics, "detail": detail}
    with open(OUT / f"result-{workload}-{seed}-trace{int(traced)}.json", "w") as f:
        json.dump(record, f, indent=1)
    complete = len(metrics) == len(declared)
    return gate, metrics, complete


def record_reference():
    """Run one plain pass per distinct input and store its check digests."""
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for rot in range(ROTATIONS[workload]):
            p = run_child(workload, rot, "run", False, time.monotonic() + RUN_DEADLINE_S)
            if not p.ok:
                print(f"{workload} rotation {rot}: {p.problem}", file=sys.stderr)
                return 1
            ref[workload][str(rot)] = {c["key"]: [c["ok"], c["digest"]]
                                       for c in p.doc["checks"]}
            print(f"{workload} rotation {rot}: {len(p.doc['checks'])} checks, "
                  f"{p.elapsed:.1f} s", file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-coefficient", action="store_true",
                    help="perturb one coefficient in every check; the gate "
                    "must report failures")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (see _reap)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    missing = [p for p in (ROOT / "src" / "nektau" / "__init__.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"benchmark needs {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}; run with --record-reference", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    print(f"machine {json.dumps(machine())}")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    complete = True
    for workload in chosen:
        gate, wl_metrics, wl_complete = run_workload(
            workload, args.seed, args.seconds, bool(args.trace),
            args.corrupt_coefficient, spec)
        attempted += gate.attempted
        failed += gate.failed
        complete = complete and wl_complete
        prefix = "" if len(chosen) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    if not complete:
        print("some passes produced no measurement", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
