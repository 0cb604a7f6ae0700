"""Command-line driver: exit codes, deterministic reports, series dumps."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import nektau.cli as climod
import nektau.identities as idmod
from nektau import nekrasov, tau
from nektau.cli import (
    DUMP_SELECTORS,
    ConfigError,
    RunConfig,
    _report_csv,
    build_config,
    main,
    make_parser,
    run_verify,
)
from nektau.fourier import EqualityReport, FourierSeries
from nektau.symbols import NonInvertible, Resonance, ZeroFactor

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def pin_cpus(monkeypatch, n):
    """Make run_verify see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _share_with_a_worker(monkeypatch, tmp_path):
    """In a forked run, hold each check of this process until a worker has
    started one, so that a worker always runs a share.  Returns the path of
    a log of the pid and id of each check started (see _started)."""
    log = tmp_path / "checks.pid"
    parent, real = os.getpid(), climod._run_one

    def run_one(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {args[0]}\n")
        deadline = time.monotonic() + 60
        while (os.getpid() == parent and len(os.sched_getaffinity(0)) > 1
               and set(_started(log)) == {str(parent)}):
            if time.monotonic() > deadline:
                raise TimeoutError("no worker started a check")
            time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(climod, "_run_one", run_one)
    return log


def _started(log):
    """{pid: the ids of the checks it started, in order} of a
    _share_with_a_worker log."""
    started = {}
    for line in log.read_text().splitlines():
        pid, _, id = line.partition(" ")
        started.setdefault(pid, []).append(id)
    return started


def run_python(*args, env=None):
    e = dict(os.environ)
    e.pop("NEKTAU_SEED", None)
    # the checkout's package, also when it is not installed
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), e.get("PYTHONPATH")]))
    if env:
        e.update(env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=e)


def run_cli(*args, env=None):
    return run_python("-m", "nektau.cli", *args, env=env)


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_contains_catalog():
    r = run_cli("list")
    assert r.returncode == 0
    assert "prdx" in r.stdout and "conjecture" in r.stdout
    assert "NY4" in r.stdout and "theorem" in r.stdout
    import nektau.identities as idmod
    n = len(idmod.manifest())
    assert f"{n} catalog entries" in r.stdout


# ---------------------------------------------------------------------------
# verify: exit codes
# ---------------------------------------------------------------------------


def test_verify_pass_exit_zero(tmp_path):
    rp = tmp_path / "r.json"
    r = run_cli("verify", "--id", "NYtaupm", "--order", "1",
                "--report", str(rp))
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads(rp.read_text())
    assert doc["schema_version"] == 1
    assert doc["results"][0]["ok"] is True
    assert doc["results"][0]["order"] == [1, 1]


def test_verify_unknown_id_exit_two():
    r = run_cli("verify", "--id", "bogus")
    assert r.returncode == 2
    assert "unknown identity" in r.stderr


@pytest.mark.parametrize("source", ["flags", "config"])
def test_verify_repeated_id_exit_two(tmp_path, source):
    # a repeated id ran twice but kept one timing entry
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identities": ["NYtaupm", "NY", "NYtaupm"]}))
    argv = (["--id", "NYtaupm", "--id", "NY", "--id", "NYtaupm"] if source == "flags"
            else ["--config", str(cfg)])
    r = run_cli("verify", *argv)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["configuration error: repeated identity id(s): NYtaupm"]


@pytest.mark.parametrize("source", ["flags", "config"])
def test_verify_all_with_other_ids_exit_two(tmp_path, source):
    # `all` was accepted only as the whole selection, and reported as an
    # unknown id beside others
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identities": ["NY", "all"]}))
    argv = (["--id", "all", "--id", "NY"] if source == "flags"
            else ["--config", str(cfg)])
    r = run_cli("verify", *argv)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["configuration error: `all` must be the only id"]


def test_verify_bad_order_exit_two():
    r = run_cli("verify", "--id", "NY", "--order", "0")
    assert r.returncode == 2


@pytest.mark.parametrize("id,order,lowest", [
    ("prdx", "1/3", "1/2"),  # used to raise an uncaught ValueError (exit 1)
    ("NY1", "1/8", "1/4"),   # used to report a theorem FAIL (exit 1)
    ("determlemma", "1/2", "1"),  # used to pass on the level-0 seed alone
])
def test_verify_below_lowest_meaningful_order_exit_two(id, order, lowest):
    r = run_cli("verify", "--id", id, "--order", order)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.strip().splitlines() == [
        f"configuration error: order {order} is below the lowest meaningful "
        f"order {lowest} of {id}"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_4d_eps_checks_at_z6_never_exit_three(seed, capsys):
    # pool point 2, (1, 2/5, 3/8), has the blowup theory (3/5, 2/5), whose
    # N_{lam lam} vanishes from degree 5 on: z^6 is a configuration error
    # there, found before any check runs, and passes on the other two
    ids = [arg for id in ("NY", "NY1", "NY2", "NY4") for arg in ("--id", id)]
    code = main(["verify", *ids, "--order", "6", "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert code == (2 if seed == 2 else 0), out + err
    if code == 2:
        assert out == "" and "admissible only through degree 4" in err


def test_inadmissible_orders_are_exactly_those_that_meet_a_vanishing_factor():
    # below the rule's bound the check runs; above it, run unguarded, it
    # raises ZeroFactor
    sample = idmod.POOL_4D_EPS[2]
    for id in ("NY", "NY1", "NY2", "NY4"):
        for E in (F(k, 8) for k in range(16, 33)):
            try:
                idmod.check_order(id, E, [sample])
                admissible = True
            except ValueError:
                admissible = False
            try:
                idmod.CATALOG[id].run(sample, E, idmod.Context())
                ran = True
            except ZeroFactor:
                ran = False
            assert admissible == ran, (id, E)
    with pytest.raises(ValueError, match="admissible only through degree 4"):
        idmod.verify("NY", sample, 4)
    for sample in idmod.POOL_4D_EPS[:2]:
        for id in ("NY", "NY1", "NY2", "NY4"):
            idmod.check_order(id, 12, [sample])


def test_verify_more_samples_than_pool_exit_two():
    # the 4d-eps pool holds three samples; five used to repeat two of them
    r = run_cli("verify", "--id", "NY", "--order", "1", "--samples", "5")
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert "4d-eps pool holds 3 samples" in r.stderr


def test_verify_corrupted_coefficient_exit_one(tmp_path):
    rp = tmp_path / "r.json"
    r = run_cli("verify", "--id", "NY", "--order", "2",
                "--corrupt-coefficient", "--report", str(rp))
    assert r.returncode == 1
    doc = json.loads(rp.read_text())
    res = doc["results"][0]
    assert res["ok"] is False
    # the report names the failing part with its residual count
    assert any(not p["ok"] and p["residual_count"] >= 1 for p in res["parts"])


@pytest.mark.parametrize("argv,top", [
    (["--id", "NYtaupm", "--corrupt-coefficient", "4"], "2"),
    (["--id", "NYtaupm", "--order", "3", "--corrupt-coefficient", "7/2"], "3"),
    (["--id", "NY", "--id", "NYtaupm", "--corrupt-coefficient", "4"], "3"),
], ids=["default-order", "given-order", "highest-default"])
def test_corruption_no_check_compares_exit_two(argv, top):
    # the +1 used to land above every compared order: the run read pass, exit 0
    r = run_cli("verify", *argv)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    c = argv[-1]
    assert r.stderr.splitlines() == [
        f"configuration error: --corrupt-coefficient {c} lies above {top}, "
        "the highest order of the selected checks: no check would compare it"]


def test_corruption_at_the_highest_compared_order_fails_the_check():
    r = run_cli("verify", "--id", "NYtaupm", "--corrupt-coefficient", "2")
    assert r.returncode == 1, r.stdout + r.stderr


def test_corrupt_coefficient_zero_names_the_flag():
    r = run_cli("verify", "--id", "NY", "--corrupt-coefficient", "0")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "configuration error: --corrupt-coefficient must be positive, got '0'"]


def test_verify_fractional_order():
    r = run_cli("verify", "--id", "halfpow", "--order", "3/2")
    assert r.returncode == 0
    assert "order 3/2" in r.stdout


@pytest.mark.parametrize("id", ["prdx", "halfpow"])
def test_verify_order_with_odd_quarter_exit_zero(id, tmp_path):
    # 2E = 3/2 is not an integer: the w-series is built through w^2, so both
    # parts are known through z^1 (it stopped at w^1, and prdx raised)
    rp = tmp_path / "r.json"
    r = run_cli("verify", "--id", id, "--order", "3/4", "--report", str(rp))
    assert r.returncode == 0, r.stdout + r.stderr
    assert f"{id} [conjecture] order 3/4: pass" in r.stdout
    res = json.loads(rp.read_text())["results"][0]
    assert res["ok"] is True
    assert "pass (exact through z^1)" in [p["detail"] for p in res["parts"]]


def test_conjectures_never_affect_exit_code(tmp_path, monkeypatch):
    # a failing stub in place of the halfpow runner: as a conjecture it is
    # reported but exits 0; the same stub as a theorem exits 1
    bad = [("stub", EqualityReport(False, F(1), [(F(0), F(1), 1, "(1)")]))]
    entry = idmod.CATALOG["halfpow"]
    argv = ["verify", "--id", "halfpow", "--order", "1"]
    for status, code in (("conjecture", 0), ("theorem", 1)):
        monkeypatch.setitem(idmod.CATALOG, "halfpow", entry._replace(
            status=status, run=lambda sample, E, ctx: bad))
        rp = tmp_path / f"{status}.json"
        assert main(argv + ["--report", str(rp)]) == code
        res = json.loads(rp.read_text())["results"][0]
        assert res["status"] == status and res["ok"] is False


@pytest.mark.parametrize("status", ["theorem", "derived"])
def test_fail_fast_stops_after_any_failure_that_exits_one(monkeypatch, status):
    # a derived-status failure used to let the run go on
    bad = [("stub", EqualityReport(False, F(1), [(F(0), F(1), 1, "(1)")]))]
    monkeypatch.setitem(idmod.CATALOG, "halfpow", idmod.CATALOG["halfpow"]._replace(
        status=status, run=lambda sample, E, ctx: bad))
    cfg = RunConfig(identities=["halfpow", "NYtaupm"], order=F(1))
    code, _, results = run_verify(cfg)
    assert code == 1 and [r.id for r in results] == ["halfpow", "NYtaupm"]
    code, report, results = run_verify(RunConfig(identities=cfg.identities, order=cfg.order,
                                                 fail_fast=True))
    assert code == 1 and [r.id for r in results] == ["halfpow"]
    assert len(report["results"]) == 1


@pytest.mark.parametrize("status", ["theorem", "conjecture"])
@pytest.mark.parametrize("exc", [Resonance, ZeroFactor, NonInvertible])
def test_an_exception_in_a_check_is_an_error_result(tmp_path, monkeypatch, capsys, status, exc):
    # a stub that raises in place of the halfpow runner: the exception used
    # to escape as a traceback with exit 1, which reads as a theorem failure
    def boom(sample, E, ctx):
        raise exc("resonant sample")

    monkeypatch.setitem(idmod.CATALOG, "halfpow", idmod.CATALOG["halfpow"]._replace(
        status=status, run=boom))
    rp = tmp_path / "report.json"
    argv = ["verify", "--id", "halfpow", "--id", "NYtaupm", "--order", "1", "--report", str(rp)]
    assert main(argv) == 3
    err, ok = json.loads(rp.read_text())["results"]  # the run goes on
    assert err["id"] == "halfpow" and err["status"] == status
    assert err["ok"] is False and err["parts"] == [] and err["order"] == [1, 1]
    assert err["error"] == {"type": exc.__name__, "message": "resonant sample"}
    assert ok["id"] == "NYtaupm" and ok["ok"] and "error" not in ok
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"halfpow [{status}] order 1: ERROR",
                       f"  error: {exc.__name__}: resonant sample"]
    assert out[-1] == "2 check(s), 1 failure(s); exit 3"


def test_an_error_result_wins_over_a_failure_and_stops_fail_fast(monkeypatch):
    bad = [("stub", EqualityReport(False, F(1), [(F(0), F(1), 1, "(1)")]))]

    def boom(sample, E, ctx):
        raise Resonance("pole")

    monkeypatch.setitem(idmod.CATALOG, "halfpow", idmod.CATALOG["halfpow"]._replace(
        status="theorem", run=lambda sample, E, ctx: bad))
    monkeypatch.setitem(idmod.CATALOG, "qG", idmod.CATALOG["qG"]._replace(run=boom))
    cfg = RunConfig(identities=["halfpow", "qG", "NYtaupm"], order=F(1))
    code, report, results = run_verify(cfg)
    assert code == 3 and [r.id for r in results] == ["halfpow", "qG", "NYtaupm"]
    assert [r.error for r in results] == [None, ("Resonance", "pole"), None]
    code, report, results = run_verify(RunConfig(identities=["qG", "halfpow"], order=cfg.order,
                                                 fail_fast=True))
    assert code == 3 and [r.id for r in results] == ["qG"]
    csv_cfg = RunConfig(identities=["qG"], order=cfg.order, format="csv")
    row = _report_csv(run_verify(csv_cfg)[1]).splitlines()[1]
    assert row.endswith(",0,,error: Resonance: pole")


def test_empty_selection_exit_two(tmp_path):
    # an empty list used to run nothing and exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identities": []}))
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["configuration error: no identity selected"]


def test_corrupt_run_leaves_no_mutation_behind():
    cfg = RunConfig(identities=["NY", "qNY1", "NYtaupm"], order=F(1),
                    corrupt=F(1))
    code, _, results = run_verify(cfg)
    assert code == 1 and len(results) == 3
    assert not any(r.ok for r in results)
    # the same process then verifies cleanly
    assert idmod.verify("NY", E=F(1)).ok


def test_one_run_computes_each_coefficient_once(monkeypatch):
    # the three 5d blowup checks sum over the same instanton coefficients:
    # one run computes each of them once, and the next run starts afresh
    calls = []
    real = nekrasov._inst_coeff_5d

    def counting(*args):
        calls.append(args[:6])  # (E1, E2, m, Lu, t, d); the kernel follows
        return real(*args)

    pin_cpus(monkeypatch, 1)  # counts this process only
    monkeypatch.setattr(nekrasov, "_inst_coeff_5d", counting)
    cfg = RunConfig(identities=["qNY1", "qNY2", "qNY3"])
    code, _, results = run_verify(cfg)
    assert code == 0 and len(results) == 3
    first = Counter(calls)
    assert first and set(first.values()) == {1}
    calls.clear()
    assert run_verify(cfg)[0] == 0
    assert Counter(calls) == first


BLOWUP_IDS = ["NY", "NY2", "NY4", "NY1", "qNY1", "qNY2", "qNY3", "cd-system"]


def counting_cocycles(record):
    """nekrasov.memoized that calls record(key) on each cocycle it builds."""
    real = nekrasov.memoized

    def memoized(memo, key, build):
        if key[0] != "cocycle":
            return real(memo, key, build)

        def recorded():
            record(key)
            return build()
        return real(memo, key, recorded)
    return memoized


def test_one_run_telescopes_each_cocycle_once_and_builds_each_mode_once(monkeypatch):
    # the 4d and 5d blowup checks sum over the same relative modes, and
    # cd-system's u -> uq shorts over modes of its tau set's theories: one
    # run telescopes each cocycle once and builds each mode (its instanton
    # series) once, and the next run starts afresh
    cocycles, modes = [], []

    def counting(calls, real):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapped

    pin_cpus(monkeypatch, 1)  # counts this process only
    monkeypatch.setattr(nekrasov, "memoized", counting_cocycles(cocycles.append))
    for name in ("inst_series_4d", "inst_series_5d"):
        monkeypatch.setattr(nekrasov, name, counting(modes, getattr(nekrasov, name)))
    cfg = RunConfig(identities=BLOWUP_IDS, order=F(2))
    assert run_verify(cfg)[0] == 0
    first = Counter(cocycles), Counter(modes)
    for calls in first:
        assert calls and set(calls.values()) == {1}
    cocycles.clear()
    modes.clear()
    assert run_verify(cfg)[0] == 0
    assert (Counter(cocycles), Counter(modes)) == first


def test_forked_runs_build_each_coefficient_mode_and_cocycle_once(monkeypatch, tmp_path):
    # the twin of the two counting tests above with two workers: every
    # process appends what it builds to one O_APPEND file, so the worker's
    # builds are counted too
    log = tmp_path / "builds.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counting(kind, real, n=None):
        def wrapped(*args, **kwargs):
            os.write(fd, f"{os.getpid()}\t{kind}\t{args[:n]!r}\n".encode())
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(nekrasov, "_inst_coeff_5d",
                        counting("coefficient", nekrasov._inst_coeff_5d, 6))
    monkeypatch.setattr(nekrasov, "memoized", counting_cocycles(
        lambda key: os.write(fd, f"{os.getpid()}\tcocycle\t{key!r}\n".encode())))
    for name in ("inst_series_4d", "inst_series_5d"):
        monkeypatch.setattr(nekrasov, name, counting("mode", getattr(nekrasov, name)))

    _share_with_a_worker(monkeypatch, tmp_path)

    def builds(cpus):
        pin_cpus(monkeypatch, cpus)
        log.write_text("")
        assert run_verify(RunConfig(identities=BLOWUP_IDS, order=F(2)))[0] == 0
        lines = [line.split("\t", 1) for line in log.read_text().splitlines()]
        return {pid for pid, _ in lines}, Counter(build for _, build in lines)

    try:
        (parent,), serial = builds(1)
        pids, forked = builds(2)
    finally:
        os.close(fd)
    assert parent == str(os.getpid()) and len(pids) == 2  # the worker built some
    assert {line.split("\t")[0] for line in serial} == {"coefficient", "cocycle", "mode"}
    assert set(forked.values()) == {1} and forked == serial


def _check_groups(monkeypatch, cfg):
    """{(group that built a memo key, group that read it): the keys} for the
    keys read outside their group in one run of cfg in one process; a group
    is (family, sample)."""
    builder, crossed = {}, {}
    current = [None]
    real_memoized, real_run_one = nekrasov.memoized, climod._run_one

    def memoized(memo, key, build):
        if memo is not None:
            first = builder.setdefault(key, current[0])
            if first != current[0]:
                crossed.setdefault((first, current[0]), set()).add(key)
        return real_memoized(memo, key, build)

    def run_one(id, sample, order, ctx):
        current[0] = (idmod.CATALOG[id].family, sample)
        return real_run_one(id, sample, order, ctx)

    pin_cpus(monkeypatch, 1)
    for mod in (nekrasov, idmod, tau):
        monkeypatch.setattr(mod, "memoized", memoized)
    monkeypatch.setattr(climod, "_run_one", run_one)
    assert run_verify(cfg)[0] == 0
    return crossed


def _kiev_crossings(sigmas):
    """The one memo value that crosses groups on each sigma: the kiev tau
    that the 4d-tau checks build and the 4d-zeta checks read."""
    return {(("4d-tau", sigma), ("4d-zeta", sigma)):
            {("tau", "4d", sigma, "kiev", tau.TauSystem4d(sigma).depth(F(2)))}
            for sigma in sigmas}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_memo_value_crosses_a_family_sample_group(monkeypatch, seed):
    # a forked run gives each worker its own memo, so a value built in one
    # (family, sample index) group and read in another is built twice: on
    # one sample only the kiev tau, once in each of the two 4d-tau groups
    cfg = RunConfig(identities=list(idmod.CATALOG), seed=seed)
    sigmas = idmod.default_samples("4d-tau", 1, seed=seed)
    assert _check_groups(monkeypatch, cfg) == _kiev_crossings(sigmas)
    assert {e.family for e in idmod.CATALOG.values()} == set(climod.FAMILY_MS)


def test_on_three_samples_only_mirrored_4d_coefficients_cross_groups(monkeypatch):
    # 4d-tau's sigma = 5/24 and 7/24 share their 4d instanton coefficients
    # through the mirror normal form (nekrasov.mirror_form_4d): with each
    # sample's kiev tau, the values a forked run builds twice
    cfg = RunConfig(identities=list(idmod.CATALOG), samples=3)
    sigmas = idmod.default_samples("4d-tau", 3)
    crossed = _check_groups(monkeypatch, cfg)
    assert {F(5, 24), F(7, 24)} <= set(sigmas)
    kiev = _kiev_crossings(sigmas)
    coefficients = {pair: keys for pair, keys in crossed.items() if pair not in kiev}
    assert crossed == coefficients | kiev
    mirrored = {("4d-tau", F(5, 24)), ("4d-tau", F(7, 24))}
    assert coefficients and all(set(pair) == mirrored for pair in coefficients)
    keys = set().union(*coefficients.values())
    assert {key[0] for key in keys} == {"inst_coeff_4d"} and len(keys) == 11


@pytest.mark.parametrize("ids,builds", [(list(idmod.CATALOG), 25), (["qG"], 2),
                                        (["qTodaCSsg"], 6)],
                         ids=["catalog", "qG", "qTodaCSsg"])
def test_a_run_builds_only_the_taus_its_checks_read(monkeypatch, ids, builds):
    # each tau is built on first use: a seed-0 catalog run used to build
    # 34, with qG's four unread taus at z^4 and qTodaCSsg's three unread
    # level-2 ones; qG reads its two taus at the depth of the other
    # level-0 q checks, which build them too
    specs = []
    real = tau.build_tau

    def counting(spec, E):
        specs.append((spec, E))
        return real(spec, E)

    pin_cpus(monkeypatch, 1)  # counts this process only
    monkeypatch.setattr(tau, "build_tau", counting)
    assert run_verify(RunConfig(identities=ids))[0] == 0
    assert len(specs) == builds
    assert len({(id(spec.base), spec.k_offset, spec.fourier_offset, E)
                for spec, E in specs}) == builds


def test_one_run_forms_the_zeta_products_once(monkeypatch):
    # zetac, zeta3 and the zetac probe of a failing zeta3 share one zeta and
    # its two theta_products calls per run; the next run forms them again
    passes, zetas = [], []
    real_products, real_zeta = idmod.theta_products, idmod.zeta_from_tau

    def products(f, g, polys):
        passes.append((f, g, len(polys)))
        return real_products(f, g, polys)

    def zeta(tau):
        zetas.append(real_zeta(tau))
        return zetas[-1]

    monkeypatch.setattr(idmod, "theta_products", products)
    monkeypatch.setattr(idmod, "zeta_from_tau", zeta)

    def formed_once():
        (z,) = zetas
        (z1, z2, n), (P, z3, m) = passes
        return z1 is z2 is z3 is z and P is not z and (n, m) == (3, 2)

    cfg = RunConfig(identities=["zetac", "zeta3"], order=F(1))
    for _ in range(2):
        passes.clear()
        zetas.clear()
        code, report, _ = run_verify(cfg)
        assert code == 0 and formed_once()
    real_zeta3 = idmod.CATALOG["zeta3"]
    bad = ("stub", EqualityReport(False, F(1), [(F(0), F(0), 1, "(1)")], ""))
    monkeypatch.setitem(idmod.CATALOG, "zeta3", real_zeta3._replace(
        run=lambda *args: real_zeta3.run(*args) + [bad]))
    passes.clear()
    zetas.clear()
    code, report, _ = run_verify(RunConfig(identities=["zeta3"], order=F(1)))
    assert code == 1 and "diagnosis" in report["results"][0]["note"]
    assert formed_once()


HIROTA_IDS = ["NYtaupm", "NYtau01", "NYD2diff", "NYD4diff", "NYD1diff", "NYD3diff",
              "NYdiffIS", "NYdiffHIS1", "NYdiffHIS3", "Todasg", "doubleprop", "KZsq"]


def test_one_run_forms_each_hirota_derivative_once(monkeypatch):
    # the 4d-tau checks take D^k of five tau pairs.  One run forms each D^k
    # once, in one pass over the pairs of terms of the two taus: no
    # FourierSeries product, and the run memo keeps the D^k alone, with no
    # store of basis products; the next run forms them again
    calls = []  # (f, g, k, FourierSeries products made)
    products, memos = [], {}  # id -> the run memo
    real_hirota, real_mul = idmod.hirota, FourierSeries.__mul__
    real_hirota_4d = idmod.Context.hirota_4d

    def hirota(k, f, g):
        n = len(products)
        out = real_hirota(k, f, g)
        calls.append((id(f), id(g), k, len(products) - n))
        return out

    def mul(self, other):
        products.append(1)
        return real_mul(self, other)

    def hirota_4d(self, sigma, EB):
        memos[id(self.memo)] = self.memo
        return real_hirota_4d(self, sigma, EB)

    monkeypatch.setattr(idmod, "hirota", hirota)
    monkeypatch.setattr(FourierSeries, "__mul__", mul)
    monkeypatch.setattr(idmod.Context, "hirota_4d", hirota_4d)
    cfg = RunConfig(identities=HIROTA_IDS, order=F(1))
    for _ in range(2):
        calls.clear()
        memos.clear()
        assert run_verify(cfg)[0] == 0
        pairs = {}
        for f, g, k, n in calls:
            pairs.setdefault((f, g), []).append((k, n))
        formed = sorted((tuple(sorted(k for k, _ in ks)), f == g, sum(n for _, n in ks))
                        for (f, g), ks in pairs.items())
        assert formed == [((0, 1, 2, 3, 4), False, 0), ((0, 2, 4), True, 0),
                          ((0, 2, 4), True, 0), ((1, 3), False, 0), ((2,), True, 0)]
        (memo,) = memos.values()
        assert {key[0] for key in memo} == {"cocycle", "inst_coeff_4d", "mode", "tau", "hirota"}
        assert sum(key[0] == "hirota" for key in memo) == len(calls) == 14


def test_run_writes_no_module_state(monkeypatch):
    pin_cpus(monkeypatch, 1)  # looks at this process only
    mods = [m for name, m in sys.modules.items() if name.startswith("nektau.")]

    def sizes():
        return {(m.__name__, k): len(v) for m in mods
                for k, v in vars(m).items()
                if not k.startswith("__") and isinstance(v, (dict, list, set))}

    before = sizes()
    cfg = RunConfig(identities=["NY", "qNY1", "NYtaupm", "qNYtaupm", "m1chain"],
                    order=F(1))
    assert run_verify(cfg)[0] == 0
    assert sizes() == before


# ---------------------------------------------------------------------------
# verify: forked workers
# ---------------------------------------------------------------------------


def _verify(monkeypatch, capsys, tmp_path, cpus, argv):
    """(exit code, report text minus timing, stdout) of main(verify argv)
    with cpus usable CPUs."""
    pin_cpus(monkeypatch, cpus)
    rp = tmp_path / f"report{cpus}"
    code = main(["verify", *argv, "--report", str(rp)])
    text = rp.read_text()
    if "--format" not in argv:
        doc = json.loads(text)
        keys = list(doc.pop("timing")["elapsed_seconds"])
        assert keys == [f"{r['id']}#{r['sample_index']}" for r in doc["results"]]
        text = json.dumps(doc, indent=2)
    return code, text, capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--seed", "0"], ["--seed", "1"], ["--seed", "2"],
                                  ["--samples", "3"], ["--corrupt-coefficient", "1"],
                                  ["--format", "csv"]],
                         ids=["seed0", "seed1", "seed2", "samples3", "corrupt", "csv"])
def test_two_workers_give_the_one_process_report_stdout_and_exit_code(
        monkeypatch, capsys, tmp_path, argv):
    one = _verify(monkeypatch, capsys, tmp_path, 1, argv)
    assert _verify(monkeypatch, capsys, tmp_path, 2, argv) == one
    assert one[0] == (1 if "--corrupt-coefficient" in argv else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_more_workers_than_cores_give_the_one_process_report(monkeypatch, capsys, tmp_path):
    # four processes pull the 27 groups of three samples from one queue
    argv = ["--samples", "3", "--order", "1"]
    one = _verify(monkeypatch, capsys, tmp_path, 1, argv)
    assert _verify(monkeypatch, capsys, tmp_path, 4, argv) == one and one[0] == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fail_fast_runs_in_one_process_and_prints_the_serial_prefix(
        monkeypatch, capsys, tmp_path):
    argv = ["--corrupt-coefficient", "1"]
    code, serial, out = _verify(monkeypatch, capsys, tmp_path, 1, argv)
    calls = []
    real = climod._run_one

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    def no_fork():
        raise AssertionError("--fail-fast forked")

    monkeypatch.setattr(climod, "_run_one", counting)
    monkeypatch.setattr(os, "fork", no_fork)
    fast = _verify(monkeypatch, capsys, tmp_path, 2, argv + ["--fail-fast"])
    assert calls == ["NY"] and fast[0] == code == 1
    results = json.loads(fast[1])["results"]
    assert results == json.loads(serial)["results"][:1]
    head, last = fast[2].splitlines()[:-1], fast[2].splitlines()[-1]
    assert head == out.splitlines()[:len(head)] and head[0] == "NY [theorem] order 3: FAIL"
    assert last == "1 check(s), 1 failure(s); exit 1"


def test_one_family_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("one family forked")

    pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_verify(RunConfig(identities=HIROTA_IDS, order=F(1)))[0] == 0


def test_the_4d_tau_domain_runs_its_zeta_checks_in_a_worker(monkeypatch, capsys, tmp_path):
    # the 4d-tau domain on one sample is two groups: this process keeps the
    # heavier group of Hirota checks, and a worker runs the zeta pair
    log = _share_with_a_worker(monkeypatch, tmp_path)
    argv = [arg for id in HIROTA_IDS + ["zetac", "zeta3"] for arg in ("--id", id)]
    argv += ["--order", "1"]
    one = _verify(monkeypatch, capsys, tmp_path, 1, argv)
    log.unlink()
    assert _verify(monkeypatch, capsys, tmp_path, 2, argv) == one and one[0] == 0
    started = _started(log)
    assert started.pop(str(os.getpid())) == HIROTA_IDS
    assert list(started.values()) == [["zetac", "zeta3"]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_check_that_raises_in_a_worker_is_the_one_process_error_result(
        monkeypatch, capsys, tmp_path):
    # halfpow's group is lighter than NYtaupm's, which this process takes
    # first, so halfpow raises in the worker
    def boom(sample, E, ctx):
        raise Resonance("pole")

    monkeypatch.setitem(idmod.CATALOG, "halfpow", idmod.CATALOG["halfpow"]._replace(run=boom))
    log = _share_with_a_worker(monkeypatch, tmp_path)
    argv = ["--id", "halfpow", "--id", "NYtaupm", "--order", "1"]
    runs = []
    for cpus in (1, 2):
        runs.append(_verify(monkeypatch, capsys, tmp_path, cpus, argv))
        runs.append(len(_started(log)))
        log.unlink()
    one, one_pids, two, two_pids = runs
    assert one == two and one[0] == 3 and (one_pids, two_pids) == (1, 2)
    assert json.loads(one[1])["results"][0]["error"] == {"type": "Resonance", "message": "pole"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_makes_verify_exit_three(monkeypatch, capsys, tmp_path):
    parent = os.getpid()

    def die(sample, E, ctx):
        if os.getpid() == parent:
            raise AssertionError("halfpow ran in this process")
        os._exit(9)

    monkeypatch.setitem(idmod.CATALOG, "halfpow", idmod.CATALOG["halfpow"]._replace(run=die))
    _share_with_a_worker(monkeypatch, tmp_path)
    pin_cpus(monkeypatch, 2)
    argv = ["verify", "--id", "halfpow", "--id", "NYtaupm", "--order", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "RuntimeError: verify worker" in err and "exit code 9" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# verify: determinism and formats
# ---------------------------------------------------------------------------


def _strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


def test_report_deterministic_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        r = run_cli("verify", "--id", "qNYtaupm", "--id", "NY",
                    "--order", "1", "--report", str(p))
        assert r.returncode == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert _strip_timing(da) == _strip_timing(db)
    assert "timing" in da and "elapsed_seconds" in da["timing"]


def test_csv_report(tmp_path):
    rp = tmp_path / "r.csv"
    r = run_cli("verify", "--id", "NY", "--order", "1",
                "--format", "csv", "--report", str(rp))
    assert r.returncode == 0
    lines = rp.read_text().splitlines()
    assert lines[0].startswith("id,status,sample_index,order_num,order_den")
    assert lines[1].startswith("NY,theorem,0,1,1,1")


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"identities": ["NY"], "order": 1, "samples": 1, "format": "json"}))
    rp = tmp_path / "r.json"
    r = run_cli("verify", "--config", str(cfg), "--report", str(rp))
    assert r.returncode == 0
    doc = json.loads(rp.read_text())
    assert [x["id"] for x in doc["results"]] == ["NY"]


def test_env_seed_override(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("verify", "--id", "NY", "--order", "1", "--report", str(a),
            env={"NEKTAU_SEED": "1"})
    run_cli("verify", "--id", "NY", "--order", "1", "--seed", "1",
            "--report", str(b))
    assert _strip_timing(json.loads(a.read_text())) == \
        _strip_timing(json.loads(b.read_text()))


def test_samples_flag_runs_each_sample(tmp_path):
    rp = tmp_path / "r.json"
    r = run_cli("verify", "--id", "NYtaupm", "--order", "1",
                "--samples", "2", "--report", str(rp))
    assert r.returncode == 0
    doc = json.loads(rp.read_text())
    assert [x["sample_index"] for x in doc["results"]] == [0, 1]
    assert doc["results"][0]["sample"] != doc["results"][1]["sample"]


# ---------------------------------------------------------------------------
# build_config unit checks (no computation)
# ---------------------------------------------------------------------------


def _args(**kw):
    ns = make_parser().parse_args(
        ["verify"] + sum((list(v) for v in kw.pop("extra", [])), []))
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


def test_build_config_rejects_unknown_before_computation():
    ns = make_parser().parse_args(["verify", "--id", "nope"])
    with pytest.raises(ConfigError):
        build_config(ns)


def test_build_config_all_expands():
    ns = make_parser().parse_args(["verify"])
    cfg = build_config(ns)
    assert "NY" in cfg.identities and "m1chain" in cfg.identities
    assert cfg.format == "json" and cfg.samples == 1


@pytest.mark.parametrize("data", [
    {"samples": "two"}, {"seed": None}, {"seed": [1]}, {"identities": 5},
    {"order": [1]}, {"samples": 2.5}, {"failFast": "no"}, {"report": 5},
    {"format": 5},
], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_malformed_config_value_exit_two(tmp_path, data):
    # these used to crash with exit 1 or be read as some other value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("configuration error: ")
    assert "Traceback" not in r.stderr


def test_unknown_config_key_exit_two(tmp_path):
    # a misspelt key used to be ignored: {"identity": "NY"} ran every check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"identity": "NY", "order": 1}))
    r = run_cli("verify", "--config", str(cfg))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    [line] = r.stderr.splitlines()
    assert line.startswith("configuration error: unknown config key(s): identity;")


@pytest.mark.parametrize("command", [
    ["verify", "--id", "NYtaupm", "--order", "1"],
    ["verify", "--id", "NYtaupm", "--order", "1", "--config", "{config}"],
    ["dump", "Z4d", "--order", "1"],
    ["oracle", "--order", "1"],
], ids=["verify", "verify-config", "dump", "oracle"])
def test_report_in_a_missing_directory_exit_two(tmp_path, command):
    # the run used to finish its computation, then crash with exit 1
    missing = tmp_path / "missing" / "r.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"report": str(missing)}))
    argv = [a.format(config=cfg) for a in command]
    if "--config" not in argv:
        argv += ["--report", str(missing)]
    r = run_cli(*argv)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"configuration error: report directory {str(missing.parent)!r} "
        "does not exist"]


def test_report_path_that_is_a_directory_exit_two(tmp_path):
    r = run_cli("verify", "--id", "NYtaupm", "--order", "1", "--report", str(tmp_path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"configuration error: report path {str(tmp_path)!r} is a directory"]


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
def test_default_report_matches_golden(corrupt):
    # the full default run on seed 0, minus its timing block, is
    # byte-identical to the recorded report
    argv = ["verify", "--seed", "0"] + ["--corrupt-coefficient"] * corrupt
    code, report, _ = run_verify(build_config(make_parser().parse_args(argv)))
    assert code == int(corrupt)
    golden = GOLDEN / ("verify_seed0_corrupt.json" if corrupt else "verify_seed0.json")
    assert json.dumps(_strip_timing(report), indent=2) + "\n" == golden.read_text()


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------


def test_dump_matches_golden_fixture(tmp_path):
    out = tmp_path / "d.json"
    r = run_cli("dump", "fixture:P3_taupm", "--order", "2",
                "--report", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == (GOLDEN / "fixture_P3_taupm_order2.json").read_bytes()


def test_dump_matches_golden_tau(tmp_path):
    out = tmp_path / "d.json"
    r = run_cli("dump", "tauq:kiev0", "--order", "1", "--report", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == (GOLDEN / "tauq_kiev0_order1.json").read_bytes()


@pytest.mark.parametrize("selector,golden", [
    ("tau4d:kiev", "tau4d_kiev_order3.json"),
    ("Z5d", "Z5d_order3.json"),
])
def test_dump_matches_golden_without_memo(selector, golden, tmp_path):
    # dump keeps no run memo: its modes, cocycles and instanton
    # coefficients are built afresh and kept nowhere
    out = tmp_path / "d.json"
    r = run_cli("dump", selector, "--order", "3", "--report", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_dump_prefix_extension_per_sector():
    lo = json.loads(run_cli("dump", "tau4d:kiev", "--order", "1").stdout)
    hi = json.loads(run_cli("dump", "tau4d:kiev", "--order", "2").stdout)

    def by_sector(doc):
        out = {}
        for row in doc["series"]:
            out.setdefault(tuple(row["sector"]), []).append(
                (tuple(row["exponent"]), row["coefficient"]))
        return out

    lo_s, hi_s = by_sector(lo), by_sector(hi)
    for sector, rows in lo_s.items():
        assert hi_s[sector][: len(rows)] == rows


def test_dump_unknown_selector_exit_two():
    r = run_cli("dump", "nope")
    assert r.returncode == 2


@pytest.mark.parametrize("selector", ["tau4d:nope", "tauq:nope", "tau4d:", "fixture:nope"])
def test_dump_unknown_name_lists_the_selectors_exit_two(selector, capsys):
    # these used to end in a KeyError or ValueError traceback, exit 1
    assert main(["dump", selector]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"configuration error: unknown dump selector {selector!r}; "
                                f"choose from: {', '.join(DUMP_SELECTORS)}"]


def test_dump_z4d_past_the_admissible_degree_exit_two(monkeypatch, capsys):
    # 4d-eps pool sample 2, (1, 2/5, 3/8), has an N_{lam lam} that vanishes
    # at degree 7: the dump used to end in a ZeroFactor traceback, exit 3
    built, real = [], nekrasov.inst_series_4d
    monkeypatch.setattr(climod, "inst_series_4d",
                        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
    assert main(["dump", "Z4d", "--seed", "2", "--order", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not built
    assert err.splitlines() == [
        "configuration error: Z4d at order 7 needs instanton degree 7 of the 4d theory "
        "(1, 2/5), admissible only through degree 6 at the sample (1, 2/5, 3/8)"]
    assert main(["dump", "Z4d", "--seed", "2", "--order", "6"]) == 0
    assert len(built) == 1 and json.loads(capsys.readouterr().out)["series"]


@pytest.mark.parametrize("selector", [s for s in DUMP_SELECTORS if s.startswith("tau")])
def test_every_recipe_table_name_dumps(selector, tmp_path):
    # the tau selectors are the names of tau.py's recipe tables
    out = tmp_path / "d.json"
    assert main(["dump", selector, "--order", "1", "--report", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["selector"] == selector and doc["series"]


def test_the_tau_selectors_in_use_keep_their_names():
    assert {"tau4d:kiev", "tau4d:plus", "tau4d:minus", "tau4d:long0", "tau4d:long1",
            "tauq:kiev0", "tauq:kiev1", "tauq:plus", "tauq:minus"} <= set(DUMP_SELECTORS)


@pytest.mark.parametrize("argv", [["dump", "tau4d:kiev", "--order", "5000"], ["oracle"]],
                         ids=["dump", "oracle"])
def test_an_exception_escaping_a_command_exits_three(argv, monkeypatch, capsys):
    # an exception outside verify's checks used to exit 1, the theorem-failure
    # code: dump's mode scan gives up at this order, and oracle's check is
    # made to raise
    def boom(*args, **kwargs):
        raise ZeroFactor("resonant sample")

    monkeypatch.setattr(idmod, "verify", boom)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback")
    assert err.splitlines()[-1].split(":")[0].endswith(
        "IncompleteModeRange" if argv[0] == "dump" else "ZeroFactor")


@pytest.mark.parametrize("command", [["dump", "Z4d"], ["oracle", "--order", "1"]])
def test_non_integer_env_seed_exit_two(command):
    # dump used to raise an uncaught ValueError (exit 1)
    r = run_cli(*command, env={"NEKTAU_SEED": "x"})
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.strip().splitlines() == ["configuration error: bad seed 'x'"]


def test_dump_exponents_are_integer_pairs():
    doc = json.loads(run_cli("dump", "Z4d", "--order", "2").stdout)
    for row in doc["series"]:
        n, d = row["exponent"]
        assert isinstance(n, int) and isinstance(d, int) and d >= 1


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_runs():
    r = run_cli("oracle", "--order", "2")
    assert r.returncode == 0
    assert "determlemma" in r.stdout


def test_oracle_bad_depth():
    # depth 0 would check only the level-0 seed
    for depth in ("-1", "0"):
        r = run_cli("oracle", "--order", depth)
        assert r.returncode == 2, depth


@pytest.mark.parametrize("depth,message", [
    ("3/2", "--order must be an integer depth, got '3/2'"),
    ("x", "bad --order 'x': Invalid literal for Fraction: 'x'"),
], ids=["fraction", "not-a-number"])
def test_oracle_depth_that_is_not_an_integer_exit_two(depth, message):
    # int() used to leak its own message: invalid literal for int() ...
    r = run_cli("oracle", "--order", depth)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [f"configuration error: {message}"]


def test_oracle_depth_follows_the_catalog_lowest_order():
    # oracle applies determlemma's lowest meaningful order, the rule verify
    # and the library share
    r = run_cli("oracle", "--order", "0")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "configuration error: order 0 is below the lowest meaningful order 1 "
        "of determlemma"]


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

#: modules that no import of nektau.cli loads: dataclasses (with inspect)
#: generates code, and csv, traceback and pickle serve --format csv, the
#: error paths and forked runs only
NOT_AT_IMPORT = {"dataclasses", "inspect", "csv", "traceback", "pickle"}


def test_importing_the_cli_loads_no_module_that_a_run_may_not_need(tmp_path):
    # site may preload modules, so the import is measured as the modules it
    # adds; then one erroring check with a CSV report imports csv and
    # traceback where they are used
    rp = tmp_path / "r.csv"
    r = run_python("-c", f"""
import json, sys
bare = set(sys.modules)
import nektau.cli as climod
print(json.dumps(sorted(set(sys.modules) - bare)))
from nektau.symbols import Resonance
def boom(sample, E, ctx):
    raise Resonance("pole")
climod.idmod.CATALOG["halfpow"] = climod.idmod.CATALOG["halfpow"]._replace(run=boom)
sys.exit(climod.main(["verify", "--id", "halfpow", "--order", "1",
                      "--format", "csv", "--report", {str(rp)!r}]))
""")
    added = set(json.loads(r.stdout.splitlines()[0]))
    assert "nektau.cli" in added and not added & NOT_AT_IMPORT
    assert r.returncode == 3, r.stderr
    lines = rp.read_text().splitlines()
    assert lines[0].startswith("id,status,sample_index,order_num,order_den")
    assert lines[1].endswith(",0,,error: Resonance: pole")
    assert r.stderr.startswith("Traceback (most recent call last):")
    assert r.stderr.endswith("Resonance: pole\n")
