"""The benchmark's output gate in the suite: every input of every workload
(perfbench/workloads.py), run in this process, gives each check the verdict
and digest recorded in perfbench/reference.json, and no check more or
less.  A change to a report or a series then fails here."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())
INPUTS = [(w, seed) for w, n in workloads.ROTATIONS.items() for seed in range(n)]


def test_every_workload_input_has_a_reference():
    assert sorted(REFERENCE) == sorted(workloads.ROTATIONS)
    assert sorted((w, int(seed)) for w in REFERENCE for seed in REFERENCE[w]) == sorted(INPUTS)


@pytest.mark.parametrize("workload,seed", INPUTS)
def test_workload_outputs_match_the_reference(workload, seed, tmp_path):
    job = workloads.make_job(workload, seed, False, tmp_path)
    job.run()
    assert job.error is None, job.error
    checks = job.checks()
    got = {c["key"]: c.get("error") or [c["ok"], c["digest"]] for c in checks}
    assert len(got) == len(checks)
    assert got == REFERENCE[workload][str(seed)]
