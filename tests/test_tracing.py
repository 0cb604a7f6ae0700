"""The benchmark's layer tracer still finds the layer entry points it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs in a fresh interpreter: install() rebinds package attributes for good
TRACED_RUN = """
import json, sys
src, bench, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import tracing
from nektau import identities

tr = tracing.install()
assert identities.verify("NYD2diff", E=1).ok
tr.dump(out)
with open(out) as f:
    print(json.dumps(tracing.summarize(json.load(f))))
"""


def test_traced_run_records_hirota_and_mode_spans(tmp_path):
    out = tmp_path / "trace.json"
    r = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(out)],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = set(json.loads(out.read_text())["names"])
    assert {"fourier.hirota", "nekrasov.mode"} <= names
    metrics = json.loads(r.stdout.splitlines()[-1])
    assert metrics["fourier.hirota.s"] > 0
    assert metrics["nekrasov.mode.calls"] > 0
