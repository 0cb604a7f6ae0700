"""The benchmark's layer tracer still finds the layer entry points it wraps."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, strategies as st

from fraction_pair import FractionPair
from nektau.rationals import GaussianRational

ROOT = Path(__file__).resolve().parents[1]

# runs in a fresh interpreter: install() rebinds package attributes for good
TRACED_RUN = """
import json, sys
from fractions import Fraction
src, bench, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import tracing
from nektau import identities, qseries

tr = tracing.install()
{body}
tr.dump(out)
with open(out) as f:
    print(json.dumps(tracing.summarize(json.load(f))))
"""


def traced(tmp_path, body):
    """Span names and per-layer metrics of body run under the tracer."""
    out = tmp_path / "trace.json"
    r = subprocess.run(
        [sys.executable, "-c", TRACED_RUN.format(body=body), str(ROOT / "src"),
         str(ROOT / "perfbench"), str(out)],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = set(json.loads(out.read_text())["names"])
    return names, json.loads(r.stdout.splitlines()[-1])


def test_traced_run_records_hirota_and_mode_spans(tmp_path):
    names, metrics = traced(
        tmp_path, 'assert identities.verify("NYD2diff", E=1).ok')
    # the theta-products of a Hirota derivative of two FourierSeries are
    # FourierSeries products
    assert {"fourier.hirota", "fourier.mul", "nekrasov.mode"} <= names
    assert metrics["fourier.hirota.s"] > 0
    assert metrics["fourier.mul.s"] > 0
    assert metrics["nekrasov.mode.calls"] > 0


def test_traced_run_records_inverse_and_exp_spans(tmp_path):
    # zetac divides by the tau series (fourier.inverse); the Jacobi route of
    # theta divides by (p;p)_inf (series.inverse), and the exp route of a
    # Pochhammer symbol runs series.exp
    names, metrics = traced(tmp_path, "\n".join([
        'assert identities.verify("zetac", E=1).ok',
        'qseries.theta_z_series(2, Fraction(1, 2), 3, 1, 3, route="jacobi")',
        "spec = qseries.PochhammerSpec(2, 1, (1, -2))",
        'qseries.pochhammer_series(spec, Fraction(1, 3), 3, "exp")',
    ]))
    assert {"fourier.inverse", "series.inverse", "series.exp"} <= names
    assert metrics["series.inverse.calls"] > 0
    for key in ("series.inverse.s", "series.exp.s", "fourier.inverse.s"):
        assert metrics[key] > 0, key


def load_tracing():
    """perfbench/tracing.py as a module, without installing its wrappers."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bits = load_tracing()._bits
parts = st.one_of(st.just(F(0)),
                  st.builds(F, st.integers(-2**220, 2**220), st.integers(1, 2**220)))


@given(parts, parts, parts, parts)
def test_bits_read_the_triple_as_the_fraction_pair(a, b, c, d):
    # rationals.mul.bits_max and nekrasov.coeff_bits_max read _bits
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    p, q = FractionPair(a, b), FractionPair(c, d)
    for g, r in ((x, p), (x * y, p * q), (x + y, p + q)):
        assert bits(g) == bits(r)
