"""One cold pass of a workload in a fresh interpreter (started by run.py).

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "mode": ...,
                                 "out": DIR, "corrupt": false}'

mode is ``setup`` (stop once the inputs exist), ``run`` or ``trace`` (run
with the layer wrappers installed).  Writes DIR/pass.json with the monotonic
clock readings at the first and after the last check and one digest per
check; ``trace`` also writes DIR/trace.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    job_spec = json.loads(sys.argv[1])
    out_dir = Path(job_spec["out"])
    sys.path.insert(0, str(ROOT / "src"))
    import nektau

    if Path(nektau.__file__).resolve().parent != ROOT / "src" / "nektau":
        print(f"imported nektau from {nektau.__file__}, not this checkout", file=sys.stderr)
        return 2
    import nektau.cli  # the whole package: its import is part of set-up
    import workloads

    job = workloads.make_job(job_spec["workload"], job_spec["seed"],
                             job_spec["corrupt"], out_dir)
    tracer = None
    if job_spec["mode"] == "trace":
        import tracing

        tracer = tracing.install()
    result = {"t_ready": time.monotonic()}
    if job_spec["mode"] != "setup":
        job.run()
        result["t_done"] = time.monotonic()
        if tracer is not None:
            tracer.dump(out_dir / "trace.json")
        result["error"] = job.error
        result["checks"] = job.checks()
    with open(out_dir / "pass.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
