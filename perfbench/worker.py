"""The measured process: one fresh interpreter per pass.

Takes a request as a JSON argument, sets the package up, runs one pass of a
workload and writes one JSON line on stdout.  A fresh interpreter starts the
process-lifetime caches cold (the dictionaries, the search tables and the
cyclotomic polynomial cache), as every CLI invocation does.

Request keys: ``workload``, ``inputs``, ``setup_only`` and
``trace_out`` (a path for the spans, or null for an untraced pass).  The
result carries ``scale``, the factor from this process's seconds to
reference-host seconds (see calibrate.py); times are as measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    req = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    # timed set-up: importing the package and building its tables
    import workloads

    workloads.orbit_search.get_search_tables()
    setup_s = time.perf_counter() - t0
    import calibrate

    cal = calibrate.Calibrator()
    cal.slice()
    out = {"setup_s": setup_s}
    if not req.get("setup_only"):
        out.update(run_pass(workloads, req, cal))
    cal.slice()
    out["scale"] = cal.scale()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def run_pass(workloads, req: dict, cal) -> dict:
    import importlib.util

    import numpy

    from fricke_orbits import _kernels

    tracer = None
    if req.get("trace_out"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ops = workloads.Ops(tracer, cal)
    ref = workloads.load_reference()
    before = len(cal.samples)
    t0 = time.perf_counter()
    info = workloads.PASSES[req["workload"]](req["inputs"], ops, ref)
    wall_s = time.perf_counter() - t0 - sum(cal.samples[before:])
    out = {
        "wall_s": wall_s,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "info": info,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "backend": _kernels.backend_name(),
            "threads": 1,
        },
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, info.get("candidates", 0))
        tracer.write(req["trace_out"])
    return out


if __name__ == "__main__":
    sys.exit(main())
