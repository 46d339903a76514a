"""Benchmark of the fricke_orbits pipeline.

    python3 perfbench/run.py --workload search_sample|decode --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop: one caller,
one process, short passes back to back on the same inputs, every pass at one
thread.

  search_sample  full_search's pipeline on a seeded sample of the space:
                 scan_chunk on every 16th block of 131,072 configurations of
                 each class, the float re-closure and dedup of their size>4
                 survivors, then the exact tail (decode_config, close_orbit,
                 canonical key, verify_record) on one of four groups of the
                 45 candidates, golden_match and render_search(fmt="json").
                 Every block is checked against the frozen scan output and
                 every orbit against its reference row and rendering.
  decode         decode_config on seeded (class, index) pairs of all four
                 classes in fixed quotas per level band, each image and the
                 surface residual checked exactly: few-term values at a high
                 cyclotomic level.

Inputs come from perfbench/inputs.py in a process of their own.  Every pass
runs in a fresh interpreter (perfbench/worker.py), so process-lifetime caches
start cold, as they do on every CLI invocation.  Passes repeat while the next
one is expected to end within --seconds; there is always at least one.
Set-up (importing the package and building its search tables) is also timed
in SETUP_PROBES extra interpreters.

Times are reported in reference-host seconds: each pass's, or set-up's, wall
time is scaled by the speed of the host while it ran, as measured by a fixed
calibration kernel between operations (perfbench/calibrate.py).  On a shared
host whose speed drifts by a fifth within minutes this took the quartile
spread of wall_s over ten seeds from 0.07-0.20 to 0.02-0.09.  The times as
measured are printed too.

With --trace 0 the last stdout line reports wall_s, setup_s and peak_rss_mb,
medians over passes and set-ups.  With --trace 1 a traced pass reports
per-layer self times and counts, and trace.overhead_s: its wall time minus
the median of untraced passes run after it.  Spans are written to
.perfbench/.  The numpy backend is pinned.  A failed check counts in `failed`
with its reason, and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search_sample", "decode")
SETUP_PROBES = 5
DEADLINE_S = 170.0


class Runner:
    """Starts the generator and worker processes under one deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, FRICKE_ORBITS_BACKEND="numpy")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def start(self, script: str, *args: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self.env, cwd=str(ROOT),
        )

    def finish(self, proc: subprocess.Popen) -> dict:
        """The process's JSON result, or {"error": why}; the process is reaped."""

        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out"}
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return {"error": f"exit {proc.returncode}: {tail[0]}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"error": "no JSON result"}

    def worker(self, req: dict) -> dict:
        return self.finish(self.start("worker.py", json.dumps(req)))


def op_count(workload: str, inputs: dict) -> int:
    if workload == "search_sample":
        return len(inputs["blocks"]) + len(inputs["tail"]) + 1
    return len(inputs["pairs"])


class Tally:
    """Attempted and failed operations over all passes of a run."""

    def __init__(self, workload: str, inputs: dict) -> None:
        self.ops = op_count(workload, inputs)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def add(self, res: dict) -> bool:
        """Count one pass; False when the pass produced no result."""

        if "error" in res:
            self.attempted += self.ops
            self.failed += self.ops
            self.failures.append({"op": "pass", "reasons": [res["error"]]})
            return False
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.failures += res["failures"]
        return True


def back_to_back(runner: Runner, req: dict, seconds: float) -> list:
    """Results of passes run one after another while the next one is expected
    to end within ``seconds`` and before the deadline; at least one."""

    results = []
    end = min(time.monotonic() + seconds, runner.deadline)
    while True:
        t0 = time.monotonic()
        results.append(runner.worker(req))
        now = time.monotonic()
        if now + (now - t0) > end:
            return results


def measure(runner: Runner, workload: str, inputs: dict, seconds: float):
    setups, passes = [], []
    tally = Tally(workload, inputs)

    def probe(n: int) -> None:
        for _ in range(n):
            res = runner.worker({"setup_only": True})
            if "error" not in res:
                setups.append(res)

    # set-ups on both sides of the passes: the host's speed drifts over
    # tens of seconds, and one cluster would sample a single phase of it
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    for res in back_to_back(runner, {"workload": workload, "inputs": inputs}, seconds):
        if tally.add(res):
            passes.append(res)
            setups.append(res)
    probe(SETUP_PROBES // 2)
    return passes, setups, tally


def trace(runner: Runner, workload: str, inputs: dict, seconds: float, seed: int):
    """The traced pass and the untraced passes to compare its wall time with."""

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    req = {"workload": workload, "inputs": inputs}
    traced_req = dict(req, trace_out=str(out_dir / f"spans-{workload}-{seed}.npz"))
    res_t = runner.worker(traced_req)
    untraced = back_to_back(runner, req, seconds)
    tally = Tally(workload, inputs)
    ok = tally.add(res_t)
    plain_ok = [r for r in untraced if tally.add(r)]
    return (res_t, plain_ok) if ok and plain_ok else None, tally


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_of(results: list, key: str, scaled: bool = True) -> float:
    """Median of one timing over worker results, in reference-host seconds
    unless ``scaled`` is false (see calibrate.py)."""

    return statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in results)


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_level"):
        return "level"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fricke_orbits benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fricke_orbits" / "__init__.py").is_file():
        print(f"no fricke_orbits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner()
    gen = runner.start("inputs.py", "--workload", args.workload, "--seed", str(args.seed))
    inputs = runner.finish(gen)
    if "error" in inputs:
        print(f"input generation failed: {inputs['error']}", file=sys.stderr)
        return 1
    nproc = os.cpu_count() or 1

    if args.trace:
        traced, tally = trace(runner, args.workload, inputs, args.seconds, args.seed)
        if traced is None:
            print(f"traced run failed: {tally.failures}", file=sys.stderr)
            return 1
        res_t, plain = traced
        traced_s = median_of([res_t], "wall_s")
        untraced_s = median_of(plain, "wall_s")
        metrics = {
            k: metric(v * res_t["scale"] if k.endswith(".s") else v, layer_unit(k))
            for k, v in res_t["layers"].items()
        }
        metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
        env = dict(res_t["env"], nproc=nproc)
        print(f"traced pass: {traced_s:.4f} s, untraced: {untraced_s:.4f} s "
              f"(median of {len(plain)}, run after it; reference-host seconds)")
    else:
        passes, setups, tally = measure(runner, args.workload, inputs, args.seconds)
        if not passes or not setups:
            print(f"no pass completed: {tally.failures}", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": metric(median_of(passes, "wall_s"), "s"),
            "setup_s": metric(median_of(setups, "setup_s"), "s"),
            "peak_rss_mb": metric(median_of(passes, "peak_rss_mb", False), "MB"),
        }
        env = dict(passes[-1]["env"], nproc=nproc)
        counts = {"wall_s": len(passes), "setup_s": len(setups), "peak_rss_mb": len(passes)}
        print(f"workload={args.workload} seed={args.seed} passes={len(passes)}: "
              + " ".join(f"{p['wall_s']:.3f}" for p in passes) + " s as measured, scaled by "
              + " ".join(f"{p['scale']:.3f}" for p in passes))
        for k, m in metrics.items():
            print(f"  {k:<12} {m['value']:.4f} {m['unit']:<3} (median of {counts[k]})")
        print(f"  as measured: wall_s {median_of(passes, 'wall_s', False):.4f} s, "
              f"setup_s {median_of(setups, 'setup_s', False):.4f} s")
        info = passes[-1]["info"]
        if info:
            print("  " + " ".join(f"{k}={v}" for k, v in info.items()))

    print("  env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(f"  error_rate   {tally.failed / max(1, tally.attempted):.4f} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for f in tally.failures[:20]:
        print(f"  FAILED {f['op']}: {'; '.join(f['reasons'])}")
    if args.trace:
        for k, m in sorted(metrics.items()):
            print(f"  {k:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
