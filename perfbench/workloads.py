"""The benchmark workloads and the check made on every operation.

Each pass calls the package through module attributes (``orbit_search.decode_config``
rather than a name bound at import), so that a traced run sees every call.
A check returns the reasons an operation failed; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from functools import cmp_to_key
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set

from fricke_orbits import _kernels, cli, fricke_action, orbit_search

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Frozen per-class configuration counters of the full scan.
FROZEN_COUNTERS = {1: 48_618_911, 2: 6_213_878, 3: 54_671_104, 4: 8_197_910}

# Configurations per scanned block: two of the numpy kernel's blocks.
BLOCK = 1 << 17

FLOAT_TOL = 1e-9


def load_reference() -> dict:
    """Per-block scan outputs and the 45 candidates of the full search."""

    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def block_entry(res) -> list:
    """What the reference keeps of one scan_chunk result."""

    idxs, sizes, nproc, cay, cap = res
    survivors = [[int(i) for i in idxs], [int(s) for s in sizes]]
    return [int(nproc), int(cay), int(cap), len(idxs), digest(survivors)]


def orbit_digests(rendered: str) -> List[str]:
    """One digest per orbit of a rendered JSON table, ignoring its row index."""

    return [
        digest({k: v for k, v in orbit.items() if k != "index"})
        for orbit in json.loads(rendered)["orbits"]
    ]


class Ops:
    """Attempted and failed operations of one pass, with failure reasons.

    A traced pass passes its tracer, so that the spans of one operation
    carry that operation's run id.  A calibrator, if given, may time its
    kernel between two operations.
    """

    def __init__(self, tracer=None, calibrator=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[Dict[str, object]] = []
        self.tracer = tracer
        self.calibrator = calibrator

    def set_run(self, run_id: int) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def record(self, label: str, reasons: Sequence[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.append({"op": label, "reasons": list(reasons)})

    def run(self, label: str, fn: Callable[[], List[str]]) -> None:
        """Run one operation; an exception fails it and the pass goes on."""

        if self.calibrator is not None:
            self.calibrator.between()
        self.set_run(self.attempted + 1)
        try:
            reasons = fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            reasons = [f"{type(exc).__name__}: {exc}"]
        self.record(label, reasons)


# ---------------------------------------------------------------------------
# search_sample: full_search's pipeline on a sample of the configuration space


def scan_block(cls: int, start: int, stop: int, expected: list,
               kt: _kernels.ScanTables, keys: Set[tuple]) -> List[str]:
    """Scan one block, then re-close its size>4 survivors in float and keep
    one per float orbit key, as full_search's dedup does."""

    eps = orbit_search.EPS
    res = _kernels.scan_chunk(cls, start, stop, kt, eps, "numpy")
    got = block_entry(res)
    if got != expected:
        return [f"scan output {got} differs from the reference {expected}"]
    reasons = []
    for idx, fsz in zip(res[0], res[1]):
        if fsz <= 4:
            continue
        X, Y, Z, wx, wy, wz, w4 = _kernels.decode_float(cls, idx, kt)
        size, pc, _ = _kernels.close_float(X, Y, Z, wx, wy, wz, kt.s4, eps, want_points=True)
        if size != fsz:
            reasons.append(f"index {idx}: float re-closure has {size} points, the scan {fsz}")
            continue
        keys.add(orbit_search._float_orbit_key(pc, (wx, wy, wz), w4))
    return reasons


def close_candidate(cls: int, idx: int, fsz: int, t: orbit_search.SearchTables,
                    records: List[orbit_search.OrbitRecord]) -> List[str]:
    """full_search's exact tail for one candidate: decode, close, key, verify."""

    g = orbit_search.decode_config(cls, idx, t)
    rec = orbit_search.close_orbit(
        g.point, g.omega, cap=min(_kernels.CAP, 2 * fsz + 8), source=(cls, idx)
    )
    if rec is None or rec.size != fsz:
        return [f"exact closure gave {rec and rec.size} points, the float scan {fsz}"]
    key = rec.canonical
    if any(fricke_action.keys_equal(key, r.canonical) for r in records):
        return ["the orbit duplicates one already closed"]
    if not orbit_search.verify_record(rec):
        return ["verify_record rejected the orbit"]
    records.append(rec)
    return []


def check_table(records: List[orbit_search.OrbitRecord], expected: Dict[tuple, list],
                processed: Dict[int, int]) -> List[str]:
    """Golden rows and the rendered JSON of the closed orbits, in table order."""

    records.sort(key=cmp_to_key(orbit_search._record_cmp))
    rows = orbit_search.golden_match(records, complete=False)
    want = [expected[rec.source][0] for rec in records]
    reasons = [] if rows == want else [f"golden rows {rows}, expected {want}"]
    result = orbit_search.SearchResult(
        records=records, family_hits={}, processed=processed, cayley_skips=0,
        cap_hits=0, survivors=0, candidates=len(records), junk=0,
        backend="numpy", threads=1, eps=orbit_search.EPS, elapsed=0.0,
    )
    got = orbit_digests(cli.render_search(result, fmt="json"))
    if got != [expected[rec.source][1] for rec in records]:
        reasons.append("rendered orbits differ from the reference rendering")
    return reasons


def search_pass(inputs: dict, ops: Ops, ref: dict) -> dict:
    t = orbit_search.get_search_tables()
    keys: Set[tuple] = set()
    processed = {1: 0, 2: 0, 3: 0, 4: 0}
    for cls, start, stop in inputs["blocks"]:
        expected = ref["blocks"][str(cls)][start // BLOCK]
        processed[cls] += expected[0]
        ops.run(f"class {cls} block {start}-{stop}",
                lambda: scan_block(cls, start, stop, expected, t.kernel, keys))

    records: List[orbit_search.OrbitRecord] = []
    for cls, idx, fsz in inputs["tail"]:
        ops.run(f"candidate class {cls} index {idx}",
                lambda: close_candidate(cls, idx, fsz, t, records))
    expected = {(c[0], c[1]): (c[3], c[4]) for c in ref["candidates"]}
    ops.run("golden match and rendering",
            lambda: check_table(records, expected, processed))
    return {"candidates": len(keys)}


# ---------------------------------------------------------------------------
# decode: exact configurations over the level bands


def check_decode(g: orbit_search.GenConfig, kt: _kernels.ScanTables) -> List[str]:
    reasons = []
    for c, color in enumerate("xyz"):
        image = fricke_action.apply(color, g.point, g.omega)[c]
        if not (image - g.primes[c]).is_zero():
            reasons.append(f"{color}-image differs from the stored prime")
    if not fricke_action.fricke_residual(g.point, g.omega).is_zero():
        reasons.append("nonzero surface residual")
    exact = [v.float_value() for v in (*g.point, *g.omega)]
    approx = _kernels.decode_float(g.cls, g.index, kt)
    if any(abs(a - b) > FLOAT_TOL for a, b in zip(exact, approx)):
        reasons.append("decode_float disagrees with the exact decode")
    return reasons


def decode_pass(inputs: dict, ops: Ops, ref: dict) -> dict:
    t = orbit_search.get_search_tables()
    for cls, idx, band, level in inputs["pairs"]:
        ops.run(
            f"class {cls} index {idx} (L={level})",
            lambda: check_decode(orbit_search.decode_config(cls, idx, t), t.kernel),
        )
    return {}


PASSES = {"search_sample": search_pass, "decode": decode_pass}
