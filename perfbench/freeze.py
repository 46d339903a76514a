"""Regenerate perfbench/reference.json from the current package.

    PYTHONPATH=src python3 perfbench/freeze.py

The reference holds, for every block of BLOCK configurations of each class,
what scan_chunk returns on the numpy backend (configurations, Cayley skips,
cap hits, survivor count and a digest of the survivors), and, for each of the
45 candidates full_search closes exactly, its float orbit size, its reference
row and a digest of its rendered row.
It refuses to write unless the blocks add up to the frozen counters and the
full search matches all 45 rows, so a broken build cannot become the reference.
"""

from __future__ import annotations

import json
import sys

import workloads
from fricke_orbits import _kernels, cli, orbit_search


def main() -> int:
    result = orbit_search.full_search(threads=1, backend="numpy")
    rows = orbit_search.golden_match(result.records)
    if result.processed != workloads.FROZEN_COUNTERS or result.cap_hits or result.junk:
        print("refusing to freeze: the full search is off its frozen counters",
              file=sys.stderr)
        return 1
    t = orbit_search.get_search_tables()
    kt = t.kernel

    blocks = {}
    for cls in (1, 2, 3, 4):
        size = _kernels.class_size(cls, kt)
        blocks[str(cls)] = [
            workloads.block_entry(_kernels.scan_chunk(
                cls, a, min(size, a + workloads.BLOCK), kt, orbit_search.EPS, "numpy"))
            for a in range(0, size, workloads.BLOCK)
        ]
        if sum(b[0] for b in blocks[str(cls)]) != workloads.FROZEN_COUNTERS[cls]:
            print(f"refusing to freeze: class {cls} blocks miss the frozen counter",
                  file=sys.stderr)
            return 1

    digests = workloads.orbit_digests(cli.render_search(result, fmt="json"))
    candidates = []
    for rec, row, orbit in zip(result.records, rows, digests):
        cls, idx = rec.source
        X, Y, Z, wx, wy, wz, _ = _kernels.decode_float(cls, idx, kt)
        fsz = _kernels.close_float(X, Y, Z, wx, wy, wz, kt.s4, orbit_search.EPS)
        reasons = workloads.close_candidate(cls, idx, fsz, t, [])
        if reasons:
            print(f"refusing to freeze: candidate {cls}/{idx}: {reasons}", file=sys.stderr)
            return 1
        candidates.append([cls, idx, fsz, row, orbit])
    candidates.sort()

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"blocks": blocks, "candidates": candidates}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
