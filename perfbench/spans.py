"""Spans and counters around the package's layers, for the traced run only.

The tracer rebinds public functions where their callers look them up: every
``fricke_orbits`` module attribute bound to the original, and the ``CosSum``
methods on the class.  Each call records a span (name, start, end, parent
span, run id); spans stay in memory until ``write`` saves them.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List

# (module, attribute) -> span name; the module attribute is the definition
# that gets rebound wherever it is bound in the package.
SPANNED = {
    ("_kernels", "close_float"): "kernels.close_float",
    ("orbit_search", "decode_config"): "orbit_search.decode_config",
    ("fricke_action", "canonical_key"): "fricke_action.canonical_key",
    ("trig_field", "compare"): "trig_field.compare",
    ("orbit_search", "verify_record"): "orbit_search.verify_record",
    ("orbit_search", "golden_match"): "orbit_search.golden_match",
    ("cli", "render_search"): "cli.render_search",
}


class Tracer:
    def __init__(self) -> None:
        self.run_id = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.run: List[int] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """fn wrapped in a span; ``after(args, result)`` may record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from fricke_orbits import _kernels, orbit_search, trig_field

        def rebind(orig, new) -> None:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("fricke_orbits") and mod is not None:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, new)

        for (mod_name, attr), span in SPANNED.items():
            orig = getattr(sys.modules[f"fricke_orbits.{mod_name}"], attr)
            rebind(orig, self.spanned(span, orig))

        def after_scan(args, res):
            idxs, _, nproc, cay, _ = res
            self.count("kernels.scan_chunk.configs", nproc)
            self.count("kernels.scan_chunk.survivors", len(idxs))
            self.count("kernels.scan_chunk.cayley_skips", cay)

        rebind(_kernels.scan_chunk, self.spanned(
            lambda cls, *_: f"kernels.scan_chunk.class{cls}",
            _kernels.scan_chunk, after_scan))

        def after_close(args, rec):
            if rec is not None:
                self.count("orbit_search.close_orbit.records")

        rebind(orbit_search.close_orbit, self.spanned(
            "orbit_search.close_orbit", orbit_search.close_orbit, after_close))

        def after_cyc(args, el):
            key = "trig_field.to_cyclotomic.max_level"
            self.counts[key] = max(self.counts.get(key, 0), el.level)

        rebind(trig_field.to_cyclotomic, self.spanned(
            "trig_field.to_cyclotomic", trig_field.to_cyclotomic, after_cyc))

        # cold builds only: a fresh cache around the uncached body, so a span
        # is recorded exactly when the polynomial is built (recursive builds
        # of divisors look the name up again and land in the same cache)
        poly = trig_field.cyclotomic_poly
        rebind(poly, functools.lru_cache(maxsize=None)(
            self.spanned("trig_field.cyclotomic_poly", poly.__wrapped__)))

        cos_sum = trig_field.CosSum
        cos_sum.inverse = self.spanned("trig_field.inverse", cos_sum.inverse)
        is_zero = cos_sum.is_zero

        def counted_is_zero(value):
            before = len(self.start)
            zero = is_zero(value)
            self.count("trig_field.is_zero.calls")
            # only the exact path, past the float fast path, opens a span
            if len(self.start) != before:
                self.count("trig_field.is_zero.exact")
            return zero

        cos_sum.is_zero = functools.wraps(is_zero)(counted_is_zero)

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""

        import numpy as np

        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        names = np.asarray(self.span_name, dtype=np.int64)
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            run=np.asarray(self.run, dtype=np.int32),
        )


def layer_metrics(tracer: Tracer, candidates: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, zero for a layer it skips."""

    st = tracer.self_times()
    c = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def secs(name):
        return st.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"kernels.scan_chunk.class{k}.s": secs(f"kernels.scan_chunk.class{k}")
           for k in (1, 2, 3, 4)}
    for k in ("configs", "survivors", "cayley_skips"):
        out[f"kernels.scan_chunk.{k}"] = c.get(f"kernels.scan_chunk.{k}", 0)
    out["kernels.close_float.calls"] = calls("kernels.close_float")
    out["kernels.close_float.s"] = secs("kernels.close_float")
    # every size>4 survivor is re-closed in float once before dedup
    out["orbit_search.float_dedup.candidates"] = candidates
    out["orbit_search.float_dedup.useful_ratio"] = ratio(
        candidates, calls("kernels.close_float"))
    for name in ("orbit_search.decode_config", "orbit_search.close_orbit",
                 "fricke_action.canonical_key", "trig_field.compare",
                 "orbit_search.verify_record", "trig_field.to_cyclotomic",
                 "trig_field.inverse"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    out["orbit_search.close_orbit.useful_ratio"] = ratio(
        c.get("orbit_search.close_orbit.records", 0), calls("orbit_search.close_orbit"))
    out["orbit_search.golden_match.s"] = secs("orbit_search.golden_match")
    out["cli.render_search.s"] = secs("cli.render_search")
    out["trig_field.is_zero.calls"] = c.get("trig_field.is_zero.calls", 0)
    out["trig_field.is_zero.exact_ratio"] = ratio(
        c.get("trig_field.is_zero.exact", 0), c.get("trig_field.is_zero.calls", 0))
    out["trig_field.to_cyclotomic.max_level"] = c.get("trig_field.to_cyclotomic.max_level", 0)
    out["trig_field.cyclotomic_poly.builds"] = calls("trig_field.cyclotomic_poly")
    out["trig_field.cyclotomic_poly.s"] = secs("trig_field.cyclotomic_poly")
    return out
