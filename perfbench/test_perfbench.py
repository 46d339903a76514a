"""Tests of the benchmark itself: inputs, checks, tracing and the entry point."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import inputs
import run
import spans
import workloads
from fricke_orbits import cli, orbit_search

HERE = Path(__file__).resolve().parent
T = orbit_search.get_search_tables()


def decoded_level(g) -> int:
    level = 1
    for v in (*g.point, *g.omega, *g.primes):
        for (_, den), _ in v.terms:
            level = math.lcm(level, den)
    return level


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", ["search_sample", "decode"])
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    a = inputs.make_inputs(workload, 1)
    assert a == inputs.make_inputs(workload, 1)
    assert a != inputs.make_inputs(workload, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_sample_covers_every_class_with_a_fixed_block_count(seed):
    sample = inputs.make_inputs("search_sample", seed)
    per_class = {}
    for cls, start, stop in sample["blocks"]:
        per_class[cls] = per_class.get(cls, 0) + 1
        assert start % workloads.BLOCK == 0 and 0 < stop - start <= workloads.BLOCK
    assert per_class == {1: 24, 2: 4, 3: 27, 4: 4}
    assert [b for b in sample["blocks"] if b[1] == 0] == [[c, 0, workloads.BLOCK] for c in (1, 2, 3, 4)]
    ref = workloads.load_reference()
    assert sample["tail"] == [c[:3] for c in inputs.tail_candidates(ref["candidates"])]
    assert len(sample["tail"]) == 11


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_class_and_level_band_is_drawn(seed):
    pairs = inputs.make_inputs("decode", seed)["pairs"]
    assert {p[0] for p in pairs} == {1, 2, 3, 4}
    assert {p[2] for p in pairs} == set(range(len(inputs.BANDS)))
    drawn = {}
    for cls, _, band, level in pairs:
        drawn[band, cls] = drawn.get((band, cls), 0) + 1
        lo, hi = inputs.BANDS[band]
        assert lo <= level <= hi
    assert drawn == {(b, c): n for b, c, n in inputs.DECODE_PLAN}


def test_level_is_the_lcm_of_the_decoded_denominators():
    for cls, idx, _, level in inputs.make_inputs("decode", 4)["pairs"]:
        assert decoded_level(orbit_search.decode_config(cls, idx, T)) == level


# ---------------------------------------------------------------------------
# checks: a tampered result is a failure


REF = workloads.load_reference()


def test_block_check_fails_an_altered_counter():
    expected = REF["blocks"]["2"][0]
    assert workloads.scan_block(2, 0, workloads.BLOCK, expected, T.kernel, set()) == []
    altered = [expected[0] + 1] + expected[1:]
    assert workloads.scan_block(2, 0, workloads.BLOCK, altered, T.kernel, set())


@pytest.fixture(scope="module")
def small_tail():
    """The six cheapest candidates, closed as a pass closes them."""

    cands = sorted(REF["candidates"], key=lambda c: c[2])[:6]
    records = []
    for cls, idx, fsz, *_ in sorted(cands):
        assert workloads.close_candidate(cls, idx, fsz, T, records) == []
    return records


def expected_rows():
    return {(c[0], c[1]): (c[3], c[4]) for c in REF["candidates"]}


def test_table_check_passes_the_untampered_orbits(small_tail):
    assert workloads.check_table(list(small_tail), expected_rows(), {}) == []


def test_table_check_fails_a_wrong_reference_row(small_tail):
    rows = expected_rows()
    key = small_tail[0].source
    rows[key] = (rows[key][0] % 45 + 1, rows[key][1])
    assert workloads.check_table(list(small_tail), rows, {})


def test_table_check_fails_a_dropped_orbit_row(small_tail, monkeypatch):
    render = cli.render_search

    def drop_last(result, fmt):
        payload = json.loads(render(result, fmt=fmt))
        payload["orbits"].pop()
        return json.dumps(payload)

    monkeypatch.setattr(cli, "render_search", drop_last)
    assert workloads.check_table(list(small_tail), expected_rows(), {})


def test_candidate_with_a_wrong_float_size_fails():
    cls, idx, fsz = REF["candidates"][0][:3]
    assert workloads.close_candidate(cls, idx, fsz + 1, T, [])


def test_decode_check_fails_a_wrong_prime():
    g = orbit_search.decode_config(4, 123_456, T)
    assert workloads.check_decode(g, T.kernel) == []
    primes = (g.primes[0] + 1,) + g.primes[1:]
    assert workloads.check_decode(dataclasses.replace(g, primes=primes), T.kernel)


def test_failed_operation_is_counted_and_the_pass_goes_on():
    ops = workloads.Ops()
    ops.run("boom", lambda: 1 // 0)
    ops.run("fine", lambda: [])
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "ZeroDivisionError" in ops.failures[0]["reasons"][0]


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()
    a = tr.open("a")
    b = tr.open("b")
    tr.close(tr.open("c"))
    tr.close(b)
    tr.close(a)
    st = tr.self_times()
    assert {k: v[0] for k, v in st.items()} == {"a": 1, "b": 1, "c": 1}
    total = tr.end[a] - tr.start[a]
    assert sum(v[1] for v in st.values()) == pytest.approx(total, abs=1e-12)
    assert tr.parent == [-1, a, b]


def test_calibrator_slices_at_most_every_interval():
    cal = calibrate.Calibrator()
    cal.between()
    cal.between()
    assert len(cal.samples) == 1
    cal.slice()
    assert cal.scale() == pytest.approx(calibrate.REF_S * 2 / sum(cal.samples))


def run_worker(req):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_pass_counts_repeat_exactly(tmp_path):
    pairs = [p for p in inputs.make_inputs("decode", 1)["pairs"] if p[2] == 0][:12]
    req = {"workload": "decode", "inputs": {"pairs": pairs}}
    counts = []
    for k in range(2):
        out = tmp_path / f"spans{k}.npz"
        res = run_worker(dict(req, trace_out=str(out)))
        assert (res["attempted"], res["failed"]) == (len(pairs), 0)
        assert out.is_file()
        layers = res["layers"]
        assert layers["orbit_search.decode_config.calls"] == len(pairs)
        counts.append({n: v for n, v in layers.items() if not n.endswith(".s")})
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# entry point


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_manifest_lists_every_layer_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert units.pop("trace.overhead_s") == "s"
    assert set(units) == set(spans.layer_metrics(spans.Tracer(), 0))
    assert all(run.layer_unit(name) == unit for name, unit in units.items())
