import functools
import importlib
import json
import pkgutil

from dataclasses import replace
from fractions import Fraction

import pytest

import fricke_orbits
from fricke_orbits import _kernels, cosine_sums, golden, orbit_search
from fricke_orbits.cli import (
    RunConfig,
    cmd_search,
    cmd_verify,
    cossum_from_str,
    cossum_to_str,
    golden_to_json,
    load_golden,
    main,
    render_search,
    value_obj,
)
from fricke_orbits.golden import GOLDEN_ROWS
from fricke_orbits.trig_field import cos_value, from_rational


# ---------------------------------------------------------------------------
# ring string codec


CODEC_SAMPLES = [
    cos_value(1, 5) - from_rational(1),
    from_rational(Fraction(-7, 3)),
    cos_value(1, 5) + cos_value(2, 7) * Fraction(3, 2) - from_rational(Fraction(1, 2)),
    from_rational(0),
    cos_value(1, 12) * -1,
    cos_value(2, 3) + cos_value(1, 3),
    cos_value(3, 8) * Fraction(-5, 4) + from_rational(2),
]


@pytest.mark.parametrize("v", CODEC_SAMPLES, ids=range(len(CODEC_SAMPLES)))
def test_codec_round_trip(v):
    s = cossum_to_str(v)
    assert (cossum_from_str(s) - v).is_zero()


def test_codec_documented_form():
    assert cossum_to_str(cos_value(1, 5) - from_rational(1)) == "2cos(pi*1/5)-1"


def test_codec_folds_angles_into_half_range():
    # 2cos(pi*2/3) = -1, 2cos(pi*1/1) = -2, 2cos(pi*1/2) = 0
    assert cossum_to_str(cos_value(2, 3) * -1) == "1"
    assert cossum_to_str(cos_value(1, 1)) == "-2"
    assert cossum_to_str(cos_value(1, 2) + from_rational(3)) == "3"
    assert cossum_to_str(cos_value(2, 3) + cos_value(1, 3)) == "0"
    assert cossum_to_str(cos_value(1, 3) + cos_value(1, 7)) == "2cos(pi*1/7)+1"


def test_codec_parses_spaces_and_signs():
    v = cossum_from_str(" -2cos(pi*1/5) + 3/2 ")
    assert (v - (cos_value(1, 5) * -1 + from_rational(Fraction(3, 2)))).is_zero()
    with pytest.raises(ValueError):
        cossum_from_str("")
    with pytest.raises(ValueError):
        cossum_from_str("2cos(pi*x/5)")
    with pytest.raises(ValueError, match="1/0"):
        cossum_from_str("2cos(pi*1/5)+1/0")


def test_value_obj_fields():
    obj = value_obj(cos_value(1, 5))
    assert set(obj) == {"ring", "float"}
    assert obj["ring"] == "2cos(pi*1/5)"
    assert obj["float"] == pytest.approx(1.6180339887, abs=1e-9)


# ---------------------------------------------------------------------------
# configuration


def test_runconfig_rejects_wide_eps():
    with pytest.raises(ValueError):
        RunConfig(eps=0.5).validate()
    with pytest.raises(ValueError):
        RunConfig(eps=0.0).validate()
    with pytest.raises(ValueError):
        RunConfig(threads=0).validate()
    RunConfig(eps=1e-8, threads=2).validate()


def test_main_maps_config_error_to_exit_2(capsys):
    assert main(["search", "--eps", "0.5"]) == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [
    ("FRICKE_THREADS", "abc"),
    ("FRICKE_THREADS", "0"),
    ("FRICKE_THREADS", "-3"),
])
def test_main_maps_malformed_environment_to_exit_2(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert main(["search"]) == 2
    captured = capsys.readouterr()
    assert name in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_main_rejects_backend_flag_as_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--backend", "numba"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--backend" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["search", "--format", "dot"],
    ["graph", "1", "--format", "csv"],
], ids=["search-dot", "graph-csv"])
def test_main_rejects_unsupported_format_before_any_work(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the format was checked")

    monkeypatch.setattr("fricke_orbits.cli.full_search", no_work)
    monkeypatch.setattr("fricke_orbits.cli.close_orbit", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err and "Traceback" not in err


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_main_maps_input_errors_to_exit_2(tmp_path, capsys):
    assert main(["graph", "99"]) == 2
    assert "1..45" in capsys.readouterr().err
    assert main(["verify", "--golden", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err
    assert main(["graph", "1", "--out", str(tmp_path / "no" / "dir" / "g.dot")]) == 2


@pytest.mark.parametrize("argv", [
    ["cayley", "--ry", "1/0", "--rz", "1/3"],
    ["bt", "--name", "s_x", "--theta", "1/0,1,1,1"],
], ids=["cayley", "bt"])
def test_main_rejects_a_zero_denominator_as_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "1/0" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (["cosine", "--n", "4", "--dens", "0"], "0"),
    (["cosine", "--n", "4", "--max-den", "-3"], "-3"),
    (["theta", "--orbit", "1", "--max-den", "0"], "0"),
    (["theta", "--orbit", "1", "--max-den", "x"], "x"),
], ids=["dens-zero", "cosine-max-den-negative", "theta-max-den-zero",
        "theta-max-den-not-a-number"])
def test_main_rejects_a_non_positive_count_as_usage_error(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"not a positive integer: {text!r}" in err and "Traceback" not in err


def _omega_of_zero_denominator():
    data = json.loads(golden_to_json())
    data["rows"][0]["omega"][0] = "1/0"
    return json.dumps(data)


@pytest.mark.parametrize("content, names", [
    ('{"rows":[{"index":1}]}', ["row 1", "size"]),
    ("[1,2]", ["rows"]),
    (_omega_of_zero_denominator(), ["row 1", "1/0"]),
], ids=["missing-field", "not-an-object", "zero-denominator"])
def test_main_maps_a_malformed_golden_file_to_exit_2(tmp_path, capsys, content, names):
    path = tmp_path / "golden.json"
    path.write_text(content)
    assert main(["verify", "--golden", str(path)]) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err and "Traceback" not in captured.err
    assert all(name in captured.err for name in names)
    assert captured.out == ""


def _first_blocks_only(monkeypatch):
    # full_search over the first 2^17 seeds of each class, which hold 11 of
    # the 45 orbits: a quarter of a second instead of a full scan
    size = _kernels.class_size
    monkeypatch.setattr(_kernels, "class_size", lambda cls, t: min(size(cls, t), 1 << 17))


def _assert_internal_failure(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "internal failure" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["search", "verify"])
def test_main_maps_a_rejected_orbit_to_exit_3(monkeypatch, capsys, command):
    # verify_record raises ValueError; inside a search that is an internal
    # inconsistency, not bad input
    _first_blocks_only(monkeypatch)

    def reject(rec):
        raise ValueError("edge x at point 0 mismatches the table")

    monkeypatch.setattr(orbit_search, "verify_record", reject)
    _assert_internal_failure(capsys, [command, "--threads", "1"])


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("counter", ["cap_hits", "junk"])
def test_main_maps_cap_hits_and_junk_to_exit_3(monkeypatch, capsys, search_result,
                                               command, counter):
    tainted = replace(search_result, **{counter: 1})
    monkeypatch.setattr("fricke_orbits.cli.full_search", lambda **kwargs: tainted)
    _assert_internal_failure(capsys, [command, "--threads", "1"])


def test_main_maps_a_survivor_of_a_closed_orbit_at_another_size_to_exit_3(
        monkeypatch, capsys):
    # a survivor lying in an orbit that is already closed is checked against
    # that orbit's exact size: the scan reports one point more for the first
    # survivor of size > 4 that is not the source of a record
    _first_blocks_only(monkeypatch)
    sources = {rec.source for rec in orbit_search.full_search(threads=1).records}
    kt = orbit_search.get_search_tables().kernel
    scan = _kernels.scan_chunk
    target = next((cls, i) for cls in (1, 2, 3, 4)
                  for i, s in zip(*scan(cls, 0, 1 << 17, kt, orbit_search.EPS, "numpy")[:2])
                  if s > 4 and (cls, i) not in sources)

    def one_point_more(cls, *args):
        idxs, sizes, *rest = scan(cls, *args)
        return (idxs, [s + ((cls, i) == target) for i, s in zip(idxs, sizes)], *rest)

    monkeypatch.setattr(_kernels, "scan_chunk", one_point_more)
    assert main(["search", "--threads", "1"]) == 3
    captured = capsys.readouterr()
    assert "internal failure" in captured.err and "lies in a closed orbit" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_main_maps_an_exact_closure_of_another_size_to_exit_3(monkeypatch, capsys):
    # the exact closure of a candidate must have its float closure's size
    _first_blocks_only(monkeypatch)
    close = orbit_search.close_orbit

    def one_point_fewer(*args, **kwargs):
        rec = close(*args, **kwargs)
        return None if rec is None else replace(rec, points=rec.points[:-1])

    monkeypatch.setattr(orbit_search, "close_orbit", one_point_fewer)
    assert main(["search", "--threads", "1"]) == 3
    captured = capsys.readouterr()
    # raised by the size check, before verify_record sees the short record
    assert "exact closure disagrees with the float closure: class " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_main_maps_an_exhausted_cosine_budget_to_exit_2(monkeypatch, capsys):
    # with the default budget, --n 6 --max-den 30 runs out after seconds
    monkeypatch.setattr("fricke_orbits.cli.enumerate_vanishing",
                        functools.partial(cosine_sums.enumerate_vanishing, budget=1000))
    assert main(["cosine", "--n", "6", "--max-den", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: more than 1000 candidates\n"
    assert captured.out == ""


def _package_exceptions():
    """Every exception class a fricke_orbits module defines."""
    out = {}
    for info in pkgutil.iter_modules(fricke_orbits.__path__):
        module = importlib.import_module(f"fricke_orbits.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def test_every_package_exception_maps_to_an_exit_code():
    # main turns ValueError and OSError into exit 2 and ConsistencyError
    # into exit 3; any other exception escapes as a traceback
    found = _package_exceptions()
    assert {"orbit_search.ConsistencyError", "orbit_search.CapError",
            "sl2_monodromy.ReducibleLocus"} <= set(found)
    unmapped = [name for name, cls in found.items()
                if not issubclass(cls, (ValueError, OSError, orbit_search.ConsistencyError))]
    assert unmapped == []


# ---------------------------------------------------------------------------
# cheap subcommands end to end


def test_cosine_divisor_semantics(capsys):
    assert main(["cosine", "--n", "4", "--dens", "60"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert {"phis", "family", "irreducible"} <= set(rows[0])
    assert ["0", "1/5", "1/3", "2/5"] in [r["phis"] for r in rows]


def test_cosine_bound_semantics(capsys):
    assert main(["cosine", "--n", "4", "--max-den", "60"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4


def test_cosine_requires_exactly_one_den_spec(capsys):
    assert main(["cosine", "--n", "4"]) == 2
    assert main(["cosine", "--n", "4", "--dens", "60", "--max-den", "60"]) == 2


def test_cayley_subcommand(capsys):
    assert main(["cayley", "--ry", "1/3", "--rz", "1/3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 4
    rings = {tuple(c["ring"] for c in p) for p in data["points"]}
    assert ("1", "1", "1") in rings
    assert ("-2", "1", "1") in rings


def test_bt_subcommand(capsys):
    assert main(["bt", "--name", "r_x", "--theta", "1/2,1/3,1/5,1/7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == ["-6/7", "1/5", "1/3", "3/2"]
    assert data["metadata"]["w"] == "t/w"
    assert len(data["omega"]) == 4 and len(data["omegaAfter"]) == 4


def test_bt_rejects_malformed_theta(capsys):
    assert main(["bt", "--name", "r_x", "--theta", "1/2,1/3"]) == 2


def test_theta_subcommand(capsys):
    assert main(["theta", "--orbit", "31", "--max-den", "12"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ["1/3", "1/3", "1/3", "1/3"] in data["candidates"]
    assert data["solutionId"] == 31
    assert data["publishedTheta"] == ["1/3", "1/3", "1/3", "1/3"]


def test_graph_subcommand_dot(capsys):
    assert main(["graph", "1"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph orbit {")
    assert dot.rstrip().endswith("}")
    # the worked 5-point orbit: 5 two-ended edge lines and 5 loop lines
    edges = [l for l in dot.splitlines() if " -- " in l]
    loops = [l for l in edges if l.split(" -- ")[0].strip() == l.split(" -- ")[1].split()[0]]
    assert len(edges) == 10 and len(loops) == 5
    assert '0 [label="(2/3, 1/3, 1/3)"]' in dot


def test_graph_subcommand_stats(capsys):
    assert main(["graph", "1", "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats == {
        "badPoints": 1,
        "cycles": 1,
        "lambdaOrbits": 1,
        "selfLoops": {"x": 3, "y": 1, "z": 1},
    }


def test_graph_out_flag(tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["graph", "8", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("graph orbit {")


# ---------------------------------------------------------------------------
# golden table plumbing


def test_golden_json_round_trip(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(golden_to_json())
    rows = load_golden(str(path))
    assert len(rows) == len(GOLDEN_ROWS) == 45
    for parsed, ref in zip(rows, GOLDEN_ROWS):
        assert parsed.idx == ref.idx and parsed.size == ref.size
        assert all((a - b).is_zero() for a, b in zip(parsed.omega, ref.omega))
        assert (parsed.four_minus_omega4 - ref.four_minus_omega4).is_zero()
        assert parsed.rep_angles == ref.rep_angles
        assert parsed.theta == ref.theta


def test_load_golden_theta_optional(tmp_path):
    data = json.loads(golden_to_json())
    for row in data["rows"]:
        del row["theta"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(data))
    rows = load_golden(str(path))
    assert all(r.theta is None for r in rows)


def test_dump_golden(capsys):
    assert main(["verify", "--dump-golden"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 45
    assert data["rows"][0]["omega"] == ["0", "1", "1"]


# ---------------------------------------------------------------------------
# search/verify rendering on the shared full run


def test_render_search_text(search_result):
    text = render_search(search_result, "text")
    lines = text.splitlines()
    assert lines[0] == "# exceptional finite orbits: 45"
    assert "verified=yes" in lines[1]
    assert "class1=48618911" in lines[2] and "class4=8197910" in lines[2]
    assert len(lines) == 3 + 45
    assert "elapsed" not in text and "threads" not in text


def test_render_search_json(search_result):
    data = json.loads(render_search(search_result, "json"))
    assert data["meta"]["orbits"] == 45 and data["meta"]["verified"] is True
    counters = data["counters"]
    assert counters["class1"] == 48618911
    assert counters["class2"] == 6213878
    assert counters["class3"] == 54671104
    assert counters["class4"] == 8197910
    assert counters["junk"] == 0 and counters["capHits"] == 0
    sizes = sorted(o["size"] for o in data["orbits"])
    assert sizes[0] == 5 and sizes[-1] == 72
    first = data["orbits"][0]
    assert {"index", "size", "omega", "fourMinusOmega4", "rep"} <= set(first)
    assert set(first["omega"][0]) == {"ring", "float"}


def test_render_search_csv(search_result):
    lines = render_search(search_result, "csv").splitlines()
    assert lines[0] == "index,size,wX,wY,wZ,fourMinusW4,repX,repY,repZ"
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 46
    assert any(l.startswith("#class1,48618911") for l in lines)
    assert "#verified,yes" in lines


def test_render_search_deterministic(search_result):
    a = render_search(search_result, "json")
    b = render_search(search_result, "json")
    assert a == b


def test_cmd_search_with_result(search_result, capsys):
    assert cmd_search(RunConfig(fmt="text"), result=search_result) == 0
    out = capsys.readouterr().out
    assert out == render_search(search_result, "text")


def test_cmd_verify_embedded(search_result, capsys):
    assert cmd_verify(RunConfig(), result=search_result) == 0
    assert "verified: 45 orbits" in capsys.readouterr().out


def test_cmd_verify_size_tamper(search_result, tmp_path, capsys):
    data = json.loads(golden_to_json())
    data["rows"][0]["size"] = 6
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = cmd_verify(RunConfig(), golden_path=str(path), result=search_result)
    out = capsys.readouterr().out
    assert rc == 2
    assert out.splitlines() == ["row 1: no computed orbit matches"]


def test_cmd_verify_sign_flip_equivalent(search_result, tmp_path, capsys):
    # negating two parameters and the matching point coordinates is one
    # of the 24 equivalences; the flipped row must still verify
    data = json.loads(golden_to_json())
    assert data["rows"][0]["omega"] == ["0", "1", "1"]
    assert data["rows"][0]["repAngles"] == ["2/3", "1/3", "1/3"]
    data["rows"][0]["omega"] = ["0", "-1", "-1"]
    data["rows"][0]["repAngles"] = ["2/3", "2/3", "2/3"]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(data))
    rc = cmd_verify(RunConfig(), golden_path=str(path), result=search_result)
    capsys.readouterr()
    assert rc == 0


def _bijection_case(kind, records):
    rows = list(GOLDEN_ROWS)
    if kind == "bijection":
        return records[:3], rows[:3]
    if kind == "record-matches-no-row":
        return records[:3] + [orbit_search.cayley_orbit(Fraction(1, 3), Fraction(1, 5))], rows[:3]
    if kind == "record-matches-two-rows":
        return records[:1], [rows[0], replace(rows[0], idx=99)]
    if kind == "row-matched-twice":
        return [records[0], records[0]], rows[:1]
    assert kind == "row-missing"
    return records[:2], rows[:3]


@pytest.mark.parametrize("kind, ok", [
    ("bijection", True),
    ("record-matches-no-row", False),
    ("record-matches-two-rows", False),
    ("row-matched-twice", False),
    ("row-missing", False),
])
def test_golden_match_and_verify_records_agree(monkeypatch, golden_records, kind, ok):
    records, rows = _bijection_case(kind, golden_records)
    monkeypatch.setattr(golden, "GOLDEN_ROWS", rows)

    def matches(complete):
        try:
            orbit_search.golden_match(records, complete=complete)
        except ValueError:
            return False
        return True

    used, diffs = orbit_search.golden_assignment(records, rows)
    assert (diffs == []) == ok == matches(True)
    # complete=False forgives only rows that no record matches
    assert matches(False) == (ok or kind == "row-missing")
    if ok:
        assert used == {0: 1, 1: 2, 2: 3}
        assert orbit_search.golden_match(records) == [1, 2, 3]
    if kind == "row-matched-twice":
        # record positions count from 1, as in "computed orbit N" lines
        assert diffs == ["row 1: ambiguous matches [1, 2]"]


def test_verify_records_reports_excess_orbit(search_result):
    _, diffs = orbit_search.golden_assignment(search_result.records, list(GOLDEN_ROWS)[:-1])
    assert len(diffs) == 1
    assert diffs[0].startswith("computed orbit") and "matches no row" in diffs[0]


# ---------------------------------------------------------------------------
# run records: search and verify on stderr, bench on stdout

FROZEN_COUNTERS = {
    "class1": 48618911, "class2": 6213878, "class3": 54671104, "class4": 8197910,
    "cayleySkips": 522, "capHits": 0, "survivors": 87633, "candidates": 45, "junk": 0,
    "familyI": 77908, "familyII": 7983, "familyIII": 219, "familyIV": 452,
}
TIMING_KEYS = {"tables", "scan.class1", "scan.class2", "scan.class3", "scan.class4",
               "dedup", "close", "verify"}


def _stub_search(monkeypatch, search_result):
    monkeypatch.setattr("fricke_orbits.cli.full_search",
                        lambda threads, eps: replace(search_result, threads=threads))


def test_bench_subcommand(monkeypatch, capsys, search_result):
    _stub_search(monkeypatch, search_result)
    for env, counts in (("1", [1]), ("2", [1, 2])):
        monkeypatch.setenv("FRICKE_THREADS", env)
        assert main(["bench"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["threads"] for r in records] == counts
        for r in records:
            assert r["orbits"] == 45
            assert set(r["timings"]) == TIMING_KEYS
            assert r["counters"] == FROZEN_COUNTERS
        assert captured.err == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_writes_one_run_record_on_stderr(monkeypatch, capsys, search_result, fmt):
    _stub_search(monkeypatch, search_result)
    assert main(["search", "--threads", "1", "--format", fmt]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["threads"] == 1 and record["orbits"] == 45
    assert set(record["timings"]) == TIMING_KEYS
    assert record["counters"] == FROZEN_COUNTERS
    if fmt == "json":
        assert json.loads(captured.out)["counters"] == record["counters"]
    else:
        counters = captured.out.splitlines()[2][2:].split()
        assert record["counters"] == {k: int(v) for k, v in (c.split("=") for c in counters)}
    assert "timings" not in captured.out and "elapsed" not in captured.out


def test_verify_writes_its_run_record_before_differences(monkeypatch, capsys, search_result,
                                                         tmp_path):
    _stub_search(monkeypatch, search_result)
    data = json.loads(golden_to_json())
    data["rows"][0]["size"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--threads", "1", "--golden", str(path)]) == 2
    first, last = capsys.readouterr().err.splitlines()
    assert json.loads(first)["counters"] == FROZEN_COUNTERS
    assert last.startswith("verify: ") and last.endswith(" difference(s)")
