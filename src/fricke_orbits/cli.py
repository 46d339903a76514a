"""Command line front end with reproducible outputs.

Subcommands wire the library together: `search` runs the full
enumeration and prints the orbit table with its configuration counters,
`verify` compares a run against the embedded reference table (or an
external JSON golden file), `graph` emits DOT or statistics for one
orbit, and `cosine`, `theta`, `cayley`, `bt` expose the corresponding
module operations.  `bench` prints the run record of a search at one
thread and, when FRICKE_THREADS (else the CPU count) is more, at that.

Output rules: what every other subcommand writes to stdout (or --out)
depends only on the inputs, never on thread count or timing, so repeated
runs are byte identical; diagnostics and the run record of `search` and
`verify` (see _run_record) go to stderr.  JSON values that are not
rational are emitted as canonical cosine-ring strings together with a
float convenience field.  Exit codes: 0 success, 2 bad input or
verification mismatch (also argparse usage errors), 3 internal cap or
consistency failure; never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cosine_sums import enumerate_vanishing
from .fricke_action import Omega, all_equivalences
from .golden import GOLDEN_ROWS, GoldenRow, golden_row
from .orbit_graphs import angle_label, build_graph, export_dot, graph_stats, point_labels
from .orbit_search import (
    EPS,
    CapError,
    ConsistencyError,
    OrbitRecord,
    SearchResult,
    _threads_from_env,
    cayley_orbit,
    check_search_args,
    close_orbit,
    full_search,
    golden_assignment,
)
from .parameter_maps import (
    BT_NAMES,
    BT_SOLUTION_METADATA,
    Theta,
    apply_bt,
    bt_omega,
    d4_related,
    make_theta,
    omega_from_theta,
    theta_candidates_for_omega,
)
from .trig_field import (
    CosSum,
    _fold,
    cos_value,
    cossum_from_str,
    cossum_to_str,
    from_rational,
)


def value_obj(v: CosSum) -> Dict[str, object]:
    return {"ring": cossum_to_str(v), "float": v.float_value()}


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    threads: Optional[int] = None
    eps: float = EPS
    fmt: str = "text"
    out: Optional[str] = None

    def validate(self) -> None:
        check_search_args(self.threads, self.eps)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_search(cfg: RunConfig, result: Optional[SearchResult]) -> SearchResult:
    """The search result (run now unless given); ConsistencyError when the
    scan hit a cap or a candidate failed to close."""

    if result is None:
        result = full_search(threads=cfg.threads, eps=cfg.eps)
    if result.cap_hits or result.junk:
        raise ConsistencyError(
            f"search hit a cap or junk: capHits={result.cap_hits} junk={result.junk}")
    return result


# ---------------------------------------------------------------------------
# search rendering


def _counter_items(result: SearchResult) -> List[Tuple[str, int]]:
    items = [(f"class{c}", result.processed[c]) for c in sorted(result.processed)]
    items += [
        ("cayleySkips", result.cayley_skips),
        ("capHits", result.cap_hits),
        ("survivors", result.survivors),
        ("candidates", result.candidates),
        ("junk", result.junk),
    ]
    items += [(f"family{k}", v) for k, v in sorted(result.family_hits.items())]
    return items


def _run_record(result: SearchResult) -> str:
    """One JSON line of orbits, threads, total and phase seconds, counters."""
    return json.dumps({
        "orbits": len(result.records),
        "threads": result.threads,
        "elapsed": round(result.elapsed, 4),
        "timings": {k: round(v, 4) for k, v in result.timings.items()},
        "counters": dict(_counter_items(result)),
    }, sort_keys=True)


def _orbit_fields(rec: OrbitRecord) -> Dict[str, object]:
    w = rec.omega
    four = from_rational(4) - w.w4
    return {
        "size": rec.size,
        "omega": [value_obj(w.wx), value_obj(w.wy), value_obj(w.wz)],
        "fourMinusOmega4": value_obj(four),
        "rep": [angle_label(c) for c in rec.points[0]],
    }


def render_search(result: SearchResult, fmt: str = "text") -> str:
    """Deterministic orbit table plus counters; no timing, no thread count.

    Every orbit full_search reports has passed verify_record, so the table
    always reads verified.
    """

    if fmt == "json":
        payload = {
            "meta": {
                "backend": result.backend,
                "eps": result.eps,
                "orbits": len(result.records),
                "verified": True,
            },
            "counters": dict(_counter_items(result)),
            "orbits": [
                dict(index=i + 1, **_orbit_fields(rec))
                for i, rec in enumerate(result.records)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["index,size,wX,wY,wZ,fourMinusW4,repX,repY,repZ"]
        for i, rec in enumerate(result.records):
            f = _orbit_fields(rec)
            wx, wy, wz = (v["ring"] for v in f["omega"])
            rep = ",".join(f["rep"])
            lines.append(
                f"{i + 1},{f['size']},{wx},{wy},{wz},{f['fourMinusOmega4']['ring']},{rep}"
            )
        lines += [f"#{k},{v}" for k, v in _counter_items(result)]
        lines.append("#verified,yes")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unsupported search format {fmt!r}")
    lines = [
        f"# exceptional finite orbits: {len(result.records)}",
        f"# backend={result.backend} eps={result.eps:g} verified=yes",
        "# " + " ".join(f"{k}={v}" for k, v in _counter_items(result)),
    ]
    for i, rec in enumerate(result.records):
        f = _orbit_fields(rec)
        wx, wy, wz = (v["ring"] for v in f["omega"])
        rep = ", ".join(f["rep"])
        lines.append(
            f"{i + 1:3d} {f['size']:3d}  wX={wx} wY={wy} wZ={wz}  "
            f"4-w4={f['fourMinusOmega4']['ring']}  rep=({rep})"
        )
    return "\n".join(lines) + "\n"


def cmd_search(cfg: RunConfig, result: Optional[SearchResult] = None) -> int:
    cfg.validate()
    result = _run_search(cfg, result)
    _emit(render_search(result, cfg.fmt), cfg.out)
    print(_run_record(result), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify against golden data


def golden_to_json() -> str:
    """The embedded reference table in the external golden-file format."""

    rows = []
    for r in GOLDEN_ROWS:
        rows.append(
            {
                "index": r.idx,
                "size": r.size,
                "omega": [cossum_to_str(c) for c in r.omega],
                "fourMinusOmega4": cossum_to_str(r.four_minus_omega4),
                "repAngles": [str(a) for a in r.rep_angles],
                "theta": [str(q) for q in r.theta],
            }
        )
    return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"


def load_golden(path: str) -> List[GoldenRow]:
    """The rows of a golden JSON file, in the format golden_to_json writes.

    Malformed content raises ValueError naming the file, and the row and
    field at fault.
    """

    def field(r, key, parse, n=None):
        # parse(r[key]), or a tuple of parse over r[key], a list of n
        v = r[key]
        try:
            if n is None:
                return parse(v)
            if not isinstance(v, list) or len(v) != n:
                raise ValueError(f"not a list of {n}")
            return tuple(parse(x) for x in v)
        except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"field {key!r}: {exc}") from exc

    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"golden file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(f'golden file {path}: expected an object with a "rows" list')
    rows = []
    for pos, r in enumerate(data["rows"], 1):
        try:
            rows.append(GoldenRow(
                idx=field(r, "index", int),
                size=field(r, "size", int),
                omega=field(r, "omega", cossum_from_str, 3),
                four_minus_omega4=field(r, "fourMinusOmega4", cossum_from_str),
                rep_angles=field(r, "repAngles", Fraction, 3),
                theta=field(r, "theta", Fraction, 4) if "theta" in r else None,
            ))
        except KeyError as exc:
            raise ValueError(f"golden file {path}: row {pos} lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"golden file {path}: row {pos}: {exc}") from exc
    return rows


def cmd_verify(
    cfg: RunConfig,
    golden_path: Optional[str] = None,
    result: Optional[SearchResult] = None,
) -> int:
    cfg.validate()
    rows = load_golden(golden_path) if golden_path else list(GOLDEN_ROWS)
    result = _run_search(cfg, result)
    print(_run_record(result), file=sys.stderr)
    _, diffs = golden_assignment(result.records, rows)
    if diffs:
        _emit("".join(d + "\n" for d in diffs), cfg.out)
        print(f"verify: {len(diffs)} difference(s)", file=sys.stderr)
        return 2
    _emit(f"verified: {len(result.records)} orbits match all {len(rows)} rows\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# per-orbit graph


def _record_for_row(orbit_id: int) -> OrbitRecord:
    """Close the orbit from the reference row's own representative.

    Rebuilding from the published point and parameters keeps the
    coordinate roles of the reference table, whereas the search may
    return any of the 24 equivalent forms.
    """

    row = golden_row(orbit_id)
    w = Omega(*row.omega, row.omega4)
    seed = tuple(cos_value(a) for a in row.rep_angles)
    rec = close_orbit(seed, w)
    if rec is None or rec.size != row.size:
        raise CapError(f"orbit {orbit_id} failed to close to its reference size")
    return rec


def cmd_graph(cfg: RunConfig, orbit_id: int) -> int:
    rec = _record_for_row(orbit_id)
    g = build_graph(rec)
    if cfg.fmt == "json":
        _emit(json.dumps(graph_stats(g), indent=2, sort_keys=True) + "\n", cfg.out)
    else:
        _emit(export_dot(g, point_labels(rec.points)), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# wrapped module operations


def cmd_cosine(cfg: RunConfig, n: int, dens: Optional[int], max_den: Optional[int]) -> int:
    if (dens is None) == (max_den is None):
        raise ValueError("exactly one of --dens / --max-den is required")
    if dens is not None:
        spec = [d for d in range(1, dens + 1) if dens % d == 0]
    else:
        spec = max_den
    tuples = enumerate_vanishing(n, spec)
    payload = [
        {
            "phis": [str(q) for q in t.phis],
            "family": t.family,
            "irreducible": t.irreducible,
        }
        for t in tuples
    ]
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_cayley(cfg: RunConfig, ry: Fraction, rz: Fraction) -> int:
    rec = cayley_orbit(ry, rz)
    payload = {
        "ry": str(ry),
        "rz": str(rz),
        "size": rec.size,
        "points": [[value_obj(c) for c in p] for p in rec.points],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def _published_related(cands: Sequence[Theta], row: GoldenRow, w: Omega) -> bool:
    """Does the row's published theta belong to this candidate family?

    The published tuple may map to a permuted or sign-flipped variant of
    the row's parameter triple; realize each of the 24 equivalences on the
    first three angles, a sign -1 mapping angle a to 1 - a, and compare
    against a candidate once the parameters agree exactly.
    """

    if row.theta is None or not cands:
        return False
    pub = make_theta(*row.theta)
    a = [_fold(q) for q in (pub.tx, pub.ty, pub.tz)]
    ainf = _fold(pub.tinf)
    for perm, signs in all_equivalences():
        coords = [a[perm[i]] if signs[i] > 0 else 1 - a[perm[i]] for i in range(3)]
        cand = Theta(coords[0], coords[1], coords[2], ainf)
        cw = omega_from_theta(cand)
        if cw == w:
            if cand in cands or d4_related(cand, cands[0]):
                return True
    return False


def cmd_theta(cfg: RunConfig, orbit_id: int, max_den: int) -> int:
    row = golden_row(orbit_id)
    w = Omega(*row.omega, row.omega4)
    cands = theta_candidates_for_omega(w, max_den)
    payload = {
        "orbit": orbit_id,
        "maxDen": max_den,
        "candidates": [[str(q) for q in t] for t in cands],
        "publishedTheta": [str(q) for q in row.theta],
        "solutionId": orbit_id if _published_related(cands, row, w) else None,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_bt(cfg: RunConfig, name: str, theta: Sequence[Fraction]) -> int:
    if len(theta) != 4:
        raise ValueError("theta must be four comma-separated rationals")
    t = make_theta(*theta)
    u = apply_bt(name, t)
    w = omega_from_theta(t)
    payload = {
        "name": name,
        "metadata": dict(zip(("w", "t"), BT_SOLUTION_METADATA[name])),
        "theta": [str(q) for q in t],
        "result": [str(q) for q in u],
        "omega": [value_obj(c) for c in w],
        "omegaAfter": [value_obj(c) for c in bt_omega(name, w)],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# pipeline benchmark


def cmd_bench(cfg: RunConfig) -> int:
    cfg.validate()
    records = [
        _run_record(_run_search(RunConfig(threads=n, eps=cfg.eps), None))
        for n in sorted({1, _threads_from_env()})
    ]
    _emit("".join(r + "\n" for r in records), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _rational(text: str) -> Fraction:
    """argparse type of a rational such as 1/3; anything else, a zero
    denominator included, is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _count(text: str) -> int:
    """argparse type of a count: a positive integer, else a usage error."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _rationals(text: str) -> List[Fraction]:
    return [_rational(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, each with only the common flags it reads."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, default=EPS,
                     help="float matching tolerance (default %(default)g)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: FRICKE_THREADS or CPU count)")

    ap = argparse.ArgumentParser(
        prog="fricke-orbits",
        description="exact finite-orbit enumeration on the Fricke surface",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", parents=[run, eps, out], help="run the full enumeration")
    s.add_argument("--format", dest="fmt", default="text", choices=("text", "json", "csv"),
                   help="output format")

    v = sub.add_parser("verify", parents=[run, eps, out],
                       help="compare a run against the reference table")
    v.add_argument("--golden", default=None, help="external golden JSON file")
    v.add_argument("--dump-golden", action="store_true",
                   help="print the embedded golden table as JSON and exit")

    g = sub.add_parser("graph", parents=[out], help="DOT or stats for one orbit")
    g.add_argument("orbit", type=int, help="orbit id (1-45, reference table order)")
    g.add_argument("--format", dest="fmt", default="dot", choices=("dot", "json"),
                   help="output format")

    c = sub.add_parser("cosine", parents=[out], help="vanishing cosine sums")
    c.add_argument("--n", type=int, required=True, help="tuple length (2-6)")
    c.add_argument("--dens", type=_count, default=None,
                   help="use all divisors of this number as denominators")
    c.add_argument("--max-den", type=_count, default=None,
                   help="use all denominators up to this bound")

    t = sub.add_parser("theta", parents=[out], help="recover theta for an orbit")
    t.add_argument("--orbit", type=int, required=True)
    t.add_argument("--max-den", type=_count, default=30)

    y = sub.add_parser("cayley", parents=[out], help="orbit on the vanishing-parameter surface")
    y.add_argument("--ry", type=_rational, required=True, help="rational angle, e.g. 1/3")
    y.add_argument("--rz", type=_rational, required=True, help="rational angle, e.g. 1/3")

    b = sub.add_parser("bt", parents=[out], help="apply one transformation to theta")
    b.add_argument("--name", required=True, choices=BT_NAMES)
    b.add_argument("--theta", type=_rationals, required=True,
                   help="four comma-separated rationals")

    sub.add_parser("bench", parents=[eps, out],
                   help="run records of the search at 1 thread and at FRICKE_THREADS")

    return ap


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags the subcommand took; defaults for the rest."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "search":
            return cmd_search(_config_from(args))
        if args.command == "verify":
            cfg = _config_from(args)
            if args.dump_golden:
                _emit(golden_to_json(), cfg.out)
                return 0
            return cmd_verify(cfg, args.golden)
        if args.command == "graph":
            return cmd_graph(_config_from(args), args.orbit)
        if args.command == "cosine":
            return cmd_cosine(_config_from(args), args.n, args.dens, args.max_den)
        if args.command == "theta":
            return cmd_theta(_config_from(args), args.orbit, args.max_den)
        if args.command == "cayley":
            return cmd_cayley(_config_from(args), args.ry, args.rz)
        if args.command == "bt":
            return cmd_bt(_config_from(args), args.name, args.theta)
        if args.command == "bench":
            return cmd_bench(_config_from(args))
        raise ValueError(f"unknown command {args.command!r}")
    except ConsistencyError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
