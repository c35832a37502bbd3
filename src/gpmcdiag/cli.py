"""Command-line front end: build topologies, inject faults, decode syndromes,
compute diagnosability parameters, and check the hypercube closed forms.

Structured output is the contract: every command emits a report shaped as
{"command", "config", "result", "stats", "version"} and a fixed RunConfig
(seeds included) produces byte-identical JSON and CSV across runs.
Wall-clock timings therefore appear only in the human table rendering, never
in structured output.  ``--jobs N`` is accepted and ignored, so existing
command lines still parse: every search runs in one process.

Exit codes: 0 success (all checks passed), 1 verification mismatch,
2 invalid input.

JSON is the stdlib's ``json.dumps(report, indent=2, sort_keys=True)``.  The
``inject`` report holds the ``Syndrome`` itself, and JSON, CSV and the table
write its rows straight from its columns (``_syndrome_pieces``); JSON splices
them into the dump of the rest of the report.

``main()`` may be called repeatedly in one process, as scripts and test
suites do: the argument parser is built on the first call and kept for the
process (``build_parser`` is cached).  argparse keeps no state between
parses and reads the terminal width only when it prints help or an error,
so every call parses and reports exactly as a fresh process would.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from pathlib import Path

from . import __version__
from .diagnosability import (
    analytic_upper_bounds,
    edge_restricted_diagnosability,
    min_degree,
    vertex_restricted_edge_diagnosability,
)
from .engine import DEFAULT_CANDIDATE_CAP, DiagnosisStatus, diagnose
from .errors import InputError
from .faults import Syndrome, generate_syndrome, make_fault_pair
from .graph import (
    Graph,
    _check_bound,
    build_named_topology,
    format_edge_list,
    girth,
    parse_edge_list,
    to_dot,
)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``main()`` call.

    Building it costs 10 parsers and 28 ``add_argument`` calls, each of which
    formats its arguments once, so a process that runs several commands
    builds it once.  Callers must not add to or change the parser.
    """
    parser = argparse.ArgumentParser(
        prog="gpmcdiag",
        description="Hybrid node/link fault diagnosis of interconnection networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("table", "json", "csv"), default="table",
                     help="output rendering (default: table)")
    out.add_argument("--output", metavar="PATH", default=None,
                     help="write the report to PATH instead of stdout")

    topo = argparse.ArgumentParser(add_help=False)
    topo.add_argument("--topology", metavar="KIND", default=None,
                      help="hypercube | path | cycle | complete | random")
    topo.add_argument("--n", type=int, default=None, help="topology size parameter")
    topo.add_argument("--p", type=float, default=None, help="edge probability for random")
    topo.add_argument("--topology-seed", type=int, default=None,
                      help="seed for the random topology")
    topo.add_argument("--edge-list", metavar="PATH", default=None,
                      help="read the graph from an edge-list file instead")

    faults = argparse.ArgumentParser(add_help=False)
    faults.add_argument("--faulty-vertices", default="",
                        help="comma-separated vertex ids, e.g. 0,5")
    faults.add_argument("--faulty-edges", default="",
                        help="comma-separated edges, e.g. 0-1,3-7")
    faults.add_argument("--random-faults", metavar="NV,NS", default=None,
                        help="draw NV faulty vertices and NS faulty edges with --seed")
    faults.add_argument("--adversary", choices=("all-pass", "all-fail", "random"),
                        default="all-pass", help="results of tests by faulty testers")
    faults.add_argument("--seed", type=int, default=None,
                        help="seed for random faults and the random adversary")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored; the search runs in one process")
    search.add_argument("--audit-full-enumeration", action="store_true", dest="audit",
                        help="disable symmetry shortcuts; sweep every seed vertex")

    p = sub.add_parser("topology", parents=[topo, out],
                       help="build a topology and print its structural summary")
    p.add_argument("--dot", metavar="PATH", default=None, help="export GraphViz source")
    p.add_argument("--edge-list-out", metavar="PATH", default=None,
                   help="export the edge-list text form")

    sub.add_parser("inject", parents=[topo, faults, out],
                   help="inject a fault pair and emit the generated syndrome")

    p = sub.add_parser("diagnose", parents=[topo, faults, out],
                       help="inject faults, generate a syndrome, and decode it")
    p.add_argument("--t", type=int, required=True, help="vertex fault bound")
    p.add_argument("--s", type=int, required=True, help="edge fault bound")
    p.add_argument("--candidate-cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                   help="max candidates listed when ambiguous (count stays exact)")

    p = sub.add_parser("diagnosability", parents=[topo, search, out],
                       help="compute a restricted diagnosability parameter")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edge-restricted", "--h", dest="h", type=int, metavar="H",
                       help="edge budget h; computes the largest workable t")
    group.add_argument("--vertex-restricted", "--r", dest="r", type=int, metavar="R",
                       help="vertex budget r; computes the largest workable s")

    p = sub.add_parser("verify-theorems", parents=[search, out],
                       help="check computed hypercube values against the closed forms")
    p.add_argument("--max-n", type=int, default=4,
                   help="largest hypercube dimension to check (default 4, cap 8)")
    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _write_file(path: str, text: str):
    """Write an output file; a path that cannot be written is invalid input."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _build_graph(args) -> tuple[Graph, dict]:
    sources = [args.topology is not None, args.edge_list is not None]
    if sum(sources) != 1:
        raise InputError("exactly one of --topology or --edge-list is required")
    params = {key: value for key, value in
              (("n", args.n), ("p", args.p), ("seed", args.topology_seed))
              if value is not None}
    if args.edge_list is not None:
        if params:
            raise InputError("--edge-list takes no --n, --p or --topology-seed")
        path = Path(args.edge_list)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InputError(f"cannot read edge list {path}: {exc.strerror or exc}") from None
        g = parse_edge_list(text, name=path.name)
        return g, {"edge_list": str(args.edge_list)}
    g = build_named_topology(args.topology, **params)
    return g, {"kind": args.topology, **params}


def _parse_vertices(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad vertex list {text!r}; expected e.g. 0,5") from None


def _parse_edges(text: str) -> list[tuple[int, int]]:
    if not text.strip():
        return []
    edges = []
    for part in text.split(","):
        bits = part.split("-")
        if len(bits) != 2:
            raise InputError(f"bad edge {part!r}; expected u-v")
        try:
            edges.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise InputError(f"bad edge {part!r}; expected integers u-v") from None
    return edges


def _build_fault_pair(g: Graph, args) -> tuple:
    fverts = _parse_vertices(args.faulty_vertices)
    fedges = _parse_edges(args.faulty_edges)
    spec: dict = {}
    if args.random_faults is not None:
        if fverts or fedges:
            raise InputError("--random-faults excludes explicit fault lists")
        if args.seed is None:
            raise InputError("--random-faults requires --seed")
        try:
            nv, ns = map(int, args.random_faults.split(","))
        except ValueError:
            raise InputError(f"--random-faults expects NV,NS, not {args.random_faults!r}") from None
        if nv < 0 or ns < 0:
            raise InputError("--random-faults counts must be non-negative")
        rng = random.Random(args.seed)
        if nv > g.vertex_count:
            raise InputError(f"cannot pick {nv} faulty vertices from {g.vertex_count}")
        fverts = sorted(rng.sample(range(g.vertex_count), nv))
        ends = g._ends
        faulty = set(fverts)
        # sample edge ids: rng.sample draws by position, so the pick is the
        # one it makes from the list of edges avoiding fverts
        candidates = [k for k in range(len(ends) // 2)
                      if ends[2 * k] not in faulty and ends[2 * k + 1] not in faulty]
        if ns > len(candidates):
            raise InputError(f"cannot pick {ns} faulty edges avoiding the faulty vertices")
        fedges = sorted((ends[2 * k], ends[2 * k + 1]) for k in rng.sample(candidates, ns))
        spec["random_faults"] = [nv, ns]
    spec["faulty_vertices"] = sorted(fverts)
    spec["faulty_edges"] = [sorted(e) for e in fedges]
    pair = make_fault_pair(g, fverts, fedges)
    return pair, spec


def _make_syndrome(pair, args):
    if args.adversary == "random" and args.seed is None:
        raise InputError("--adversary random requires --seed")
    return generate_syndrome(pair, args.adversary, seed=args.seed)


def _witness_record(witness):
    if witness is None:
        return None
    first, second = witness
    return {"first": first.to_record(), "second": second.to_record()}


def _report(command: str, config: dict, result: dict, stats: dict) -> dict:
    return {"command": command, "config": config, "result": result,
            "stats": stats, "version": SCHEMA_VERSION}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_topology(args):
    g, topo_cfg = _build_graph(args)
    gv = girth(g)
    result = {
        "name": g.name,
        "vertices": g.vertex_count,
        "edges": len(g._ends) // 2,
        "min_degree": min_degree(g) if g.vertex_count else None,
        "girth": None if gv == math.inf else gv,
    }
    if args.dot:
        _write_file(args.dot, to_dot(g))
    if args.edge_list_out:
        _write_file(args.edge_list_out, format_edge_list(g))
    return _report("topology", {"topology": topo_cfg}, result, {}), {}, 0


def cmd_inject(args):
    g, topo_cfg = _build_graph(args)
    pair, fault_cfg = _build_fault_pair(g, args)
    sig = _make_syndrome(pair, args)
    config = {"topology": topo_cfg, "faults": fault_cfg,
              "adversary": args.adversary, "seed": args.seed}
    result = {"pair": pair.to_record(), "syndrome": sig}
    return _report("inject", config, result, {}), {}, 0


def cmd_diagnose(args):
    g, topo_cfg = _build_graph(args)
    pair, fault_cfg = _build_fault_pair(g, args)
    # a bound's own error comes before the pair is compared with it
    _check_bound("bound t", args.t)
    _check_bound("bound s", args.s)
    if len(pair.faulty_vertices) > args.t or len(pair.faulty_edges) > args.s:
        raise InputError("injected pair exceeds the requested bounds")
    sig = _make_syndrome(pair, args)
    outcome = diagnose(g, sig, args.t, args.s, candidate_cap=args.candidate_cap)
    recovered = (outcome.status is DiagnosisStatus.UNIQUE
                 and outcome.candidates[0] == pair)
    config = {"topology": topo_cfg, "faults": fault_cfg,
              "adversary": args.adversary, "seed": args.seed,
              "bounds": {"t": args.t, "s": args.s}}
    result = {
        "status": outcome.status.value,
        "total_candidates": outcome.total_candidates,
        "candidates": [c.to_record() for c in outcome.candidates],
        "recovered": recovered,
        "true_pair": pair.to_record(),
    }
    return _report("diagnose", config, result, {}), {}, 0


def cmd_diagnosability(args):
    g, topo_cfg = _build_graph(args)
    if args.h is not None:
        report = edge_restricted_diagnosability(g, args.h, audit=args.audit)
        level_key = "h"
    else:
        report = vertex_restricted_edge_diagnosability(g, args.r, audit=args.audit)
        level_key = "r"
    delta = min_degree(g)
    bounds = None
    if report.kind == "edge-restricted" and args.h <= delta:
        ab = analytic_upper_bounds(g, args.h)
        bounds = {"t_h_bound": ab.t_h_bound, "s1_bound": ab.s1_bound}
    elif report.kind == "vertex-restricted-edge" and args.r == 1:
        ab = analytic_upper_bounds(g, 0)
        bounds = {"s1_bound": ab.s1_bound}
    config = {"topology": topo_cfg, level_key: report.level, "audit": args.audit}
    result = {
        "kind": report.kind,
        "level": report.level,
        "value": report.value,
        "witness": _witness_record(report.witness),
        "analytic_bounds": bounds,
        "outside_analyzed_range": report.outside_analyzed_range,
    }
    stats = dict(report.stats)
    extras = {"elapsed_seconds": report.elapsed_seconds}
    return _report("diagnosability", config, result, stats), extras, 0


#: Closed-form predictions checked by verify-theorems: the edge-restricted
#: value n - h for budgets 1..n, the classical value n at budget 0, and the
#: single-vertex edge diagnosability n - 2.
def _predicted_rows(n: int):
    yield ("edge-restricted", 0, n)
    for h in range(1, n + 1):
        yield ("edge-restricted", h, n - h)
    yield ("vertex-restricted-edge", 1, n - 2)


VERIFY_DIMENSION_CAP = 8


def cmd_verify_theorems(args):
    if not 2 <= args.max_n <= VERIFY_DIMENSION_CAP:
        raise InputError(f"--max-n must be in 2..{VERIFY_DIMENSION_CAP}")
    rows = []
    stats: dict = {}
    for n in range(2, args.max_n + 1):
        g = build_named_topology("hypercube", n=n)
        for kind, level, expected in _predicted_rows(n):
            if kind == "edge-restricted":
                rep = edge_restricted_diagnosability(g, level, audit=args.audit)
            else:
                rep = vertex_restricted_edge_diagnosability(g, level, audit=args.audit)
            rows.append({
                "n": n,
                "kind": kind,
                "level": level,
                "computed": rep.value,
                "expected": expected,
                "match": rep.value == expected,
            })
            for key, val in rep.stats.items():
                if isinstance(val, int):
                    stats[key] = stats.get(key, 0) + val
    all_match = all(row["match"] for row in rows)
    config = {"max_n": args.max_n, "audit": args.audit}
    result = {"rows": rows, "all_match": all_match}
    return _report("verify-theorems", config, result, stats), {}, 0 if all_match else 1


COMMANDS = {
    "topology": cmd_topology,
    "inject": cmd_inject,
    "diagnose": cmd_diagnose,
    "diagnosability": cmd_diagnosability,
    "verify-theorems": cmd_verify_theorems,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_json(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` plus a newline.

    An ``inject`` report holds a ``Syndrome``, which renders as its list of
    [tester, testee, outcome] rows: the report is dumped with an empty list
    in its place, and the rows, read from the syndrome's columns in one step
    (``_syndrome_pieces``), are spliced in at that key by one join.
    """
    sig = report["result"].get("syndrome") if report["command"] == "inject" else None
    if type(sig) is not Syndrome:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**report, "result": {**report["result"], "syndrome": []}},
                      indent=2, sort_keys=True) + "\n"
    # JSON escapes every '"' inside a string, so only the key itself matches
    head, _, tail = text.partition('"syndrome": []')
    newline = head[head.rindex("\n"):]
    inner = newline + "  "
    slot = inner + "  "
    sep = inner + "]," + inner + "[" + slot
    pieces = _syndrome_pieces(sig, sep, "," + slot, "," + slot)
    if not pieces:
        return text
    # the first row opens the list, where the others close a row
    pieces[0] = head + '"syndrome": [' + inner + "[" + slot + pieces[0][len(sep):]
    pieces.append(inner + "]" + newline + "]" + tail)
    return "".join(pieces)


def _syndrome_pieces(sig: Syndrome, sep: str, mid: str, last: str, words=None) -> list:
    """Three text pieces per test, in canonical test order: ``sep`` and the
    tester, ``mid``, the testee and ``last``, then the outcome digit or its
    entry in ``words``.  Each vertex's pieces are made once, and each column
    fills its slots in one step, so no row is a tuple or formatted alone."""
    testers, testees, digits = sig._columns()
    names = list(map(str, range(sig.graph.vertex_count)))
    heads = [sep + name for name in names]
    tails = [mid + name + last for name in names]
    pieces = [None] * (3 * len(digits))
    pieces[::3] = map(heads.__getitem__, testers)
    pieces[1::3] = map(tails.__getitem__, testees)
    pieces[2::3] = digits if words is None else map(words.__getitem__, digits)
    return pieces


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _pair_cell(record) -> str:
    fs = ",".join(map(str, record["F"]))
    ss = ",".join(f"{u}-{v}" for u, v in record["S"])
    return f"F={{{fs}}} S={{{ss}}}"


def _render_csv(report: dict) -> str:
    command = report["command"]
    result = report["result"]
    if command == "topology":
        return _csv_text(
            ["name", "vertices", "edges", "min_degree", "girth"],
            [[result["name"], result["vertices"], result["edges"],
              result["min_degree"], result["girth"]]])
    if command == "inject":
        rows = _syndrome_pieces(result["syndrome"], "\n", ",", ",")
        return "tester,testee,outcome" + "".join(rows) + "\n"
    if command == "diagnose":
        rows = [[result["status"], result["total_candidates"], result["recovered"],
                 _pair_cell(c)] for c in result["candidates"]]
        if not rows:
            rows = [[result["status"], 0, result["recovered"], ""]]
        return _csv_text(["status", "total_candidates", "recovered", "candidate"], rows)
    if command == "diagnosability":
        witness = result["witness"]
        return _csv_text(
            ["kind", "level", "value", "witness_first", "witness_second"],
            [[result["kind"], result["level"], result["value"],
              _pair_cell(witness["first"]) if witness else "",
              _pair_cell(witness["second"]) if witness else ""]])
    if command == "verify-theorems":
        rows = [[r["n"], r["kind"], r["level"], r["computed"], r["expected"],
                 r["match"]] for r in result["rows"]]
        return _csv_text(["n", "kind", "level", "computed", "expected", "match"], rows)
    raise InputError(f"no csv rendering for {command}")


def _kv_lines(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs) + "\n"


def _render_table(report: dict, extras: dict) -> str:
    command = report["command"]
    result = report["result"]
    if command == "topology":
        gv = result["girth"]
        return _kv_lines([
            ("graph", result["name"]),
            ("vertices", result["vertices"]),
            ("edges", result["edges"]),
            ("min degree", result["min_degree"]),
            ("girth", "infinite" if gv is None else gv),
        ])
    if command == "inject":
        rows = _syndrome_pieces(result["syndrome"], "\n  ", " -> ", ": ",
                                {"0": "pass", "1": "fail"})
        return f"pair      {_pair_cell(result['pair'])}\nsyndrome" + "".join(rows) + "\n"
    if command == "diagnose":
        pairs = [
            ("status", result["status"]),
            ("candidates", result["total_candidates"]),
            ("recovered", "yes" if result["recovered"] else "no"),
            ("true pair", _pair_cell(result["true_pair"])),
        ]
        text = _kv_lines(pairs)
        for c in result["candidates"]:
            text += f"  candidate {_pair_cell(c)}\n"
        return text
    if command == "diagnosability":
        pairs = [
            ("kind", result["kind"]),
            ("level", result["level"]),
            ("value", result["value"]),
        ]
        if result["analytic_bounds"]:
            pairs.append(("analytic bounds", json.dumps(result["analytic_bounds"],
                                                        sort_keys=True)))
        if result["outside_analyzed_range"]:
            pairs.append(("note", "edge budget exceeds the minimum degree"))
        if result["witness"]:
            pairs.append(("witness first", _pair_cell(result["witness"]["first"])))
            pairs.append(("witness second", _pair_cell(result["witness"]["second"])))
        if "elapsed_seconds" in extras:
            pairs.append(("elapsed", f"{extras['elapsed_seconds']:.3f}s"))
        for key, val in sorted(report["stats"].items()):
            pairs.append((key.replace("_", " "), val))
        return _kv_lines(pairs)
    if command == "verify-theorems":
        header = f"{'n':>2} {'kind':<24} {'level':>5} {'computed':>8} {'expected':>8}  ok"
        lines = [header]
        for r in result["rows"]:
            ok = "yes" if r["match"] else "NO"
            lines.append(f"{r['n']:>2} {r['kind']:<24} {r['level']:>5} "
                         f"{r['computed']:>8} {r['expected']:>8}  {ok}")
        lines.append("all match: " + ("yes" if result["all_match"] else "NO"))
        return "\n".join(lines) + "\n"
    raise InputError(f"no table rendering for {command}")


def render(report: dict, fmt: str, extras: dict) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report, extras)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, extras, code = COMMANDS[args.command](args)
        text = render(report, args.format, extras)
        if args.output:
            _write_file(args.output, text)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)
    return code
