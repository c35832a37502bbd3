"""Frontier benchmark: search instances that take seconds, each in a fresh process.

The benchmark under ``perfbench/`` times passes of a few milliseconds; the
instances here take seconds at the frontier of what the search can answer,
or, for ``diagnose-q12``, decode syndromes of a graph with 4,096 vertices,
or, for ``inject-q15`` and ``edge-list-q15``, build the largest graph the
library accepts, from the hypercube builder or from edge-list text.
Each instance runs in its own child process for a fixed number of passes, so
peak memory does not grow with speed.  A pass builds the graph and answers
one query; for ``cli-q4`` it makes a thousand in-process ``cli.main`` calls
of the ``search-q4`` command line, as a script or a test suite does, and for
``cli-inject-q12`` five per format of the ``inject-large`` one, each output
checked against its pinned sha256.  The child reports the wall time of every
pass and its ``ru_maxrss``, and the counters that do not depend on the
machine: the value, a digest of the witness and ``structures_examined``.
Each counter is checked against its pin; the script exits 1 when a pin does
not match, an instance fails or runs past ``--timeout``.

Run from the root of a source checkout (standard library only)::

    python bench/frontier.py                          # every instance, 3 passes
    python bench/frontier.py --smoke                  # small sizes, 1 pass
    python bench/frontier.py --label change --out BENCH_18.json
    python bench/frontier.py --src ../parent/src --label parent --out BENCH_18.json

``--src`` picks the ``gpmcdiag`` source tree to import, so two checkouts
can be compared with one script.  ``--out`` merges this run's instances into
the JSON file under ``--label``, keeping every other label and instance
already there, so a slow instance can be run on its own with other
``--passes`` or ``--timeout``.  A run of an instance already recorded under
the label adds its passes to the row: ``wall_s`` keeps every pass of every
run and ``wall_s_median`` is taken over all of them, so alternating parent
and change runs, each merged in turn, give one row per side in which a
single noisy run weighs no more than its own passes.  A row is ``ok`` only
when every run in it was.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _random_dense(gd, n, h):
    return gd.edge_restricted_diagnosability(gd.build_random(n, 0.8, 1), h)


def _hypercube_th(gd, n, h):
    return gd.edge_restricted_diagnosability(gd.build_hypercube(n), h)


def _relabelled_hypercube_t0(gd, n):
    # the same Q_n read without the builder's symmetry flag sweeps every seed
    q = gd.build_hypercube(n)
    perm = list(range(q.vertex_count))
    random.Random(1).shuffle(perm)
    g = gd.Graph(q.vertex_count, [(perm[a], perm[b]) for a, b in q.edges])
    return gd.edge_restricted_diagnosability(g, 0)


def _roundtrip(gd, n, faulty, t):
    g = gd.build_hypercube(n)
    return gd.adversarial_roundtrip(g, gd.make_fault_pair(g, faulty, ()), t, 0)


def _diagnose_random(gd, n, t, s, count):
    # how many random-adversary syndromes of random in-bound pairs decode
    # UNIQUE back to their pair; faulty edges are drawn by index and redrawn
    # when they touch F, so no pass filters the whole edge list
    g = gd.build_hypercube(n)
    rng = random.Random(1)
    unique = 0
    for _ in range(count):
        faulty = set(rng.sample(range(g.vertex_count), rng.randint(0, t)))
        edges, size = set(), rng.randint(0, s)
        while len(edges) < size:
            a, b = g.edges[rng.randrange(len(g.edges))]
            if a not in faulty and b not in faulty:
                edges.add((a, b))
        pair = gd.make_fault_pair(g, faulty, edges)
        result = gd.diagnose(g, gd.generate_syndrome(pair, "random", seed=rng.getrandbits(32)),
                             t, s)
        unique += result.status is gd.DiagnosisStatus.UNIQUE and result.unique_pair == pair
    return unique


def _inject(gd, n):
    # the pair, its syndrome and the second pair touch a few vertices, so
    # the graph's own structure sets the peak memory
    g = gd.build_hypercube(n)
    pair = gd.make_fault_pair(g, (0, 3, g.vertex_count - 1), [(5, 7)])
    sig = gd.generate_syndrome(pair, "random", seed=1)
    other = gd.make_fault_pair(g, (0,), ())
    verdict = gd.distinguishable(g, pair, other)
    return (gd.is_consistent(sig, pair)
            and verdict.distinguishable == gd.distinguishable_oracle(g, pair, other))


def _parse_relabelled_hypercube(gd, n):
    # the edge count of parse_edge_list's graph of Q_n's edges, relabelled as
    # in _relabelled_hypercube_t0 and written as text without the library;
    # the degree sum also proves the graph has every edge
    size = 1 << n
    perm = list(range(size))
    random.Random(1).shuffle(perm)
    lines = [f"{size} {n << (n - 1)}"]
    lines += [f"{perm[v]} {perm[v | 1 << b]}" for v in range(size) for b in range(n)
              if not v >> b & 1]
    g = gd.parse_edge_list("\n".join(lines) + "\n")
    return sum(gd.degree(g, v) for v in range(g.vertex_count)) // 2


#: the ``search-q4`` command line of the benchmark under ``perfbench/``
CLI_Q4_ARGV = ["diagnosability", "--topology", "hypercube", "--n", "4",
               "--edge-restricted", "1", "--format", "json"]


def _cli_repeat(gd, calls):
    # True when every call exits 0 with the same bytes and t_1(Q_4) = 3
    from gpmcdiag import cli

    outputs = set()
    for _ in range(calls):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if cli.main(CLI_Q4_ARGV) != 0:
                return False
        outputs.add(buffer.getvalue())
    return len(outputs) == 1 and json.loads(outputs.pop())["result"]["value"] == 3


#: the ``inject-large`` command line of the benchmark under ``perfbench/`` at
#: its default seed 1, and one of the same shape on Q_8, without ``--format``
CLI_INJECT_Q12_ARGV = ["inject", "--topology", "hypercube", "--n", "12",
                       "--faulty-vertices", "516,965,2089",
                       "--faulty-edges", "391-2439,964-980,1859-1867,2240-3264,2354-2418,"
                                         "2438-2470,3386-3387",
                       "--adversary", "random", "--seed", "3098990846"]
CLI_INJECT_Q8_ARGV = ["inject", "--topology", "hypercube", "--n", "8",
                      "--faulty-vertices", "4,197,201",
                      "--faulty-edges", "8-9,40-104,130-138,240-241",
                      "--adversary", "random", "--seed", "3098990846"]

#: per format, the sha256 of the output of those command lines, recorded
#: when the syndrome was still rendered from its ``to_triples`` rows
CLI_INJECT_Q12_SHA256 = {
    "json": "fc918084ce724dfbd01fdee024c792abd4771a7867960333de77fe8ca4822fa3",
    "csv": "f8a9e222dbb05f1327523f8d86b944a6aa14704de553dbf4d798663dccf0ae35",
    "table": "c1ad47bffa0f8f595f56722617cc9306cfef5fc4a8fff21182a6765e99a041ad",
}
CLI_INJECT_Q8_SHA256 = {
    "json": "abff69c45690c1ef9eee95e8b7f2f79f5ffedf7e58cfd315b6b4b596ef4c2f3f",
    "csv": "18fbc67a4c05ec2ce9603f73b8b3368ed9d57ba9ef3d9333db2c63ed44bb3014",
    "table": "1e58cdcc3bcf0eca8168f5f2ff236a6e5f874d6e2c47f9e52613093ef6ade567",
}


def _cli_inject(gd, argv, calls, digests):
    # True when every call exits 0 and prints the pinned bytes of its format
    from gpmcdiag import cli

    for fmt, digest in digests.items():
        for _ in range(calls):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                if cli.main(argv + ["--format", fmt]) != 0:
                    return False
            if hashlib.sha256(buffer.getvalue().encode()).hexdigest() != digest:
                return False
    return True


def _digest(witness) -> str | None:
    if witness is None:
        return None
    text = json.dumps([pair.to_record() for pair in witness], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: name -> (what, function, full-size arguments, smoke-size arguments,
#:          full-size pins, smoke-size pins).  A roundtrip, an injection and
#: the CLI calls answer True or False and the diagnoses a count, with no
#: witness and no count of structures, so those pins are None.
INSTANCES = {
    "random30-t3": (
        "t_3 of build_random(30, 0.8, 1)", _random_dense, (30, 3), (14, 2),
        {"value": 14, "witness": "c4aa19c99e097a06", "structures_examined": 400588945483799},
        {"value": 6, "witness": "56dad87cfecf276e", "structures_examined": 4214527}),
    "random40-t3": (
        "t_3 of build_random(40, 0.8, 1), where the value stops at the |V| bound",
        _random_dense, (40, 3), (14, 3),
        {"value": 19, "witness": "96f5bbd35602a3bd", "structures_examined": 32101998586372050325},
        {"value": 5, "witness": "8d72bd0a2fc71b53", "structures_examined": 3031688}),
    "hypercube13-t0": (
        "t_0 of Q_13, from the single seed 0", _hypercube_th, (13, 0), (6, 0),
        {"value": 13, "witness": "53fa913a966ef12a", "structures_examined": int(
            "22090980632502981269705677247912107353348344171387589064352645141493088646765923")},
        {"value": 6, "witness": "c8534de6a0cd286b", "structures_examined": 355923755607931}),
    "hypercube14-t0": (
        "t_0 of Q_14, from the single seed 0", _hypercube_th, (14, 0), (7, 0),
        {"value": 14, "witness": "0be339de178ed717", "structures_examined": int(
            "11100480361218350273887671968063828744236854517066497596704982167644"
            "37100507944816535025160036")},
        {"value": 7, "witness": "8e0d33c7424a781c", "structures_examined": 367389460952700575607}),
    "hypercube14-t1": (
        "t_1 of Q_14, from the single seed 0", _hypercube_th, (14, 1), (7, 1),
        {"value": 13, "witness": "f02f3df1baf0e8ce", "structures_examined": int(
            "75496364503167172773161378819486772360884574306046370541971299"
            "1986713310509350120632675")},
        {"value": 6, "witness": "49058f2320c95319", "structures_examined": 1132910338754586123}),
    "relabelled-q8-t0": (
        "t_0 of Q_8 relabelled, every seed swept", _relabelled_hypercube_t0, (8,), (4,),
        {"value": 8, "witness": "29a60831ad3b4668",
         "structures_examined": 69441232481247453156913143185},
        {"value": 4, "witness": "a6bd97efe8139e33", "structures_examined": 1280155}),
    "relabelled-q9-t0": (
        "t_0 of Q_9 relabelled, every seed swept", _relabelled_hypercube_t0, (9,), (5,),
        {"value": 9, "witness": "4b7d232a8c25cb53",
         "structures_examined": 17024180268842932585484827613578255169},
        {"value": 5, "witness": "29936ae0dc621b4a", "structures_examined": 13363368809}),
    "roundtrip-q4": (
        "adversarial_roundtrip on Q_4, F = {0, 3, 5, 6}, S = {} at (4, 0)",
        _roundtrip, (4, (0, 3, 5, 6), 4), (3, (0, 3), 2),
        {"value": True, "witness": None, "structures_examined": None},
        {"value": True, "witness": None, "structures_examined": None}),
    "roundtrip-q8": (
        "adversarial_roundtrip on Q_8, F = {0, 255}, S = {} at (2, 0), where both "
        "faulty testers are pinned", _roundtrip, (8, (0, 255), 2), (5, (0, 31), 2),
        {"value": True, "witness": None, "structures_examined": None},
        {"value": True, "witness": None, "structures_examined": None}),
    "diagnose-q12": (
        "diagnose on Q_12 at (8, 3), 150 random-adversary syndromes of random in-bound "
        "pairs (the value: how many decode UNIQUE back to their pair)", _diagnose_random,
        (12, 8, 3, 150), (6, 3, 1, 30),
        {"value": 150, "witness": None, "structures_examined": None},
        {"value": 30, "witness": None, "structures_examined": None}),
    "inject-q15": (
        "Q_15: one pair, its random syndrome, is_consistent and both distinguishability "
        "routes (True: consistent, and the routes agree)", _inject, (15,), (8,),
        {"value": True, "witness": None, "structures_examined": None},
        {"value": True, "witness": None, "structures_examined": None}),
    "edge-list-q15": (
        "parse_edge_list of relabelled Q_15's edge-list text, written in the pass (the "
        "value: the parsed graph's edge count)", _parse_relabelled_hypercube, (15,), (8,),
        {"value": 245760, "witness": None, "structures_examined": None},
        {"value": 1024, "witness": None, "structures_examined": None}),
    "cli-q4": (
        "1,000 cli.main calls of t_1(Q_4) in one process (True: every call exits 0 "
        "with the same bytes, and the value is 3)", _cli_repeat, (1000,), (20,),
        {"value": True, "witness": None, "structures_examined": None},
        {"value": True, "witness": None, "structures_examined": None}),
    "cli-inject-q12": (
        "5 cli.main calls per format of perfbench's inject-large line on Q_12 (True: "
        "every call exits 0 with its format's pinned sha256)", _cli_inject,
        (CLI_INJECT_Q12_ARGV, 5, CLI_INJECT_Q12_SHA256),
        (CLI_INJECT_Q8_ARGV, 1, CLI_INJECT_Q8_SHA256),
        {"value": True, "witness": None, "structures_examined": None},
        {"value": True, "witness": None, "structures_examined": None}),
}


def child(name: str, passes: int, smoke: bool, src: str):
    """Run one instance for ``passes`` passes and print one JSON line."""
    sys.path.insert(0, src)
    import resource

    import gpmcdiag as gd

    _, function, full_args, smoke_args, _, _ = INSTANCES[name]
    args = smoke_args if smoke else full_args
    walls, answers = [], []
    for _ in range(passes):
        started = time.perf_counter()
        result = function(gd, *args)
        walls.append(time.perf_counter() - started)
        if isinstance(result, int):
            answers.append({"value": result, "witness": None, "structures_examined": None})
        else:
            answers.append({"value": result.value, "witness": _digest(result.witness),
                            "structures_examined": result.stats["structures_examined"]})
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": walls, "maxrss_mb": round(maxrss, 1), "answers": answers}))


def run(name: str, passes: int, smoke: bool, src: str, timeout: float) -> dict:
    """One instance in a fresh child process, checked against its pins."""
    what, _, _, _, full_pins, smoke_pins = INSTANCES[name]
    pins = smoke_pins if smoke else full_pins
    command = [sys.executable, __file__, "--child", name, "--passes", str(passes),
               "--src", src] + (["--smoke"] if smoke else [])
    row = {"what": what, "smoke": smoke, "runs": 1, "passes": 0, "wall_s_median": None,
           "wall_s": [], "maxrss_mb": None, "maxrss_mb_runs": [], "ok": False}
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**row, "problems": [f"timed out after {timeout:g} s"]}
    if done.returncode != 0:
        return {**row, "problems": [(done.stderr.strip().splitlines() or ["?"])[-1]]}
    report = json.loads(done.stdout.splitlines()[-1])
    answers = report.pop("answers")
    first = answers[0]
    problems = [f"pass {i} answered differently" for i, a in enumerate(answers) if a != first]
    problems += [f"{key} {first[key]!r} != pin {pin!r}" for key, pin in pins.items()
                 if first[key] != pin]
    walls = [round(w, 4) for w in report["wall_s"]]
    return {**row, **first, "passes": len(walls),
            "wall_s_median": round(statistics.median(report["wall_s"]), 4), "wall_s": walls,
            "maxrss_mb": report["maxrss_mb"], "maxrss_mb_runs": [report["maxrss_mb"]],
            "ok": not problems, "problems": problems}


def merge(old: dict | None, new: dict) -> dict:
    """The row of ``old``'s runs and ``new``'s, of one instance under one label.

    The passes of every run are kept, and ``wall_s_median`` is taken over
    all of them (``maxrss_mb`` over the runs' peaks); the answer is the
    first run's that has one.  Every run was checked against the same pins,
    so a run that answered otherwise, failed or timed out left a problem,
    and the row is ``ok`` only when no run did.  A row of another instance
    or size is replaced, not merged.
    """
    if old is None or (old["what"], old["smoke"]) != (new["what"], new["smoke"]):
        return new
    walls = old["wall_s"] + new["wall_s"]
    peaks = old["maxrss_mb_runs"] + new["maxrss_mb_runs"]
    answered = old if "value" in old else new
    return {**answered, "runs": old["runs"] + new["runs"], "passes": len(walls),
            "wall_s_median": round(statistics.median(walls), 4) if walls else None,
            "wall_s": walls, "maxrss_mb": round(statistics.median(peaks), 1) if peaks else None,
            "maxrss_mb_runs": peaks, "ok": old["ok"] and new["ok"],
            "problems": old["problems"] + [p for p in new["problems"]
                                           if p not in old["problems"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the test suite")
    parser.add_argument("--src", default=str(ROOT / "src"), help="gpmcdiag source tree")
    parser.add_argument("--only", nargs="+", choices=sorted(INSTANCES), help="instances to run")
    parser.add_argument("--timeout", type=float, default=600, help="seconds per instance")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", help="JSON file to merge this run into")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    if args.child:
        child(args.child, args.passes, args.smoke, src)
        return 0
    results = {}
    for name in args.only or INSTANCES:
        results[name] = row = run(name, args.passes, args.smoke, src, args.timeout)
        wall = row["wall_s_median"]
        shown = f"{wall:9.3f} s {row['maxrss_mb']:7.1f} MB" if wall is not None else ""
        print(f"{name:18} {'ok ' if row['ok'] else 'BAD'} {shown}  {row['problems'] or ''}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        label = data.setdefault("runs", {}).setdefault(args.label, {})
        label["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                            "platform": platform.platform()}
        recorded = label.setdefault("results", {})
        for name, row in results.items():
            recorded[name] = merge(recorded.get(name), row)
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(row["ok"] for row in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
