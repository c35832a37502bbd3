"""gpmcdiag benchmark: one workload per invocation, each process fresh.

Run from the root of a gpmcdiag source checkout:

    python3 perfbench/run.py --workload search-q4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The parent process never imports gpmcdiag.  It starts child processes one
after another (this same file with ``--child``); each child imports the
package from ``src/``, sets up one workload, then repeats its fixed work in
passes until its share of ``--seconds`` is used up, checks every output and
reports back.  Set-up and peak RSS are therefore per process, and a child
never carries another workload's graphs or process pools.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, together with the tracing overhead against untraced passes made
in the same invocation.  Lines before it give each metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import zlib
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("search-q4", "search-irregular", "decode", "inject-large")
CHILD_TIMEOUT_S = 150
UNTRACED_PROCESSES = (0, 0, 0)  # set-up is timed once per process; the median is reported
# a --trace 1 run alternates untraced and traced processes, so that a drift in
# machine speed during the run falls on both sides of the tracing overhead
TRACED_PROCESSES = (0, 1, 0, 1)

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))
SAMPLE_EVERY_S = 0.02  # process CPU time between two samples of machine speed


def reference_loop() -> int:
    """A fixed piece of pure-Python work that does not touch gpmcdiag."""
    total = 0
    for combo in combinations(range(18), 3):
        mask = 0
        for v in combo:
            mask |= 1 << v
        total += (mask * 0x9E3779B1 & 0xFFFF).bit_count()
    return total


class SpeedSampler:
    """Times ``reference_loop`` every 20 ms of process CPU time during a pass.

    On a shared virtual machine the speed of one core drifts by tens of
    percent within seconds.  A pass divided by the median reference time
    sampled during that same pass cancels most of that drift, which a pass
    time alone cannot.  The interval timer counts this process's CPU time
    only, so it is silent while the process waits for pool workers, and
    forked workers do not inherit it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)

    def median(self) -> float:
        """Median reference time of the last pass; samples once if the pass was too short."""
        if not self.samples:
            self._sample(None, None)
        return statistics.median(self.samples)


# ---------------------------------------------------------------------------
# child: one workload in this process
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gpmcdiag as gp
    import gpmcdiag.cli as cli

    if Path(gp.__file__).resolve().parent != (root / "src" / "gpmcdiag").resolve():
        print(f"error: imported gpmcdiag from {gp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.install(gp)
        tracer.enabled = True
    workload = workloads.WORKLOADS[args.workload](gp, args.seed, args.workdir)
    report = {
        "setup_s": perf_counter() - args.spawned_at,
        "vertices": sum(g.vertex_count for g in workload.graphs),
        "edges": sum(len(g.edges) for g in workload.graphs),
        "pass_s": [],
        "pass_ref": [],
        "latency_ms": {},
        "cli": [],
        "layers": [],
    }
    if tracer is not None:
        tracer.enabled = False
        report["setup_layers"] = tracing.setup_metrics(tracer.snapshot())
    checks = workloads.Checks()
    sampler = SpeedSampler()
    while True:
        if tracer is None:
            with sampler:
                start = perf_counter()
                out = workload.run_pass(cli)
                elapsed = perf_counter() - start - sampler.spent
            report["pass_ref"].append(elapsed / sampler.median())
        else:
            before = tracer.snapshot()
            tracer.enabled = True
            start = perf_counter()
            out = workload.run_pass(cli)
            elapsed = perf_counter() - start
            tracer.enabled = False
            report["layers"].append(tracing.pass_metrics(before, tracer.snapshot()))
        report["pass_s"].append(elapsed)
        for kind, samples in out["latency_ms"].items():
            report["latency_ms"].setdefault(kind, []).extend(samples)
        run = out["cli"]["run"]
        text = run[1] if isinstance(run, tuple) else ""
        report["cli"].append({
            "command": out["cli"]["command"],
            "s": run[2] if isinstance(run, tuple) else 0.0,
            "bytes": len(text),
            "digest": zlib.crc32(text.encode()),
        })
        workload.check(out, checks)
        if perf_counter() + elapsed > args.deadline:
            break
    if hasattr(workload, "cross_check"):
        workload.cross_check(checks)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["attempted"] = checks.attempted
    report["failed"] = checks.failed
    report["messages"] = checks.messages
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, aggregate, print
# ---------------------------------------------------------------------------

def spawn(args, workdir, trace: int, deadline: float) -> dict:
    spawned_at = perf_counter()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
           "--workdir", workdir, "--spawned-at", repr(spawned_at), "--deadline", repr(deadline)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {args.workload} process timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"error: {args.workload} process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_processes(args, workdir, traces, until: float) -> list[dict]:
    """One child per entry of ``traces`` in turn, sharing the time left until ``until``."""
    reports = []
    for i, trace in enumerate(traces):
        now = perf_counter()
        reports.append(spawn(args, workdir, trace, now + (until - now) / (len(traces) - i)))
    return reports


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def summarize(reports) -> tuple[dict, list[str]]:
    """End-to-end metrics of untraced children, with the lines that explain them."""
    passes = [s for r in reports for s in r["pass_s"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(passes),
        "wall_ref": statistics.median(x for r in reports for x in r["pass_ref"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    lines = [
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(reports)} processes)",
        f"wall_s {metrics['wall_s']:.4f} s (median of {len(passes)} passes)",
        f"wall_ref {metrics['wall_ref']:.1f} ref (median of {len(passes)} passes)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (median of {len(reports)} processes)",
    ]
    kinds = sorted({k for r in reports for k in r["latency_ms"]})
    for kind in kinds:
        samples = [x for r in reports for x in r["latency_ms"].get(kind, [])]
        for q in (50, 90):
            value = percentile(samples, q)
            beyond = sum(1 for x in samples if x > value)
            lines.append(f"{kind}_p{q}_ms {value:.3f} ms (n={len(samples)}, {beyond} beyond)")
    return metrics, lines


def layer_metrics(untraced, traced) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of the traced children and the check that counters repeat."""
    import tracing

    layers = [p for r in traced for p in r["layers"]]
    problems = []
    for key in tracing.DETERMINISTIC:
        seen = {p[key] for p in layers}
        if len(seen) > 1:
            problems.append(f"counter {key} differs between traced passes: {sorted(seen)}")
    first = layers[0]
    values = {}
    for name, unit in tracing.PER_LAYER:
        if name in ("graph.vertices", "graph.edges"):
            values[name] = traced[0][name.split(".")[1]]
        elif name in tracing.setup_metrics({}):
            values[name] = statistics.median(r["setup_layers"][name] for r in traced)
        elif name.startswith("cli."):
            command, field = name.split(".")[1:]
            vals = [c[field] for r in traced for c in r["cli"] if c["command"] == command]
            if not vals:
                values[name] = 0
            elif field == "bytes":
                values[name] = vals[0]
            else:
                values[name] = statistics.median(vals)
        elif name == "trace.overhead_s":
            traced_wall = statistics.median(s for r in traced for s in r["pass_s"])
            plain_wall = statistics.median(s for r in untraced for s in r["pass_s"])
            values[name] = traced_wall - plain_wall
        elif unit in ("count", "bytes"):
            values[name] = int(first[name])
        else:
            values[name] = statistics.median(p[name] for p in layers)
    lines = [f"{name} {values[name]} {unit}" for name, unit in tracing.PER_LAYER]
    lines.append(f"traced passes {len(layers)} in {len(traced)} processes")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    return metrics, lines, problems


def run_workload(args, workdir) -> dict:
    until = perf_counter() + args.seconds
    reports = run_processes(args, workdir, TRACED_PROCESSES if args.trace else UNTRACED_PROCESSES,
                            until)
    untraced = [r for r in reports if not r["layers"]]
    traced = [r for r in reports if r["layers"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [m for r in reports for m in r["messages"]]
    digests = {c["digest"] for r in reports for c in r["cli"]}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        problems.append(f"cli output differs between passes: {len(digests)} distinct outputs")
    if args.trace:
        metrics, lines, counter_problems = layer_metrics(untraced, traced)
        attempted += 1
        failed += bool(counter_problems)
        problems += counter_problems
    else:
        values, lines = summarize(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    ratio = failed / attempted if attempted else 0.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  failed_ratio {ratio} ratio ({failed} of {attempted} checks failed)")
    for message in problems[:20]:
        print(f"  FAILED {message}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (Path.cwd() / "src" / "gpmcdiag" / "__init__.py").is_file():
        print("error: run from the root of a gpmcdiag checkout (src/gpmcdiag not found)",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    sys.path.insert(0, str(HERE))
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as workdir:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, os.path.relpath(workdir))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
