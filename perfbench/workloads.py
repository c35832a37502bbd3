"""The benchmark's workloads: inputs drawn from a seed, one pass of fixed work,
and the checks on every output.

A workload object does its set-up in the constructor (graph build or parse,
mask layout, input generation).  ``run_pass`` does the fixed work once and
returns what it produced together with per-operation latencies; ``check``
validates those outputs afterwards, outside the timed region.  Every pass of
one process uses the same inputs, so the work and the deterministic counters
of the traced run repeat exactly from pass to pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations
from pathlib import Path
from time import perf_counter

JOBS = 2  # the reference machine has two cores


class Checks:
    """Counts checked operations and the ones whose output was wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def run(self, what: str, fn):
        """Count one check; an exception inside it counts as a failure."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a raising library call is a failed operation
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.record(ok, what)


class Raised:
    """Stands in for the output of an operation that raised; any use re-raises."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __getattr__(self, name):
        raise self.exc

    def __getitem__(self, key):
        raise self.exc


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes a Raised output that fails its check."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted by the check, not allowed to stop the run
        return Raised(exc)


def call_cli(cli, argv) -> tuple[int, str, float]:
    """One in-process ``gpmcdiag`` invocation: (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), perf_counter() - start


def cli_once(cli, argv) -> dict:
    """One CLI call per pass.  Every pass of every process makes the same call,
    and the parent checks that all of them printed byte-identical output."""
    return {"command": argv[0], "run": attempt(call_cli, cli, argv)}


def check_cli(checks: Checks, out: dict, expected_result):
    """The call exits 0 and its JSON ``result`` matches the library's answer."""
    run = out["run"]
    name = f"cli {out['command']}"
    checks.run(f"{name}: nonzero exit code", lambda: run[0] == 0)
    checks.run(f"{name}: result differs from the library",
               lambda: expected_result(json.loads(run[1])["result"]))


def witness_ok(gp, g, report) -> bool:
    """The witness is in bounds at value+1 and both routes call it indistinguishable."""
    if report.witness is None:
        return False
    p1, p2 = report.witness
    if report.kind == "edge-restricted":
        fmax, smax = report.value + 1, report.level
    else:
        fmax, smax = report.level, report.value + 1
    in_bounds = all(len(p.faulty_vertices) <= fmax and len(p.faulty_edges) <= smax
                    for p in (p1, p2))
    return (in_bounds and not gp.distinguishable(g, p1, p2).distinguishable
            and not gp.distinguishable_oracle(g, p1, p2))


def _query(gp, g, kind, level, **kw):
    if kind == "h":
        return gp.edge_restricted_diagnosability(g, level, **kw)
    return gp.vertex_restricted_edge_diagnosability(g, level, **kw)


def _witness_record(report):
    if report.witness is None:
        return None
    first, second = report.witness
    return {"first": first.to_record(), "second": second.to_record()}


def _edge_arg(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in sorted(edges))


def _vertex_arg(vertices) -> str:
    return ",".join(map(str, sorted(vertices)))


# ---------------------------------------------------------------------------
# search-q4
# ---------------------------------------------------------------------------

class SearchQ4:
    """t_h(Q_4) for h = 0..4 and s_r(Q_4) for r = 1..3, then the CLI on h = 1."""

    EXPECTED = {("h", 0): 4, ("h", 1): 3, ("h", 2): 2, ("h", 3): 0, ("h", 4): 0,
                ("r", 1): 2, ("r", 2): 2, ("r", 3): 1}
    T0_STRUCTURES = 549_085  # t_0(Q_4), the ROADMAP baseline

    def __init__(self, gp, seed, workdir):
        self.gp = gp
        self.g = gp.build_hypercube(4)
        gp._masks.layout_of(self.g)
        # the seed only fixes the query order; no answer may depend on it
        self.queries = sorted(self.EXPECTED)
        random.Random(seed).shuffle(self.queries)
        self.graphs = [self.g]
        self.cli_argv = ["diagnosability", "--topology", "hypercube", "--n", "4",
                         "--edge-restricted", "1", "--jobs", str(JOBS), "--format", "json"]

    def run_pass(self, cli):
        reports = {q: attempt(_query, self.gp, self.g, *q, jobs=JOBS) for q in self.queries}
        return {"reports": reports, "cli": cli_once(cli, self.cli_argv), "latency_ms": {}}

    def check(self, out, checks: Checks):
        gp, g = self.gp, self.g
        reports = out["reports"]
        for q, rep in reports.items():
            checks.run(f"search-q4 {q}: value differs from {self.EXPECTED[q]}",
                       lambda: rep.value == self.EXPECTED[q])
            checks.run(f"search-q4 {q}: witness", lambda: witness_ok(gp, g, rep))
        checks.run(f"search-q4 t_0: structures examined differ from {self.T0_STRUCTURES}",
                   lambda: reports[("h", 0)].stats["structures_examined"] == self.T0_STRUCTURES)
        lib = reports[("h", 1)]
        check_cli(checks, out["cli"], lambda res: (
            res["value"] == lib.value and res["witness"] == _witness_record(lib)))


# ---------------------------------------------------------------------------
# search-irregular
# ---------------------------------------------------------------------------

def random_graph_edges(n: int, p: float, gen_seed: int) -> list[tuple[int, int]]:
    """G(n, p) edges, redrawn until the minimum degree is at least 3."""
    rng = random.Random(gen_seed)
    while True:
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= 3:
            return edges


class SearchIrregular:
    """t_0, t_1 and s_1 with jobs=2 on five fixed G(n, p) graphs read as edge lists.

    The two 8-vertex graphs take the ``full`` method under ``auto``; the three
    larger ones take ``local`` and sweep every seed vertex.  The graphs are
    fixed; the seed shuffles their edge-list text (line order and endpoint
    order).  Relabelling vertices instead would move where the search meets
    its first witness and change the work by up to 2.5x between seeds, so
    the timings would measure the seed rather than the code.
    """

    # (vertices, edge probability, generator seed) -> (t_0, t_1, s_1)
    GRAPHS = {
        (8, 0.5, 1): (3, 2, 2),
        (8, 0.5, 2): (3, 2, 1),
        (10, 0.7, 4): (4, 3, 3),
        (11, 0.6, 6): (4, 3, 3),
        (12, 0.45, 8): (3, 2, 2),
    }
    QUERIES = (("h", 0), ("h", 1), ("r", 1))
    CLI_GRAPH = (12, 0.45, 8)

    def __init__(self, gp, seed, workdir):
        self.gp = gp
        rng = random.Random(seed)
        self.graphs = []
        self.expected = {}
        for spec, values in self.GRAPHS.items():
            lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}"
                     for u, v in random_graph_edges(*spec)]
            rng.shuffle(lines)
            text = "\n".join([f"{spec[0]} {len(lines)}", *lines]) + "\n"
            g = gp.parse_edge_list(text, name="irregular-{}-p{}-g{}".format(*spec))
            gp._masks.layout_of(g)
            self.graphs.append(g)
            self.expected[g] = dict(zip(self.QUERIES, values))
            if spec == self.CLI_GRAPH:
                self.cli_graph = g
                path = Path(workdir) / "irregular.txt"
                path.write_text(text)
        self.cli_argv = ["diagnosability", "--edge-list", str(path), "--edge-restricted", "1",
                         "--jobs", str(JOBS), "--format", "json"]

    def run_pass(self, cli):
        reports = [(g, q, attempt(_query, self.gp, g, *q, jobs=JOBS))
                   for g in self.graphs for q in self.QUERIES]
        return {"reports": reports, "cli": cli_once(cli, self.cli_argv), "latency_ms": {}}

    def check(self, out, checks: Checks):
        gp = self.gp
        for g, q, rep in out["reports"]:
            want = self.expected[g][q]
            checks.run(f"{g.name} {q}: value differs from {want}", lambda: rep.value == want)
            checks.run(f"{g.name} {q}: witness", lambda: witness_ok(gp, g, rep))
        lib = next(rep for g, q, rep in out["reports"]
                   if g is self.cli_graph and q == ("h", 1))
        check_cli(checks, out["cli"], lambda res: (
            res["value"] == lib.value and res["witness"] == _witness_record(lib)))

    def cross_check(self, checks: Checks):
        """The 8-vertex values again with the local method, which ``auto`` skips there."""
        for g in self.graphs:
            if g.vertex_count > self.gp.diagnosability.FULL_METHOD_VERTEX_LIMIT:
                continue
            for q in self.QUERIES:
                want = self.expected[g][q]
                checks.run(f"{g.name} {q}: local method differs from {want}",
                           lambda: _query(self.gp, g, *q, method="local").value == want)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def _random_pair(gp, g, rng, nv, ns):
    fverts = rng.sample(range(g.vertex_count), nv)
    free = [e for e in g.edges if e[0] not in fverts and e[1] not in fverts]
    return gp.make_fault_pair(g, fverts, rng.sample(free, ns))


class Decode:
    """diagnose(Q_6, t=3, s=1) on random-adversary syndromes, then
    adversarial_roundtrip(Q_4, t=2, s=1) on random 2-vertex pairs."""

    T, S = 3, 1
    RT_T, RT_S = 2, 1
    DIAGNOSES = 30
    ROUNDTRIPS = 30

    def __init__(self, gp, seed, workdir):
        self.gp = gp
        rng = random.Random(seed)
        self.g = gp.build_hypercube(6)
        self.g4 = gp.build_hypercube(4)
        gp._masks.layout_of(self.g)
        gp._masks.layout_of(self.g4)
        self.graphs = [self.g, self.g4]
        self.syndromes = []
        for i in range(self.DIAGNOSES):
            # one in ten exceeds the vertex bound by one
            nv = self.T + 1 if i % 10 == 9 else rng.randint(0, self.T)
            pair = _random_pair(gp, self.g, rng, nv, rng.randint(0, self.S))
            adversary_seed = rng.getrandbits(32)
            sig = gp.generate_syndrome(pair, "random", seed=adversary_seed)
            self.syndromes.append((pair, sig, adversary_seed))
        self.pairs = [_random_pair(gp, self.g4, rng, 2, rng.randint(0, self.RT_S))
                      for _ in range(self.ROUNDTRIPS)]
        pair, _, adversary_seed = self.syndromes[0]
        self.cli_argv = ["diagnose", "--topology", "hypercube", "--n", "6",
                         "--faulty-vertices", _vertex_arg(pair.faulty_vertices),
                         "--faulty-edges", _edge_arg(pair.faulty_edges),
                         "--t", str(self.T), "--s", str(self.S),
                         "--adversary", "random", "--seed", str(adversary_seed),
                         "--format", "json"]

    def run_pass(self, cli):
        gp = self.gp
        decoded, decode_ms = [], []
        for _, sig, _ in self.syndromes:
            start = perf_counter()
            decoded.append(attempt(gp.diagnose, self.g, sig, self.T, self.S))
            decode_ms.append((perf_counter() - start) * 1000.0)
        roundtrips, roundtrip_ms = [], []
        for pair in self.pairs:
            start = perf_counter()
            roundtrips.append(attempt(gp.adversarial_roundtrip, self.g4, pair, self.RT_T, self.RT_S))
            roundtrip_ms.append((perf_counter() - start) * 1000.0)
        return {"decoded": decoded, "roundtrips": roundtrips,
                "cli": cli_once(cli, self.cli_argv),
                "latency_ms": {"decode": decode_ms, "roundtrip": roundtrip_ms}}

    def _decode_ok(self, pair, sig, res) -> bool:
        gp = self.gp
        for c in res.candidates:
            if (len(c.faulty_vertices) > self.T or len(c.faulty_edges) > self.S
                    or not gp.is_consistent(sig, c)):
                return False
        if res.total_candidates < len(res.candidates):
            return False
        if len(pair.faulty_vertices) <= self.T:
            return res.status is gp.DiagnosisStatus.UNIQUE and res.candidates[0] == pair
        return True

    def check(self, out, checks: Checks):
        for i, ((pair, sig, _), res) in enumerate(zip(self.syndromes, out["decoded"])):
            checks.run(f"decode #{i} {pair}: wrong or inconsistent candidates",
                       lambda: self._decode_ok(pair, sig, res))
        for pair, ok in zip(self.pairs, out["roundtrips"]):
            checks.record(ok is True, f"roundtrip {pair} returned {ok}")
        lib = out["decoded"][0]
        pair = self.syndromes[0][0]
        check_cli(checks, out["cli"], lambda res: (
            res["status"] == lib.status.value
            and res["total_candidates"] == lib.total_candidates
            and res["candidates"] == [c.to_record() for c in lib.candidates]
            and res["recovered"] is True and res["true_pair"] == pair.to_record()))


# ---------------------------------------------------------------------------
# inject-large
# ---------------------------------------------------------------------------

def _sample_free_edges(g, rng, fverts, count):
    chosen = set()
    while len(chosen) < count:
        e = g.edges[rng.randrange(len(g.edges))]
        if e[0] not in fverts and e[1] not in fverts:
            chosen.add(e)
    return sorted(chosen)


class InjectLarge:
    """Fault pairs, syndromes and distinguishability on Q_12."""

    DIMENSION = 12
    OPERATIONS = 20
    MAX_FAULTS = 12

    def __init__(self, gp, seed, workdir):
        self.gp = gp
        rng = random.Random(seed)
        self.g = g = gp.build_hypercube(self.DIMENSION)
        gp._masks.layout_of(g)
        self.graphs = [g]
        self.inputs = []
        for _ in range(self.OPERATIONS):
            f1 = rng.sample(range(g.vertex_count), rng.randint(1, self.MAX_FAULTS))
            s1 = _sample_free_edges(g, rng, set(f1), rng.randint(0, self.MAX_FAULTS))
            # the second pair keeps part of the first, so the two routes see overlap
            extra = rng.randrange(g.vertex_count)
            while extra in f1:
                extra = rng.randrange(g.vertex_count)
            f2 = f1[: len(f1) // 2] + [extra]
            s2 = _sample_free_edges(g, rng, set(f2), rng.randint(0, self.MAX_FAULTS))
            self.inputs.append((f1, s1, f2, s2, rng.getrandbits(32)))
        f1, s1, _, _, adversary_seed = self.inputs[0]
        self.cli_argv = ["inject", "--topology", "hypercube", "--n", str(self.DIMENSION),
                         "--faulty-vertices", _vertex_arg(f1), "--faulty-edges", _edge_arg(s1),
                         "--adversary", "random", "--seed", str(adversary_seed),
                         "--format", "json"]

    def run_pass(self, cli):
        results, inject_ms = [], []
        for args in self.inputs:
            start = perf_counter()
            results.append(attempt(self._operation, *args))
            inject_ms.append((perf_counter() - start) * 1000.0)
        return {"results": results, "cli": cli_once(cli, self.cli_argv),
                "latency_ms": {"inject": inject_ms}}

    def _operation(self, f1, s1, f2, s2, adversary_seed):
        gp, g = self.gp, self.g
        p1 = gp.make_fault_pair(g, f1, s1)
        sig = gp.generate_syndrome(p1, "random", seed=adversary_seed)
        consistent = gp.is_consistent(sig, p1)
        p2 = gp.make_fault_pair(g, f2, s2)
        verdict = gp.distinguishable(g, p1, p2)
        oracle = gp.distinguishable_oracle(g, p1, p2)
        return p1, sig, consistent, verdict.distinguishable, oracle

    def check(self, out, checks: Checks):
        for i, res in enumerate(out["results"]):
            checks.run(f"inject #{i}: syndrome inconsistent with its pair", lambda: res[2] is True)
            checks.run(f"inject #{i}: the two distinguishability routes disagree",
                       lambda: res[3] == res[4])
        first = out["results"][0]
        check_cli(checks, out["cli"], lambda res: (
            res["pair"] == first[0].to_record()
            and res["syndrome"] == [list(t) for t in first[1].to_triples()]))


WORKLOADS = {
    "search-q4": SearchQ4,
    "search-irregular": SearchIrregular,
    "decode": Decode,
    "inject-large": InjectLarge,
}
