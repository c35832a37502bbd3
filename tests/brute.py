"""Independent brute-force oracles used to check the library's fast paths.

Most of this works from the model's definitions with plain sets and tuples,
deliberately avoiding the library's mask machinery and search code so that
agreement between the two is evidence, not tautology.  The consistent-pair
enumerator ``all_consistent_pairs`` and three oracles,
``reference_candidate_masks`` (for the decoder), and ``full_search`` and
``reference_search_seed`` (for the diagnosability search, which walks the
leaves of ``reference_leaves``), work over the
library's bit encodings of the graph instead (edge and test indices from
``graph.edges``, neighbor bits from ``_masks.layout_of``); the definitional
checks here cover those encodings.  ``adversary_syndromes`` expands every
syndrome of a fault pattern as a fail mask, the replay oracle for
``adversarial_roundtrip``.  ``directed_tests`` lists the tests in
canonical order and ``forced_value`` applies the model's rule to one of
them.  ``forced_masks`` and ``reference_syndrome_mask`` are the shift-or
references for the library's one-step test-mask builders.  ``reference_inject_render`` writes an inject
report row by row from ``Syndrome.to_triples``, as the CLI's renderers did
before they read the syndrome's columns.  ``reference_girth`` runs a BFS
from every vertex, the reference for ``girth``'s cuts.  ``reference_closure_value``
and ``reference_pair_closure`` enumerate every vertex set D that holds one
or two given vertices, the references for the closure flows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from collections import deque
from itertools import combinations, product

import numpy as np

import gpmcdiag as gd
from gpmcdiag import _masks
from gpmcdiag.diagnosability import _blocking_edges, _cover_subset


def directed_tests(g) -> list:
    """(tester, testee, edge) of both tests of every edge, in canonical test
    order: test 2k is u -> v and test 2k+1 is v -> u for the edge k = (u, v)."""
    return [test for e in g.edges for test in ((e[0], e[1], e), (e[1], e[0], e))]


def forced_value(test, fset: frozenset, sset: frozenset):
    """0, 1, or None (unconstrained) straight from the model's assumptions."""
    tester, testee, e = test
    if tester in fset:
        return None
    if testee in fset or e in sset:
        return 1
    return 0


def syndrome_fits(g, sig, fset, sset) -> bool:
    for test, result in zip(directed_tests(g), sig.results):
        forced = forced_value(test, fset, sset)
        if forced is not None and forced != result:
            return False
    return True


def consistent_groups(g, max_vertices: int, max_edges: int):
    """Every consistent pattern with |F| <= max_vertices and |S| <= max_edges,
    grouped by F: yields (f_mask, [s_mask, ...]) in (|F|, F, |S|, S)
    lexicographic order.  S ranges over the edges with no endpoint in F.

    Unbounded: each F lists every S up to size max_edges, so keep to small
    graphs and bounds.
    """
    for fsize in range(min(max_vertices, g.vertex_count) + 1):
        for fverts in combinations(range(g.vertex_count), fsize):
            f = _masks.vertex_mask(fverts)
            free = [1 << k for k, (a, b) in enumerate(g.edges)
                    if not (f >> a) & 1 and not (f >> b) & 1]
            yield f, [sum(sel) for size in range(min(max_edges, len(free)) + 1)
                      for sel in combinations(free, size)]


def all_consistent_pairs(g, max_vertices: int, max_edges: int) -> list:
    """Every consistent fault pair within the size bounds, in lexicographic
    (|F|, F, |S|, S) order, for exhaustive checks on small graphs.  Each is
    built by the checked ``FaultPair`` constructor, not by the library's
    unchecked ``_pair_from_masks``, so the oracles share no builder with the
    search and the decoder they check."""
    edges = g.edges
    return [gd.FaultPair(g, frozenset(_masks.bits(f)),
                         frozenset(edges[k] for k in _masks.bits(sm)))
            for f, smasks in consistent_groups(g, max_vertices, max_edges)
            for sm in smasks]


def brute_force_decode(g, sig, t, s):
    """Every in-bound consistent pair explaining the syndrome, by literal filter."""
    out = []
    for pair in all_consistent_pairs(g, t, s):
        if syndrome_fits(g, sig, pair.faulty_vertices, pair.faulty_edges):
            out.append(pair)
    return out


def reference_candidate_masks(g, fail_mask: int, t: int, s: int):
    """The decoder's exhaustive predecessor, kept as its oracle.

    Unlike the rest of this module it works over the library's bit encodings,
    because it must reproduce ``faults._candidate_masks`` output exactly:
    (f_mask, s_mask) pairs in (|F|, F) lexicographic order.
    It tries every vertex set of size at most t and forces S per set, reading
    each edge's two test bits straight from ``g.edges`` order.
    """
    found = []
    for fsize in range(t + 1):
        for fverts in combinations(range(g.vertex_count), fsize):
            fset = set(fverts)
            smask = 0
            ok = True
            for k, (a, b) in enumerate(g.edges):
                a_to_b = (fail_mask >> (2 * k)) & 1
                b_to_a = (fail_mask >> (2 * k + 1)) & 1
                if a in fset and b in fset:
                    continue
                if a in fset:
                    ok = b_to_a == 1            # good tester, faulty testee: must fail
                elif b in fset:
                    ok = a_to_b == 1
                else:
                    ok = a_to_b == b_to_a       # two good ends read the edge alike
                    smask |= a_to_b << k        # both fail: the edge is in S
                if not ok:
                    break
            if not ok or smask.bit_count() > s:
                continue
            found.append((sum(1 << v for v in fverts), smask))
    return found


def forced_masks(g, f: int, s: int) -> tuple[int, int]:
    """(forced-fail, forced-pass) test masks, or-ing in one shifted bit at a time.

    The reference for ``_masks.forced_masks``, which on wide masks collects
    the positions in one walk and builds each mask in one step.  Every test
    on an edge at a faulty vertex has a faulty tester or a faulty testee, so
    those tests minus the faulty testers' ones are forced to fail; every
    other test that is not the faulty testers' is forced to pass.
    """
    arb = 0
    touched = 0
    for u in _masks.bits(f):
        for v, k in zip(g._nbrs[u], g._eids[u]):
            arb |= 1 << (2 * k + (v < u))
            touched |= 3 << (2 * k)
    for k in _masks.bits(s):
        touched |= 3 << (2 * k)
    ff = touched & ~arb
    fp = ((1 << 2 * len(g.edges)) - 1) & ~(arb | ff)
    return ff, fp


def reference_syndrome_mask(fp, strategy: str, seed=None, assignments=None) -> int:
    """The fail mask ``generate_syndrome(fp, strategy, ...)`` must produce.

    The faulty testers' tests come from a bit scan of what the reference
    masks leave free, ascending; each strategy then fails a subset of them,
    "random" drawing one ``random.Random(seed).random() < 0.5`` per free test
    in that order, "explicit" reading ``assignments`` by (tester, testee).
    """
    g = fp.graph
    ff, fpm = forced_masks(g, fp.f_mask, fp.s_mask)
    free = list(_masks.bits(((1 << 2 * len(g.edges)) - 1) & ~(ff | fpm)))
    if strategy == "all-pass":
        chosen = []
    elif strategy == "all-fail":
        chosen = free
    elif strategy == "random":
        rng = random.Random(seed)
        chosen = [pos for pos in free if rng.random() < 0.5]
    else:
        def tester_testee(pos):
            a, b = g.edges[pos >> 1]
            return (b, a) if pos & 1 else (a, b)
        chosen = [pos for pos in free if assignments[tester_testee(pos)]]
    return ff | sum(1 << pos for pos in chosen)


def adversary_syndromes(g, f: int, s: int):
    """(free-test count, fail masks of every syndrome) of pattern (f, s).

    The replay oracle for ``adversarial_roundtrip``, whose replay
    (``faults._replay``) steps the decoder's failure tables instead of
    building masks.  A test is free
    when its tester is faulty.  The masks come lazily, in ascending order of
    assignment, so nothing is built before the first: bit i of an
    assignment fails the i-th free test, ascending, and every other test
    gets its forced result.  Counting from assignment a to a + 1 flips bits
    0..j, where j is the lowest set bit of a + 1, so each mask is the one
    before it xor the precomputed run of free tests 0..j.
    """
    free, fail = _masks._fault_tests(g, f, s)

    def masks():
        mask = _masks.mask_of(fail, 2 * len(g.edges))
        runs, run = [], 0
        for pos in sorted(free):
            run |= 1 << pos
            runs.append(run)
        yield mask
        for assignment in range(1, 1 << len(runs)):
            mask ^= runs[(assignment & -assignment).bit_length() - 1]
            yield mask

    return len(free), masks()


def full_search(g, t: int, s: int):
    """First indistinguishable pair in lexicographic order, or None.

    The pairwise oracle for the library's difference-structure search.  Like
    ``reference_candidate_masks`` it works over the library's bit encodings.
    Each pair's forced outcomes come from the reference ``forced_masks``
    once, and two pairs are indistinguishable when they share a syndrome: no
    test is forced to pass under one and to fail under the other.  That is the
    forced-outcome route, not the structural conditions the search builds
    on.

    Pairs sharing the same faulty vertex set are always distinguishable (the
    extra faulty edge has fault-free endpoints on both sides), so comparisons
    are only made across distinct vertex sets.
    """
    flat = []
    block_end = []      # per pair: index just past its vertex set's group
    for f, smasks in consistent_groups(g, t, s):
        flat.extend((f, sm) for sm in smasks)
        block_end.extend([len(flat)] * len(smasks))
    forced = [forced_masks(g, f, sm) for f, sm in flat]
    checked = 0
    for i, (ff1, fp1) in enumerate(forced):
        for j in range(block_end[i], len(flat)):
            ff2, fp2 = forced[j]
            checked += 1
            if not (ff1 & fp2) and not (fp1 & ff2):
                return (*flat[i], *flat[j]), {"candidates": len(flat), "pairs_examined": checked}
    return None, {"candidates": len(flat), "pairs_examined": checked}


def reference_leaves(n: int, t: int, seed: int):
    """Every (X1, X2) leaf of ``seed`` as vertex tuples, in the search's order.

    X1 is ``seed`` and later vertices, X2 later vertices outside X1; each
    runs by size, then lexicographically, from ``combinations``.
    """
    rest = range(seed + 1, n)
    for size1 in range(1, min(t, n) + 1):
        for tail in combinations(rest, size1 - 1):
            pool = [v for v in rest if v not in tail]
            for size2 in range(min(t, len(pool)) + 1):
                for x2 in combinations(pool, size2):
                    yield (seed,) + tail, x2


def reference_search_seed(g, t: int, s: int, seed: int):
    """The difference-structure search leaf by leaf, kept as its oracle.

    Every leaf of ``reference_leaves`` is visited and counted, and each
    recounts both cover counts over its own vertices; no subtree is cut.
    It returns ((f1, s1, f2, s2) masks or None, structures_examined).  The
    library's walk returns only the structure (X1, X2, C) or None; the same
    masks must follow from it through ``_witness_pairs`` and the same count
    through ``_seed_count``, for every seed, so this pins the leaf order and
    the count, not only the verdict.  Like ``full_search`` it works over the
    library's bit encodings, and it reads the library's ``_cover_subset`` and
    ``_blocking_edges``.
    """
    nbr = _masks.layout_of(g)
    examined = 0
    for x1, x2 in reference_leaves(g.vertex_count, t, seed):
        examined += 1
        x1mask = sum(1 << v for v in x1)
        x2mask = sum(1 << v for v in x2)
        xmask = x1mask | x2mask
        outside = ~xmask
        cover1 = sum((nbr[v] & outside).bit_count() for v in x1)
        cover2 = sum((nbr[v] & outside).bit_count() for v in x2)
        cmax_all = t - max(len(x1), len(x2))
        cmask = 0
        if cover1 > s or cover2 > s:
            if cmax_all == 0:
                continue
            need1 = cover1 - s
            need2 = cover2 - s
            cand_mask = 0
            for v in x1 if need1 > 0 else ():
                cand_mask |= nbr[v]
            for v in x2 if need2 > 0 else ():
                cand_mask |= nbr[v]
            cand_mask &= outside
            cands = []
            for c in _masks.bits(cand_mask):
                g1 = (nbr[c] & x1mask).bit_count()
                g2 = (nbr[c] & x2mask).bit_count()
                cands.append((c, g1, g2))
            cands.sort(key=lambda cg: (-(cg[1] + cg[2]), cg[0]))
            chosen = _cover_subset(cands, need1, need2, cmax_all)
            if chosen is None:
                continue
            for c in chosen:
                cmask |= 1 << c
        f1 = x1mask | cmask
        f2 = x2mask | cmask
        umask = xmask | cmask
        # S is forced: each pair blames the other side's edges leaving U
        s1 = _blocking_edges(g, x2, umask)
        s2 = _blocking_edges(g, x1, umask)
        return (f1, s1, f2, s2), examined
    return None, examined


def full_is_ts_diagnosable(g, t: int, s: int) -> gd.TsResult:
    """``is_ts_diagnosable`` answered by ``full_search``; stats name "full"."""
    masks, stats = full_search(g, t, s)
    stats = {"method": "full", **stats}
    if masks is None:
        return gd.TsResult(True, None, stats)
    f1, s1, f2, s2 = masks
    witness = tuple(gd.make_fault_pair(g, _masks.bits(f), [g.edges[k] for k in _masks.bits(sm)])
                    for f, sm in ((f1, s1), (f2, s2)))
    return gd.TsResult(False, witness, stats)


def full_edge_restricted_diagnosability(g, h: int) -> gd.DiagnosabilityReport:
    """t_h by ascending ``full_search`` levels, with the counters summed."""
    started = time.perf_counter()
    stats = {"method": "full", "candidates": 0, "pairs_examined": 0}
    value, witness = -1, None
    for t in range(g.vertex_count + 1):
        result = full_is_ts_diagnosable(g, t, h)
        for key in ("candidates", "pairs_examined"):
            stats[key] += result.stats[key]
        if not result.diagnosable:
            witness = result.witness
            break
        value = t
    return gd.DiagnosabilityReport(
        graph_name=g.name, kind="edge-restricted", level=h, value=value, witness=witness,
        elapsed_seconds=time.perf_counter() - started, stats=stats)


def shared_syndrome(g, p1, p2) -> gd.Syndrome:
    """The syndrome failing every test that ``p1`` or ``p2`` forces to fail.

    Every other test passes.  When the two pairs are indistinguishable no
    test is forced to fail under one and to pass under the other, so both
    pairs fit this syndrome; ``syndrome_fits`` checks that by definition.
    """
    results = [int(forced_value(tst, p1.faulty_vertices, p1.faulty_edges) == 1
                   or forced_value(tst, p2.faulty_vertices, p2.faulty_edges) == 1)
               for tst in directed_tests(g)]
    return gd.Syndrome(g, results)


def sigma_set(g, fset, sset) -> frozenset:
    """All syndromes (result tuples) the circumstance can produce."""
    tests = directed_tests(g)
    base = [forced_value(tst, fset, sset) for tst in tests]
    free = [i for i, v in enumerate(base) if v is None]
    out = set()
    for choice in product((0, 1), repeat=len(free)):
        syn = list(base)
        for i, v in zip(free, choice):
            syn[i] = v
        out.add(tuple(syn))
    return frozenset(out)


def literal_distinguishable(g, p1, p2) -> bool:
    """Distinguishability by definition: the two syndrome sets are disjoint."""
    return sigma_set(g, p1.faulty_vertices, p1.faulty_edges).isdisjoint(
        sigma_set(g, p2.faulty_vertices, p2.faulty_edges))


def reference_witness(g, p1, p2):
    """(condition, edge, direction) of the first condition hit, or None.

    Scans ``g.edges`` in canonical order over the frozensets; at one edge it
    tries condition 1 before condition 2 and direction 1 (``p1`` holds the
    exposed fault) before direction 2.
    """
    sides = ((1, p1, p2), (2, p2, p1))
    for e in g.edges:
        u, v = e
        for direction, a, b in sides:
            fa, fb = a.faulty_vertices, b.faulty_vertices
            if e not in b.faulty_edges and any(
                    x in fa and x not in fb and y not in fa and y not in fb
                    for x, y in ((u, v), (v, u))):
                return 1, e, direction
        for direction, a, b in sides:
            fb = b.faulty_vertices
            if e in a.faulty_edges and e not in b.faulty_edges and u not in fb and v not in fb:
                return 2, e, direction
    return None


def vertex_sets_indistinguishable(g, f1: frozenset, f2: frozenset) -> bool:
    """Vertex-fault-only comparison: no test may be forced to opposite values."""
    empty = frozenset()
    for test in directed_tests(g):
        a = forced_value(test, f1, empty)
        b = forced_value(test, f2, empty)
        if a is not None and b is not None and a != b:
            return False
    return True


def pmc_brute_diagnosability(g) -> int:
    """Classical diagnosability by definition: largest t with all distinct
    vertex sets of size <= t pairwise distinguishable."""
    n = g.vertex_count
    t = 0
    while t < n:
        fsets = [frozenset(c) for size in range(t + 2)
                 for c in combinations(range(n), size)]
        failed = any(
            vertex_sets_indistinguishable(g, fsets[i], fsets[j])
            for i in range(len(fsets))
            for j in range(i + 1, len(fsets)))
        if failed:
            return t
        t += 1
    return t


def reference_closure_value(g, seed: int) -> int:
    """The least 2|N[D]| - |D| over every vertex set D holding ``seed``, by
    enumerating the sets; N[D] is D with its neighbors."""
    return _least_closure(g, {seed})


def reference_pair_closure(g, a: int, b: int) -> int:
    """The least 2|N[D]| - |D| over every vertex set D holding ``a`` and ``b``."""
    return _least_closure(g, {a, b})


def _least_closure(g, held: set) -> int:
    # every D is ``held`` plus a subset of the other vertices, chosen one by
    # one; ``covered`` is N[D] of the choices so far, as a vertex bit set
    closed = [sum(1 << w for w in {v, *gd.neighbors(g, v)}) for v in range(g.vertex_count)]
    others = [v for v in range(g.vertex_count) if v not in held]

    def least(i, size, covered):
        if i == len(others):
            return 2 * covered.bit_count() - size
        return min(least(i + 1, size, covered),
                   least(i + 1, size + 1, covered | closed[others[i]]))

    covered = 0
    for v in held:
        covered |= closed[v]
    return least(0, len(held), covered)


def reference_girth(g):
    """Length of a shortest cycle, or math.inf for forests, from a BFS out of
    every vertex: a non-tree edge u-v closes a cycle of length at most
    d(u) + d(v) + 1, and the minimum over all start vertices is exact."""
    best = math.inf
    for source in range(g.vertex_count):
        dist = {source: 0}
        parent = {source: None}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in gd.neighbors(g, cur):
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    parent[nxt] = cur
                    queue.append(nxt)
                elif parent[cur] != nxt:
                    best = min(best, dist[cur] + dist[nxt] + 1)
    return best


# ---------------------------------------------------------------------------
# reference rendering of an inject report
# ---------------------------------------------------------------------------

def reference_inject_render(report: dict, fmt: str) -> str:
    """The text the CLI writes for an ``inject`` report, as it was written
    from the ``to_triples`` rows: the stdlib's JSON with the rows as lists,
    ``csv.writer`` rows, or one formatted table line per row."""
    result = report["result"]
    rows = result["syndrome"].to_triples()
    if fmt == "json":
        plain = {**report, "result": {**result, "syndrome": rows}}
        return json.dumps(plain, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["tester", "testee", "outcome"])
        writer.writerows(rows)
        return buffer.getvalue()
    fs = ",".join(map(str, result["pair"]["F"]))
    ss = ",".join(f"{u}-{v}" for u, v in result["pair"]["S"])
    lines = [f"pair      F={{{fs}}} S={{{ss}}}", "syndrome"]
    lines += [f"  {t} -> {v}: {'fail' if r else 'pass'}" for t, v, r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# vectorized all-pairs comparison (for the exhaustive equivalence sweeps)
# ---------------------------------------------------------------------------

def pair_mask_arrays(g, pairs):
    """Per-pair uint64 masks over the edge and test index spaces.

    A[i]/B[i]: edges whose smaller/larger endpoint is faulty in pair i;
    S[i]: faulty edges; FF[i]/FP[i]: forced-fail / forced-pass test masks.
    Built from the frozensets, not from the library's cached masks.
    """
    edges = g.edges
    tests = directed_tests(g)
    k = len(pairs)
    A = np.zeros(k, dtype=np.uint64)
    B = np.zeros(k, dtype=np.uint64)
    S = np.zeros(k, dtype=np.uint64)
    FF = np.zeros(k, dtype=np.uint64)
    FP = np.zeros(k, dtype=np.uint64)
    for i, p in enumerate(pairs):
        fs, ss = p.faulty_vertices, p.faulty_edges
        a = b = s = 0
        for idx, (u, v) in enumerate(edges):
            if u in fs:
                a |= 1 << idx
            if v in fs:
                b |= 1 << idx
            if (u, v) in ss:
                s |= 1 << idx
        ff = fp = 0
        for idx, tst in enumerate(tests):
            val = forced_value(tst, fs, ss)
            if val == 1:
                ff |= 1 << idx
            elif val == 0:
                fp |= 1 << idx
        A[i], B[i], S[i] = a, b, s
        FF[i], FP[i] = ff, fp
    return A, B, S, FF, FP


def all_pairs_agreement(g, pairs) -> tuple[int, int]:
    """(ordered pairs compared, mismatches) between the structural conditions
    and the forced-outcome syndrome-set test, over all ordered distinct pairs."""
    A, B, S, FF, FP = pair_mask_arrays(g, pairs)
    zero = np.uint64(0)
    k = len(pairs)
    mismatches = 0
    compared = 0
    for i in range(k):
        a1, b1, s1 = A[i], B[i], S[i]
        ff1, fp1 = FF[i], FP[i]
        c1d1 = (((a1 & ~A) & ~(B | b1)) | ((b1 & ~B) & ~(A | a1))) & ~S
        c1d2 = (((A & ~a1) & ~(B | b1)) | ((B & ~b1) & ~(A | a1))) & ~s1
        c2d1 = (s1 & ~S) & ~(A | B)
        c2d2 = (S & ~s1) & ~(a1 | b1)
        by_conditions = (c1d1 | c1d2 | c2d1 | c2d2) != zero
        by_oracle = ((ff1 & FP) | (fp1 & FF)) != zero
        by_conditions[i] = by_oracle[i] = False
        mismatches += int(np.count_nonzero(by_conditions != by_oracle))
        compared += k - 1
    return compared, mismatches
