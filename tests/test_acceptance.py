"""Acceptance gate: every criterion as one test, each printing a PASS/FAIL line.

Expected values follow the closed forms the tool is meant to reproduce; where
the exhaustive computation contradicts a closed form, the test fails honestly
and the mismatch rows name the offending parameters.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math

import gpmcdiag as gd

import brute
from brute import all_pairs_agreement, full_edge_restricted_diagnosability, \
    literal_distinguishable, pmc_brute_diagnosability
from gallery import full_gallery
from gpmcdiag.cli import main as cli_main


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def test_criterion_1_edge_restricted_closed_form():
    """t_h(Q_n) = n - h for all 1 <= h <= n: n in {2,3} by full enumeration,
    n = 4 with the pruned search; exact equality."""
    mismatches = []
    for n, search in ((2, full_edge_restricted_diagnosability),
                      (3, full_edge_restricted_diagnosability),
                      (4, gd.edge_restricted_diagnosability)):
        g = gd.build_hypercube(n)
        for h in range(1, n + 1):
            rep = search(g, h)
            if rep.value != n - h:
                mismatches.append(f"n={n} h={h}: computed {rep.value}, claimed {n - h}")
    ok = _verdict("criterion-1 edge-restricted closed form", not mismatches,
                  "; ".join(mismatches))
    assert ok, (
        "exhaustive search contradicts the claimed closed form at: "
        + "; ".join(mismatches)
        + " (adjacent single-vertex pairs blaming each other's remaining edges"
        " are indistinguishable at edge budget n-1; see notes/decisions.md)")


def test_criterion_2_single_vertex_edge_closed_form():
    """s_1(Q_n) = n - 2 for n in {2,3,4}; exact."""
    mismatches = []
    for n in (2, 3, 4):
        rep = gd.vertex_restricted_edge_diagnosability(gd.build_hypercube(n), 1)
        if rep.value != n - 2:
            mismatches.append(f"n={n}: computed {rep.value}, claimed {n - 2}")
    ok = _verdict("criterion-2 single-vertex edge closed form", not mismatches,
                  "; ".join(mismatches))
    assert ok


def test_criterion_3_classical_diagnosability():
    """Classical diagnosability of Q_n equals n for n in {2,3}, by brute force."""
    mismatches = []
    for n in (2, 3):
        g = gd.build_hypercube(n)
        value = full_edge_restricted_diagnosability(g, 0).value
        independent = pmc_brute_diagnosability(g)
        assert value == independent, "library disagrees with the definitional brute force"
        if value != n:
            mismatches.append(f"n={n}: computed {value}, claimed {n}")
    ok = _verdict("criterion-3 classical diagnosability", not mismatches,
                  "; ".join(mismatches))
    assert ok, (
        "brute force contradicts the claimed value at: " + "; ".join(mismatches)
        + " (the 2-cube splits into two antipodal pairs that explain the same"
        " all-fail syndrome; see notes/decisions.md)")


def test_criterion_4_degree_bound_suite():
    """On every gallery graph: t_0 equals the independent classical brute
    force, t_h <= delta - h for 0 <= h <= delta, s_0 = |E|, s_1 <= delta - 2."""
    failures = []
    for g in full_gallery():
        delta = gd.min_degree(g)
        t0 = gd.edge_restricted_diagnosability(g, 0).value
        if t0 != pmc_brute_diagnosability(g):
            failures.append(f"{g.name}: t_0={t0} != independent classical value")
        for h in range(delta + 1):
            th = gd.edge_restricted_diagnosability(g, h).value
            if th > delta - h:
                failures.append(f"{g.name}: t_{h}={th} > {delta - h}")
        s0 = gd.vertex_restricted_edge_diagnosability(g, 0).value
        if s0 != len(g.edges):
            failures.append(f"{g.name}: s_0={s0} != |E|={len(g.edges)}")
        s1 = gd.vertex_restricted_edge_diagnosability(g, 1).value
        if s1 > delta - 2:
            failures.append(f"{g.name}: s_1={s1} > {delta - 2}")
    ok = _verdict("criterion-4 degree-bound suite", not failures, "; ".join(failures))
    assert ok


def test_criterion_5_distinguishability_equivalence():
    """Condition route vs forced-outcome oracle on every ordered pair of
    distinct consistent pairs with |F| <= 3, |S| <= 2, on every gallery graph;
    plus forced-outcome vs literal syndrome-set enumeration on graphs with at
    most 12 tests."""
    total = mismatches = 0
    for g in full_gallery():
        pairs = brute.all_consistent_pairs(g, 3, 2)
        compared, bad = all_pairs_agreement(g, pairs)
        total += compared
        mismatches += bad
    literal_bad = 0
    literal_total = 0
    for g in [gd.build_hypercube(1), gd.build_path(3), gd.build_hypercube(2),
              gd.build_cycle(4)]:
        pairs = brute.all_consistent_pairs(g, 3, 2)
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i + 1:]:
                literal_total += 1
                if (literal_distinguishable(g, p1, p2)
                        != gd.distinguishable_oracle(g, p1, p2)):
                    literal_bad += 1
    for g in [gd.build_cycle(6), gd.build_complete(4)]:
        assert 2 * len(g.edges) <= 12
        pairs = brute.all_consistent_pairs(g, 2, 1)
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i + 1:]:
                literal_total += 1
                if (literal_distinguishable(g, p1, p2)
                        != gd.distinguishable_oracle(g, p1, p2)):
                    literal_bad += 1
    ok = _verdict(
        "criterion-5 distinguishability equivalence",
        mismatches == 0 and literal_bad == 0,
        f"{total} ordered pairs, {mismatches} mismatches; "
        f"literal enumeration: {literal_total} pairs, {literal_bad} mismatches")
    assert ok


def test_criterion_6_witness_constructions():
    """Both witness constructions yield consistent, indistinguishable pairs
    for every base vertex (all legal budgets) and every edge of Q_2 and Q_3."""
    failures = 0
    for n in (2, 3):
        g = gd.build_hypercube(n)
        for u in range(g.vertex_count):
            for h in range(0, gd.degree(g, u) + 1):
                p1, p2 = gd.construct_indistinguishable_witness(g, u, h)
                if gd.distinguishable(g, p1, p2).distinguishable:
                    failures += 1
                if gd.distinguishable_oracle(g, p1, p2):
                    failures += 1
        for e in g.edges:
            p1, p2 = gd.construct_edge_witness(g, e)
            if gd.distinguishable(g, p1, p2).distinguishable:
                failures += 1
            if gd.distinguishable_oracle(g, p1, p2):
                failures += 1
    ok = _verdict("criterion-6 witness constructions", failures == 0,
                  f"{failures} failures")
    assert ok


def test_criterion_7_diagnosis_roundtrip():
    """On Q_3 at bounds (2, 1), every in-bound fault pair decodes uniquely to
    itself under every adversary assignment (exhaustive: free-test counts
    never exceed 16 here)."""
    g = gd.build_hypercube(3)
    assert gd.is_ts_diagnosable(g, 2, 1).diagnosable
    failures = 0
    pairs = brute.all_consistent_pairs(g, 2, 1)
    for fp in pairs:
        free_tests = sum(1 for tester, _, _ in brute.directed_tests(g)
                         if tester in fp.faulty_vertices)
        assert free_tests <= 16
        if not gd.adversarial_roundtrip(g, fp, 2, 1):
            failures += 1
    ok = _verdict("criterion-7 diagnosis roundtrip", failures == 0,
                  f"{len(pairs)} pairs, {failures} failures")
    assert ok


def test_criterion_8_hypercube_structure():
    """girth(Q_n) = 4 and the zero-or-two common-neighbor rule, n in {2..5}."""
    bad = []
    for n in (2, 3, 4, 5):
        g = gd.build_hypercube(n)
        if gd.girth(g) != 4:
            bad.append(f"girth(Q_{n}) = {gd.girth(g)}")
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                if len(gd.neighbors(g, u) & gd.neighbors(g, v)) not in (0, 2):
                    bad.append(f"Q_{n}: vertices {u},{v}")
    ok = _verdict("criterion-8 hypercube structure", not bad, "; ".join(bad[:5]))
    assert ok


def test_criterion_9_determinism(tmp_path):
    """verify-theorems with a fixed config is byte-identical across three runs
    and across worker counts 1 and 4."""
    outputs = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        cli_main(["verify-theorems", "--max-n", "3", "--format", "json",
                  "--output", str(out)])
        outputs.append(out.read_bytes())
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}.json"
        cli_main(["verify-theorems", "--max-n", "3", "--format", "json",
                  "--jobs", jobs, "--output", str(out)])
        outputs.append(out.read_bytes())
    identical = len(set(outputs)) == 1
    # the parallel path with a non-trivial seed sweep must also be stable
    audit_outputs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"audit{jobs}.json"
        cli_main(["diagnosability", "--topology", "hypercube", "--n", "4",
                  "--edge-restricted", "2", "--audit-full-enumeration",
                  "--jobs", jobs, "--format", "json", "--output", str(out)])
        audit_outputs.append(out.read_bytes())
    parallel_ok = audit_outputs[0] == audit_outputs[1]
    report = json.loads(outputs[0])
    assert report["version"] == "1"
    ok = _verdict("criterion-9 determinism", identical and parallel_ok,
                  f"runs identical: {identical}; parallel identical: {parallel_ok}")
    assert ok
