import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import InputError
from gpmcdiag.diagnosability import _local_search

from brute import full_edge_restricted_diagnosability, full_is_ts_diagnosable, \
    literal_distinguishable, pmc_brute_diagnosability
from gallery import full_gallery, is_connected, min_edge_max_degree

# Values established by literal syndrome-set enumeration (see the brute
# module and the distinguishability sweeps); frozen here as ground truth.
EXPECTED_EDGE_RESTRICTED = {
    2: {0: 1, 1: 0, 2: 0},
    3: {0: 3, 1: 2, 2: 0, 3: 0},
    4: {0: 4, 1: 3, 2: 2, 3: 0, 4: 0},
}
EXPECTED_SINGLE_VERTEX_EDGE = {2: 0, 3: 1, 4: 2}


def _fault_free(g):
    return gd.make_fault_pair(g, set(), set())


# every public call that takes a bound, with that bound set to v
BOUND_CALLS = {
    "is_ts_diagnosable t": lambda g, v: gd.is_ts_diagnosable(g, v, 0),
    "is_ts_diagnosable s": lambda g, v: gd.is_ts_diagnosable(g, 0, v),
    "diagnose t": lambda g, v: gd.diagnose(g, gd.generate_syndrome(_fault_free(g)), v, 0),
    "diagnose s": lambda g, v: gd.diagnose(g, gd.generate_syndrome(_fault_free(g)), 0, v),
    "diagnose candidate_cap": lambda g, v: gd.diagnose(
        g, gd.generate_syndrome(_fault_free(g)), 1, 0, candidate_cap=v),
    "enumerate_consistent_pairs t": lambda g, v: gd.enumerate_consistent_pairs(
        g, gd.generate_syndrome(_fault_free(g)), v, 0),
    "enumerate_consistent_pairs s": lambda g, v: gd.enumerate_consistent_pairs(
        g, gd.generate_syndrome(_fault_free(g)), 0, v),
    "adversarial_roundtrip t": lambda g, v: gd.adversarial_roundtrip(g, _fault_free(g), v, 0),
    "adversarial_roundtrip s": lambda g, v: gd.adversarial_roundtrip(g, _fault_free(g), 0, v),
    "edge_restricted_diagnosability h": gd.edge_restricted_diagnosability,
    "vertex_restricted_edge_diagnosability r": gd.vertex_restricted_edge_diagnosability,
    "analytic_upper_bounds h": gd.analytic_upper_bounds,
}


@pytest.mark.parametrize("value", ["1", 1.5, True, None])
@pytest.mark.parametrize("call", sorted(BOUND_CALLS))
def test_bound_that_is_not_an_int_rejected(q2, call, value):
    with pytest.raises(InputError, match="must be an int"):
        BOUND_CALLS[call](q2, value)


@pytest.mark.parametrize("call", sorted(BOUND_CALLS))
def test_bound_below_range_rejected(q2, call):
    cap = call.endswith("candidate_cap")
    with pytest.raises(InputError, match="must be positive" if cap else "must be non-negative"):
        BOUND_CALLS[call](q2, 0 if cap else -1)


class TestIsTsDiagnosable:
    def test_zero_bounds_always_diagnosable(self):
        for g in [gd.build_hypercube(2), gd.build_path(4), gd.build_complete(4)]:
            assert gd.is_ts_diagnosable(g, 0, 0).diagnosable

    def test_q3_two_one_holds(self, q3):
        assert gd.is_ts_diagnosable(q3, 2, 1).diagnosable

    def test_q3_three_one_fails_with_witness(self, q3):
        result = gd.is_ts_diagnosable(q3, 3, 1)
        assert not result.diagnosable
        p1, p2 = result.witness
        assert not gd.distinguishable(q3, p1, p2).distinguishable
        assert not gd.distinguishable_oracle(q3, p1, p2)
        assert len(p1.faulty_vertices) <= 3 and len(p2.faulty_vertices) <= 3
        assert len(p1.faulty_edges) <= 1 and len(p2.faulty_edges) <= 1

    def test_negative_bounds_rejected(self, q2):
        with pytest.raises(InputError):
            gd.is_ts_diagnosable(q2, -1, 0)

    def test_edge_budget_beyond_edge_count_answers_as_edge_count(self):
        # the search answers alike for every s >= m, so the entry point clamps
        # s to m and answers an s too large to size any list by
        for g in [gd.build_path(4), gd.build_cycle(5)] + full_gallery()[:4]:
            m = len(g.edges)
            for t in range(4):
                at_m = _local_search(g, t, m, False)
                for s in (m + 1, m + 3):
                    assert _local_search(g, t, s, False) == at_m, (g.name, t, s)
                huge = gd.is_ts_diagnosable(g, t, 10 ** 30)
                assert huge == gd.is_ts_diagnosable(g, t, m), (g.name, t)

    def test_full_method_is_gone(self, q2):
        # one search method is exposed; the pairwise one is brute.full_search
        with pytest.raises(InputError):
            gd.is_ts_diagnosable(q2, 1, 0, method="full")
        with pytest.raises(InputError):
            gd.vertex_restricted_edge_diagnosability(q2, 0, method="full")

    def test_methods_agree_on_grid(self):
        graphs = [gd.build_path(4)] + full_gallery()
        for g in graphs:
            for t in range(0, 4):
                for s in range(0, 3):
                    full = full_is_ts_diagnosable(g, t, s)
                    local = gd.is_ts_diagnosable(g, t, s, method="local")
                    audit = gd.is_ts_diagnosable(g, t, s, method="local", audit=True)
                    assert full.diagnosable == local.diagnosable == audit.diagnosable, \
                        (g.name, t, s)

    def test_methods_agree_on_q3_levels(self, q3):
        for (t, s) in [(2, 1), (3, 1), (1, 2), (3, 0), (4, 0)]:
            assert (full_is_ts_diagnosable(q3, t, s).diagnosable
                    == gd.is_ts_diagnosable(q3, t, s, method="local").diagnosable)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.floats(0.0, 1.0), st.integers(0, 10 ** 6),
           st.integers(0, 3), st.integers(0, 2), st.booleans())
    def test_search_matches_pairwise_oracle(self, n, p, gen_seed, t, s, audit):
        g = gd.build_random(n, p, gen_seed)
        result = gd.is_ts_diagnosable(g, t, s, audit=audit)
        assert result.diagnosable == full_is_ts_diagnosable(g, t, s).diagnosable
        if result.witness is not None:
            p1, p2 = result.witness
            assert p1 != p2
            for pair in (p1, p2):
                assert len(pair.faulty_vertices) <= t and len(pair.faulty_edges) <= s
            assert not gd.distinguishable(g, p1, p2).distinguishable
            assert not gd.distinguishable_oracle(g, p1, p2)

    def test_antipodal_split_defeats_the_four_cycle(self):
        # the (2,0) witness spans the whole cycle; a purely neighborhood-local
        # enumeration would miss it, the difference-structure search must not
        c4 = gd.build_cycle(4)
        for result in (full_is_ts_diagnosable(c4, 2, 0),
                       gd.is_ts_diagnosable(c4, 2, 0, method="local")):
            assert not result.diagnosable
            f1 = result.witness[0].faulty_vertices
            f2 = result.witness[1].faulty_vertices
            assert f1 | f2 == {0, 1, 2, 3} and f1 & f2 == set()

    def test_monotonicity(self):
        for g in [gd.build_hypercube(2), gd.build_complete(4), gd.build_random(6, 0.5, 82)]:
            table = {(t, s): gd.is_ts_diagnosable(g, t, s).diagnosable
                     for t in range(4) for s in range(3)}
            for (t, s), ok in table.items():
                if not ok:
                    for t2 in range(t, 4):
                        for s2 in range(s, 3):
                            assert not table[(t2, s2)]

    def test_parallel_matches_sequential(self, q4):
        seq = gd.is_ts_diagnosable(q4, 3, 1, audit=True, jobs=1)
        par = gd.is_ts_diagnosable(q4, 3, 1, audit=True, jobs=4)
        assert seq.diagnosable == par.diagnosable
        assert seq.stats == par.stats
        assert seq.witness == par.witness

    def test_import_loads_no_process_pool(self):
        # the search runs in-process, so importing the package starts no pool machinery
        src = str(Path(gd.__file__).resolve().parent.parent)
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "import gpmcdiag\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr[-2000:]
        assert run.stdout.split() == []


class TestEdgeRestricted:
    @pytest.mark.parametrize("n", [2, 3])
    def test_hypercube_values_full_enumeration(self, n):
        g = gd.build_hypercube(n)
        for h, expected in EXPECTED_EDGE_RESTRICTED[n].items():
            rep = full_edge_restricted_diagnosability(g, h)
            assert rep.value == expected, (n, h)
            assert rep.stats["method"] == "full"

    def test_q4_values_with_local_pruning(self, q4):
        for h, expected in EXPECTED_EDGE_RESTRICTED[4].items():
            rep = gd.edge_restricted_diagnosability(q4, h)
            assert rep.value == expected, h
            assert rep.stats["method"] == "local"

    def test_witnesses_match_the_decisions_note(self):
        # the pairs notes/decisions.md gives for acceptance criteria 1 and 3
        pins = {
            (2, 1): [({0}, {(1, 3)}), ({1}, {(0, 2)})],
            (3, 2): [({0}, {(1, 3), (1, 5)}), ({1}, {(0, 2), (0, 4)})],
            (4, 3): [({0}, {(1, 3), (1, 5), (1, 9)}), ({1}, {(0, 2), (0, 4), (0, 8)})],
            (2, 0): [({0, 1}, set()), ({2, 3}, set())],
        }
        for (n, h), pairs in pins.items():
            witness = gd.edge_restricted_diagnosability(gd.build_hypercube(n), h).witness
            assert [(p.faulty_vertices, p.faulty_edges) for p in witness] == pairs, (n, h)

    def test_witness_attached_and_revalidates(self, q3):
        rep = gd.edge_restricted_diagnosability(q3, 1)
        p1, p2 = rep.witness
        assert not gd.distinguishable_oracle(q3, p1, p2)
        assert max(len(p1.faulty_vertices), len(p2.faulty_vertices)) <= rep.value + 1
        assert max(len(p1.faulty_edges), len(p2.faulty_edges)) <= 1

    def test_beyond_min_degree_is_flagged(self):
        g = gd.build_path(3)
        rep = gd.edge_restricted_diagnosability(g, 2)
        assert rep.outside_analyzed_range
        assert gd.edge_restricted_diagnosability(g, 1).outside_analyzed_range is False

    def test_bad_budget_rejected(self, q2):
        with pytest.raises(InputError):
            gd.edge_restricted_diagnosability(q2, 5)
        with pytest.raises(InputError):
            gd.edge_restricted_diagnosability(q2, -1)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            gd.edge_restricted_diagnosability(gd.Graph(0, []), 0)

    def test_stats_accumulate(self, q3):
        rep = full_edge_restricted_diagnosability(q3, 1)
        assert rep.stats["pairs_examined"] > 0
        assert rep.elapsed_seconds >= 0
        # the report sums the searched levels 0..value+1
        rep = gd.edge_restricted_diagnosability(q3, 1)
        levels = [gd.is_ts_diagnosable(q3, t, 1) for t in range(rep.value + 2)]
        assert rep.stats == {"method": "local", "structures_examined": sum(
            level.stats["structures_examined"] for level in levels)}


@pytest.mark.parametrize("n", range(3, 11))
def test_hypercube_closed_forms(n):
    # t_h(Q_n) = n - h up to h = n - 2 and 0 beyond; s_1 = s_2 = n - 2
    g = gd.build_hypercube(n)
    assert [gd.edge_restricted_diagnosability(g, h).value for h in range(n + 1)] \
        == [n - h for h in range(n - 1)] + [0, 0]
    assert [gd.vertex_restricted_edge_diagnosability(g, r).value for r in (1, 2)] == [n - 2] * 2


class TestVertexRestricted:
    def test_zero_budget_is_edge_count_without_search(self, q3):
        rep = gd.vertex_restricted_edge_diagnosability(q3, 0)
        assert rep.value == 12
        assert rep.stats == {"method": "analytic"}
        assert rep.witness is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hypercube_single_vertex_values(self, n):
        g = gd.build_hypercube(n)
        rep = gd.vertex_restricted_edge_diagnosability(g, 1)
        assert rep.value == EXPECTED_SINGLE_VERTEX_EDGE[n]

    def test_witness_revalidates(self, q3):
        rep = gd.vertex_restricted_edge_diagnosability(q3, 1)
        p1, p2 = rep.witness
        assert not gd.distinguishable_oracle(q3, p1, p2)
        assert max(len(p1.faulty_edges), len(p2.faulty_edges)) == rep.value + 1

    def test_single_vertex_graph_has_no_workable_budget(self):
        g = gd.Graph(1, [])
        rep = gd.vertex_restricted_edge_diagnosability(g, 1)
        assert rep.value == -1

    def test_negative_budget_rejected(self, q2):
        with pytest.raises(InputError):
            gd.vertex_restricted_edge_diagnosability(q2, -1)


class TestPmcDiagnosability:
    def test_two_mutually_testing_nodes(self):
        # either node alone explains the both-fail syndrome, so one faulty
        # node is already ambiguous
        k2 = gd.build_hypercube(1)
        assert gd.pmc_diagnosability(k2) == 0

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3)])
    def test_hypercubes(self, n, expected):
        assert gd.pmc_diagnosability(gd.build_hypercube(n)) == expected

    def test_matches_independent_brute_force(self):
        graphs = [gd.build_hypercube(1), gd.build_hypercube(2), gd.build_path(4),
                  gd.build_cycle(5), gd.build_complete(4), gd.build_complete(5),
                  gd.build_random(6, 0.5, 61), gd.build_random(7, 0.5, 65)]
        for g in graphs:
            assert gd.pmc_diagnosability(g) == pmc_brute_diagnosability(g), g.name


class TestAnalyticBounds:
    def test_q4_budget_one(self, q4):
        b = gd.analytic_upper_bounds(q4, 1)
        assert b.t_h_bound == 3 and b.s1_bound == 2

    def test_q3_at_full_degree(self, q3):
        assert gd.analytic_upper_bounds(q3, 3).t_h_bound == 0

    def test_q2_budget_zero(self, q2):
        assert gd.analytic_upper_bounds(q2, 0).t_h_bound == 2

    def test_clamped_at_zero(self):
        g = gd.build_path(3)
        assert gd.analytic_upper_bounds(g, 1).s1_bound == 0

    def test_beyond_min_degree_rejected(self, q3):
        with pytest.raises(InputError):
            gd.analytic_upper_bounds(q3, 4)

    def test_bounds_hold_across_gallery(self):
        for g in full_gallery():
            delta = gd.min_degree(g)
            for h in range(delta + 1):
                rep = gd.edge_restricted_diagnosability(g, h)
                assert rep.value <= gd.analytic_upper_bounds(g, h).t_h_bound, (g.name, h)


class TestVertexSeededWitness:
    def test_q3_worked_example(self, q3):
        # neighbors of 000 ascending: 001, 010, 100; budget 1 blames the
        # first edge and keeps the last two neighbors faulty
        p1, p2 = gd.construct_indistinguishable_witness(q3, 0, 1)
        assert p1.faulty_vertices == {0, 2, 4} and p1.faulty_edges == set()
        assert p2.faulty_vertices == {2, 4} and p2.faulty_edges == {(0, 1)}

    def test_q2_full_budget(self, q2):
        p1, p2 = gd.construct_indistinguishable_witness(q2, 0, 2)
        assert p1.faulty_vertices == {0} and p1.faulty_edges == set()
        assert p2.faulty_vertices == set()
        assert p2.faulty_edges == {(0, 1), (0, 2)}

    def test_every_vertex_and_budget_on_small_hypercubes(self, q2, q3):
        for g in (q2, q3):
            for u in range(g.vertex_count):
                for h in range(0, gd.degree(g, u) + 1):
                    p1, p2 = gd.construct_indistinguishable_witness(g, u, h)
                    assert not gd.distinguishable(g, p1, p2).distinguishable
                    assert not gd.distinguishable_oracle(g, p1, p2)

    def test_budget_beyond_degree_rejected(self, q3):
        with pytest.raises(InputError, match=r"edge budget h=4 outside 0..deg\(0\)=3"):
            gd.construct_indistinguishable_witness(q3, 0, 4)
        with pytest.raises(InputError, match="edge budget h must be non-negative"):
            gd.construct_indistinguishable_witness(q3, 0, -1)

    @pytest.mark.parametrize("h", ["a", 1.0, True, None])
    def test_budget_not_an_int_rejected(self, q3, h):
        # refused by name, not a bare TypeError, and True is not taken for 1
        with pytest.raises(InputError, match="edge budget h must be an int"):
            gd.construct_indistinguishable_witness(q3, 0, h)

    def test_sizes_prove_the_bound(self, q4):
        for h in range(0, 5):
            p1, p2 = gd.construct_indistinguishable_witness(q4, 0, h)
            assert len(p1.faulty_vertices) == 4 - h + 1
            assert len(p2.faulty_vertices) == 4 - h
            assert len(p2.faulty_edges) == h


class TestEdgeSeededWitness:
    def test_q3_symmetric_blame(self, q3):
        p1, p2 = gd.construct_edge_witness(q3, (0, 1))
        assert p1.faulty_vertices == {0}
        assert p1.faulty_edges == {(1, 3), (1, 5)}
        assert p2.faulty_vertices == {1}
        assert p2.faulty_edges == {(0, 2), (0, 4)}

    def test_every_edge_of_small_hypercubes(self, q2, q3):
        for g in (q2, q3):
            delta = gd.min_degree(g)
            for e in g.edges:
                p1, p2 = gd.construct_edge_witness(g, e)
                assert not gd.distinguishable(g, p1, p2).distinguishable
                assert not gd.distinguishable_oracle(g, p1, p2)
                assert len(p1.faulty_edges) == delta - 1
                assert len(p2.faulty_edges) == delta - 1

    def test_oracle_cross_check_on_q2(self, q2):
        for e in q2.edges:
            p1, p2 = gd.construct_edge_witness(q2, e)
            assert not literal_distinguishable(q2, p1, p2)

    def test_requires_min_degree_endpoint(self):
        # triangle with a pendant: edge 1-2 joins two degree-3... both
        # non-minimum endpoints must be rejected
        g = gd.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)], name="paw")
        with pytest.raises(InputError):
            gd.construct_edge_witness(g, (0, 1))
        p1, p2 = gd.construct_edge_witness(g, (2, 3))  # 3 has min degree
        assert p1.faulty_vertices == {3}

    def test_non_edge_rejected(self, q3):
        with pytest.raises(InputError):
            gd.construct_edge_witness(q3, (0, 7))


CONSTRUCTION_GRAPHS = ([gd.build_hypercube(n) for n in range(1, 7)]
                       + [gd.build_cycle(n) for n in range(3, 9)]
                       + [gd.build_complete(n) for n in range(2, 7)]
                       + [gd.build_random(n, p, seed) for n, p, seed in
                          ((6, 0.5, 1), (8, 0.4, 2), (9, 0.7, 3), (10, 0.3, 4))])


def _incident(g, x):
    """NE(x): the edges at x, in canonical (min, max) form."""
    return {(min(x, w), max(x, w)) for w in gd.neighbors(g, x)}


def _as_sets(pairs):
    return [(p.faulty_vertices, p.faulty_edges) for p in pairs]


@pytest.mark.parametrize("g", CONSTRUCTION_GRAPHS, ids=lambda g: g.name)
def test_constructions_return_the_pairs_their_docstrings_state(g):
    # expected pairs from the docstrings' formulas, in this order, so a swap
    # of the two pairs' roles or of the blamed edges fails here
    for u in range(g.vertex_count):
        nbrs = sorted(gd.neighbors(g, u))
        for h in range(len(nbrs) + 1):
            last = frozenset(nbrs[h:])
            first_edges = frozenset((min(u, w), max(u, w)) for w in nbrs[:h])
            expected = [(last | {u}, frozenset()), (last, first_edges)]
            assert _as_sets(gd.construct_indistinguishable_witness(g, u, h)) == expected, (u, h)
    delta = gd.min_degree(g)
    for a, b in g.edges:
        if delta not in (gd.degree(g, a), gd.degree(g, b)):
            with pytest.raises(InputError, match="no endpoint of minimum degree"):
                gd.construct_edge_witness(g, (a, b))
            continue
        u, v = (a, b) if gd.degree(g, a) == delta else (b, a)
        expected = [(frozenset({u}), frozenset(_incident(g, v) - {(a, b)})),
                    (frozenset({v}), frozenset(_incident(g, u) - {(a, b)}))]
        assert _as_sets(gd.construct_edge_witness(g, (a, b))) == expected, (a, b)


def test_gallery_satisfies_selection_conditions():
    for g in full_gallery():
        assert g.vertex_count <= 8
        assert is_connected(g)
        assert gd.min_degree(g) >= 2
        assert min_edge_max_degree(g) == gd.min_degree(g)
