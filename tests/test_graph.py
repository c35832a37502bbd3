import math
import os
import random
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gpmcdiag as gd
from gpmcdiag import _masks, cli
from gpmcdiag.errors import InputError
from gpmcdiag.faults import _candidate_masks, _test_index

import brute
from gallery import full_gallery


def label_id(g, label):
    return g.labels.index(label)


class TestNeighbors:
    def test_hypercube_neighbors_differ_in_one_bit(self, q3):
        got = {q3.labels[v] for v in gd.neighbors(q3, label_id(q3, "000"))}
        assert got == {"001", "010", "100"}

    def test_isolated_vertex(self):
        g = gd.Graph(1, [])
        assert gd.neighbors(g, 0) == frozenset()

    def test_cycle_vertex(self):
        c4 = gd.build_cycle(4)
        assert gd.neighbors(c4, 0) == {1, 3}

    def test_symmetry_everywhere(self):
        for g in full_gallery():
            for u in range(g.vertex_count):
                for v in gd.neighbors(g, u):
                    assert u in gd.neighbors(g, v)

    def test_invalid_vertex(self, q3):
        with pytest.raises(InputError):
            gd.neighbors(q3, 8)
        with pytest.raises(InputError):
            gd.degree(q3, -1)


@given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_queries_and_layout_agree_with_edge_list(n, p, seed):
    # every query and the neighbor bits read the structures the constructor
    # builds; recompute each from g.edges alone
    g = gd.build_random(n, p, seed)
    nbrs = [set() for _ in range(n)]
    index = {}
    for k, (u, v) in enumerate(g.edges):
        nbrs[u].add(v)
        nbrs[v].add(u)
        index[(u, v)] = k
    for u in range(n):
        assert gd.neighbors(g, u) == nbrs[u]
        assert gd.degree(g, u) == len(nbrs[u])
        assert gd.incident_edges(g, u) == {gd.graph.edge(u, v) for v in nbrs[u]}
        for v in range(n):
            assert g.has_edge(u, v) == (v in nbrs[u])
    assert gd.min_degree(g) == min(map(len, nbrs))
    assert g._nbrs == tuple(tuple(sorted(nbrs[u])) for u in range(n))
    assert g._eids == tuple(tuple(index[gd.graph.edge(u, v)] for v in sorted(nbrs[u]))
                            for u in range(n))
    assert _masks.layout_of(g) == tuple(sum(1 << v for v in nbrs[u]) for u in range(n))
    assert _masks.layout_of(g) is _masks.layout_of(g)


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6), st.data())
def test_edge_lookups_agree_with_edge_list(n, p, seed, data):
    # every lookup bisects a neighbor row; each must find the edge's position
    # in g.edges, and refuse a non-edge and a vertex paired with itself
    g = gd.build_random(n, p, seed)
    tests = brute.directed_tests(g)
    for u in range(n):
        for v in range(n):
            e = (min(u, v), max(u, v))
            k = g.edges.index(e) if e in g.edges else None
            assert g._edge_id(u, v) == k
            assert g.has_edge(u, v) is (k is not None)
            if k is None:
                with pytest.raises(InputError):
                    g.check_edge((u, v))
                with pytest.raises(InputError):
                    _test_index(g, u, v)
            else:
                assert g.check_edge((u, v)) == e
                assert gd.make_fault_pair(g, (), [(u, v)]).s_mask == 1 << k
                i = _test_index(g, u, v)
                assert i >> 1 == k and tests[i] == (u, v, e)
    if g.edges:
        # a repeat in either orientation, anywhere, on either validation path
        u, v = data.draw(st.sampled_from(g.edges))
        edges = list(g.edges)
        edges.insert(data.draw(st.integers(0, len(edges))),
                     data.draw(st.sampled_from([(u, v), (v, u)])))
        if data.draw(st.booleans()):
            edges = [list(e) for e in edges]
        with pytest.raises(InputError, match="duplicate edge"):
            gd.Graph(n, edges)


class TestIncidentEdges:
    def test_q2_corner(self, q2):
        assert gd.incident_edges(q2, 0) == {(0, 1), (0, 2)}

    def test_isolated(self):
        g = gd.Graph(2, [])
        assert gd.incident_edges(g, 1) == frozenset()

    def test_q3_count_matches_degree(self, q3):
        for u in range(8):
            edges = gd.incident_edges(q3, u)
            assert len(edges) == gd.degree(q3, u) == 3
            assert all(u in e for e in edges)


class TestDegrees:
    def test_min_degree_q4(self, q4):
        assert gd.min_degree(q4) == 4

    def test_path_and_complete(self):
        assert gd.min_degree(gd.build_path(3)) == 1
        assert gd.min_degree(gd.build_complete(5)) == 4

    def test_min_degree_empty_graph(self):
        with pytest.raises(InputError):
            gd.min_degree(gd.Graph(0, []))

    def test_min_degree_is_cached_once(self):
        # construction computes nothing; the decoder or min_degree caches delta(G)
        for g in full_gallery():
            assert g._min_degree is None
            assert gd.min_degree(g) == g._min_degree == min(map(len, g._nbrs))
        g = gd.build_path(4)
        _candidate_masks(g, 0, 1, 0)
        assert g._min_degree == gd.min_degree(g) == 1

    def test_handshake_identity(self):
        for g in full_gallery():
            total = sum(gd.degree(g, u) for u in range(g.vertex_count))
            assert total == 2 * len(g.edges)


class TestHypercube:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sizes(self, n):
        g = gd.build_hypercube(n)
        assert g.vertex_count == 2 ** n
        assert len(g.edges) == n * 2 ** (n - 1)
        assert all(gd.degree(g, u) == n for u in range(g.vertex_count))

    def test_n1_is_single_edge(self):
        g = gd.build_hypercube(1)
        assert g.vertex_count == 2 and g.edges == ((0, 1),)

    def test_labels_are_binary_expansions(self, q3):
        assert q3.labels[5] == "101"
        assert q3.labels[0] == "000"

    def test_dimension_bounds(self):
        with pytest.raises(InputError):
            gd.build_hypercube(0)
        with pytest.raises(InputError):
            gd.build_hypercube(21)
        with pytest.raises(InputError):
            gd.build_hypercube(gd.graph.HYPERCUBE_DIMENSION_CAP + 1)

    def test_adjacency_is_hamming_distance_one(self, q3):
        for (u, v) in q3.edges:
            diff = [a != b for a, b in zip(q3.labels[u], q3.labels[v])]
            assert sum(diff) == 1


def flip(label, d):
    """The label with position d (1-based, from the left) flipped."""
    return label[:d - 1] + "10"[int(label[d - 1])] + label[d:]


class TestHypercubeNeighbor:
    # label position d, counted from 1 at the left, is integer bit n - d
    def test_first_position_is_leftmost(self, q3):
        assert label_id(q3, "100") == 1 << 2
        assert label_id(q3, "100") in gd.neighbors(q3, label_id(q3, "000"))

    def test_last_position(self, q4):
        assert label_id(q4, "0100") == label_id(q4, "0101") ^ 1
        assert label_id(q4, "0100") in gd.neighbors(q4, label_id(q4, "0101"))

    def test_matches_graph_adjacency(self, q3):
        for u in range(8):
            flips = {label_id(q3, flip(q3.labels[u], d)) for d in (1, 2, 3)}
            assert flips == gd.neighbors(q3, u) == {u ^ (1 << (3 - d)) for d in (1, 2, 3)}


class TestGirth:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hypercube_girth_four(self, n):
        assert gd.girth(gd.build_hypercube(n)) == 4

    def test_single_edge_infinite(self):
        assert gd.girth(gd.build_hypercube(1)) == math.inf

    def test_tree_infinite(self):
        assert gd.girth(gd.build_path(5)) == math.inf

    def test_cycles(self):
        assert gd.girth(gd.build_cycle(5)) == 5
        assert gd.girth(gd.build_complete(4)) == 3

    @pytest.mark.parametrize("build", [gd.build_path, gd.build_cycle])
    def test_path_and_cycle_at_the_vertex_cap(self, build):
        # a BFS from every vertex would take minutes here: the path peels away
        # before any BFS, and the cycle is searched from vertex 0
        g = build(gd.graph.VERTEX_CAP)
        assert gd.girth(g) == (g.vertex_count if g.vertex_transitive else math.inf)

    def test_parsed_cycle_at_the_vertex_cap(self, monkeypatch):
        # read from an edge list the cycle is not marked vertex-transitive;
        # deleting vertex 0 after its BFS peels the rest, so one BFS runs.
        # Each BFS makes one queue, and a second one fails at once, so a
        # girth that searches from every vertex fails here instead of hanging
        g = gd.parse_edge_list(gd.format_edge_list(gd.build_cycle(gd.graph.VERTEX_CAP)))
        assert not g.vertex_transitive
        queues = []

        def one_queue(items):
            queues.append(items)
            assert len(queues) == 1, "girth started a second BFS"
            return deque(items)

        monkeypatch.setattr(gd.graph, "deque", one_queue)
        assert gd.girth(g) == gd.graph.VERTEX_CAP
        assert queues == [[0]]

    @pytest.mark.parametrize("g", [
        *map(gd.build_cycle, range(3, 30)), *map(gd.build_hypercube, range(1, 9)),
        *map(gd.build_complete, range(1, 7)), gd.build_path(1), gd.Graph(0, [])],
        ids=lambda g: g.name)
    def test_builders_match_the_all_sources_reference(self, g):
        assert gd.girth(g) == brute.reference_girth(g)

    @given(st.integers(0, 14), st.floats(0, 1), st.integers(0, 2**32), st.integers(0, 3))
    def test_random_graphs_match_the_all_sources_reference(self, n, p, seed, extra):
        # a random forest, disconnected when a vertex draws no parent, plus a
        # few extra edges, so tree and cyclic components mix; and G(n, p)
        rng = random.Random(seed)
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < p}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra) if n > 1}
        graphs = [gd.Graph(n, edges)] + ([gd.build_random(n, p, seed)] if n else [])
        if n >= 3:
            # a builder's cycle or hypercube read back from text is not marked
            # vertex-transitive, so every vertex may start a BFS
            graphs.append(gd.build_cycle(n) if extra % 2 else gd.build_hypercube(min(n, 6)))
        for g in graphs + [gd.parse_edge_list(gd.format_edge_list(g)) for g in graphs]:
            assert gd.girth(g) == brute.reference_girth(g)


def common(g, u, v):
    return gd.neighbors(g, u) & gd.neighbors(g, v)


class TestCommonNeighbors:
    def test_two_bits_apart(self, q3):
        got = common(q3, label_id(q3, "000"), label_id(q3, "011"))
        assert {q3.labels[v] for v in got} == {"001", "010"}

    def test_three_bits_apart(self, q3):
        assert common(q3, 0, 7) == frozenset()

    def test_adjacent_vertices_have_none(self, q3):
        for (u, v) in q3.edges:
            assert common(q3, u, v) == frozenset()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_or_two_everywhere(self, n):
        g = gd.build_hypercube(n)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert len(common(g, u, v)) in (0, 2)


class TestNamedTopologies:
    def test_cycle(self):
        g = gd.build_named_topology("cycle", n=4)
        assert g.vertex_count == 4 and len(g.edges) == 4

    def test_complete(self):
        g = gd.build_named_topology("complete", n=3)
        assert len(g.edges) == 3

    def test_random_is_reproducible(self):
        a = gd.build_named_topology("random", n=6, p=0.5, seed=1)
        b = gd.build_named_topology("random", n=6, p=0.5, seed=1)
        c = gd.build_named_topology("random", n=6, p=0.5, seed=2)
        assert a.edges == b.edges
        assert a.edges != c.edges  # seed 2 happens to differ

    def test_unknown_name(self):
        with pytest.raises(InputError):
            gd.build_named_topology("torus", n=4)

    @pytest.mark.parametrize("build", [
        lambda: gd.build_hypercube("3"),
        lambda: gd.build_hypercube(3.0),
        lambda: gd.build_hypercube(True),
        lambda: gd.build_path(4.0),
        lambda: gd.build_cycle(4.0),
        lambda: gd.build_complete("4"),
        lambda: gd.build_random(4.0, 0.5, 1),
        lambda: gd.build_random(4, "0.5", 1),
        lambda: gd.build_random(4, None, 1),
        lambda: gd.build_random(4, 0.5, "1"),
    ])
    def test_builder_numbers_of_the_wrong_type_rejected(self, build):
        with pytest.raises(InputError, match="must be an int|must be a number"):
            build()

    def test_missing_parameter(self):
        with pytest.raises(InputError):
            gd.build_named_topology("random", n=6)

    @pytest.mark.parametrize("name, params", [
        ("hypercube", {"n": 3.7}),
        ("hypercube", {"n": True}),
        ("hypercube", {"n": "a"}),
        ("hypercube", {"n": [3]}),
        ("random", {"n": 4, "p": "x", "seed": 1}),
    ], ids=["float-n", "bool-n", "str-n", "list-n", "str-p"])
    def test_parameters_reach_the_builder_unconverted(self, name, params):
        # the builder refuses a value of the wrong type; nothing truncates
        # 3.7 to 3 or lets a bare ValueError or TypeError out
        with pytest.raises(InputError, match="must be an int|must be a number"):
            gd.build_named_topology(name, **params)

    def test_int_probability_names_the_graph_as_the_builder_does(self):
        g = gd.build_named_topology("random", n=4, p=1, seed=1)
        assert g.name == gd.build_random(4, 1, 1).name == "random-4-p1-s1"

    @pytest.mark.parametrize("name, params", [
        ("hypercube", {"n": 3, "p": 0.5}),
        ("hypercube", {"n": 3, "seed": 4}),
        ("path", {"n": 3, "p": 0.5}),
        ("complete", {"n": 3, "size": 3}),
        ("random", {"n": 6, "p": 0.5, "seed": 1, "m": 4}),
    ])
    def test_stray_parameter_refused(self, name, params):
        with pytest.raises(InputError, match="does not take parameter"):
            gd.build_named_topology(name, **params)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            gd.Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            gd.Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(InputError):
            gd.Graph(2, [(0, 2)])

    @pytest.mark.parametrize("count", [2.5, "3", True, None])
    def test_vertex_count_not_an_int(self, count):
        with pytest.raises(InputError, match="must be an int"):
            gd.Graph(count, [])

    @pytest.mark.parametrize("e", [(0, 1.0), (0, True), (False, 1), ("0", 1), (0, None)])
    def test_endpoint_not_an_int(self, e):
        with pytest.raises(InputError, match="not an int"):
            gd.Graph(3, [e])

    @pytest.mark.parametrize("u", [True, False, 1.0, "1", None])
    def test_vertex_id_not_an_int(self, q2, u):
        with pytest.raises(InputError, match="vertex id"):
            q2.check_vertex(u)
        with pytest.raises(InputError, match="vertex id"):
            gd.make_fault_pair(q2, [u], [])

    @pytest.mark.parametrize("u", [0, 3])
    def test_has_edge_of_a_vertex_and_itself_is_false(self, q2, u):
        assert q2.has_edge(u, u) is False

    @pytest.mark.parametrize("u, v", [(0, True), (False, 1), (0, 99), (-1, 0), (0, 1.0),
                                      ("0", 1)])
    def test_has_edge_checks_vertex_ids(self, q2, u, v):
        with pytest.raises(InputError, match="vertex id"):
            q2.has_edge(u, v)

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1), (1, 1)], "self-loop at vertex 1 "),
        (3, [(0, 1), (2, 1), (1, 0)], "duplicate edge 1-0"),
        (3, [(0, 1), (1, 3)], "edge 1-3 has an endpoint outside 0..2"),
        (3, [(0, 1), (-1, 2)], "edge -1-2 has an endpoint outside 0..2"),
        (0, [(0, 1)], "edge 0-1 has an endpoint outside 0..-1"),
        (3, [(0, 1), (1, True)], "edge 1-True has an endpoint that is not an int"),
        (3, [[0, 1], [2, 1.0]], "edge 2-1.0 has an endpoint that is not an int"),
        # the first bad edge in input order decides, whatever the later ones are
        (3, [(0, 5), (1, 1)], "edge 0-5 has an endpoint outside"),
        (3, [(1, 1), (0, 5)], "self-loop at vertex 1 "),
        (3, [(0, 5), (0, None)], "edge 0-5 has an endpoint outside"),
        (3, [(0, None), (0, 5)], "edge 0-None has an endpoint that is not an int"),
        (3, [(0, 1), (1, 0), (0, 5)], "edge 0-5 has an endpoint outside"),
        (3, [[0, 1], [1, 0], [0, 5]], "edge 0-5 has an endpoint outside"),
        (3, [(0, 1), (1, 2), (1, 0), (2, 1)], "duplicate edge 1-0"),
    ])
    def test_bad_edge_messages(self, n, edges, message):
        with pytest.raises(InputError, match=re.escape(message)):
            gd.Graph(n, edges)

    @pytest.mark.parametrize("second, message", [
        ((1, 1), "self-loop at vertex 1 "),
        ((0, 5), "edge 0-5 has an endpoint outside 0..2"),
        ((1, 0), "duplicate edge 1-0"),
        ((0, 1, 2), "edge (0, 1, 2) is not a pair of vertices"),
    ])
    def test_iterator_items_are_read_once(self, second, message):
        # an edge given as an iterator is read once, so a refused list still
        # names its own bad edge, not an exhausted iterator before it
        with pytest.raises(InputError, match=re.escape(message)):
            gd.Graph(3, [iter((0, 1)), iter(second)])
        assert gd.Graph(3, [iter((0, 1)), iter((2, 1))]).edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("u, v, message", [
        (1.5, 2, "edge 1.5-2 has an endpoint that is not an int"),
        (True, 2, "edge True-2 has an endpoint that is not an int"),
        (None, 2, "edge None-2 has an endpoint that is not an int"),
        (2, 2, "self-loop at vertex 2 "),
    ])
    def test_edge_refuses_bad_endpoints(self, u, v, message):
        # edge() owns the endpoint rule that Graph(...) applies edge by edge
        with pytest.raises(InputError, match=re.escape(message)):
            gd.edge(u, v)

    def test_edges_canonical_and_sorted(self):
        canonical = (1, 3)
        g = gd.Graph(4, [canonical, (2, 0)])
        assert g.edges == ((0, 2), (1, 3))
        # built from the endpoint column: equal to the caller's tuple, not it
        assert g.edges[1] == canonical
        # pairs as lists take the edge-by-edge checks; any iterable of pairs will do
        assert gd.Graph(4, [[3, 1], [2, 0]]).edges == g.edges
        assert gd.Graph(4, (e for e in [(3, 1), (2, 0)])).edges == g.edges

    def test_vertex_transitive_cannot_be_claimed(self):
        # the flag makes the search try a single seed vertex, so a false one
        # would inflate values; only the builders of symmetric families set it
        with pytest.raises(TypeError):
            gd.Graph(3, [(0, 1), (1, 2)], vertex_transitive=True)
        g = gd.build_path(3)
        with pytest.raises(AttributeError):
            g.vertex_transitive = True
        assert not g.vertex_transitive
        assert gd.build_cycle(5).vertex_transitive


#: per builder, its edges written independently of graph.py
BUILDER_EDGES = {
    "hypercube": lambda n: [(v, v | 1 << b) for v in range(1 << n) for b in range(n)
                            if not v >> b & 1],
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "complete": lambda n: [(a, b) for a in range(n) for b in range(a + 1, n)],
}


def assert_built_as_edge_list(g, edges, labels=None):
    """g equals what the constructor makes of ``edges``, shuffled and each
    written backwards, in its columns, adjacency, edge ids, edges and labels."""
    edges = [(b, a) for a, b in edges]
    random.Random(len(edges)).shuffle(edges)
    ref = gd.Graph(g.vertex_count, edges, labels=labels)
    assert len(g._ends) == len(ref._ends) == 2 * len(edges)
    assert g._ends == ref._ends
    assert g._nbrs == ref._nbrs
    assert g._eids == ref._eids
    assert g.edges == ref.edges
    assert g.labels == ref.labels


class TestEdgeColumns:
    """Every graph is built from its edge columns (lo, hi); the builders hand
    theirs to the core unchecked, so each builder is proven here instead."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_hypercube_columns_match_edge_list(self, n):
        g = gd.build_hypercube(n)
        assert (g.vertex_count, len(g._ends)) == (1 << n, 2 * n << (n - 1))
        assert_built_as_edge_list(g, BUILDER_EDGES["hypercube"](n),
                                  [format(v, f"0{n}b") for v in range(1 << n)])

    @pytest.mark.parametrize("name, n", [
        *(("path", n) for n in (1, 2, 3, 10, 1000)),
        *(("cycle", n) for n in (3, 4, 5, 10, 1000)),
        *(("complete", n) for n in (1, 2, 3, 4, 30)),
    ])
    def test_builder_columns_match_edge_list(self, name, n):
        g = gd.build_named_topology(name, n=n)
        assert g.vertex_count == n
        assert_built_as_edge_list(g, BUILDER_EDGES[name](n))

    @given(st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32))
    def test_random_columns_match_edge_list(self, n, p, seed):
        # the same draws, one per candidate edge in combinations order
        rng = random.Random(seed)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        assert_built_as_edge_list(gd.build_random(n, p, seed), edges)

    def test_edges_built_once(self):
        # every graph, from a builder's columns or the caller's tuples, builds
        # its edge tuples from the column on first use
        for g in (gd.build_hypercube(3), gd.Graph(3, [(0, 1)])):
            assert g._edges is None
            assert g.edges is g.edges
            assert g.edges == tuple(zip(g._ends[::2], g._ends[1::2]))

    def test_edges_cannot_be_assigned(self):
        # the adjacency is built once, so a replaced edge list would disagree with it
        g = gd.Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(AttributeError):
            g.edges = ((0, 2),)
        assert g.edges == ((0, 1), (1, 2))

    def test_inject_and_diagnose_leave_edges_unbuilt(self, monkeypatch, capsys):
        # neither the CLI's inject on Q_10, in every format and with random
        # faults, nor the library's decoder reads the edge tuples
        built = []

        def recording_hypercube(n):
            built.append(gd.build_hypercube(n))
            return built[-1]

        monkeypatch.setitem(gd.graph._BUILDERS, "hypercube", (recording_hypercube, ("n",)))
        base = ["inject", "--topology", "hypercube", "--n", "10", "--seed", "5",
                "--adversary", "random"]
        for extra in (["--faulty-vertices", "3,700", "--faulty-edges", "0-1,96-608"],
                      ["--random-faults", "4,6"]):
            for fmt in ("json", "csv", "table"):
                assert cli.main(base + extra + ["--format", fmt]) == 0
        capsys.readouterr()
        assert len(built) == 6
        assert all(g._edges is None for g in built)
        g = built[0]
        pair = gd.make_fault_pair(g, {3, 700}, [(0, 1), (96, 608)])
        sig = gd.generate_syndrome(pair, "random", seed=5)
        assert gd.diagnose(g, sig, 2, 2).unique_pair == pair
        assert gd.distinguishable(g, pair, gd.make_fault_pair(g, {3}, ())).distinguishable
        assert g._edges is None


def test_size_caps_refuse_before_allocating(tmp_path):
    # one past each cap must raise InputError inside 512 MB, and so must sizes
    # whose edge lists would not fit there (MemoryError if a builder generated
    # its edges before checking); the CLI inputs must exit 2 (input error)
    edge_list = tmp_path / "huge.txt"
    edge_list.write_text("30000000 0\n")
    script = (
        "import resource, sys\n"
        "from itertools import combinations, islice\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "import gpmcdiag as gd\n"
        "from gpmcdiag.cli import main\n"
        "from gpmcdiag.graph import EDGE_CAP, VERTEX_CAP\n"
        "assert (VERTEX_CAP, EDGE_CAP) == (2 ** 15, 15 * 2 ** 14)\n"
        "k = next(k for k in range(2, 1000) if k * (k - 1) // 2 > EDGE_CAP)\n"
        "edges = lambda count: islice(combinations(range(VERTEX_CAP), 2), count)\n"
        "over = {\n"
        "    'graph-vertices': lambda: gd.Graph(VERTEX_CAP + 1, []),\n"
        "    'graph-edges': lambda: gd.Graph(VERTEX_CAP, edges(EDGE_CAP + 1)),\n"
        "    'path': lambda: gd.build_path(VERTEX_CAP + 1),\n"
        "    'cycle': lambda: gd.build_cycle(VERTEX_CAP + 1),\n"
        "    'complete': lambda: gd.build_complete(k),\n"
        "    'random': lambda: gd.build_random(k, 0.0, 1),\n"
        "    'edge-list': lambda: gd.parse_edge_list(f'{VERTEX_CAP + 1} 0\\n'),\n"
        "    'path-huge': lambda: gd.build_path(10 ** 9),\n"
        "    'cycle-huge': lambda: gd.build_cycle(10 ** 9),\n"
        "    'complete-huge': lambda: gd.build_complete(10 ** 5),\n"
        "}\n"
        "for name, build in over.items():\n"
        "    try:\n"
        "        build()\n"
        "        print(name, 'built')\n"
        "    except gd.InputError:\n"
        "        print(name, 'refused')\n"
        "at_cap = [gd.build_path(VERTEX_CAP), gd.build_cycle(VERTEX_CAP),\n"
        "          gd.build_random(k - 1, 0.0, 1)]\n"
        "print('at-cap', [g.vertex_count for g in at_cap] == [VERTEX_CAP, VERTEX_CAP, k - 1])\n"
        "codes = [main(['topology', '--topology', 'path', '--n', '30000000']),\n"
        "         main(['topology', '--topology', 'complete', '--n', '3000']),\n"
        "         main(['topology', '--edge-list', sys.argv[1]])]\n"
        "print('cli', codes)\n"
    )
    src = str(Path(gd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script, str(edge_list)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == [
        "graph-vertices refused", "graph-edges refused", "path refused", "cycle refused",
        "complete refused", "random refused", "edge-list refused", "path-huge refused",
        "cycle-huge refused", "complete-huge refused", "at-cap True",
        "cli [2, 2, 2]"]


class TestEdgeListFormat:
    def test_roundtrip(self, q3):
        text = gd.format_edge_list(q3)
        back = gd.parse_edge_list(text)
        assert back.vertex_count == q3.vertex_count
        assert back.edges == q3.edges

    def test_comments_and_blanks_ignored(self):
        g = gd.parse_edge_list("# a comment\n\n3 2\n0 1\n\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_malformed_line_reports_number(self):
        with pytest.raises(InputError, match="line 2"):
            gd.parse_edge_list("2 1\na b\n")

    def test_wrong_edge_count(self):
        with pytest.raises(InputError, match="2 edges"):
            gd.parse_edge_list("3 2\n0 1\n")

    def test_bad_endpoint_reports_line(self):
        with pytest.raises(InputError, match="line 3"):
            gd.parse_edge_list("2 2\n0 1\n0 5\n")

    @pytest.mark.parametrize("text, message", [
        ("2 2\n0 1\n0 5\n", "line 3: edge 0-5 has an endpoint outside 0..1"),
        ("2 2\n0 1\n1 1\n", "line 3: self-loop at vertex 1 "),
        ("2 2\n# c\n0 1\n1 0\n", "line 4: duplicate edge 1-0"),
        ("3 3\n0 1\n1 0\n0 5\n", "line 4: edge 0-5 has an endpoint outside 0..2"),
    ], ids=["range", "self-loop", "duplicate", "range-after-duplicate"])
    def test_bad_edge_line_messages(self, text, message):
        # the parser names the line of the edge the graph names, with its message
        with pytest.raises(InputError, match=re.escape(message)):
            gd.parse_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("-1 1\n0 1\n", "line 1: vertex_count must be non-negative, not -1"),
        ("# n m\n1.5 0\n", "line 2: expected two integers, got '1.5 0'"),
        (f"{gd.graph.VERTEX_CAP + 1} 0\n",
         f"line 1: {gd.graph.VERTEX_CAP + 1} vertices exceed the cap"),
        (f"4 {gd.graph.EDGE_CAP + 1}\n0 x\n",
         f"line 1: {gd.graph.EDGE_CAP + 1} edges exceed the cap"),
        # a negative edge count is refused before a bad edge line or a count
        # of the edge lines could be blamed for it
        ("3 -1\n0 x\n", "line 1: edge count must be non-negative, not -1"),
        ("3 -1\n0 1\n", "line 1: edge count must be non-negative, not -1"),
    ], ids=["negative-n", "float-n", "n-over-cap", "m-over-cap", "negative-m-bad-line",
            "negative-m"])
    def test_header_checked_before_any_edge_line(self, text, message):
        # a bad header is named on its own line, never blamed on an edge line
        with pytest.raises(InputError) as refused:
            gd.parse_edge_list(text)
        assert str(refused.value).startswith(message)

    def test_missing_header(self):
        with pytest.raises(InputError, match="line 1"):
            gd.parse_edge_list("# only comments\n")

    def test_text_not_a_str_rejected(self):
        with pytest.raises(InputError, match="must be a str"):
            gd.parse_edge_list(5)


def refusal(n, edges):
    """(index, message) of the edge a refused edge list is named by, or None:
    the first edge that has a non-int endpoint, is a self-loop or lies out
    of range, failing that the second occurrence of the first repeat."""
    for i, (u, v) in enumerate(edges):
        if not (type(u) is int and type(v) is int):
            return i, f"edge {u!r}-{v!r} has an endpoint that is not an int"
        if u == v:
            return i, f"self-loop at vertex {u} is not a valid edge"
        if min(u, v) < 0 or max(u, v) >= n:
            return i, f"edge {u}-{v} has an endpoint outside 0..{n - 1}"
    seen = set()
    for i, e in enumerate(map(frozenset, edges)):
        if e in seen:
            return i, f"duplicate edge {edges[i][0]}-{edges[i][1]}"
        seen.add(e)
    return None


EDGE_FAULTS = ("range", "self-loop", "non-int", "repeat", "swapped-repeat")


@given(st.data())
def test_parser_and_constructor_name_the_same_bad_edge(data):
    # one or two faults injected into a valid list, each list given both to
    # Graph(...) and as text with comments and blank lines: both name the
    # same edge with the same message, the parser prefixed by its line
    n = data.draw(st.integers(2, 6), label="n")
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8,
                               unique=True), label="edges")
    edges = [e[::-1] if data.draw(st.booleans()) else e for e in edges]
    for kind in data.draw(st.lists(st.sampled_from(EDGE_FAULTS), min_size=1, max_size=2),
                          label="faults"):
        if kind.endswith("repeat"):
            j = data.draw(st.integers(0, len(edges) - 1))
            bad = edges[j] if kind == "repeat" else edges[j][::-1]
            at = data.draw(st.integers(j + 1, len(edges)))
        else:
            u = data.draw(st.integers(0, n - 1))
            if kind == "range":
                bad = (u, data.draw(st.sampled_from([-1, n, n + 2])))
            elif kind == "self-loop":
                bad = (u, u)
            else:
                bad = (u, data.draw(st.sampled_from([True, 1.5, None])))
            bad = bad[::-1] if data.draw(st.booleans()) else bad
            at = data.draw(st.integers(0, len(edges)))
        edges.insert(at, bad)
    index, message = refusal(n, edges)
    items = [list(e) for e in edges] if data.draw(st.booleans()) else edges
    with pytest.raises(InputError) as refused:
        gd.Graph(n, items)
    assert str(refused.value) == message

    lines = [f"{n} {len(edges)}"]
    line_of = []
    for u, v in edges:
        lines += data.draw(st.lists(st.sampled_from(["", "# comment", "  "]), max_size=2))
        lines.append(f"{u} {v}")
        line_of.append(len(lines))
    with pytest.raises(InputError) as refused:
        gd.parse_edge_list("\n".join(lines) + "\n")
    words = [i for i, e in enumerate(edges) if not all(type(x) is int for x in e)]
    if words:
        # a non-int endpoint is not an integer in text: the line reader refuses it
        line = line_of[words[0]]
        assert str(refused.value) == f"line {line}: expected two integers, got {lines[line - 1]!r}"
    else:
        assert str(refused.value) == f"line {line_of[index]}: {message}"


class TestDotExport:
    def test_labels_present(self, q2):
        dot = gd.to_dot(q2)
        assert dot.startswith("graph G {")
        assert '0 [label="00"];' in dot
        assert "0 -- 1;" in dot

    def test_unlabeled(self):
        dot = gd.to_dot(gd.build_path(2))
        assert "  0;\n" in dot

    def test_labels_escaped(self):
        # a quote or backslash in a label must not end the DOT string early
        g = gd.Graph(2, [(0, 1)], labels=['a"b', "c\\"])
        dot = gd.to_dot(g)
        assert '  0 [label="a\\"b"];\n' in dot
        assert '  1 [label="c\\\\"];\n' in dot


@given(st.integers(2, 16), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_random_graph_is_simple_and_in_range(n, p, seed):
    g = gd.build_random(n, p, seed)
    assert len(set(g.edges)) == len(g.edges)
    for (u, v) in g.edges:
        assert 0 <= u < v < n
