"""The closure cut that proves the s = 0 levels of a single-seed graph.

``diagnosability._closure_value(g, v)`` is the least 2|N[D]| - |D| over the
vertex sets D that hold v, from one maximum flow, and t_0 is half of its
least value over every vertex, rounded up, less one.  Here the flow is
checked against every such D on small graphs, and t_0 against the
``audit=True`` ascent, which walks every level from every seed and never
reads the cut.  A spy on ``_search_seed`` shows that an s = 0 ascent on a
graph searched from seed 0 alone walks only level value + 1, and that a
graph with several seeds walks every level it walked before.
"""

import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import diagnosability
from gpmcdiag.diagnosability import _closure_value, _search_seed

from brute import reference_closure_value


def flow_t0(g) -> int:
    least = min(_closure_value(g, v) for v in range(g.vertex_count))
    return (least + 1) // 2 - 1


def assert_flow_matches(g):
    if g.vertex_count <= 10:
        for v in range(g.vertex_count):
            assert _closure_value(g, v) == reference_closure_value(g, v), (g.name, v)
    audited = gd.edge_restricted_diagnosability(g, 0, audit=True)
    assert flow_t0(g) == audited.value, g.name


FAMILIES = [
    *(gd.Graph(n, [], name=f"edgeless-{n}") for n in (1, 2, 5)),
    # a path, an edge and an isolated vertex
    gd.Graph(6, [(0, 1), (1, 2), (3, 4)], name="mixed-6"),
    *map(gd.build_path, range(1, 8)),
    *map(gd.build_hypercube, range(1, 8)),
    *map(gd.build_cycle, range(3, 31)),
    *map(gd.build_complete, range(1, 11)),
]


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: g.name)
def test_flow_matches_the_audit_on_families(g):
    assert_flow_matches(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_flow_matches_the_audit_on_random_graphs(n, p, gen_seed):
    assert_flow_matches(gd.build_random(n, p, gen_seed))


def spied_levels(monkeypatch, g, bounds_of, **kwargs):
    """The report of an ascent, and the (t, s, seed) of each ``_search_seed`` call."""
    calls = []

    def spy(g, t, s, seed, first):
        calls.append((t, s, seed))
        return _search_seed(g, t, s, seed, first)

    monkeypatch.setattr(diagnosability, "_search_seed", spy)
    return bounds_of(g, **kwargs), calls


def summary(report):
    # the witness pairs as records: the two reports are of two graph objects
    witness = report.witness and [pair.to_record() for pair in report.witness]
    return report.value, witness, report.stats


def walked_everywhere(monkeypatch, spec, bounds_of):
    # the ascent with the cut proving nothing: f* = 0 gives t_0 = -1, so
    # every level is walked, as before
    with monkeypatch.context() as patch:
        patch.setattr(diagnosability, "_closure_value", lambda g, v: 0)
        return spied_levels(patch, build(spec), bounds_of)


def build(spec):
    builder, n = spec
    return builder(n)


def spec_id(spec):
    builder, n = spec
    return f"{builder.__name__.removeprefix('build_')}{n}"


def edge_t0(g):
    return gd.edge_restricted_diagnosability(g, 0)


@pytest.fixture
def flows(monkeypatch):
    """The seed of every closure cut computed while the test runs."""
    seeds = []
    monkeypatch.setattr(diagnosability, "_closure_value",
                        lambda g, v: seeds.append(v) or _closure_value(g, v))
    return seeds


@pytest.mark.parametrize("spec, walked_before", [
    ((gd.build_hypercube, 6), [4, 5, 6, 7]), ((gd.build_cycle, 9), [2, 3]),
    ((gd.build_complete, 7), [4])], ids=["Q6", "C9", "K7"])
def test_single_seed_ascent_walks_only_the_failing_level(monkeypatch, spec, walked_before):
    # the levels below walked_before are cut at the root with or without the flow
    report, calls = spied_levels(monkeypatch, build(spec), edge_t0)
    assert calls == [(report.value + 1, 0, 0)]
    walked, every_call = walked_everywhere(monkeypatch, spec, edge_t0)
    assert every_call == [(t, 0, 0) for t in walked_before]
    assert summary(report) == summary(walked)


SINGLE_SEED = [*((gd.build_hypercube, n) for n in range(1, 7)),
               *((gd.build_cycle, n) for n in range(3, 13)),
               *((gd.build_complete, n) for n in range(1, 9)), (gd.build_path, 1)]


@pytest.mark.parametrize("spec", SINGLE_SEED, ids=spec_id)
@pytest.mark.parametrize("bounds_of", [
    edge_t0, lambda g: gd.vertex_restricted_edge_diagnosability(g, 1),
    lambda g: gd.vertex_restricted_edge_diagnosability(g, 2)], ids=["h0", "r1", "r2"])
def test_proven_levels_report_what_the_walk_reports(monkeypatch, spec, bounds_of):
    # value, witness and the count of structures of every level, summed
    report, _ = spied_levels(monkeypatch, build(spec), bounds_of)
    walked, _ = walked_everywhere(monkeypatch, spec, bounds_of)
    assert summary(report) == summary(walked)


def test_several_seeds_walk_every_level_as_before(monkeypatch, flows):
    spec = (lambda n: gd.build_random(n, 0.5, 1), 12)
    report, calls = spied_levels(monkeypatch, build(spec), edge_t0)
    walked, every_call = walked_everywhere(monkeypatch, spec, edge_t0)
    assert calls == every_call and summary(report) == summary(walked)
    # levels 0..2 are cut at the root from every seed; 3 and 4 hold, 5 fails
    assert report.value == 4
    assert {t for t, _, _ in calls} == {3, 4, 5} and len(calls) == 21
    assert flows == []


def test_audit_walks_every_level(monkeypatch, flows):
    report, calls = spied_levels(monkeypatch, gd.build_hypercube(3),
                                 gd.edge_restricted_diagnosability, h=0, audit=True)
    assert report.value == 3
    assert {t for t, _, _ in calls} == {2, 3, 4}
    assert flows == []


def test_the_bound_is_cached_on_the_graph(flows):
    # Q_4's f* is f({0}) = 2 * 5 - 1, so t_0 = ceil(9 / 2) - 1
    g = gd.build_hypercube(4)
    assert g._closure is None
    for r in (1, 2, 3):
        gd.vertex_restricted_edge_diagnosability(g, r)
    assert edge_t0(g).value == 4 and g._closure == 9
    assert flows == [0]
