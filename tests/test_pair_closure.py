"""The pair closure flows that prove the s > 0 levels of a single-seed graph.

``diagnosability._Closure`` is one maximum closure flow: seed a's cold flow,
copied, given the seed b and augmented from b alone, gives F(a, b), the
least 2|N[D]| - |D| over the D that hold a and b.  Here that warm start is
checked against a cold two-seed flow and ``brute.reference_pair_closure``,
every (t, s) decision of the graphs searched from seed 0 alone against the
``audit=True`` search, which sweeps every seed and reads no flow, and a spy
on ``_search_seed`` shows that an s > 0 ascent of Q_5..Q_8 walks only its
failing level.
"""

import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import diagnosability
from gpmcdiag.diagnosability import _Closure, _pair_closure, _search_seed

from brute import reference_pair_closure


def warm(cold, b, cap=float("inf")):
    flow = cold.copy()
    flow.add_seed(b)
    flow.augment((b,), cap)
    return flow.value


def snapshot(flow):
    return flow.units, flow.load[:], flow.into[:], repr(flow.sent), bytes(flow.seen)


def assert_pair_flows_match(g):
    for a in range(min(3, g.vertex_count)):
        cold = _Closure(g, a)
        before = snapshot(cold)
        for b in range(g.vertex_count):
            if b == a:
                continue
            expected = reference_pair_closure(g, a, b)
            assert warm(cold, b) == _Closure(g, a, b).value == expected, (g.name, a, b)
            # a flow stopped at a cap has reached it, or is the largest
            assert warm(cold, b, expected - 1) == max(expected - 1, cold.value), (g.name, a, b)
        assert snapshot(cold) == before, g.name     # warm flows work on copies


FLOW_GRAPHS = [*map(gd.build_hypercube, range(2, 5)), *map(gd.build_cycle, range(5, 9)),
               *map(gd.build_complete, range(4, 7))]


@pytest.mark.parametrize("g", FLOW_GRAPHS, ids=lambda g: g.name)
def test_warm_pair_flow_matches_cold_flow_and_brute_force(g):
    assert_pair_flows_match(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_warm_pair_flow_matches_on_random_graphs(n, p, gen_seed):
    assert_pair_flows_match(gd.build_random(n, p, gen_seed))


@pytest.mark.parametrize("n", range(4, 9))
def test_hypercube_pair_closure(n):
    # D = {0, b} with b at distance 1 or 2 closes 2n vertices, and no larger
    # D does better; f* is f({0}) = 2n + 1
    g = gd.build_hypercube(n)
    assert _pair_closure(g, 10 ** 6) == 4 * n - 2
    assert _pair_closure(g, 2 * n + 3) == 2 * n + 3


SINGLE_SEED = [*((gd.build_hypercube, n) for n in range(1, 7)),
               *((gd.build_cycle, n) for n in range(3, 10)),
               *((gd.build_complete, n) for n in range(2, 8))]


@pytest.mark.parametrize("builder, n", SINGLE_SEED,
                         ids=[f"{b.__name__.removeprefix('build_')}{n}" for b, n in SINGLE_SEED])
def test_every_decision_matches_the_audit(builder, n):
    # two graphs walk the levels in the orders of the two ascents, so the
    # cached pair bound is read, and raised, as each ascent does; every level
    # the pair flows can prove has t + s <= delta
    audit_g, by_t, by_s = builder(n), builder(n), builder(n)
    top = gd.min_degree(audit_g) + 1
    levels = [(t, s) for t in range(top + 1) for s in range(top + 1)]
    for g, order in (by_t, levels), (by_s, sorted(levels, key=lambda ts: ts[::-1])):
        for t, s in order:
            audited = gd.is_ts_diagnosable(audit_g, t, s, audit=True).diagnosable
            assert gd.is_ts_diagnosable(g, t, s).diagnosable == audited, (g.name, t, s)


def spied(monkeypatch, bounds_of):
    calls = []

    def spy(g, t, s, seed, first):
        calls.append((t, s))
        return _search_seed(g, t, s, seed, first)

    monkeypatch.setattr(diagnosability, "_search_seed", spy)
    return bounds_of(), calls


@pytest.mark.parametrize("n", range(5, 9))
def test_hypercube_s_ascents_walk_only_the_failing_level(monkeypatch, n):
    g = gd.build_hypercube(n)
    for level in range(1, n + 2):
        report, calls = spied(monkeypatch, lambda: gd.edge_restricted_diagnosability(g, level))
        assert calls == [(report.value + 1, level)], (n, "h", level)
        report, calls = spied(monkeypatch,
                              lambda: gd.vertex_restricted_edge_diagnosability(g, level))
        assert calls == [(level, report.value + 1)], (n, "r", level)


@pytest.fixture
def pair_flows(monkeypatch):
    """The caps of every pair bound computed while the test runs."""
    caps = []
    monkeypatch.setattr(diagnosability, "_pair_closure",
                        lambda g, cap: caps.append(cap) or _pair_closure(g, cap))
    return caps


def test_the_pair_bound_is_cached_on_the_graph(pair_flows):
    # t_1(Q_5) = 4: f* = 11 proves levels 0..3, and level 4 needs
    # 2t + 4s = 12 < F(0, b) = 18, stopped at its cap 2 * 5 + 2 + 1
    g = gd.build_hypercube(5)
    assert g._pair_closure is None
    assert gd.edge_restricted_diagnosability(g, 1).value == 4
    assert g._closure == 11 and g._pair_closure == (13, 13) and pair_flows == [13]
    # t_2(Q_5) = 3 needs 14 at level 3: a value stopped at 13 is run again
    assert gd.edge_restricted_diagnosability(g, 2).value == 3
    assert g._pair_closure == (15, 15) and pair_flows == [13, 15]
    gd.edge_restricted_diagnosability(g, 2)
    assert pair_flows == [13, 15]
    assert gd.build_hypercube(5)._pair_closure is None


def test_several_seeds_and_audit_run_no_pair_flow(pair_flows):
    g = gd.build_random(12, 0.5, 1)
    assert gd.edge_restricted_diagnosability(g, 1).value >= 0
    assert gd.vertex_restricted_edge_diagnosability(g, 1).value >= 0
    q = gd.build_hypercube(5)
    assert gd.edge_restricted_diagnosability(q, 1, audit=True).value == 4
    assert pair_flows == [] and g._pair_closure is None and q._pair_closure is None
