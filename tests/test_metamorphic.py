"""Metamorphic checks of the diagnosability search beyond the oracles' reach.

The brute-force oracles in ``tests/brute.py`` enumerate every consistent
pair, which stops at about eight vertices.  On dense random graphs of up to
30 vertices, with edge budgets h <= 2, two relations hold whatever the
answer is:

1. t_h does not change when the vertices are relabelled;
2. the witness pair at t = t_h + 1 shares a syndrome, the one failing every
   test either pair forces to fail (``brute.shared_syndrome``).  Both pairs
   fit it by the model's definition, and decoding it at (t_h + 1, h) is
   ambiguous with both pairs among the candidates.

On dense random graphs of up to 14 vertices, where all six values take well
under a second, a third relation holds:

4. a larger budget never raises a value: t_0 >= t_1 >= t_2, hence t_h <= t_0,
   and s_1 >= s_2 >= s_3.  Every pair in bound at the smaller budget is in
   bound at the larger, so a witness at one level is one at the next.

A search that cuts a subtree holding a witness, or returns a pair that no
syndrome explains, breaks one of them at sizes where nothing else checks it.
"""

import random

from hypothesis import given, settings, strategies as st

import gpmcdiag as gd

from brute import shared_syndrome, syndrome_fits


def relabelled(g, perm_seed):
    perm = list(range(g.vertex_count))
    random.Random(perm_seed).shuffle(perm)
    return gd.Graph(g.vertex_count, [(perm[a], perm[b]) for a, b in g.edges])


@settings(max_examples=15, deadline=None)
@given(st.integers(12, 30), st.floats(0.75, 0.9), st.integers(0, 10 ** 6),
       st.integers(0, 2), st.integers(0, 10 ** 6))
def test_value_and_witness_relations_on_dense_graphs(n, p, gen_seed, h, perm_seed):
    g = gd.build_random(n, p, gen_seed)
    report = gd.edge_restricted_diagnosability(g, h)
    assert gd.edge_restricted_diagnosability(relabelled(g, perm_seed), h).value == report.value
    if report.witness is None:
        return
    p1, p2 = report.witness
    t = report.value + 1
    sig = shared_syndrome(g, p1, p2)
    for pair in (p1, p2):
        assert len(pair.faulty_vertices) <= t and len(pair.faulty_edges) <= h
        assert syndrome_fits(g, sig, pair.faulty_vertices, pair.faulty_edges)
        assert gd.is_consistent(sig, pair)
    result = gd.diagnose(g, sig, t, h, candidate_cap=10 ** 6)
    assert result.status is gd.DiagnosisStatus.AMBIGUOUS
    assert p1 in result.candidates and p2 in result.candidates


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 14), st.floats(0.7, 0.95), st.integers(0, 10 ** 6))
def test_values_never_rise_with_the_budget(n, p, gen_seed):
    g = gd.build_random(n, p, gen_seed)
    t = [gd.edge_restricted_diagnosability(g, h).value for h in (0, 1, 2)]
    s = [gd.vertex_restricted_edge_diagnosability(g, r).value for r in (1, 2, 3)]
    assert t == sorted(t, reverse=True), t
    assert s == sorted(s, reverse=True), s
