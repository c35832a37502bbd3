import pytest
from hypothesis import assume, given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import InputError

import brute
from brute import all_pairs_agreement, literal_distinguishable, reference_witness, sigma_set
from gallery import full_gallery, named_gallery


def pair(g, fs, ss):
    return gd.make_fault_pair(g, fs, ss)


class TestConditionRoute:
    def test_single_fault_vs_fault_free(self, q3):
        v = gd.distinguishable(q3, pair(q3, {0}, set()), pair(q3, set(), set()))
        assert v.distinguishable
        assert v.witness.condition == 1
        assert v.witness.edge == (0, 1)  # smallest qualifying edge
        assert v.witness.direction == 1

    def test_blocked_vertex_family_is_indistinguishable(self, q3):
        # u plus its last neighbors faulty, versus those neighbors faulty and
        # u's first h edges faulty: the blocked-tester pattern, any h
        u = 0
        nbrs = sorted(gd.neighbors(q3, u))
        for h in range(0, 4):
            first, rest = nbrs[:h], nbrs[h:]
            p1 = pair(q3, {u, *rest}, set())
            p2 = pair(q3, set(rest), {(u, w) for w in first})
            v = gd.distinguishable(q3, p1, p2)
            assert not v.distinguishable
            assert v.witness is None

    def test_faulty_edge_vs_fault_free(self, q2):
        v = gd.distinguishable(q2, pair(q2, set(), {(0, 1)}), pair(q2, set(), set()))
        assert v.distinguishable
        assert v.witness.condition == 2
        assert v.witness.direction == 1

    def test_identical_pairs_rejected(self, q2):
        p = pair(q2, {0}, set())
        with pytest.raises(InputError):
            gd.distinguishable(q2, p, pair(q2, {0}, set()))

    def test_graph_binding_enforced(self, q2, q3):
        with pytest.raises(gd.GraphMismatchError):
            gd.distinguishable(q2, pair(q2, set(), set()), pair(q3, {0}, set()))

    def test_symmetry(self, q3):
        cases = [
            (pair(q3, {0}, set()), pair(q3, set(), set())),
            (pair(q3, {0}, {(1, 3)}), pair(q3, {1}, {(0, 2)})),
            (pair(q3, {0, 5}, set()), pair(q3, {3}, set())),
        ]
        for p1, p2 in cases:
            assert (gd.distinguishable(q3, p1, p2).distinguishable
                    == gd.distinguishable(q3, p2, p1).distinguishable)

    def test_witness_revalidates_against_raw_sets(self):
        for g in [gd.build_hypercube(2), gd.build_complete(4), gd.build_random(6, 0.5, 61)]:
            pairs = brute.all_consistent_pairs(g, 2, 1)
            for i, p1 in enumerate(pairs):
                for p2 in pairs[i + 1:]:
                    v = gd.distinguishable(g, p1, p2)
                    if v.distinguishable:
                        _check_witness(g, p1, p2, v.witness)


def test_witness_is_first_hit_in_canonical_order():
    # smallest edge, then condition 1 before 2, then direction 1 before 2,
    # on every ordered pair of distinct pairs (the named gallery holds Q_3)
    for g in named_gallery():
        pairs = brute.all_consistent_pairs(g, 2, 1)
        for p1 in pairs:
            for p2 in pairs:
                if p1 == p2:
                    continue
                w = gd.distinguishable(g, p1, p2).witness
                got = None if w is None else (w.condition, w.edge, w.direction)
                assert got == reference_witness(g, p1, p2), f"{g.name} {p1} {p2}"


WITNESS_GRAPHS = full_gallery() + [gd.build_hypercube(n) for n in range(2, 8)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WITNESS_GRAPHS), st.data())
def test_witness_matches_the_canonical_scan(g, data):
    # the first hit of each row against the literal scan of the edges, on
    # patterns of up to 5 faulty vertices and 3 faulty edges a side
    def pattern():
        f = data.draw(st.sets(st.integers(0, g.vertex_count - 1), max_size=5))
        spare = [e for e in g.edges if e[0] not in f and e[1] not in f]
        s = data.draw(st.sets(st.sampled_from(spare), max_size=3)) if spare else ()
        return pair(g, f, s)

    p1, p2 = pattern(), pattern()
    assume(p1 != p2)
    w = gd.distinguishable(g, p1, p2).witness
    got = None if w is None else (w.condition, w.edge, w.direction)
    assert got == reference_witness(g, p1, p2)


def _check_witness(g, p1, p2, w):
    u, v = w.edge
    assert g.has_edge(u, v)
    a, b = (p1, p2) if w.direction == 1 else (p2, p1)
    if w.condition == 1:
        hits = []
        for x, y in ((u, v), (v, u)):
            hits.append(
                x in a.faulty_vertices and x not in b.faulty_vertices
                and y not in a.faulty_vertices | b.faulty_vertices
                and w.edge not in b.faulty_edges)
        assert any(hits)
    else:
        assert w.edge in a.faulty_edges and w.edge not in b.faulty_edges
        assert u not in b.faulty_vertices and v not in b.faulty_vertices


class TestOracleRoute:
    def test_matches_condition_route_exhaustively_small(self, q2):
        pairs = brute.all_consistent_pairs(q2, 2, 2)
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i + 1:]:
                assert (gd.distinguishable(q2, p1, p2).distinguishable
                        == gd.distinguishable_oracle(q2, p1, p2))

    def test_everything_faulty_vs_almost_everything(self):
        k2 = gd.build_hypercube(1)
        whole = pair(k2, {0, 1}, set())
        almost = pair(k2, {0}, set())
        assert not gd.distinguishable_oracle(k2, whole, almost)
        assert not gd.distinguishable(k2, whole, almost).distinguishable

    def test_identical_pairs_rejected(self, q2):
        p = pair(q2, set(), {(0, 1)})
        with pytest.raises(InputError):
            gd.distinguishable_oracle(q2, p, pair(q2, set(), {(0, 1)}))


class TestLiteralEnumerationRoute:
    def test_agrees_with_oracle_exhaustively_on_small_graphs(self):
        # every ordered pair of distinct consistent pairs, graphs with <= 8 tests
        for g in [gd.build_hypercube(1), gd.build_path(3), gd.build_hypercube(2),
                  gd.build_cycle(4)]:
            pairs = brute.all_consistent_pairs(g, 3, 2)
            for i, p1 in enumerate(pairs):
                for p2 in pairs[i + 1:]:
                    lit = literal_distinguishable(g, p1, p2)
                    assert lit == gd.distinguishable_oracle(g, p1, p2)
                    assert lit == gd.distinguishable(g, p1, p2).distinguishable

    def test_agrees_on_twelve_test_graphs_reduced_bounds(self):
        for g in [gd.build_cycle(6), gd.build_complete(4)]:
            pairs = brute.all_consistent_pairs(g, 2, 1)
            for i, p1 in enumerate(pairs):
                for p2 in pairs[i + 1:]:
                    assert (literal_distinguishable(g, p1, p2)
                            == gd.distinguishable_oracle(g, p1, p2))

    def test_sigma_sets_match_independent_enumeration(self, q2):
        # the roundtrip's replay oracle, stepped fail masks over the
        # library's forced positions, against the set-based expansion
        for fp in brute.all_consistent_pairs(q2, 2, 1):
            independent = sigma_set(q2, fp.faulty_vertices, fp.faulty_edges)
            _, replayed = brute.adversary_syndromes(q2, fp.f_mask, fp.s_mask)
            as_tuples = {tuple((mask >> i) & 1 for i in range(8)) for mask in replayed}
            assert as_tuples == independent


def test_condition_and_oracle_agree_across_gallery():
    # the all-pairs sweep at |F| <= 3, |S| <= 2 on every gallery graph
    for g in full_gallery():
        pairs = brute.all_consistent_pairs(g, 3, 2)
        compared, mismatches = all_pairs_agreement(g, pairs)
        assert mismatches == 0, f"{g.name}: {mismatches} of {compared} disagree"


def test_batch_harness_matches_public_functions():
    # spot-check the vectorized harness against the scalar API so the sweep
    # above actually measures the library
    import random as rnd

    rng = rnd.Random(12)
    for g in [gd.build_hypercube(2), gd.build_cycle(6), gd.build_random(7, 0.5, 8)]:
        pairs = brute.all_consistent_pairs(g, 3, 2)
        import numpy as np
        from brute import pair_mask_arrays
        A, B, S, FF, FP = pair_mask_arrays(g, pairs)
        zero = np.uint64(0)
        for _ in range(150):
            i, j = rng.randrange(len(pairs)), rng.randrange(len(pairs))
            if pairs[i] == pairs[j]:
                continue
            expected = gd.distinguishable(g, pairs[i], pairs[j]).distinguishable
            got_oracle = bool((FF[i] & FP[j]) | (FP[i] & FF[j]))
            assert got_oracle == gd.distinguishable_oracle(g, pairs[i], pairs[j])
            assert got_oracle == expected
