import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import DiagnosisStatus, GraphMismatchError, InputError, faults
from gpmcdiag.faults import _candidate_masks

import brute
from brute import brute_force_decode, directed_tests, forced_value


class TestDiagnose:
    def test_recovers_single_hybrid_fault(self, q3):
        fp = gd.make_fault_pair(q3, {0}, {(3, 7)})
        for strategy in ("all-pass", "all-fail"):
            sig = gd.generate_syndrome(fp, strategy)
            res = gd.diagnose(q3, sig, 1, 1)
            assert res.status is DiagnosisStatus.UNIQUE
            assert res.unique_pair == fp

    def test_all_pass_decodes_to_fault_free(self, q3):
        sig = gd.generate_syndrome(gd.make_fault_pair(q3, set(), set()))
        res = gd.diagnose(q3, sig, 2, 1)
        assert res.status is DiagnosisStatus.UNIQUE
        assert res.unique_pair == gd.make_fault_pair(q3, set(), set())

    def test_indistinguishable_pair_syndrome_is_ambiguous(self, q3):
        p1, p2 = gd.construct_indistinguishable_witness(q3, 0, 1)
        # set p1's free results to p2's forced values: consistent with both
        assignments = {}
        for test in directed_tests(q3):
            if test[0] in p1.faulty_vertices:
                forced = forced_value(test, p2.faulty_vertices, p2.faulty_edges)
                assignments[test[:2]] = int(forced == 1)
        sig = gd.generate_syndrome(p1, "explicit", assignments=assignments)
        assert gd.is_consistent(sig, p1) and gd.is_consistent(sig, p2)
        res = gd.diagnose(q3, sig, 3, 1)
        assert res.status is DiagnosisStatus.AMBIGUOUS
        assert res.total_candidates >= 2
        found = set(res.candidates)
        assert p1 in found and p2 in found

    def test_no_candidate_when_bounds_too_small(self, q3):
        fp = gd.make_fault_pair(q3, {0, 3, 5}, set())
        sig = gd.generate_syndrome(fp, "all-fail")
        res = gd.diagnose(q3, sig, 1, 0)
        assert res.status is DiagnosisStatus.NO_CANDIDATE
        assert res.total_candidates == 0
        with pytest.raises(InputError):
            res.unique_pair

    def test_candidates_sound_and_complete(self, q2):
        cases = [
            (gd.make_fault_pair(q2, {0}, set()), "all-fail", 2, 1),
            (gd.make_fault_pair(q2, {3}, {(0, 1)}), "all-pass", 2, 2),
            (gd.make_fault_pair(q2, {0, 3}, set()), "random", 2, 0),
        ]
        for fp, strategy, t, s in cases:
            seed = 9 if strategy == "random" else None
            sig = gd.generate_syndrome(fp, strategy, seed=seed)
            res = gd.diagnose(q2, sig, t, s)
            assert all(gd.is_consistent(sig, c) for c in res.candidates)
            assert set(res.candidates) == set(brute_force_decode(q2, sig, t, s))

    def test_candidate_cap_truncates_list_not_count(self, q3):
        whole = gd.make_fault_pair(q3, set(range(8)), set())
        sig = gd.generate_syndrome(whole, "all-fail")
        res = gd.diagnose(q3, sig, 8, 12, candidate_cap=5)
        assert res.status is DiagnosisStatus.AMBIGUOUS
        assert len(res.candidates) == 5
        assert res.total_candidates > 5
        full = gd.diagnose(q3, sig, 8, 12, candidate_cap=10 ** 6)
        assert res.total_candidates == full.total_candidates

    def test_graph_mismatch_rejected(self, q2, q3):
        sig = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set()))
        with pytest.raises(GraphMismatchError):
            gd.diagnose(q3, sig, 1, 1)

    def test_bad_cap_rejected(self, q2):
        sig = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set()))
        with pytest.raises(InputError):
            gd.diagnose(q2, sig, 1, 1, candidate_cap=0)


ROUNDTRIP_GRAPHS = [
    gd.build_hypercube(3),
    gd.build_hypercube(4),
    gd.build_hypercube(5),
    gd.build_complete(5),
    gd.build_complete(6),
    gd.build_cycle(7),
    gd.build_random(8, 0.4, 1),
    gd.build_random(9, 0.5, 2),
    gd.build_random(10, 0.3, 3),
    gd.build_random(10, 0.8, 3),
]


class TestAdversarialRoundtrip:
    def test_fault_free_pair(self, q3):
        fp = gd.make_fault_pair(q3, set(), set())
        assert gd.adversarial_roundtrip(q3, fp, 2, 1)

    def test_single_faults_on_q3(self, q3):
        for v in range(8):
            fp = gd.make_fault_pair(q3, {v}, set())
            assert gd.adversarial_roundtrip(q3, fp, 2, 1)

    def test_bounds_violation_rejected(self, q3):
        fp = gd.make_fault_pair(q3, {0, 3, 5}, set())
        with pytest.raises(InputError):
            gd.adversarial_roundtrip(q3, fp, 2, 1)

    def test_wide_graph_roundtrip(self):
        # Q_8 has 2,048 tests, past BUFFER_WIDTH; 5 runs 8 of them
        q8 = gd.build_hypercube(8)
        assert gd.adversarial_roundtrip(q8, gd.make_fault_pair(q8, {5}, {(0, 1)}), 2, 1)

    def test_detects_non_diagnosable_bounds(self, q3):
        # (3,1) is past the edge-restricted value, so some adversary can
        # produce an ambiguous syndrome for this seeded pattern
        p1, _p2 = gd.construct_indistinguishable_witness(q3, 0, 1)
        assert not gd.adversarial_roundtrip(q3, p1, 3, 1)

    def test_refused_beyond_exhaustive_limit(self, q4, monkeypatch):
        # 5 faulty vertices -> 20 free tests, beyond the exhaustive limit:
        # refused before the first search
        calls = []
        search = faults._search_candidates
        monkeypatch.setattr(faults, "_search_candidates",
                            lambda *args: calls.append(args) or search(*args))
        fp = gd.make_fault_pair(q4, {0, 3, 5, 6, 9}, set())
        with pytest.raises(InputError, match="20 tests .* up to 16"):
            gd.adversarial_roundtrip(q4, fp, 5, 0)
        assert calls == []
        # at the limit it answers: four faulty vertices of K_5 run 16 tests
        k5 = gd.build_complete(5)
        assert gd.adversarial_roundtrip(k5, gd.make_fault_pair(k5, {0, 1, 2, 3}, set()), 4, 0) is False
        assert calls

    def test_pinned_testers_take_one_search(self, monkeypatch):
        # three pairwise non-adjacent faulty vertices of Q_8 at (3, 1): each
        # has 8 > t + s good neighbours, so all 24 free tests are pinned and
        # one search answers
        calls = []
        search = faults._search_candidates
        monkeypatch.setattr(faults, "_search_candidates",
                            lambda *args: calls.append(args) or search(*args))
        q8 = gd.build_hypercube(8)
        assert gd.adversarial_roundtrip(q8, gd.make_fault_pair(q8, {0, 3, 5}, set()), 3, 1)
        assert len(calls) == 1

    # 8 faulty vertices -> 32 free tests, beyond the exhaustive limit; the
    # pair has an in-bound indistinguishable partner, its complement in Q_4
    SAMPLED_MISS = ({2, 3, 4, 7, 8, 9, 11, 13}, {0, 1, 5, 6, 10, 12, 14, 15})

    def test_sampled_miss_has_indistinguishable_partner(self, q4):
        fp, partner = (gd.make_fault_pair(q4, f, set()) for f in self.SAMPLED_MISS)
        assert len(partner.faulty_vertices) <= 8
        assert not gd.distinguishable(q4, fp, partner).distinguishable
        assert not gd.distinguishable_oracle(q4, fp, partner)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_sampled_roundtrip_finds_partner(self, q4):
        fp = gd.make_fault_pair(q4, self.SAMPLED_MISS[0], set())
        assert gd.adversarial_roundtrip(q4, fp, 8, 0) is False

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ROUNDTRIP_GRAPHS), st.data())
    def test_matches_brute_replay(self, g, data):
        # pairs with at most 10 free tests; (t, s) from the pair's own size
        # up past the graph's diagnosable bounds, so both answers occur
        n = g.vertex_count
        verts, free = [], 0
        for v in data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]:
            if free + gd.degree(g, v) <= 10:
                verts.append(v)
                free += gd.degree(g, v)
        spare = [e for e in g.edges if e[0] not in verts and e[1] not in verts]
        edges = data.draw(st.permutations(spare))[:data.draw(st.integers(0, min(2, len(spare))))]
        fp = gd.make_fault_pair(g, verts, edges)
        t = data.draw(st.integers(len(verts), len(verts) + 3))
        s = data.draw(st.integers(len(edges), len(edges) + 2))
        count, masks = brute.adversary_syndromes(g, fp.f_mask, fp.s_mask)
        assert count == free
        replayed = all(_candidate_masks(g, fail, t, s) == [(fp.f_mask, fp.s_mask)]
                       for fail in masks)
        assert gd.adversarial_roundtrip(g, fp, t, s) == replayed

    def test_exhaustive_roundtrip_on_q2_workable_bounds(self, q2):
        # (1,0) is the 2-cube's workable point; every in-bound pair must
        # survive every adversary
        assert gd.is_ts_diagnosable(q2, 1, 0).diagnosable
        for fp in brute.all_consistent_pairs(q2, 1, 0):
            assert gd.adversarial_roundtrip(q2, fp, 1, 0)


# each decoder entry point given None where it takes a graph, a syndrome or
# a fault pair; the type is checked once per call, before any work
ENTRY_POINT_CALLS = {
    "diagnose": lambda q, fp, sig: gd.diagnose(q, None, 1, 0),
    "enumerate_consistent_pairs": lambda q, fp, sig: gd.enumerate_consistent_pairs(q, None, 1, 0),
    "adversarial_roundtrip": lambda q, fp, sig: gd.adversarial_roundtrip(q, None, 1, 0),
    "is_consistent-syndrome": lambda q, fp, sig: gd.is_consistent(None, fp),
    "is_consistent-pair": lambda q, fp, sig: gd.is_consistent(sig, None),
    "generate_syndrome": lambda q, fp, sig: gd.generate_syndrome(None),
    "distinguishable": lambda q, fp, sig: gd.distinguishable(q, None, fp),
    "make_fault_pair": lambda q, fp, sig: gd.make_fault_pair(None, [0], []),
    "Syndrome": lambda q, fp, sig: gd.Syndrome(None, [0]),
}


@pytest.mark.parametrize("call", ENTRY_POINT_CALLS.values(), ids=ENTRY_POINT_CALLS.keys())
def test_entry_point_refuses_a_value_of_the_wrong_type(q2, call):
    fp = gd.make_fault_pair(q2, [0], [])
    with pytest.raises(InputError, match="expected a (Graph|Syndrome|FaultPair), not None"):
        call(q2, fp, gd.generate_syndrome(fp))
