import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag import ConsistencyError, GraphMismatchError, InputError, _masks
from gpmcdiag.faults import (ADVERSARY_STRATEGIES, _candidate_masks, _pair_from_masks,
                             _syndrome_from_mask, _test_index)

import brute
from brute import (brute_force_decode, directed_tests, forced_value, reference_candidate_masks,
                   sigma_set)
from gallery import full_gallery


class TestMakeFaultPair:
    def test_valid_pair(self, q3):
        fp = gd.make_fault_pair(q3, {0}, {(3, 7)})
        assert fp.faulty_vertices == {0}
        assert fp.faulty_edges == {(3, 7)}

    def test_edge_touching_faulty_vertex_rejected(self, q3):
        for faulty in (0, 1):
            with pytest.raises(ConsistencyError) as err:
                gd.make_fault_pair(q3, {faulty}, {(0, 1)})
            assert err.value.edge == (0, 1)

    def test_empty_pair(self, q3):
        fp = gd.make_fault_pair(q3, set(), set())
        assert fp.f_mask == 0 and fp.s_mask == 0

    def test_edge_order_normalized(self, q3):
        fp = gd.make_fault_pair(q3, set(), {(7, 3)})
        assert fp.faulty_edges == {(3, 7)}

    def test_unknown_edge_rejected(self, q3):
        with pytest.raises(InputError):
            gd.make_fault_pair(q3, set(), {(0, 7)})

    def test_out_of_range_vertex_rejected(self, q3):
        with pytest.raises(InputError):
            gd.make_fault_pair(q3, {9}, set())

    def test_record_roundtrip(self, q3):
        fp = gd.make_fault_pair(q3, {1, 4}, {(2, 3)})
        assert gd.fault_pair_from_record(q3, fp.to_record()) == fp


@pytest.mark.parametrize("build", [
    lambda q2: gd.Graph(3, [(0, 1, 2)]),
    lambda q2: gd.Graph(3, [5]),
    lambda q2: q2.check_edge((0,)),
    lambda q2: q2.check_edge(5),
    lambda q2: gd.make_fault_pair(q2, [], [(0,)]),
    lambda q2: gd.make_fault_pair(q2, 5, []),
    lambda q2: gd.fault_pair_from_record(q2, {"F": 5, "S": []}),
    lambda q2: gd.fault_pair_from_record(q2, {"F": [0], "S": [3]}),
    lambda q2: gd.syndrome_from_triples(q2, [(0, 1)]),
    lambda q2: gd.syndrome_from_triples(q2, [5]),
    lambda q2: gd.syndrome_from_triples(q2, 5),
    lambda q2: gd.Graph(2, [(0, 1)], labels=5),
    lambda q2: gd.Syndrome(q2, 5),
], ids=["graph-triple", "graph-int", "check-edge-short", "check-edge-int",
        "pair-short-edge", "pair-int-vertices", "record-int-F", "record-int-edge",
        "syndrome-short-row", "syndrome-int-row", "syndrome-int-rows", "graph-int-labels",
        "syndrome-int-results"])
def test_malformed_entry_raises_input_error(q2, build):
    # an edge, a syndrome row or a vertex collection of the wrong shape is
    # refused with the documented error, not a bare ValueError or TypeError
    with pytest.raises(InputError):
        build(q2)


@pytest.mark.parametrize("e, message", [
    ((1, 1), "self-loop at vertex 1 "),
    ((0, True), "edge 0-True has an endpoint that is not an int"),
    ((0, 9), "vertex id 9 is not in 0..3"),
])
def test_bad_fault_edge_named_by_edge_rule(q2, e, message):
    # make_fault_pair passes the edge rule's own message through
    with pytest.raises(InputError, match=re.escape(message)):
        gd.make_fault_pair(q2, [], [e])


def test_fault_pair_keeps_its_sets_as_frozensets(q3):
    # any collection will do, a one-shot iterator or a list with repeats
    # included, and the pair's sets and masks agree with it
    pair = gd.FaultPair(q3, (v for v in [1, 1]), iter([(2, 6)]))
    assert pair.faulty_vertices == frozenset({1}) and pair.f_mask == 0b10
    assert pair.faulty_edges == frozenset({(2, 6)}) and pair.s_mask != 0
    assert pair == gd.make_fault_pair(q3, [1], [(6, 2)])


def test_fault_pair_refuses_an_edge_out_of_canonical_form(q2):
    # the pair keeps its edges as given, so a reversed edge would be stored
    # beside an s_mask naming (0, 1) and disagree with make_fault_pair's pair
    with pytest.raises(InputError, match=re.escape("edge (1, 0) is not in canonical")):
        gd.FaultPair(q2, [], [(1, 0)])
    assert gd.make_fault_pair(q2, [], [(1, 0)]).faulty_edges == {(0, 1)}


class TestEnumerateTests:
    # the oracle's test list and the library's test positions share one order
    def test_counts(self, q2, q3):
        for g, count in ((q2, 8), (q3, 24), (gd.build_hypercube(1), 2)):
            assert len(directed_tests(g)) == count == len(gd.generate_syndrome(
                gd.make_fault_pair(g, set(), set())))

    def test_both_directions_of_every_edge(self, q2):
        directed = {(tester, testee) for tester, testee, _ in directed_tests(q2)}
        for (u, v) in q2.edges:
            assert (u, v) in directed and (v, u) in directed

    def test_deterministic_order(self, q3):
        sig = gd.generate_syndrome(gd.make_fault_pair(q3, {5}, set()), "random", seed=1)
        tests = directed_tests(q3)
        assert [(a, b) for a, b, _ in tests] == [(a, b) for a, b, _ in sig.to_triples()]
        assert [_test_index(q3, a, b) for a, b, _ in tests] == list(range(len(tests)))


def _forced(fp, tester, testee):
    """The library's forced value of one test: 1, 0, or None (unconstrained)."""
    ff, fpm = _masks.forced_masks(fp.graph, fp.f_mask, fp.s_mask)
    i = _test_index(fp.graph, tester, testee)
    return 1 if (ff >> i) & 1 else 0 if (fpm >> i) & 1 else None


class TestForcedOutcome:
    # each rule of the model, by the oracle's forced_value and by the
    # library's forced masks
    def test_good_tester_faulty_testee(self, q3):
        fp = gd.make_fault_pair(q3, {1}, set())
        assert forced_value((0, 1, (0, 1)), fp.faulty_vertices, fp.faulty_edges) == 1
        assert _forced(fp, 0, 1) == 1

    def test_fault_free_system_passes(self, q3):
        fp = gd.make_fault_pair(q3, set(), set())
        for test in directed_tests(q3):
            assert forced_value(test, fp.faulty_vertices, fp.faulty_edges) == 0
            assert _forced(fp, *test[:2]) == 0

    def test_faulty_tester_is_arbitrary(self, q3):
        fp = gd.make_fault_pair(q3, {0}, set())
        assert forced_value((0, 1, (0, 1)), fp.faulty_vertices, fp.faulty_edges) is None
        assert _forced(fp, 0, 1) is None

    def test_faulty_edge_forces_fail(self, q2):
        fp = gd.make_fault_pair(q2, set(), {(0, 1)})
        for tester, testee in ((0, 1), (1, 0)):
            assert forced_value((tester, testee, (0, 1)), set(), fp.faulty_edges) == 1
            assert _forced(fp, tester, testee) == 1

    def test_arbitrary_iff_tester_faulty(self, q2):
        # exhaustive over every pair and test of the 2-cube
        for fp in brute.all_consistent_pairs(q2, 2, 2):
            for test in directed_tests(q2):
                arb = forced_value(test, fp.faulty_vertices, fp.faulty_edges) is None
                assert arb == (test[0] in fp.faulty_vertices)
                assert (_forced(fp, *test[:2]) is None) == arb


    def test_forced_masks_match_model_bit_by_bit(self):
        # forced_masks derives test bits from the edge index alone (2k for the
        # smaller endpoint's test, 2k+1 for the larger's); check every bit
        for g in full_gallery():
            tests = directed_tests(g)
            for fp in brute.all_consistent_pairs(g, 3, 2):
                ff, fpm = _masks.forced_masks(g, fp.f_mask, fp.s_mask)
                assert ff & fpm == 0
                for i, test in enumerate(tests):
                    want = forced_value(test, fp.faulty_vertices, fp.faulty_edges)
                    got = 1 if (ff >> i) & 1 else 0 if (fpm >> i) & 1 else None
                    assert got == want, f"{g.name} {fp} {test}"


@pytest.mark.parametrize("build", [
    lambda: gd.build_hypercube(4),
    lambda: gd.build_hypercube(10),
    *(lambda seed=seed: gd.build_random(60, 0.5, seed) for seed in (1, 2, 3)),
], ids=["Q4", "Q10", "G60-s1", "G60-s2", "G60-s3"])
def test_masks_match_shift_or_reference(build):
    # forced_masks builds each test mask in one step, in a byte buffer on
    # wide graphs, and generate_syndrome at every width; the reference or-s
    # in one bit at a time
    g = build()
    width = 2 * len(g.edges)
    # forced_masks takes the shift-or path on Q_4, the byte buffer on the rest
    assert (width < _masks.BUFFER_WIDTH) == (g.vertex_count == 16)
    rng = random.Random(width)
    for _ in range(25):
        faulty = rng.sample(range(g.vertex_count), rng.randint(0, 12))
        # raw masks may put a faulty edge at a faulty vertex; pairs may not
        f = _masks.vertex_mask(faulty)
        s = _masks.vertex_mask(rng.sample(range(len(g.edges)), rng.randint(0, 12)))
        assert _masks.forced_masks(g, f, s) == brute.forced_masks(g, f, s)
        free_edges = [e for e in g.edges if e[0] not in faulty and e[1] not in faulty]
        s_count = rng.randint(0, min(12, len(free_edges)))
        fp = gd.make_fault_pair(g, faulty, rng.sample(free_edges, s_count))
        assert (_masks.forced_masks(g, fp.f_mask, fp.s_mask)
                == brute.forced_masks(g, fp.f_mask, fp.s_mask))
        seed = rng.getrandbits(32)
        assignments = {(u, v): rng.randint(0, 1)
                       for u in faulty for v in sorted(gd.neighbors(g, u))}
        for strategy in ADVERSARY_STRATEGIES:
            sig = gd.generate_syndrome(fp, strategy, seed=seed, assignments=assignments)
            want = brute.reference_syndrome_mask(fp, strategy, seed, assignments)
            assert sig.fail_mask == want, (g.name, strategy)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 1023, 1024])
def test_mask_of_matches_shift_or_reference(width):
    # mask_of writes every test mask in its byte buffer, at every width;
    # positions may repeat and come in any order
    rng = random.Random(width)
    for count in (0, 1, width // 3, width):
        positions = [rng.randrange(width) for _ in range(count)] if width else []
        want = 0
        for p in positions:
            want |= 1 << p
        assert _masks.mask_of(positions, width) == want
    assert _masks.mask_of(range(width), width) == (1 << width) - 1


def test_wide_adversary_masks_match_explicit_reference():
    # below (Q_3) and past (Q_8) BUFFER_WIDTH every assignment's mask, each
    # stepped from the one before by one xor, is in ascending order the
    # explicit strategy's shift-or reference for that assignment
    for n in (3, 8):
        g = gd.build_hypercube(n)
        assert (2 * len(g.edges) >= _masks.BUFFER_WIDTH) == (n == 8)
        fp = gd.make_fault_pair(g, {5}, {(0, 1), (2, 6)})
        free = [(tester, testee) for tester, testee, _ in directed_tests(g) if tester == 5]
        count, masks = brute.adversary_syndromes(g, fp.f_mask, fp.s_mask)
        assert count == len(free) == n
        want = [brute.reference_syndrome_mask(
                    fp, "explicit", assignments={key: (a >> i) & 1 for i, key in enumerate(free)})
                for a in range(1 << count)]
        assert list(masks) == want


def test_large_hypercube_pair_fits_in_512_mb():
    # the mask layout must stay small enough that Q_13 (53,248 edges) fits a
    # fault pair and its syndrome into 512 MB of address space
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "import gpmcdiag as gd\n"
        "g = gd.build_hypercube(13)\n"
        "fp = gd.make_fault_pair(g, {1, 5, 1000}, {(2, 3)})\n"
        "sig = gd.generate_syndrome(fp, 'random', seed=1)\n"
        "print(gd.is_consistent(sig, fp))\n"
    )
    src = str(Path(gd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["True"]


class TestGenerateSyndrome:
    def test_fault_free_all_pass(self, q3):
        fp = gd.make_fault_pair(q3, set(), set())
        for strategy in ("all-pass", "all-fail"):
            sig = gd.generate_syndrome(fp, strategy)
            assert set(sig.results) == {0}

    def test_q2_all_fail_worked_example(self, q2):
        # Q_2 with vertex 00 faulty: the six tests with good testers are
        # forced (fail into 00, pass elsewhere); 00's own two tests are
        # adversary-controlled and all-fail sets them to 1.
        fp = gd.make_fault_pair(q2, {0}, set())
        sig = gd.generate_syndrome(fp, "all-fail")
        expected = {
            (0, 1): 1, (1, 0): 1,   # 00->01 adversarial, 01->00 forced fail
            (0, 2): 1, (2, 0): 1,
            (1, 3): 0, (3, 1): 0,
            (2, 3): 0, (3, 2): 0,
        }
        for (tester, testee), result in expected.items():
            assert sig.outcome(tester, testee) == result

    def test_seeded_random_is_deterministic(self, q3):
        fp = gd.make_fault_pair(q3, {0, 3}, set())
        a = gd.generate_syndrome(fp, "random", seed=41)
        b = gd.generate_syndrome(fp, "random", seed=41)
        c = gd.generate_syndrome(fp, "random", seed=42)
        assert a.results == b.results
        assert a.results != c.results  # seeds 41/42 happen to differ here

    def test_random_requires_seed(self, q3):
        fp = gd.make_fault_pair(q3, {0}, set())
        with pytest.raises(InputError):
            gd.generate_syndrome(fp, "random")

    @pytest.mark.parametrize("seed", [[1], object(), True, 1.5, "ab", b"x"],
                             ids=["list", "object", "bool", "float", "str", "bytes"])
    def test_seed_not_an_int_rejected(self, q3, seed):
        # random.Random would raise a bare TypeError or silently hash the value
        fp = gd.make_fault_pair(q3, {0}, set())
        with pytest.raises(InputError, match="adversary seed must be an int"):
            gd.generate_syndrome(fp, "random", seed=seed)

    def test_explicit_assignments(self, q2):
        fp = gd.make_fault_pair(q2, {0}, set())
        sig = gd.generate_syndrome(fp, "explicit",
                                   assignments={(0, 1): 1, (0, 2): 0})
        assert sig.outcome(0, 1) == 1
        assert sig.outcome(0, 2) == 0

    def test_explicit_missing_assignment(self, q2):
        fp = gd.make_fault_pair(q2, {0}, set())
        with pytest.raises(InputError):
            gd.generate_syndrome(fp, "explicit", assignments={(0, 1): 1})

    def test_explicit_extraneous_assignment(self, q2):
        fp = gd.make_fault_pair(q2, {0}, set())
        with pytest.raises(InputError):
            gd.generate_syndrome(fp, "explicit",
                                 assignments={(0, 1): 1, (0, 2): 0, (1, 3): 1})

    @pytest.mark.parametrize("value", [1.0, True, gd.TestOutcome.FAIL,
                                       0.0, False, gd.TestOutcome.PASS])
    def test_explicit_value_equal_to_zero_or_one(self, q2, value):
        fp = gd.make_fault_pair(q2, {0}, set())
        sig = gd.generate_syndrome(fp, "explicit", assignments={(0, 1): value, (0, 2): 0})
        assert sig.outcome(0, 1) == (value == 1)
        assert sig.outcome(0, 2) == 0

    @pytest.mark.parametrize("value", [0.5, 2, -1, "0", "1", None])
    def test_explicit_value_not_zero_or_one_rejected(self, q2, value):
        fp = gd.make_fault_pair(q2, {0}, set())
        with pytest.raises(InputError, match="must be 0 .pass. or 1 .fail."):
            gd.generate_syndrome(fp, "explicit", assignments={(0, 1): value, (0, 2): 1})

    @pytest.mark.parametrize("assignments", [5, "ab", [[[0], 1]], [(0, 1, 1)]])
    def test_explicit_assignments_not_a_mapping_rejected(self, q2, assignments):
        fp = gd.make_fault_pair(q2, {0}, set())
        with pytest.raises(InputError, match="assignments must map"):
            gd.generate_syndrome(fp, "explicit", assignments=assignments)

    def test_unknown_strategy(self, q2):
        fp = gd.make_fault_pair(q2, set(), set())
        with pytest.raises(InputError):
            gd.generate_syndrome(fp, "mostly-pass")


class TestIsConsistent:
    def test_generated_syndromes_are_consistent(self, q3):
        for fverts, fedges in [(set(), set()), ({0}, {(3, 7)}), ({0, 7}, set())]:
            fp = gd.make_fault_pair(q3, fverts, fedges)
            for strategy in ("all-pass", "all-fail"):
                assert gd.is_consistent(gd.generate_syndrome(fp, strategy), fp)
            assert gd.is_consistent(gd.generate_syndrome(fp, "random", seed=7), fp)

    def test_all_pass_with_visible_fault_is_inconsistent(self, q3):
        fp = gd.make_fault_pair(q3, {0}, set())
        empty = gd.make_fault_pair(q3, set(), set())
        all_pass = gd.generate_syndrome(empty, "all-pass")
        assert not gd.is_consistent(all_pass, fp)

    def test_everything_faulty_matches_any_syndrome(self, q2):
        whole = gd.make_fault_pair(q2, set(range(4)), set())
        fp = gd.make_fault_pair(q2, {1}, {(2, 3)})
        for strategy in ("all-pass", "all-fail"):
            sig = gd.generate_syndrome(fp, strategy)
            assert gd.is_consistent(sig, whole)

    def test_graph_mismatch(self, q2, q3):
        fp = gd.make_fault_pair(q3, set(), set())
        sig = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set()))
        with pytest.raises(GraphMismatchError):
            gd.is_consistent(sig, fp)


class TestSyndromeSerialization:
    def test_triples_roundtrip(self, q3):
        fp = gd.make_fault_pair(q3, {2}, {(4, 5)})
        sig = gd.generate_syndrome(fp, "random", seed=5)
        back = gd.syndrome_from_triples(q3, sig.to_triples())
        assert back.results == sig.results

    def test_incomplete_rejected(self, q2):
        sig = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set()))
        with pytest.raises(InputError, match="incomplete"):
            gd.syndrome_from_triples(q2, sig.to_triples()[:-1])

    def test_non_adjacent_triple_rejected(self, q2):
        with pytest.raises(InputError):
            gd.syndrome_from_triples(q2, [(0, 3, 0)])

    @pytest.mark.parametrize("outcome", [0.6, 1.9, "1", "0", None, 2, -1])
    def test_outcome_not_zero_or_one_rejected(self, q2, outcome):
        # an outcome is taken as given, never rounded to a pass or a fail
        triples = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set())).to_triples()
        triples[0] = (*triples[0][:2], outcome)
        with pytest.raises(InputError, match="must be 0 .pass. or 1 .fail."):
            gd.syndrome_from_triples(q2, triples)

    @pytest.mark.parametrize("outcome", [1.0, True, gd.TestOutcome.FAIL])
    def test_outcome_equal_to_one_fails_the_test(self, q2, outcome):
        triples = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set())).to_triples()
        triples[0] = (*triples[0][:2], outcome)
        sig = gd.syndrome_from_triples(q2, triples)
        assert sig.fail_mask == 1 and sig.results[0] == 1

    def test_repeated_test_rejected(self, q2):
        # a later row must not silently overwrite an earlier one
        triples = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set())).to_triples()
        with pytest.raises(InputError, match="more than once"):
            gd.syndrome_from_triples(q2, triples + [(0, 1, 1)])
        with pytest.raises(InputError, match="more than once"):
            gd.syndrome_from_triples(q2, [(0, 1, 1)] + triples)

    def test_pairs_and_syndromes_build_no_layout(self):
        # they need only the graph's edge index and adjacency, not the O(n^2)
        # neighbor masks
        g = gd.build_hypercube(10)
        fp = gd.fault_pair_from_record(g, {"F": [3], "S": [[0, 1]]})
        triples = [(tester, testee, 0) for tester, testee, _ in directed_tests(g)]
        sig = gd.syndrome_from_triples(g, triples)
        assert sig.outcome(1, 0) == gd.TestOutcome.PASS
        assert fp == gd.make_fault_pair(g, {3}, {(1, 0)})
        generated = gd.generate_syndrome(fp, "random", seed=4)
        assert gd.is_consistent(generated, fp)
        assert not gd.is_consistent(sig, fp)
        other = gd.make_fault_pair(g, {3, 5}, set())
        assert gd.distinguishable(g, fp, other).distinguishable
        assert gd.distinguishable_oracle(g, fp, other)
        assert g._layout is None

    def test_generated_syndrome_is_decided_from_its_mask(self):
        # consistency and decoding read fail_mask; the results tuple stays unbuilt
        g = gd.build_hypercube(6)
        fp = gd.make_fault_pair(g, {1, 22}, {(4, 5)})
        sig = gd.generate_syndrome(fp, "random", seed=8)
        assert gd.is_consistent(sig, fp)
        assert gd.diagnose(g, sig, 3, 1).unique_pair == fp
        assert "results" not in vars(sig)
        assert sig.results == tuple((sig.fail_mask >> i) & 1 for i in range(len(sig)))
        assert "results" in vars(sig)

    def test_views_hold_ints_and_mask_decides_equality(self, q2):
        import numpy as np
        mask = 0b10010110
        for results in [tuple(float((mask >> i) & 1) for i in range(8)),
                        tuple(np.bool_((mask >> i) & 1) for i in range(8)),
                        [(mask >> i) & 1 for i in range(8)]]:
            sig = gd.Syndrome(q2, results)
            assert sig == _syndrome_from_mask(q2, mask)
            assert hash(sig) == hash(_syndrome_from_mask(q2, mask))
            assert all(type(r) is int for r in sig.results)
            assert all(type(x) is int for row in sig.to_triples() for x in row)
            assert len(sig) == 8
        assert gd.Syndrome(q2, (0,) * 8) != _syndrome_from_mask(q2, mask)
        assert repr(_syndrome_from_mask(q2, mask)) == "Syndrome(hypercube-2: 4 of 8 tests fail)"

    def test_fail_mask_roundtrips_through_results(self):
        rng = random.Random(11)
        for g in full_gallery() + [gd.build_hypercube(5)]:
            width = 2 * len(g.edges)
            masks = [0, (1 << width) - 1, 1 << (width - 1)]
            masks += [rng.getrandbits(width) for _ in range(20)]
            for mask in masks:
                sig = _syndrome_from_mask(g, mask)
                assert sig.results == tuple((mask >> i) & 1 for i in range(width)), g.name
                assert sig.fail_mask == mask, g.name
                assert gd.Syndrome(g, tuple(map(float, sig.results))).fail_mask == mask

    @pytest.mark.parametrize("bad", [2, -1, 0.5, None, "1"])
    def test_result_outside_zero_one_rejected(self, q2, bad):
        with pytest.raises(InputError):
            gd.Syndrome(q2, (0,) * 7 + (bad,))

    def test_bool_results_accepted(self, q2):
        import numpy as np
        for one in (True, np.bool_(True)):
            assert gd.Syndrome(q2, (0,) * 7 + (one,)).fail_mask == 1 << 7
        assert gd.Syndrome(q2, (np.bool_(False),) * 8).fail_mask == 0


class TestEnumerateConsistentPairs:
    def test_all_pass_with_zero_bounds(self, q3):
        sig = gd.generate_syndrome(gd.make_fault_pair(q3, set(), set()))
        pairs = gd.enumerate_consistent_pairs(q3, sig, 0, 0)
        assert pairs == [gd.make_fault_pair(q3, set(), set())]

    def test_generating_pair_is_found(self, q2):
        fp = gd.make_fault_pair(q2, {0}, set())
        sig = gd.generate_syndrome(fp, "all-fail")
        pairs = gd.enumerate_consistent_pairs(q2, sig, 1, 0)
        assert fp in pairs

    def test_maximal_bounds_include_everything_faulty(self, q2):
        fp = gd.make_fault_pair(q2, {0}, {(1, 3)})
        sig = gd.generate_syndrome(fp, "all-fail")
        pairs = gd.enumerate_consistent_pairs(q2, sig, 4, 4)
        assert fp in pairs
        assert gd.make_fault_pair(q2, set(range(4)), set()) in pairs

    def test_matches_literal_filter(self, q2):
        # the decoder's propagation path against the definitional filter
        cases = [
            (gd.make_fault_pair(q2, {0}, set()), "all-fail"),
            (gd.make_fault_pair(q2, {1}, {(2, 3)}), "all-pass"),
            (gd.make_fault_pair(q2, set(), {(0, 1)}), "all-pass"),
            (gd.make_fault_pair(q2, {0, 3}, set()), "random"),
        ]
        for fp, strategy in cases:
            seed = 3 if strategy == "random" else None
            sig = gd.generate_syndrome(fp, strategy, seed=seed)
            for (t, s) in [(1, 1), (2, 2), (4, 4)]:
                fast = gd.enumerate_consistent_pairs(q2, sig, t, s)
                slow = brute_force_decode(q2, sig, t, s)
                assert set(fast) == set(slow)
                assert len(fast) == len(set(fast))

    def test_deterministic_order(self, q3):
        fp = gd.make_fault_pair(q3, {0}, set())
        sig = gd.generate_syndrome(fp, "all-fail")
        a = gd.enumerate_consistent_pairs(q3, sig, 2, 1)
        b = gd.enumerate_consistent_pairs(q3, sig, 2, 1)
        assert a == b
        sizes = [(len(p.faulty_vertices), sorted(p.faulty_vertices)) for p in a]
        assert sizes == sorted(sizes)

    def test_negative_bounds_rejected(self, q2):
        sig = gd.generate_syndrome(gd.make_fault_pair(q2, set(), set()))
        with pytest.raises(InputError):
            gd.enumerate_consistent_pairs(q2, sig, -1, 0)


def test_syndrome_count_is_power_of_arbitrary_tests():
    # every consistent pair of some <=10-test graphs, against literal enumeration
    for g in [gd.build_hypercube(1), gd.build_path(3), gd.build_cycle(4)]:
        for fp in brute.all_consistent_pairs(g, g.vertex_count, len(g.edges)):
            arb = sum(1 for tester, _, _ in directed_tests(g)
                      if tester in fp.faulty_vertices)
            assert len(sigma_set(g, fp.faulty_vertices, fp.faulty_edges)) == 2 ** arb


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.integers(0, 10 ** 6), st.data())
def test_generated_syndromes_consistent_by_construction(n, seed, data):
    g = gd.build_random(n, 0.55, seed)
    verts = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    free = [e for e in g.edges if e[0] not in verts and e[1] not in verts]
    edges = data.draw(st.sets(st.sampled_from(free), max_size=len(free))) if free else set()
    fp = gd.make_fault_pair(g, verts, edges)
    strategy = data.draw(st.sampled_from(["all-pass", "all-fail", "random"]))
    sig = gd.generate_syndrome(fp, strategy, seed=data.draw(st.integers(0, 999)))
    assert gd.is_consistent(sig, fp)


# ---------------------------------------------------------------------------
# the syndrome-driven decoder against its exhaustive predecessor
# ---------------------------------------------------------------------------

# the gallery has Q_3.  The last three have delta(G) <= 1, so most t exceed
# it: they add suspects that no test fails and, on one vertex, a syndrome
# of no tests
DECODER_GRAPHS = full_gallery() + [
    gd.build_hypercube(4),
    gd.Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),    # isolated 5, 6; pendant 4
    gd.build_path(5),
    gd.Graph(1, []),
]


def _agrees_with_reference(g, fail_mask, t, s):
    got = _candidate_masks(g, fail_mask, t, s)
    assert got == reference_candidate_masks(g, fail_mask, t, s)
    return got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DECODER_GRAPHS), st.integers(0, 4), st.integers(0, 3), st.data())
def test_candidate_masks_match_exhaustive_reference(g, t, s, data):
    # pairs up to one past each bound, so NO_CANDIDATE and foreign
    # explanations are exercised as well as the in-bound case
    n = g.vertex_count
    verts = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, min(t + 1, n)))]
    free = [e for e in g.edges if e[0] not in verts and e[1] not in verts]
    edges = data.draw(st.permutations(free))[:data.draw(st.integers(0, min(s + 1, len(free))))]
    fp = gd.make_fault_pair(g, verts, edges)
    strategy = data.draw(st.sampled_from(["all-pass", "all-fail", "random"]))
    sig = gd.generate_syndrome(fp, strategy, seed=data.draw(st.integers(0, 999)))
    found = _agrees_with_reference(g, sig.fail_mask, t, s)
    if len(verts) <= t and len(edges) <= s:
        assert (fp.f_mask, fp.s_mask) in found


class TestCandidateMasksFixedCases:
    def test_zero_vertex_budget(self, q3):
        clean = gd.generate_syndrome(gd.make_fault_pair(q3, set(), {(3, 7)}))
        assert _agrees_with_reference(q3, clean.fail_mask, 0, 1) == [
            (0, 1 << q3.edges.index((3, 7)))]
        assert _agrees_with_reference(q3, clean.fail_mask, 0, 0) == []
        vertex = gd.generate_syndrome(gd.make_fault_pair(q3, {0}, set()), "all-fail")
        # vertex 0's three both-fail edges fit S only when s >= 3
        assert _agrees_with_reference(q3, vertex.fail_mask, 0, 2) == []
        assert _agrees_with_reference(q3, vertex.fail_mask, 0, 3) == [
            (0, sum(1 << k for k, e in enumerate(q3.edges) if 0 in e))]

    def test_budget_at_or_above_max_degree(self, q3, q4):
        # every vertex has at most t-1 passing in-tests, so every vertex
        # is a suspect and only the covering search prunes
        cases = [(q3, {0, 5}, 3), (q3, {1, 2, 4}, 4), (q4, {0, 3, 5, 6, 9}, 5)]
        for g, verts, t in cases:
            fp = gd.make_fault_pair(g, verts, set())
            for seed in range(4):
                sig = gd.generate_syndrome(fp, "random", seed=seed)
                assert _agrees_with_reference(g, sig.fail_mask, t, 1)
            for strategy in ("all-pass", "all-fail"):
                sig = gd.generate_syndrome(fp, strategy)
                assert _agrees_with_reference(g, sig.fail_mask, t, 1)

    def test_isolated_vertex(self):
        # vertex 4 has no tests at all: it can join any candidate F for free
        g = gd.Graph(5, [(0, 1), (1, 2), (2, 3)])
        fp = gd.make_fault_pair(g, {1}, set())
        for strategy in ("all-pass", "all-fail"):
            sig = gd.generate_syndrome(fp, strategy)
            for t in range(4):
                _agrees_with_reference(g, sig.fail_mask, t, 1)
            found = _agrees_with_reference(g, sig.fail_mask, 2, 0)
            assert (fp.f_mask | 1 << 4, 0) in found


PAIR_FIELDS = ["graph", "faulty_vertices", "faulty_edges", "f_mask", "s_mask"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(DECODER_GRAPHS),
                 st.builds(gd.build_random, st.integers(1, 12),
                           st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 999))),
       st.data())
def test_pair_from_masks_equals_checked_pair(g, data):
    # the search and the decoder build their pairs from masks without
    # FaultPair's checks; each such pair must be the one the checks build
    f = data.draw(st.integers(0, (1 << g.vertex_count) - 1), label="F")
    free = [k for k, (a, b) in enumerate(g.edges) if not (f >> a) & 1 and not (f >> b) & 1]
    picked = data.draw(st.sets(st.sampled_from(free)) if free else st.just(set()), label="S")
    sm = sum(1 << k for k in picked)
    built = _pair_from_masks(g, f, sm)
    checked = gd.FaultPair(g, set(_masks.bits(f)), [g.edges[k] for k in picked])
    assert type(built) is gd.FaultPair
    assert built == checked and checked == built
    assert hash(built) == hash(checked)
    assert (built.f_mask, built.s_mask) == (checked.f_mask, checked.s_mask) == (f, sm)
    assert built.to_record() == checked.to_record()
    assert str(built) == str(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, data.draw(st.sampled_from(PAIR_FIELDS), label="field"), None)
