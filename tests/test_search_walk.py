"""The bounded difference-structure search against a leaf-by-leaf walk.

``brute.reference_search_seed`` visits and counts every (X1, X2) leaf of
``brute.reference_leaves``; the library cuts whole subtrees by a
vertex-boundary bound and a heavy-vertex bound, counts nothing while it
walks, and returns the witness's structure (X1, X2, C); ``_seed_count``
computes the count from it: the total number of leaves of a seed with no
witness, or the rank of the witness's leaf plus one.  The library's masks
(through ``_witness_pairs``) and count must equal the walk's for every
seed, so a walk that visits the leaves in another order, cuts a
subtree that holds a witness, or meets a different first witness fails
here.  The rank and the total are also checked against every leaf's
position, not only first witnesses, and the sum over seeds against
``is_ts_diagnosable``, which counts a seed cut at its root without
searching it.  A verdict-only comparison such as
``test_methods_agree_on_grid`` would see none of these.  The bound layer
under the walks, ``_first_size``, is checked against the leaf-by-leaf walk
too: it never starts a seed above the X1 of its first witness, and never
proves a level where the seed has one.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag.diagnosability import (_first_size, _leaf_rank, _search_seed, _seed_count,
                                     _seed_leaves, _witness_pairs)

from brute import full_is_ts_diagnosable, reference_leaves, reference_search_seed
from gallery import full_gallery


def assert_same_walk(g, t, s, seeds):
    # each seed walked from the root cut's size, with the closure cut off; the
    # walk's structure (X1, X2, C) becomes masks through the one pair builder,
    # and its count comes from the one count rule
    for seed in seeds:
        first = _first_size(g, t, s, seed, False)
        hit = _search_seed(g, t, s, seed, first)
        masks = hit and tuple(m for p in _witness_pairs(g, *hit) for m in (p.f_mask, p.s_mask))
        count = _seed_count(g.vertex_count, t, seed, hit)
        assert (masks, count) == reference_search_seed(g, t, s, seed), \
            f"{g.name} t={t} s={s} seed={seed}"


@pytest.mark.parametrize("g", [gd.build_path(4)] + full_gallery(), ids=lambda g: g.name)
def test_every_seed_matches_on_gallery(g):
    for t in range(5):
        for s in range(3):
            assert_same_walk(g, t, s, range(g.vertex_count))


@pytest.mark.parametrize("t, s", [(4, 0), (3, 1), (1, 3)])
def test_seed_zero_matches_on_q4(q4, t, s):
    assert_same_walk(q4, t, s, [0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 10 ** 6),
       st.integers(0, 4), st.integers(0, 3))
def test_every_seed_matches_on_random_graphs(n, p, gen_seed, t, s):
    g = gd.build_random(n, p, gen_seed)
    assert_same_walk(g, t, s, range(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.floats(0.7, 1.0), st.integers(0, 10 ** 6),
       st.integers(1, 4), st.integers(1, 2))
# two graphs whose first witness a heavy set that ignores the count of
# neighbors in X1 (heavy = N(X1 - seed)) would cut; random draws hit such a
# graph about once in 500
@example(7, 0.7, 2, 3, 1)
@example(8, 0.9, 0, 4, 2)
def test_dense_graphs_match_both_oracles(n, p, gen_seed, t, s):
    # dense with s >= 1: heavy(X1), the vertices with more than s neighbors in
    # X1, is a proper part of N(X1), so the heavy-vertex cut and the boundary
    # cut prune different subtrees and each must stay admissible on its own
    g = gd.build_random(n, p, gen_seed)
    assert_same_walk(g, t, s, range(n))
    if t <= 3:
        assert (gd.is_ts_diagnosable(g, t, s).diagnosable
                == full_is_ts_diagnosable(g, t, s).diagnosable)


def test_dense_random_t1_pin():
    # the dense instance of bench/frontier.py: the heavy-vertex cut makes it
    # take milliseconds, and the count of structures must not notice the cut
    report = gd.edge_restricted_diagnosability(gd.build_random(16, 0.8, 1), 1)
    assert report.value == 7
    assert report.stats["structures_examined"] == 43_502_781


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_ranks_every_leaf(n):
    # the count of a seed is the rank of its witness plus one, or the total
    # with none; checked here on every leaf, not only on first witnesses
    for t in range(5):
        for seed in range(n):
            position = -1
            for position, (x1, x2) in enumerate(reference_leaves(n, t, seed)):
                x1mask = sum(1 << v for v in x1)
                x2mask = sum(1 << v for v in x2)
                assert _leaf_rank(n, t, seed, x1mask, x2mask) == position, (n, t, seed, x1, x2)
            assert _seed_leaves(n, t, seed) == position + 1, (n, t, seed)


def assert_same_total(g, t, s):
    # seeds cut at the root are counted without a walk; the total must still
    # be that of the leaf-by-leaf walk over the seeds up to the first witness
    seeds = [0] if g.vertex_transitive else range(g.vertex_count)
    expected = 0
    for seed in seeds:
        hit, count = reference_search_seed(g, t, s, seed)
        expected += count
        if hit is not None:
            break
    result = gd.is_ts_diagnosable(g, t, s)
    assert result.stats["structures_examined"] == expected, f"{g.name} t={t} s={s}"
    assert result.diagnosable is (hit is None)


@pytest.mark.parametrize("g", full_gallery(), ids=lambda g: g.name)
def test_total_matches_on_gallery(g):
    for t in range(5):
        for s in range(3):
            assert_same_total(g, t, s)


@pytest.mark.parametrize("t, s", [(1, 0), (2, 0), (2, 1), (1, 4), (2, 2)])
def test_total_matches_on_relabelled_q5(t, s):
    # Q_5 without the builder's symmetry flag is swept from every seed; at
    # (1, 0), (2, 0) and (2, 1) every seed is cut at the root, at (1, 4) and
    # (2, 2) none is
    q = gd.build_hypercube(5)
    perm = list(range(q.vertex_count))
    random.Random(1).shuffle(perm)
    g = gd.Graph(q.vertex_count, [(perm[a], perm[b]) for a, b in q.edges])
    assert not g.vertex_transitive
    assert_same_total(g, t, s)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
def test_bound_layer_is_sound_on_random_graphs(n, p, gen_seed):
    # every rule of _first_size, at every level and seed and with or without
    # the single-seed rules: the leaf-by-leaf walk meets witnesses by |X1|
    # ascending, so its first witness has the least |X1| of any
    g = gd.build_random(n, p, gen_seed)
    for t in range(n + 2):
        for s in range(len(g.edges) + 1):
            for seed in range(n):
                answers = {alone: _first_size(g, t, s, seed, alone) for alone in (False, True)}
                if max(answers.values()) == 1:
                    continue    # nothing skipped, nothing to check
                hit, _ = reference_search_seed(g, t, s, seed)
                size1 = n + 1 if hit is None else (hit[0] & ~hit[2]).bit_count()
                for alone, first in answers.items():
                    where = f"{g.name} t={t} s={s} seed={seed} alone={alone}"
                    assert first <= size1, where
                    if first > min(t, n):
                        assert hit is None, where
