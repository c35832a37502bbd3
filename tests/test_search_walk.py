"""The bounded difference-structure search against a leaf-by-leaf walk.

``brute.reference_search_seed`` visits and counts every (X1, X2) leaf;
the library cuts whole subtrees by a vertex-boundary bound and a
heavy-vertex bound and counts their leaves with binomial coefficients.  Both must return the same
witness masks and the same count of structures for every seed, so a walk
that visits the leaves in another order, miscounts a cut subtree, cuts a
subtree that holds a witness, or meets a different first witness fails
here.  A verdict-only comparison such as ``test_methods_agree_on_grid``
would see none of these.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag.diagnosability import _search_seed

from brute import full_is_ts_diagnosable, reference_search_seed
from gallery import full_gallery


def assert_same_walk(g, t, s, seeds):
    for seed in seeds:
        assert _search_seed(g, t, s, seed) == reference_search_seed(g, t, s, seed), \
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
