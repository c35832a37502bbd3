"""The bounded difference-structure search against a leaf-by-leaf walk.

``brute.reference_search_seed`` visits and counts every (X1, X2) leaf;
the library cuts whole subtrees by a vertex-boundary bound and counts
their leaves with binomial coefficients.  Both must return the same
witness masks and the same count of structures for every seed, so a walk
that visits the leaves in another order, miscounts a cut subtree, cuts a
subtree that holds a witness, or meets a different first witness fails
here.  A verdict-only comparison such as ``test_methods_agree_on_grid``
would see none of these.
"""

import pytest
from hypothesis import given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag.diagnosability import _search_seed

from brute import reference_search_seed
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
