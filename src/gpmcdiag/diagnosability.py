"""Exhaustive computation of the restricted diagnosability parameters.

``is_ts_diagnosable`` decides whether every two distinct in-bound consistent
fault pairs are distinguishable.  It searches directly for the difference
structure of an indistinguishable pair (the "local" method).  Writing
X1 = F1 - F2, X2 = F2 - F1, C = F1 & F2, a witness exists exactly when
disjoint (X1, X2, C) exist with X1 or X2 nonempty, |X1| + |C| <= t,
|X2| + |C| <= t, and each of X1, X2 sends at most s edges to vertices outside
X1 | X2 | C.  A witness is that structure: the search returns (X1, X2, C),
and so do the paper's two extremal constructions, as vertex masks.
``_witness_pairs`` alone turns a structure into its two pairs: F1 = X1 | C,
F2 = X2 | C, and the faulty edge sets are forced (each side blames the other
side's edges leaving X1 | X2 | C), so no edge subsets are ever enumerated.
X1 and X2 are walked depth first by two plain recursions that return the
first witness straight up.  Two bounds cut every subtree in which no leaf
can be a witness: a vertex-boundary bound, and a heavy-vertex bound (a
vertex with more than s neighbors in X1 cannot lie outside X2 | C).  The
walks count nothing.  ``_seed_count`` alone gives a seed's count of
structures examined, that of a leaf-by-leaf walk: every leaf of a seed with
no witness, a sum of binomial coefficients, or the rank of the witness's
leaf in the walk's order plus one, read off the combinatorial number
system.  ``_first_size`` is the one bound layer under the walks: per level
and seed it answers the smallest |X1| at which a witness can lie, and a
seed whose level it proves is counted without being searched.
``_search_seed`` proves both walk cuts admissible and the count, and
``_first_size`` proves each of its rules, so the search stays exact.
The test suite checks it on every gallery graph and on random and dense
random graphs against an oracle that enumerates every consistent pair within
bounds and compares them pairwise (``full_search`` in ``tests/brute.py``),
checks its leaf order and counts against a leaf-by-leaf walk
(``reference_search_seed`` there), and checks relabelling and shared-syndrome
relations on graphs of up to 30 vertices (``tests/test_metamorphic.py``).

Vertex-transitive graphs are searched from the single seed vertex 0, since
any witness can be translated to one whose smallest difference vertex is 0.
Their s = 0 levels up to t_0 are proven by one closure cut, a flow cached on
the graph (``_first_size``), so an s = 0 ascent walks only level t_0 + 1;
at s > 0, warm-started flows with a second seed prove the levels with
t <= delta - s, so an s > 0 ascent of Q_n (n >= 4) walks only its failing one.
``audit=True`` disables these shortcuts and sweeps every seed at every
level; ``audit`` must be a bool.  Seeds are searched one after another
in-process; the public ``jobs`` keyword must be an int of at least 1, and
is then ignored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import _masks
from .errors import InputError
from .faults import FaultPair, _pair_from_masks
from .graph import Graph, _check_bound, _check_instance, _min_degree, _row, min_degree


class TsResult(NamedTuple):
    diagnosable: bool
    witness: tuple[FaultPair, FaultPair] | None
    stats: dict


@dataclass
class DiagnosabilityReport:
    """Computed parameter value with the extremal witness proving value+1 fails."""

    graph_name: str
    kind: str                    # "edge-restricted" or "vertex-restricted-edge"
    level: int                   # h (edge budget) or r (vertex budget)
    value: int
    witness: tuple[FaultPair, FaultPair] | None
    elapsed_seconds: float
    stats: dict = field(default_factory=dict)
    outside_analyzed_range: bool = False


@dataclass(frozen=True)
class AnalyticBounds:
    """Closed-form upper bounds implied by the minimum degree."""

    t_h_bound: int
    s1_bound: int


def analytic_upper_bounds(g: Graph, h: int) -> AnalyticBounds:
    """Bounds t_h <= delta - h and s_1 <= delta - 2, clamped at zero.

    Only valid for h up to the minimum degree; beyond that the construction
    backing the bound does not exist and the request is rejected.
    """
    delta = min_degree(g)
    if _check_bound("edge budget h", h) > delta:
        raise InputError(f"edge budget h={h} outside the analyzed range 0..{delta}")
    return AnalyticBounds(t_h_bound=max(delta - h, 0), s1_bound=max(delta - 2, 0))


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

def construct_indistinguishable_witness(g: Graph, u: int, h: int) -> tuple[FaultPair, FaultPair]:
    """The vertex-seeded indistinguishable pair with edge budget h.

    With u's neighbors ordered by ascending id, it is the structure
    X1 = {u}, X2 = empty, C = the last d(u) - h neighbors.  The first pair
    makes u and C faulty and blames no edge; the second makes only C faulty
    and blames u's edges leaving X1 | C, the first h incident edges.  A good
    tester can never reach u over a non-blamed edge, so the two
    circumstances produce a common syndrome.  Proves t_h <= d(u) - h; tight
    when d(u) is minimum.
    """
    nbrs = _row(g, u)
    if _check_bound("edge budget h", h) > len(nbrs):
        raise InputError(f"edge budget h={h} outside 0..deg({u})={len(nbrs)}")
    return _witness_pairs(g, 1 << u, 0, _masks.vertex_mask(nbrs[h:]))


def construct_edge_witness(g: Graph, e) -> tuple[FaultPair, FaultPair]:
    """The edge-seeded indistinguishable pair ({u}, NE(v)-e) vs ({v}, NE(u)-e).

    It is the structure X1 = {u}, X2 = {v}, C = empty for the edge e = uv,
    with u an endpoint of minimum degree (a when both ends of e = (a, b)
    are).  Each side blames the opposite endpoint's edges leaving {u, v},
    its remaining incident edges, so every test that could expose the
    difference is blocked.  Both faulty edge sets have size degree-1; with
    both endpoints at minimum degree this refutes (1, delta-1)-diagnosability
    and hence bounds the single-fault edge diagnosability by delta - 2.
    """
    (a, b), _ = _check_instance(g, Graph)._check_edge_id(e)
    delta = _min_degree(g)
    if len(g._nbrs[a]) == delta:
        u, v = a, b
    elif len(g._nbrs[b]) == delta:
        u, v = b, a
    else:
        raise InputError(f"edge {a}-{b} has no endpoint of minimum degree {delta}")
    return _witness_pairs(g, 1 << u, 1 << v, 0)


def _witness_pairs(g: Graph, x1: int, x2: int, c: int) -> tuple[FaultPair, FaultPair]:
    """The pairs of the library-built structure (X1, X2, C), checked by both routes.

    X1, X2 and C are vertex masks.  F1 = X1 | C and F2 = X2 | C, and S is
    forced: each pair blames the other side's edges leaving X1 | X2 | C.
    """
    umask = x1 | x2 | c
    f1, s1 = x1 | c, _blocking_edges(g, _masks.bits(x2), umask)
    f2, s2 = x2 | c, _blocking_edges(g, _masks.bits(x1), umask)
    p1 = _pair_from_masks(g, f1, s1)
    p2 = _pair_from_masks(g, f2, s2)
    if not _masks.pairs_indistinguishable(g, f1, s1, f2, s2):
        raise AssertionError(f"constructed witness {p1} vs {p2} is distinguishable")
    if not _masks.share_syndrome(g, f1, s1, f2, s2):
        raise AssertionError("condition check and forced-outcome check disagree")
    return p1, p2


# ---------------------------------------------------------------------------
# difference-structure search
# ---------------------------------------------------------------------------

def _cover_subset(cands, need1, need2, cmax):
    """A subset of candidate vertices achieving both gain targets, or None.

    ``cands`` is a list of (vertex, gain1, gain2); depth-first with an
    admissible remaining-gain bound, first solution wins, so the result is
    deterministic for a fixed candidate order.
    """
    k = len(cands)
    suf1 = [0] * (k + 1)
    suf2 = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suf1[i] = max(suf1[i + 1], cands[i][1])
        suf2[i] = max(suf2[i + 1], cands[i][2])

    def walk(i, left, n1, n2, acc):
        if n1 <= 0 and n2 <= 0:
            return acc
        if left == 0 or i == k:
            return None
        if n1 > left * suf1[i] or n2 > left * suf2[i]:
            return None
        v, g1, g2 = cands[i]
        taken = walk(i + 1, left - 1, n1 - g1, n2 - g2, acc + [v])
        if taken is not None:
            return taken
        return walk(i + 1, left, n1, n2, acc)

    return walk(0, cmax, need1, need2, [])


@lru_cache(maxsize=None)
def _leaf_count(q: int, t: int) -> int:
    """L(q) = sum of C(q, j) over j = 0..min(t, q): the X2 leaves under one X1."""
    return sum(comb(q, j) for j in range(min(t, q) + 1))


@lru_cache(maxsize=None)
def _leaves_below(m: int, t: int, size1: int) -> int:
    """The leaves with |X1| < size1 of a seed followed by m - 1 vertices."""
    return sum(comb(m - 1, j - 1) * _leaf_count(m - j, t) for j in range(1, size1))


def _seed_leaves(n: int, t: int, seed: int) -> int:
    """Every (X1, X2) leaf of ``seed``: the structures a search without a witness examines."""
    m = n - seed
    return _leaves_below(m, t, min(t, m) + 1)


def _seed_count(n: int, t: int, seed: int, hit) -> int:
    """The structures a leaf-by-leaf walk of ``seed`` examines (``_search_seed``).

    Every leaf when the seed has no witness (``hit`` is None), else the rank
    of the witness's leaf (X1, X2) plus one; ``hit`` is (X1, X2, C).
    """
    if hit is None:
        return _seed_leaves(n, t, seed)
    return _leaf_rank(n, t, seed, hit[0], hit[1]) + 1


def _lex_rank(positions, m: int) -> int:
    """How many same-size subsets of range(m) precede ascending ``positions`` lexicographically."""
    a = len(positions)
    return comb(m, a) - 1 - sum(comb(m - 1 - c, a - i) for i, c in enumerate(positions))


def _leaf_rank(n: int, t: int, seed: int, x1mask: int, x2mask: int) -> int:
    """How many leaves of ``seed`` precede the leaf (X1, X2) in the walk's order."""
    m = n - seed
    tail = [v - seed - 1 for v in _masks.bits(x1mask & ~(1 << seed))]
    size1 = len(tail) + 1
    q = m - size1
    # a pick's place in the pool: its place after the seed less the X1 vertices before it
    picks = [w - seed - 1 - sum(c < w - seed - 1 for c in tail) for w in _masks.bits(x2mask)]
    return (_leaves_below(m, t, size1) + _lex_rank(tail, m - 1) * _leaf_count(q, t)
            + sum(comb(q, j) for j in range(len(picks))) + _lex_rank(picks, q))


def _first_size(g: Graph, t: int, s: int, seed: int, alone: bool) -> int:
    """The smallest |X1| at which a witness of ``seed`` at (t, s) can lie.

    |V| + 1 means the level is proven for the seed: it has no witness, and
    its leaves are counted in closed form, as a walk without a witness
    counts them.  Each rule that proves a level or skips sizes is one case
    here; the strongest answer wins.  ``alone`` says the graph is searched
    from seed 0 alone, so that one flow answers for the whole level; with
    several seeds a flow per seed would cost more than the walks it saves.

    - Root cut.  In a witness every vertex of N(X1) - X1 lies in X2 or C or
      is the far end of one of the at most s blamed edges, so
      |N(X1) - X1| <= t + s (``_search_seed``'s boundary cut).  N(seed)
      loses at most |X1| - 1 vertices to X1, so deg(seed) - (|X1| - 1) <=
      t + s: |X1| >= deg(seed) - t - s + 1.
    - Closure cuts, for seed 0 when ``alone`` and t <= delta - s, with
      delta the least degree.  Write D = X1 | X2, which holds 0 in every
      witness of seed 0, and f(D) = 2|N[D]| - |D| (N[D] is D with its
      neighbors).  In a witness the vertices of N(D) - D lie in C or in R,
      the vertices outside D | C, and each one in R is the far end of an
      edge from X1 or X2 into R, of which each side has at most s.
      - One-sided (X2 empty): C holds all but s of N(X1) - X1, so
        t >= |N[X1]| - s >= delta + 1 - s.  None exists at t <= delta - s.
      - Two-sided: C holds all but 2s of N(D) - D, and the larger of X1, X2
        has at least ceil(|D|/2) vertices, so t >= ceil(|D|/2) +
        |N(D) - D| - 2s; doubled, 2t + 4s >= f(D).  A one-sided witness
        obeys it too.
      - So seed 0 has no witness while 2t + 4s < f(D) for every D that
        holds 0 (with |D| >= 2 when s > 0).  f*, the least f(D) over the D
        that hold 0, is one flow (``_closure_value``, cached on the graph).
        At s = 0 it proves every level up to t_0 = ceil(f*/2) - 1.
        Conversely, a D with f(D) <= 2t, split into ceil(|D|/2) and
        floor(|D|/2) vertices with C = N[D] - D, is a witness at s = 0 (for
        odd |D|, f(D) is odd and so at most 2t - 1).  On a
        vertex-transitive graph an automorphism carries any D to one that
        holds 0, and on a one-vertex graph 0 is the only vertex, so there
        t_0 is exact and level t_0 + 1 fails; as f(V) = |V|, that level lies
        inside every ascent's range.
      - At s > 0 a D with |D| >= 2 either holds a b at distance 1 or 2
        from 0, and then f(D) >= F(0, b), the least f(D) over the D that
        hold 0 and b (``_pair_closure``, warm flows from seed 0's), or
        N[0] and N[D - {0}] are disjoint.  Then |N[D]| >= 2(delta + 1),
        and |D| <= 2t, so 2t + 4s >= f(D) >= 4 delta + 4 - 2t gives
        t + s >= delta + 1: no such witness at t <= delta - s.  So seed 0
        has none while 2t + 4s is below every F(0, b).  F(0, b) >= f*, so
        the pair flows run only where f* proves nothing.  Every level they
        serve has 2t + 4s <= 2 delta + 2s, so they stop at 2 delta + 2s + 1;
        the least value and that cap are cached on the graph, and run again
        only at a level that needs more than a value stopped at its cap.
      The flows run only at levels whose root is not cut, and their networks
      are freed before the level's walk lays out masks.
    """
    first = max(1, len(g._nbrs[seed]) - t - s + 1)
    if first > t:   # deg(seed) < |V|, so first <= |V|: this is first > min(t, |V|)
        return g.vertex_count + 1
    if alone and seed == 0 and t <= _min_degree(g) - s:
        if g._closure is None:
            g._closure = _closure_value(g, 0)
        least = g._closure
        if s and 2 * t + 4 * s >= least:
            pair = g._pair_closure      # (least F(0, b) or the cap, the cap)
            if pair is None or pair[0] == pair[1] <= 2 * t + 4 * s:
                cap = 2 * _min_degree(g) + 2 * s + 1
                g._pair_closure = pair = (_pair_closure(g, cap), cap)
            least = pair[0]
        if 2 * t + 4 * s < least:
            return g.vertex_count + 1
    return first


def _search_seed(g: Graph, t: int, s: int, seed: int, first: int):
    """Difference-structure witness whose smallest difference vertex is ``seed``.

    X1 holds ``seed`` and later vertices; X2 holds later vertices outside X1.
    Both run by size ascending, then lexicographically, and every (X1, X2)
    leaf up to the first witness counts as one structure examined, whether
    it is visited or cut.  Write X = X1 | X2, R = V - (X | C), N(Y) for the
    union of the neighborhoods of Y, and cover_i for the number of edges
    from X_i to vertices outside X.  When both covers are at most s the
    witness has C empty.  Otherwise C, at most cmax_all = t - max(|X1|, |X2|)
    vertices outside X, must absorb the excess, and ``_cover_subset`` looks
    for it.

    In a witness every edge from X1 into R is one of the at most s edges
    the other side blames, and likewise for X2.  Two cuts follow.

    - Boundary: each vertex of N(X1) - X in R is the far end of a blamed
      edge, so |N(X1) - X| <= |C| + s <= cmax_all + s, likewise for X2, and
      |N(X1) - X1| <= |X2| + |C| + s <= t + s.
    - Heavy vertex (the R-side count of S. L. Hakimi and A. T. Amin, IEEE
      Trans. Computers C-23, 1974, with at most s blamed edges): call a
      vertex outside X1 heavy when it has more than s neighbors in X1.  A
      heavy vertex in R would carry more than s blamed edges, so
      heavy(X1) - X1 lies in X2 | C.  Hence |heavy(X1) - X1| <= t and
      |heavy(X1) - X| <= |C| <= cmax_all.

    The X1 walk cuts a partial X1 with r picks left when |N(X1) - X1| - r
    exceeds t + s or |heavy(X1) - X1| - r exceeds t.  The X2 walk cuts a
    partial X2 with r picks left when |N(X2) - X| - r or |N(X1) - X| - r
    exceeds cmax_all + s, or |heavy(X1) - X| - r exceeds cmax_all.  Each
    cut is admissible: a neighborhood and a heavy set only grow as their
    set does, and the r picks take at most r vertices out of any of them.
    At r = 0 each cut rejects only leaves that break a bound every witness
    obeys, so no leaf that yields a witness is cut, and the first witness is
    the one a leaf-by-leaf walk would meet.  With s = 0 the heavy set is
    N(X1), and the heavy cut implies the boundary cut on N(X1).  The walk
    starts at |X1| = ``first``, the answer of ``_first_size``, which proves
    that no witness has a smaller X1.

    The walks are plain recursions that return the first witness straight
    up, and they count nothing: the count comes in closed form on return.
    Let m - 1 vertices follow the seed, and L(P) = sum of C(P, j) over
    j = 0..min(t, P) (``_leaf_count``).  An X1 of size k is the seed and
    k - 1 of those m - 1 vertices, C(m - 1, k - 1) ways, and leaves a pool
    of P = m - k vertices, from which X2 takes 0..min(t, P) of them: L(P)
    leaves.  So a seed with no witness examines sum over k = 1..min(t, m)
    of C(m - 1, k - 1) L(m - k) leaves (``_seed_leaves``, from the sums
    ``_leaves_below`` caches).  With a witness at the leaf
    (X1, X2), |X1| = k and |X2| = b, the leaves before it in the walk's
    order are (``_leaf_rank``):

    - those with |X1| < k, the same sum over 1..k - 1;
    - L(P) under each X1 of size k that is lexicographically smaller;
    - C(P, j) for each j < b, under X1 itself;
    - the X2 of size b that are lexicographically smaller in the pool.

    The lexicographic rank of positions c_0 < ... < c_(a-1) among the
    a-subsets of 0..M-1 is C(M, a) - 1 - sum of C(M - 1 - c_i, a - i):
    c -> M - 1 - c turns lexicographic order into the reverse of colex
    order, and the colex rank of d_0 > ... > d_(a-1) is the sum of
    C(d_i, a - i), its place in the combinatorial number system (D. E.
    Knuth, TAOCP 4A, 7.2.1.3).  The walk meets the first witness a
    leaf-by-leaf walk meets, and that walk counts every leaf up to and
    including it, or every leaf when there is none, so the count is the
    rank plus one, or the total (``_seed_count``, on the structure the walk
    returns).

    The X1 walk keeps atleast[d], the vertices with at least d + 1
    neighbors in X1, for d = 0..s.  Adding w to X1 makes atleast'[0] =
    atleast[0] | N(w) and atleast'[d] = atleast[d] | (atleast[d - 1] & N(w)).
    atleast[0] is N(X1) and atleast[s] is heavy(X1); a child's cuts need
    only those two, and the whole list is built only for a child that
    survives.  In the X2 walk N(X1) and heavy(X1) are fixed, so
    |N(X1) - X| and |heavy(X1) - X| are kept as counts that drop by one
    when a pick lies in the set.

    Returns the first witness as vertex masks (x1, x2, c), or None.
    ``_witness_pairs`` builds its two pairs and their forced S.
    """
    n = g.vertex_count
    top = min(t, n)
    nbr = _masks.layout_of(g)
    rest = range(seed + 1, n)
    k1 = len(rest)

    def x1_walk(i, r, x1mask, atleast):
        # X1 is not cut; r picks are left
        if r == 0:
            return x2_search(x1mask, atleast[0], atleast[s])
        n1, h1 = atleast[0], atleast[s]
        # s = 0 branches kept: an all-vertices sentinel ran search-irregular 4% slower
        below = atleast[s - 1] if s else 0
        r -= 1
        for j in range(i, k1 - r):
            w = rest[j]
            nw = nbr[w]
            cx = x1mask | (1 << w)
            cn = n1 | nw
            ch = h1 | (below & nw) if s else cn
            if ((ch & ~cx).bit_count() - r > t
                    or s and (cn & ~cx).bit_count() - r > t + s):
                continue
            if s:
                child = [cn]
                child.extend(atleast[d] | (atleast[d - 1] & nw) for d in range(1, s))
                child.append(ch)
            else:
                child = (cn,)
            hit = x1_walk(j + 1, r, cx, child)
            if hit is not None:
                return hit
        return None

    def x2_search(x1mask, nx1, heavy):
        pool = [w for w in rest if not (x1mask >> w) & 1]
        k = len(pool)
        not1 = ~x1mask
        # per pool entry: 1 when picking it takes a vertex out of N(X1) - X,
        # or out of heavy(X1) - X
        in_n1 = [(nx1 >> w) & 1 for w in pool]
        in_h1 = [(heavy >> w) & 1 for w in pool]
        c1_root = (nx1 & not1).bit_count()
        ch_root = (heavy & not1).bit_count()

        def x2_walk(i, r, x2mask, nx2, c1, ch):
            # X2 is not cut; r picks are left, c1 = |N(X1) - X|, ch = |heavy(X1) - X|
            if r == 0:
                return leaf(x2mask, nx2)
            r -= 1
            for j in range(i, k - r):
                w = pool[j]
                cc1 = c1 - in_n1[j]
                cch = ch - in_h1[j]
                cx = x2mask | (1 << w)
                cn = nx2 | nbr[w]
                if (cch - r > cmax_all or cc1 - r > slack
                        or (cn & not1 & ~cx).bit_count() - r > slack):
                    continue
                hit = x2_walk(j + 1, r, cx, cn, cc1, cch)
                if hit is not None:
                    return hit
            return None

        def leaf(x2mask, nx2):
            outside = ~(x1mask | x2mask)
            cover1 = sum((nbr[v] & outside).bit_count() for v in _masks.bits(x1mask))
            cover2 = sum((nbr[w] & outside).bit_count() for w in _masks.bits(x2mask))
            cmask = 0
            if cover1 > s or cover2 > s:
                if cmax_all == 0:
                    return None
                need1 = cover1 - s
                need2 = cover2 - s
                cand_mask = (nx1 if need1 > 0 else 0) | (nx2 if need2 > 0 else 0)
                cands = []
                for c in _masks.bits(cand_mask & outside):
                    g1 = (nbr[c] & x1mask).bit_count()
                    g2 = (nbr[c] & x2mask).bit_count()
                    cands.append((c, g1, g2))
                cands.sort(key=lambda cg: (-(cg[1] + cg[2]), cg[0]))
                chosen = _cover_subset(cands, need1, need2, cmax_all)
                if chosen is None:
                    return None
                cmask = _masks.vertex_mask(chosen)
            return x1mask, x2mask, cmask

        for size2 in range(min(t, k) + 1):
            cmax_all = t - max(size1, size2)
            slack = cmax_all + s
            if ch_root - size2 > cmax_all or c1_root - size2 > slack:
                continue
            hit = x2_walk(0, size2, 0, 0, c1_root, ch_root)
            if hit is not None:
                return hit
        return None

    root = [nbr[seed]] + [0] * s
    for size1 in range(first, top + 1):
        hit = x1_walk(0, size1 - 1, 1 << seed, root)
        if hit is not None:
            return hit
    return None


def _blocking_edges(g: Graph, side, umask: int) -> int:
    """Edge mask of every edge from a vertex of ``side`` to a vertex outside ``umask``."""
    smask = 0
    for v in side:
        for w, k in zip(g._nbrs[v], g._eids[v]):
            if not (umask >> w) & 1:
                smask |= 1 << k
    return smask


_SEED = -2     # ``_Closure.into`` of a seed, whose units go to its own row of ``sent``


class _Closure:
    """A largest closure flow: the least f(D) = 2|N[D]| - |D| over the D that hold its seeds.

    N[D] is D with its neighbors.  The least f(D) over the D that hold given
    seeds is a maximum-weight closure (J.-C. Picard, Management Science 22,
    1976; compare G. F. Sullivan, FOCS 1984, on PMC diagnosability in
    polynomial time).  In the network, the source sends 1 unit to each
    vertex u and without limit to each seed, u reaches w' for each w in N[u]
    without limit, and each w' sends 2 units to the sink.  A finite cut with
    the vertices D on the source side holds the seeds, and N[D]' too, and
    the cheapest does so and no more, at the price |V| - |D| + 2|N[D]|; so
    the least cut, the largest flow, is |V| + min f(D), and ``value`` is the
    flow less |V|.  ``_Closure(g, *seeds)`` is that largest flow, a cold
    one.

    The flow needs no arc list.  Each vertex u other than a seed carries its
    one unit to one w' (``into[u]``), and each seed up to 2 units to each w'
    of its N[seed] (its row of ``sent``); the senders of w' lie in N[w],
    since closed neighborhoods are symmetric, so the residual arcs back from
    w' are found by scanning N[w].  The first seed fills its N[seed]; then
    each vertex in turn sends units along breadth-first augmenting paths
    (``augment``), a seed until its search fails.  A path only moves a
    placed vertex's unit, so each vertex other than a seed needs one search.
    A search that fails leaves every node it reached unable to reach the
    sink for good: no residual arc leaves that set except into the source,
    so no later augmenting path enters it and none of its arcs change.  Its
    nodes stay marked (``seen``, ``reached``) and are skipped, so failed
    searches cost O(|V| + |E|) in all.

    A warm start is exact for the same reason.  ``add_seed(b)`` lifts the
    source's arc to b from 1 to no limit, and b's one unit becomes b's row
    of ``sent``.  No arc on any path from a node to the sink changes, so the
    flow stays a valid flow, every node a failed search marked still cannot
    reach the sink, and every new augmenting path starts at b.  So seed a's
    largest flow, copied (``copy``), given the seed b and augmented from b
    alone, is the largest flow of the seeds a and b, and its value is
    F(a, b), the least f(D) over the D that hold a and b.
    """

    def __init__(self, g: Graph, *seeds: int):
        n = g.vertex_count
        self.nbrs = g._nbrs
        self.load = [0] * n     # units on w' -> sink, at most 2
        self.into = [-1] * n    # per vertex: the w' its unit reaches, -1, or _SEED
        self.sent = {}          # per seed: the units it sends to each w' of N[seed]
        self.seen = bytearray(n)        # vertices reached by this search, or by a failed one
        self.reached = bytearray(n)     # w' nodes, likewise
        self.via = [0] * n      # per w': the vertex that reached it
        self.gave = [0] * n     # per vertex: the w' it was reached from, which it gives up
        for seed in seeds:
            self.add_seed(seed)
        first = self.sent[seeds[0]]
        for w in first:
            first[w] = self.load[w] = 2
        self.units = 2 * len(first)     # the flow, the sum of ``load``
        self.augment(range(n))

    @property
    def value(self) -> int:
        return self.units - len(self.load)

    def copy(self) -> _Closure:
        """An independent copy of the flow; the two share only their scratch rows."""
        other = object.__new__(_Closure)
        other.nbrs, other.via, other.gave, other.units = self.nbrs, self.via, self.gave, self.units
        other.load, other.into = self.load[:], self.into[:]
        other.seen, other.reached = self.seen[:], self.reached[:]
        other.sent = {seed: dict(row) for seed, row in self.sent.items()}
        return other

    def add_seed(self, b: int) -> None:
        """Lift the source's arc to b to no limit; b's one unit, if placed, joins b's row."""
        row = self.sent[b] = dict.fromkeys((b, *self.nbrs[b]), 0)
        if self.into[b] >= 0:
            row[self.into[b]] = 1
        self.into[b] = _SEED

    def augment(self, sources, cap: float = float("inf")) -> None:
        """Send units from each source in turn along shortest residual paths.

        A vertex other than a seed sends its one unit if it can, and a seed
        sends until its search fails or ``value`` reaches ``cap``.  So a
        flow augmented from its seeds has the largest value, or at least
        ``cap``.
        """
        nbrs, load, into, sent = self.nbrs, self.load, self.into, self.sent
        seen, reached, via, gave = self.seen, self.reached, self.via, self.gave
        limit = len(load) + min(cap, len(load))     # the value never exceeds f(V) = |V|
        seed_mark = _SEED     # a local: the innermost loop reads it

        def search(source) -> bool:
            # one unit from ``source`` to the sink along a shortest residual path
            lefts = [source]
            rights = []
            seen[source] = 1
            for u in lefts:
                for w in (u, *nbrs[u]):
                    if reached[w]:
                        continue
                    reached[w] = 1
                    rights.append(w)
                    via[w] = u
                    if load[w] < 2:
                        load[w] += 1
                        while True:
                            x = via[w]
                            if into[x] == seed_mark:
                                sent[x][w] += 1
                            else:
                                into[x] = w
                            if x == source:
                                break
                            w = gave[x]
                            if into[x] == seed_mark:
                                sent[x][w] -= 1
                        for x in lefts:
                            seen[x] = 0
                        for x in rights:
                            reached[x] = 0
                        return True
                    for x in (w, *nbrs[w]):
                        if not seen[x] and ((ix := into[x]) == w or ix == seed_mark and sent[x][w]):
                            seen[x] = 1
                            gave[x] = w
                            lefts.append(x)
            return False

        units = self.units
        for source in sources:
            if into[source] != seed_mark:
                units += search(source)     # its one unit, at most
            else:
                while units < limit and search(source):
                    units += 1
        self.units = units


def _closure_value(g: Graph, seed: int) -> int:
    """The least f(D) over the D that hold ``seed``: f*, read off one cold flow."""
    return _Closure(g, seed).value


def _pair_closure(g: Graph, cap: int) -> int:
    """The least of ``cap`` and F(0, b) over the b at distance 1 or 2 from vertex 0.

    F(0, b) is the least f(D) over the D that hold 0 and b, from seed 0's
    flow, copied and augmented from b alone, and stopped at the least value
    found so far (``_Closure``).
    """
    zero = _Closure(g, 0)
    least = cap
    for b in {w for v in g._nbrs[0] for w in (v, *g._nbrs[v])} - {0}:
        flow = zero.copy()
        flow.add_seed(b)
        flow.augment((b,), least)
        least = min(least, flow.value)
    return least


def _local_search(g: Graph, t: int, s: int, audit: bool):
    """The first witness (X1, X2, C) over the seeds in ascending order, searched in-process.

    A vertex-transitive or one-vertex graph is searched from seed 0 alone,
    unless ``audit``.  Each seed is walked from the size ``_first_size``
    answers, or not at all when it proves the level for the seed.  A proven
    seed has no witness, and ``_seed_count`` counts it as it counts a walked
    seed with none, so the counts do not change, and the first level that
    is not proven meets the same first witness as a walk of every level.
    """
    n = g.vertex_count
    alone = not audit and (g.vertex_transitive or n == 1)
    seeds = range(min(n, 1) if alone else n)
    top = min(t, n)
    hit, examined = None, 0
    for seed in seeds:
        first = _first_size(g, t, s, seed, alone)
        hit = _search_seed(g, t, s, seed, first) if first <= top else None
        examined += _seed_count(n, t, seed, hit)
        if hit is not None:
            break
    return hit, {"method": "local", "structures_examined": examined, "seeds": len(seeds)}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

# Read only by the benchmark (perfbench/workloads.py); the search ignores it.
FULL_METHOD_VERTEX_LIMIT = 8


# Nothing calls the two stubs below; the benchmark's tracer (perfbench/tracing.py)
# looks both names up on every traced run.

def _full_search(g: Graph, t: int, s: int):
    """The pairwise search is the test oracle ``full_search`` in tests/brute.py."""
    raise InputError("the pairwise search is not part of the library; use method='local'")


def _seed_task(payload):
    """Seeds are searched one after another in-process by ``_local_search``."""
    raise InputError("there are no seed worker tasks; the search runs in-process")


def _check_search(method: str, audit: bool, jobs: int):
    # one search method: "auto" and "local" both name it; jobs is checked, then ignored
    if method not in ("auto", "local"):
        raise InputError(f"unknown search method {method!r}; use 'auto' or 'local'")
    if audit is not True and audit is not False:
        raise InputError(f"audit must be a bool, not {audit!r}")
    _check_bound("jobs", jobs, 1)


def is_ts_diagnosable(g: Graph, t: int, s: int, *, method: str = "auto",
                      audit: bool = False, jobs: int = 1) -> TsResult:
    """Whether every two distinct consistent pairs within (t, s) are distinguishable.

    On failure the witness is an indistinguishable pair, re-validated against
    both distinguishability routes before being returned.  ``method`` may be
    "auto" or "local", which name the same search; anything else raises
    InputError.  ``audit`` must be a bool.  ``jobs`` must be an int of at
    least 1, and is then ignored: the search runs in-process.
    """
    _check_instance(g, Graph)
    _check_bound("bound t", t)
    _check_bound("bound s", s)
    _check_search(method, audit, jobs)
    # no pair has more than m faulty edges, and no cut or cover of the search
    # fires beyond s = m, so a larger s answers as s = m does
    hit, stats = _local_search(g, t, min(s, len(g._ends) // 2), audit)
    if hit is None:
        return TsResult(True, None, stats)
    return TsResult(False, _witness_pairs(g, *hit), stats)


def _ascend(g: Graph, kind: str, level: int, bounds, top: int, audit: bool,
            outside_analyzed_range: bool = False) -> DiagnosabilityReport:
    """The report of the level-ascending search over candidate values 0..top.

    ``bounds(value)`` is the (t, s) pair decided for that value.  A failure at
    (t, s) is also a failure at any larger bounds, so the walk stops at the
    first non-diagnosable value and keeps its witness; the reported value is
    the last diagnosable one, -1 when 0 already fails, and ``top`` with no
    witness when none fails.  ``stats`` sums ``structures_examined`` over the
    values tried, and ``elapsed_seconds`` times the whole walk.
    """
    started = time.perf_counter()
    stats = {"method": "local", "structures_examined": 0}
    value, witness = top, None
    for candidate in range(top + 1):
        result = is_ts_diagnosable(g, *bounds(candidate), audit=audit)
        stats["structures_examined"] += result.stats["structures_examined"]
        if not result.diagnosable:
            value, witness = candidate - 1, result.witness
            break
    return DiagnosabilityReport(
        graph_name=g.name, kind=kind, level=level, value=value, witness=witness,
        elapsed_seconds=time.perf_counter() - started, stats=stats,
        outside_analyzed_range=outside_analyzed_range)


def edge_restricted_diagnosability(g: Graph, h: int, *, method: str = "auto",
                                   audit: bool = False, jobs: int = 1) -> DiagnosabilityReport:
    """Largest t such that the graph is (t, h)-diagnosable, by ascending search.

    The witness is the indistinguishable pair found at t = value + 1.  Edge
    budgets beyond the minimum degree are computed all the same but flagged,
    since the closed-form bounds no longer apply there.  ``audit`` must be a
    bool; ``jobs`` must be an int of at least 1, and is then ignored.
    """
    if _check_instance(g, Graph).vertex_count == 0:
        raise InputError("diagnosability of the empty graph is undefined")
    m = len(g._ends) // 2
    if _check_bound("edge budget h", h) > m:
        raise InputError(f"edge budget h={h} outside 0..{m}")
    _check_search(method, audit, jobs)
    return _ascend(g, "edge-restricted", h, lambda t: (t, h), g.vertex_count, audit,
                   outside_analyzed_range=h > _min_degree(g))


def vertex_restricted_edge_diagnosability(g: Graph, r: int, *, method: str = "auto",
                                          audit: bool = False, jobs: int = 1) -> DiagnosabilityReport:
    """Largest s such that the graph is (r, s)-diagnosable.

    With no faulty vertices allowed every edge status is pinned by its two
    tests, so r=0 yields the edge count with no search.  For r >= 1 the value
    is -1 when even (r, 0) fails (possible only on degenerate graphs such as
    a single vertex or an isolated edge component).  ``audit`` must be a
    bool; ``jobs`` must be an int of at least 1, and is then ignored.
    """
    if _check_instance(g, Graph).vertex_count == 0:
        raise InputError("diagnosability of the empty graph is undefined")
    _check_bound("vertex budget r", r)
    _check_search(method, audit, jobs)
    m = len(g._ends) // 2
    if r == 0:
        return DiagnosabilityReport(
            graph_name=g.name, kind="vertex-restricted-edge", level=0, value=m,
            witness=None, elapsed_seconds=0.0, stats={"method": "analytic"})
    return _ascend(g, "vertex-restricted-edge", r, lambda s: (r, s), m + 1, audit)


def pmc_diagnosability(g: Graph, *, method: str = "auto", audit: bool = False,
                       jobs: int = 1) -> int:
    """Classical diagnosability: ``edge_restricted_diagnosability`` at edge budget 0."""
    return edge_restricted_diagnosability(g, 0, method=method, audit=audit, jobs=jobs).value
