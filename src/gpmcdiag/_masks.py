"""Internal bitmask machinery shared by the fault, distinguishability and search code.

Vertex sets are ints with bit u set for vertex u; edge sets are ints with bit
k set for the k-th edge of ``graph.edges``; test sets are ints over the
canonical test order (edge k yields test bits 2k and 2k+1, see faults).
Everything in here is exact arithmetic over those encodings, it only exists
so the hot loops touch machine integers instead of frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layout:
    """Precomputed mask tables for one graph."""

    n: int                       # vertex count
    m: int                       # edge count
    edges: tuple                 # canonical (min, max) pairs, sorted
    edge_index: dict             # (min, max) -> k
    nbr_mask: tuple              # per vertex: neighbor vertex bits
    inc_mask: tuple              # per vertex: incident edge bits
    edge_vmask: tuple            # per edge: bits of both endpoints
    adj_entries: tuple           # per vertex: ((vbit, ebit, v, e), ...) sorted by v
    out_tests: tuple             # per vertex: test bits with this tester
    in_tests: tuple              # per vertex: test bits with this testee
    edge_tests: tuple            # per edge: both test bits
    all_tests: int


def layout_of(g) -> Layout:
    """Mask tables for g, built once and cached on the graph."""
    if g._layout is not None:
        return g._layout
    n = g.vertex_count
    m = len(g.edges)
    edge_index = {e: k for k, e in enumerate(g.edges)}
    nbr = [0] * n
    inc = [0] * n
    evmask = [0] * m
    out_t = [0] * n
    in_t = [0] * n
    etests = [0] * m
    entries = [[] for _ in range(n)]
    for k, (u, v) in enumerate(g.edges):
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        inc[u] |= 1 << k
        inc[v] |= 1 << k
        evmask[k] = (1 << u) | (1 << v)
        tb_uv = 1 << (2 * k)        # test (u, v)
        tb_vu = 1 << (2 * k + 1)    # test (v, u)
        etests[k] = tb_uv | tb_vu
        out_t[u] |= tb_uv
        in_t[v] |= tb_uv
        out_t[v] |= tb_vu
        in_t[u] |= tb_vu
        entries[u].append((1 << v, 1 << k, v, (u, v)))
        entries[v].append((1 << u, 1 << k, u, (u, v)))
    lay = Layout(
        n=n,
        m=m,
        edges=g.edges,
        edge_index=edge_index,
        nbr_mask=tuple(nbr),
        inc_mask=tuple(inc),
        edge_vmask=tuple(evmask),
        adj_entries=tuple(tuple(sorted(es, key=lambda t: t[2])) for es in entries),
        out_tests=tuple(out_t),
        in_tests=tuple(in_t),
        edge_tests=tuple(etests),
        all_tests=(1 << (2 * m)) - 1,
    )
    g._layout = lay
    return lay


def bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def forced_masks(lay: Layout, f: int, s: int) -> tuple[int, int]:
    """(forced-fail, forced-pass) test masks for fault pattern (f, s).

    A test is forced to fail when its tester is good and the testee or the
    test edge is faulty; forced to pass when tester, testee and edge are all
    good; tests by faulty testers are unconstrained and appear in neither mask.
    """
    arb = 0
    bad_testee = 0
    for u in bits(f):
        arb |= lay.out_tests[u]
        bad_testee |= lay.in_tests[u]
    bad_edge = 0
    for k in bits(s):
        bad_edge |= lay.edge_tests[k]
    ff = (bad_testee | bad_edge) & ~arb
    fp = lay.all_tests & ~(arb | ff)
    return ff, fp


def share_syndrome(ff1: int, fp1: int, ff2: int, fp2: int) -> bool:
    """True when no test is forced to opposite outcomes under the two patterns."""
    return (ff1 & fp2) == 0 and (fp1 & ff2) == 0


def pairs_indistinguishable(lay: Layout, f1: int, s1: int, f2: int, s2: int) -> bool:
    """Negation of the distinguishability conditions, over raw masks.

    Two distinct consistent patterns are indistinguishable exactly when
      - every vertex faulty on one side only has each fault-free neighbor
        reached through a faulty edge of the other side, and
      - every edge faulty on one side only has an endpoint in the other
        side's faulty vertex set.
    """
    both_f = f1 | f2
    # edge-side conditions
    d = s1 & ~s2
    while d:
        low = d & -d
        if lay.edge_vmask[low.bit_length() - 1] & f2 == 0:
            return False
        d ^= low
    d = s2 & ~s1
    while d:
        low = d & -d
        if lay.edge_vmask[low.bit_length() - 1] & f1 == 0:
            return False
        d ^= low
    # vertex-side conditions
    d = f1 & ~f2
    while d:
        low = d & -d
        u = low.bit_length() - 1
        for vb, eb, _v, _e in lay.adj_entries[u]:
            if vb & both_f == 0 and s2 & eb == 0:
                return False
        d ^= low
    d = f2 & ~f1
    while d:
        low = d & -d
        u = low.bit_length() - 1
        for vb, eb, _v, _e in lay.adj_entries[u]:
            if vb & both_f == 0 and s1 & eb == 0:
                return False
        d ^= low
    return True


def find_condition_witness(lay: Layout, f1: int, s1: int, f2: int, s2: int):
    """(condition, edge, direction) for the smallest qualifying edge, or None.

    direction 1 means the first pattern plays the role with the faulty vertex
    (condition 1) or holds the extra faulty edge (condition 2).  Edges are
    scanned in canonical order so ties break toward the smallest edge; at one
    edge, condition 1 is preferred over condition 2 and direction 1 over 2.
    """
    both_f = f1 | f2
    only1 = f1 & ~f2
    only2 = f2 & ~f1
    sd1 = s1 & ~s2
    sd2 = s2 & ~s1
    for k, (a, b) in enumerate(lay.edges):
        am, bm, eb = 1 << a, 1 << b, 1 << k
        free_a = am & both_f == 0
        free_b = bm & both_f == 0
        if ((am & only1 and free_b) or (bm & only1 and free_a)) and s2 & eb == 0:
            return (1, (a, b), 1)
        if ((am & only2 and free_b) or (bm & only2 and free_a)) and s1 & eb == 0:
            return (1, (a, b), 2)
        if sd1 & eb and lay.edge_vmask[k] & f2 == 0:
            return (2, (a, b), 1)
        if sd2 & eb and lay.edge_vmask[k] & f1 == 0:
            return (2, (a, b), 2)
    return None
