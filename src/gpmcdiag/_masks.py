"""Internal bitmask machinery shared by the fault, distinguishability and search code.

Encodings, for a graph with n vertices and m edges:

- a vertex set is an int with bit u set for vertex u;
- an edge set is an int with bit k set for the k-th edge of ``graph.edges``;
- a test set is an int over 2m bits: edge k = (a, b), a < b, owns bit 2k for
  the test a -> b and bit 2k+1 for the test b -> a (the canonical test order
  of ``faults.Syndrome``).  Both tests of edge k are ``3 << 2k``.

The code here reads the graph's endpoint column (``graph._ends``: edge k =
(a, b) at 2k and 2k+1, so test i is ``_ends[i]`` -> ``_ends[i ^ 1]``) and
adjacency (per vertex u, ``graph._nbrs[u]``, its neighbor ids ascending, and
``graph._eids[u]``, the index k of the edge to each of them), never the edge
tuples of ``graph.edges``.  The one per-graph structure added is
``layout_of``: each vertex's neighbor bits, O(n^2) bits in all, which only
the syndrome decoder and the difference-structure search read, so syndromes
and distinguishability build nothing per graph.  Edge-space and test-space
masks, and an edge's endpoint bits, are built from these rules and the
column where they are used, so nothing here holds a per-edge vertex mask or
a table whose entries span the edge or test space.

A test-space mask of a fault pattern is sparse: its set bits are the tests
at the faulty vertices and edges, but its width is 2m.  Or-ing in one
shifted bit at a time costs time in proportion to the width per bit, so
``_fault_tests`` collects the positions in one walk over the faulty
vertices' adjacencies and the faulty edges, and ``mask_of``, the one writer
of test masks, builds a mask from them in one step, from a byte buffer read
by ``int.from_bytes``.  Only ``forced_masks`` keeps a fused walk as well, on
narrow graphs, because the search checks every witness it finds with it.
Syndromes are built from the positions ``_fault_tests`` returns:
``faults.generate_syndrome`` adds the chosen free positions to the
forced-fail ones, and ``faults._replay``, which answers
``engine.adversarial_roundtrip``, builds the decoder's failure tables from
the forced-fail ones and steps them one free test at a time, so no
adversary expansion builds a mask per syndrome.

Each distinguishability route is one predicate on two patterns, called as
``(g, f1, s1, f2, s2)`` by ``distinguish`` and by the search's witness check
alike: ``pairs_indistinguishable`` asks whether ``condition_hits`` finds no
hit of the structural conditions, and ``share_syndrome`` compares the two
patterns' ``forced_masks``.  ``distinguish.distinguishable`` alone reads
``condition_hits`` itself, to name the smallest hit as its witness.

Everything in here is exact arithmetic over those encodings; it only exists
so the hot loops touch machine integers instead of frozensets.
"""

from __future__ import annotations


def layout_of(g) -> tuple:
    """Per-vertex neighbor bits of g, built once and cached on the graph."""
    if g._layout is None:
        g._layout = tuple(map(vertex_mask, g._nbrs))
    return g._layout


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


#: Test-space width, in bits, from which ``forced_masks`` builds its masks
#: with ``mask_of``; nothing else reads it.  Below it the fused walk pays:
#: on the 62-64-test witnesses of Q_4 and of a 12-vertex G(n, p) graph a
#: call takes 3.0-4.2 us, against 5.9-7.3 us through ``mask_of`` (timeit,
#: best of 5, Python 3.11.7 on a 2-core x86-64 Xeon), and the search's
#: witness checks make 18 such calls per ``search-q4`` pass, which then takes
#: 7-10% longer (0.84 against 0.92 ms in-process).
BUFFER_WIDTH = 1024


def mask_of(positions, width: int) -> int:
    """The test-set mask with bit p set for each p in positions (all below width)."""
    buf = bytearray((width + 7) >> 3)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _fault_tests(g, f: int, s: int) -> tuple[list, list]:
    """Positions of the arbitrary and the forced-fail tests of pattern (f, s).

    One walk over the faulty vertices' adjacencies and the faulty edges: a
    test is arbitrary when its tester is faulty, and forced to fail when its
    tester is good and the testee or the edge is faulty.  Edge k = (a, b)
    owns a -> b at 2k and b -> a at 2k + 1.  Forced-fail positions may repeat.
    """
    faulty = set(bits(f))
    arbitrary, fail = [], []
    for u in faulty:
        for v, k in zip(g._nbrs[u], g._eids[u]):
            p = 2 * k + (v < u)     # u -> v; p ^ 1 is v -> u
            arbitrary.append(p)
            if v not in faulty:
                fail.append(p ^ 1)
    ends = g._ends
    for k in bits(s):
        t = 2 * k
        if ends[t] not in faulty:
            fail.append(t)
        if ends[t + 1] not in faulty:
            fail.append(t + 1)
    return arbitrary, fail


def forced_masks(g, f: int, s: int) -> tuple[int, int]:
    """(forced-fail, forced-pass) test masks for fault pattern (f, s).

    A test is forced to fail when its tester is good and the testee or the
    test edge is faulty; forced to pass when tester, testee and edge are all
    good; tests by faulty testers are unconstrained and appear in neither mask.
    Every test on an edge at a faulty vertex or on a faulty edge is touched:
    it is arbitrary or forced to fail, so the forced-pass tests are the
    untouched ones.  Narrow masks or in each touched bit as the walk meets
    it; wide ones are built from the positions ``_fault_tests`` collects.
    """
    width = len(g._ends)
    every = (1 << width) - 1
    if width < BUFFER_WIDTH:
        arb = touched = 0
        for u in bits(f):
            for v, k in zip(g._nbrs[u], g._eids[u]):
                # u tests its neighbor at bit 2k when u is the smaller endpoint
                arb |= 1 << (2 * k + (v < u))
                touched |= 3 << (2 * k)
        for k in bits(s):
            touched |= 3 << (2 * k)
        return touched & ~arb, every & ~touched
    arbitrary, fail = _fault_tests(g, f, s)
    ff = mask_of(fail, width)
    return ff, every ^ ff ^ mask_of(arbitrary, width)


def share_syndrome(g, f1: int, s1: int, f2: int, s2: int) -> bool:
    """True when some syndrome fits both patterns: the forced-outcome route.

    The syndrome sets intersect exactly when no test is forced to fail under
    one pattern and to pass under the other, because tests by faulty testers
    can always be set to agree.
    """
    ff1, fp1 = forced_masks(g, f1, s1)
    ff2, fp2 = forced_masks(g, f2, s2)
    return (ff1 & fp2) == 0 and (fp1 & ff2) == 0


def condition_hits(g, f1: int, s1: int, f2: int, s2: int):
    """The first hit of each row of the distinguishability conditions, as
    (edge k, condition, direction).

    Direction 1 means the first pattern holds the exposed fault.  Condition 1
    hits at k when one endpoint is faulty on that side only, the other is
    fault-free on both sides and k is not faulty on the other side; condition
    2 when k is faulty on that side only and neither endpoint is faulty on the
    other side.  The rows walked are each one-sided faulty edge set and each
    one-sided faulty vertex's ``_eids`` row; each runs in ascending k and stops
    at its first hit, its smallest, so no hit repeats and the smallest hit of
    all is the smallest of these.
    """
    ends = g._ends
    for d, other_f, direction in ((s1 & ~s2, f2, 1), (s2 & ~s1, f1, 2)):
        for k in bits(d):
            if not (other_f >> ends[2 * k]) & 1 and not (other_f >> ends[2 * k + 1]) & 1:
                yield k, 2, direction
                break
    both_f = f1 | f2
    for d, other_s, direction in ((f1 & ~f2, s2, 1), (f2 & ~f1, s1, 2)):
        for u in bits(d):
            for v, k in zip(g._nbrs[u], g._eids[u]):
                if not (both_f >> v) & 1 and not (other_s >> k) & 1:
                    yield k, 1, direction
                    break


def pairs_indistinguishable(g, f1: int, s1: int, f2: int, s2: int) -> bool:
    """True when no distinguishability condition holds for the two patterns:
    the condition route."""
    return next(condition_hits(g, f1, s1, f2, s2), None) is None

