"""Fault pairs, directed tests, syndromes, and syndrome generation.

The fault model: a fault circumstance is a pair (F, S) of faulty vertices and
faulty edges where no edge of S touches a vertex of F.  Every edge carries two
directed tests, one per endpoint acting as tester.  A good tester reports
exactly whether its testee or the test edge is faulty; a faulty tester reports
an arbitrary but fixed value per test.  A syndrome is one complete assignment
of results to all tests.

The syndrome decoder's private data, the failure tables (``fail_in``,
``fail_out``, ``tested``), is built, stepped and searched here and nowhere
else: ``_fail_tables`` builds them, ``_search_candidates`` lists the
in-bound pairs they explain and ``_replay`` steps them through an
adversary's choices.  The public decoding entry points, which check their
arguments and call these, are in ``engine``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from . import _masks
from .errors import ConsistencyError, GraphMismatchError, InputError
from .graph import Graph, _check_instance, _check_int, _min_degree, edge


class TestOutcome(IntEnum):
    PASS = 0
    FAIL = 1


@dataclass(frozen=True)
class FaultPair:
    """A consistent fault circumstance bound to one graph.

    The constructor checks pairs built from outside input: it keeps any
    collections of valid vertex ids and canonical edges as frozensets, and an
    inconsistent pair (an edge of S incident to a vertex of F) raises
    ConsistencyError; silent normalization would corrupt experiments.
    """

    graph: Graph
    faulty_vertices: frozenset[int]
    faulty_edges: frozenset[tuple[int, int]]
    f_mask: int = field(init=False, repr=False, compare=False, default=0)
    s_mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        g = _check_instance(self.graph, Graph)
        vertices = _members(self.faulty_vertices, "faulty vertices")
        for v in vertices:
            g.check_vertex(v)
        fset = frozenset(vertices)
        edges = _members(self.faulty_edges, "faulty edges")
        sm = 0
        for e in edges:
            ce, k = g._check_edge_id(e)
            if ce != e:
                raise InputError(f"edge {e} is not in canonical (min, max) form")
            if ce[0] in fset or ce[1] in fset:
                raise ConsistencyError(
                    f"faulty edge {ce[0]}-{ce[1]} is incident to a faulty vertex", edge=ce)
            sm |= 1 << k
        object.__setattr__(self, "faulty_vertices", fset)
        object.__setattr__(self, "faulty_edges", frozenset(edges))
        object.__setattr__(self, "f_mask", _masks.vertex_mask(fset))
        object.__setattr__(self, "s_mask", sm)

    def __str__(self):
        fs = ",".join(map(str, sorted(self.faulty_vertices)))
        ss = ",".join(f"{u}-{v}" for (u, v) in sorted(self.faulty_edges))
        return f"(F={{{fs}}}, S={{{ss}}})"

    def to_record(self) -> dict:
        """Serializable form: {"F": [...], "S": [[u, v], ...]}."""
        return {
            "F": sorted(self.faulty_vertices),
            "S": [list(e) for e in sorted(self.faulty_edges)],
        }


def _members(value, what: str) -> tuple:
    """The items of a collection argument; InputError when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{what} must be a collection, not {value!r}") from None


def make_fault_pair(g: Graph, faulty_vertices, faulty_edges) -> FaultPair:
    """Validated fault pair; edges may be given in either endpoint order."""
    try:
        canon_edges = frozenset(edge(u, v) for (u, v) in faulty_edges)
    except InputError:      # edge()'s own message names the bad edge
        raise
    except (TypeError, ValueError):
        raise InputError("faulty edges must be (u, v) pairs of vertex ids") from None
    return FaultPair(g, faulty_vertices, canon_edges)


def fault_pair_from_record(g: Graph, record: dict) -> FaultPair:
    try:
        fs, ss = record["F"], record["S"]
    except (KeyError, TypeError):
        raise InputError("fault pair record must have keys 'F' and 'S'") from None
    try:
        edges = [tuple(e) for e in ss]
    except TypeError:
        raise InputError("fault pair record 'S' must be a list of [u, v] edges") from None
    return make_fault_pair(g, fs, edges)


def _pair_from_masks(g: Graph, f_mask: int, s_mask: int) -> FaultPair:
    """The pair of masks the library built, consistent by construction: no checks."""
    ends = g._ends
    fp = object.__new__(FaultPair)
    object.__setattr__(fp, "graph", g)
    object.__setattr__(fp, "faulty_vertices", frozenset(_masks.bits(f_mask)))
    object.__setattr__(fp, "faulty_edges", frozenset(
        (ends[2 * k], ends[2 * k + 1]) for k in _masks.bits(s_mask)))
    object.__setattr__(fp, "f_mask", f_mask)
    object.__setattr__(fp, "s_mask", s_mask)
    return fp


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------

def _test_index(g: Graph, tester: int, testee: int) -> int:
    """Position of the test tester -> testee: 2k or 2k + 1 for the edge k joining them."""
    k = g._edge_id(g.check_vertex(tester), g.check_vertex(testee))
    if k is None:
        raise InputError(f"vertices {tester} and {testee} are not adjacent in {g.name}")
    return 2 * k + (testee < tester)


# results <-> binary digits, one byte per test, so conversions stay linear in m
_DIGITS_TO_RESULTS = bytes.maketrans(b"01", b"\x00\x01")
_RESULTS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True, init=False, repr=False)
class Syndrome:
    """A complete test-result assignment, held as the mask of failing tests.

    Tests come in canonical order: test 2k is u -> v and test 2k+1 is v -> u
    for the edge k = (u, v) of ``graph.edges``.  ``fail_mask`` has bit i set
    when test i fails.  ``Syndrome(graph, results)`` takes one 0 (pass) or
    1 (fail) per test in that order.  ``results`` (cached) and
    ``to_triples`` are read from the mask by ``_columns`` and hold ints
    whatever the constructor was given.
    Two syndromes are equal when they belong to the same graph and fail the
    same tests.
    """

    graph: Graph
    fail_mask: int

    def __init__(self, graph: Graph, results):
        _check_instance(graph, Graph)
        try:
            results = tuple(results)
        except TypeError:
            raise InputError(
                f"syndrome results must be a sequence of 0 and 1, not {results!r}") from None
        width = len(graph._ends)
        if len(results) != width:
            raise InputError(f"syndrome must assign all {width} tests")
        # count() compares with ==, so 1.0 and numpy bools count as 0 or 1
        if results.count(0) + results.count(1) != len(results):
            raise InputError("syndrome results must be 0 (pass) or 1 (fail)")
        # bool(), so every result that passed the check above converts
        digits = bytes(map(bool, reversed(results))).translate(_RESULTS_TO_DIGITS)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "fail_mask", int(b"0" + digits, 2))

    @cached_property
    def results(self) -> tuple[int, ...]:
        """One 0 (pass) or 1 (fail) per test, in canonical test order."""
        return tuple(self._columns()[2].encode().translate(_DIGITS_TO_RESULTS))

    def _columns(self) -> tuple[list[int], list[int], str]:
        """Tester ids, testee ids and outcome digits ("0" pass, "1" fail), in
        canonical test order: the one row source of every view of the rows.
        The testers are the graph's own endpoint column, to be read only."""
        testers = self.graph._ends
        testees = testers[:]
        testees[::2], testees[1::2] = testers[1::2], testers[::2]
        width = len(testers)
        # format() writes one digit for 0 even at width 0, hence the slice
        return testers, testees, format(self.fail_mask, f"0{width}b")[::-1][:width]

    def outcome(self, tester: int, testee: int) -> TestOutcome:
        return TestOutcome((self.fail_mask >> _test_index(self.graph, tester, testee)) & 1)

    def to_triples(self) -> list[tuple[int, int, int]]:
        """(tester, testee, outcome) rows in canonical test order."""
        testers, testees, digits = self._columns()
        return list(zip(testers, testees, digits.encode().translate(_DIGITS_TO_RESULTS)))

    def __len__(self):
        return len(self.graph._ends)

    def __repr__(self):
        return (f"Syndrome({self.graph.name}: {self.fail_mask.bit_count()} of "
                f"{len(self)} tests fail)")


def syndrome_from_triples(g: Graph, triples) -> Syndrome:
    """The syndrome of (tester, testee, outcome) rows; outcomes are 0 or 1 as given."""
    try:
        rows = iter(triples)
    except TypeError:
        raise InputError(f"syndrome rows must be iterable, not {triples!r}") from None
    unset = object()
    results: list = [unset] * len(_check_instance(g, Graph)._ends)
    for row in rows:
        try:
            tester, testee, outcome = row
        except (TypeError, ValueError):
            raise InputError(f"syndrome row {row!r} is not (tester, testee, outcome)") from None
        i = _test_index(g, tester, testee)
        if results[i] is not unset:
            raise InputError(f"test {tester}->{testee} is assigned more than once")
        results[i] = outcome
    missing = results.count(unset)
    if missing:
        raise InputError(f"syndrome is incomplete: {missing} tests unassigned")
    return Syndrome(g, tuple(results))


def _syndrome_from_mask(g: Graph, fail_mask: int) -> Syndrome:
    """The syndrome failing exactly the tests of fail_mask (within g's tests)."""
    sig = object.__new__(Syndrome)
    object.__setattr__(sig, "graph", g)
    object.__setattr__(sig, "fail_mask", fail_mask)
    return sig


ADVERSARY_STRATEGIES = ("all-pass", "all-fail", "random", "explicit")


def generate_syndrome(fp: FaultPair, strategy: str = "all-pass", *,
                      seed: int | None = None, assignments=None) -> Syndrome:
    """A syndrome the fault pair can produce, with adversary-chosen free results.

    Tests with good testers get their forced value.  Tests by faulty testers
    are assigned by ``strategy``: "all-pass", "all-fail", "random" (requires
    ``seed``; same seed, same syndrome), or "explicit" (``assignments`` maps
    every (tester, testee) with a faulty tester to a value equal to 0 or 1,
    as ``Syndrome`` reads results; any other value raises InputError).  A
    seed that is given must be an int, not a bool.
    """
    _check_instance(fp, FaultPair)
    if strategy not in ADVERSARY_STRATEGIES:
        raise InputError(f"unknown adversary strategy {strategy!r}")
    if strategy == "random" and seed is None:
        raise InputError("random adversary requires an explicit seed")
    if seed is not None:
        _check_int("adversary seed", seed)
    if strategy == "explicit" and assignments is None:
        raise InputError("explicit adversary requires assignments")
    g = fp.graph
    free, fail = _masks._fault_tests(g, fp.f_mask, fp.s_mask)
    free.sort()
    if strategy == "all-fail":
        fail += free
    elif strategy == "random":
        rng = random.Random(seed)
        fail += [pos for pos in free if rng.random() < 0.5]
    elif strategy == "explicit":
        try:
            assigned = dict(assignments)
        except (TypeError, ValueError):
            raise InputError("assignments must map each (tester, testee) to 0 or 1, "
                             f"not {assignments!r}") from None
        ends = g._ends
        for pos in free:
            key = (ends[pos], ends[pos ^ 1])
            if key not in assigned:
                raise InputError(f"no assignment for adversary-controlled test {key}")
            value = assigned.pop(key)
            if value == 1:
                fail.append(pos)
            elif value != 0:
                raise InputError(
                    f"assignment {value!r} for test {key} must be 0 (pass) or 1 (fail)")
        if assigned:
            # in the caller's order: keys of mixed types do not sort
            raise InputError(
                f"assignments given for tests not adversary-controlled: {list(assigned)}")
    return _syndrome_from_mask(g, _masks.mask_of(fail, len(g._ends)))


def is_consistent(sig: Syndrome, fp: FaultPair) -> bool:
    """True when no test result contradicts its forced outcome under fp."""
    if _check_instance(sig, Syndrome).graph is not _check_instance(fp, FaultPair).graph:
        raise GraphMismatchError("syndrome and fault pair belong to different graphs")
    ff, fpm = _masks.forced_masks(fp.graph, fp.f_mask, fp.s_mask)
    fail = sig.fail_mask
    return (ff & ~fail) == 0 and (fpm & fail) == 0


# ---------------------------------------------------------------------------
# consistent-pair enumeration (syndrome decoding core): the failure tables
# ---------------------------------------------------------------------------

def _fail_tables(g: Graph, fail_mask: int) -> tuple[list[int], list[int], int]:
    """(fail_in, fail_out, tested) of the syndrome failing the tests of fail_mask.

    Per vertex v, fail_in[v] holds the testers whose test of v fails and
    fail_out[v] the testees that v's own tests fail; tested holds the
    vertices with a failing in-test.  The failing positions are read from
    the mask's binary digits, one ``str.find`` per failing test, so the
    2m-bit mask is walked once whatever its width, and each failing test
    then costs work on vertex masks only.
    """
    n = g.vertex_count
    ends = g._ends
    fail_in = [0] * n
    fail_out = [0] * n
    tested = 0
    digits = format(fail_mask, "b")     # test i is the digit at top - i
    top = len(digits) - 1
    j = digits.find("1")
    while j >= 0:
        i = top - j
        a, b = ends[i], ends[i ^ 1]
        testee = 1 << b
        fail_out[a] |= testee
        fail_in[b] |= 1 << a
        tested |= testee
        j = digits.find("1", j + 1)
    return fail_in, fail_out, tested


def _search_candidates(g: Graph, fail_in: list[int], fail_out: list[int], tested: int,
                       t: int, s: int):
    """(f_mask, s_mask) of every in-bound fault pair consistent with the
    syndrome whose failure tables ``_fail_tables`` built.

    The tables are only read, so ``_replay`` steps them between calls.
    Results come out in (|F|, F) lexicographic order.  Rather than trying
    every vertex set of size at most t, the search decides vertices faulty
    (in F) or good and applies four rules, each a necessary condition of the
    model, so no consistent pair is ever lost:

    - Suspects: a faulty v is failed by every good neighbour, so at most t-1
      of its in-tests pass; any other vertex is good from the start.  An
      untested vertex has all deg(v) >= delta(G) in-tests passing, so when
      t <= delta(G) only the tested vertices are scanned for suspects; when
      t > delta(G) every vertex is.
    - Pass closure: a passing test u->v with v faulty needs u faulty, so a
      faulty v makes its passing testers faulty and a good u makes its passing
      testees good.
    - Covering: two good endpoints read an edge alike, so an edge whose tests
      disagree needs an endpoint in F, and a both-fail edge between good
      vertices is charged to S, which holds at most s edges.  Branching first
      on disagreeing edges is a vertex-cover search tree of depth at most t.
    - Forced S: once every vertex is decided, S is exactly the set of
      both-fail edges between good vertices, and the charge counts them.
      Each one joins two good tested vertices, so it is read off
      fail_in[v] & fail_out[v] at its smaller end v, until the charge is
      used up.

    A fully decided assignment that passes the rules is consistent: every
    test by a good tester then reads what the pair forces.  Each branch fixes
    one vertex either way, so every pair is reached exactly once.

    The work follows the syndrome: the root marks the set G of non-suspects
    good in one step, reading only tested vertices and suspects:

    - each tested w in G adds its far ends fail_in ^ fail_out to F and
      charges its both-fail edges into G to S; each such edge is seen from
      both ends, so the count is halved;
    - a suspect u turns good when some w in G passes it, and faulty when
      some w in G fails it while u passes w.

    Settling G one vertex at a time gives, after its first round, the same
    charge, the same new good vertices (the passing testees of G outside G
    are the suspects some w in G passes) and, unless that round conflicts,
    the same new faulty vertices.  Every far end added here is one a w in G
    adds there, and the only far ends omitted are those of an untested w in
    G: fail_out[w], the vertices x that w fails while x passes w (no test of
    w fails).  A suspect x is made faulty by the last rule.  An x in G is
    tested, and its own far ends hold w, which is in G: the one-step root
    conflicts there, exactly where settling one by one made x faulty and
    conflicted.  So both roots conflict together, and otherwise hand pass
    closure and covering the same state.
    """
    n = g.vertex_count
    nbr = _masks.layout_of(g)

    def settle(faulty, good, charged, add_faulty, add_good):
        """Apply pass closure and covering to a fixpoint; None on conflict.

        Per vertex v, nbr & ~fail_in are its passing testers, nbr & ~fail_out
        its passing testees, fail_in ^ fail_out the far ends of its
        disagreeing edges and fail_in & fail_out those of its both-fail edges.
        """
        while add_faulty or add_good:
            if add_faulty & (good | add_good) or add_good & faulty:
                return None
            faulty |= add_faulty
            if faulty.bit_count() > t:
                return None
            more_faulty = more_good = 0
            while add_faulty:
                low = add_faulty & -add_faulty
                v = low.bit_length() - 1
                more_faulty |= nbr[v] & ~fail_in[v]
                add_faulty ^= low
            while add_good:
                low = add_good & -add_good
                v = low.bit_length() - 1
                fi, fo = fail_in[v], fail_out[v]
                charged += (fi & fo & good).bit_count()
                good |= low
                more_good |= nbr[v] & ~fo
                more_faulty |= fi ^ fo
                add_good ^= low
            if charged > s:
                return None
            add_faulty = more_faulty & ~faulty
            add_good = more_good & ~good
        return faulty, good, charged

    everyone = (1 << n) - 1
    suspects = 0
    rest = tested if t <= _min_degree(g) else everyone
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        if (nbr[v] & ~fail_in[v]).bit_count() < t:
            suspects |= low
        rest ^= low
    good = everyone ^ suspects
    charged = add_faulty = add_good = 0
    rest = tested & good
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        fi, fo = fail_in[v], fail_out[v]
        add_faulty |= fi ^ fo
        charged += (fi & fo & good).bit_count()
        rest ^= low
    charged >>= 1
    rest = suspects
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        fi = fail_in[v]
        if nbr[v] & good & ~fi:
            add_good |= low
        if fi & good & ~fail_out[v]:
            add_faulty |= low
        rest ^= low
    solutions = []
    root = settle(0, good, charged, add_faulty, add_good) if charged <= s else None
    stack = [root] if root else []
    while stack:
        faulty, good, charged = stack.pop()
        undecided = everyone & ~(faulty | good)
        if not undecided:
            solutions.append((faulty, charged))
            continue
        # prefer an undecided endpoint of a disagreeing edge between undecided
        # vertices: either branch then adds a vertex to F
        pick = undecided & -undecided
        rest = undecided
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if (fail_in[v] ^ fail_out[v]) & undecided:
                pick = low
                break
            rest ^= low
        for branch in (settle(faulty, good, charged, pick, 0),
                       settle(faulty, good, charged, 0, pick)):
            if branch:
                stack.append(branch)
    if len(solutions) > 1:
        solutions.sort(key=lambda sol: (sol[0].bit_count(), tuple(_masks.bits(sol[0]))))
    found = []
    for f, left in solutions:
        # S holds exactly the `left` edges charged on the way here
        good = everyone ^ f
        smask = 0
        rest = tested & good
        while left:
            low = rest & -rest
            v = low.bit_length() - 1
            # both-fail edges to good vertices above v
            ends = fail_in[v] & fail_out[v] & good & -(low << 1)
            while ends:
                top = ends & -ends
                smask |= 1 << g._edge_id(v, top.bit_length() - 1)
                left -= 1
                ends ^= top
            rest ^= low
        found.append((f, smask))
    return found


def _candidate_masks(g: Graph, fail_mask: int, t: int, s: int):
    """(f_mask, s_mask) of every in-bound fault pair consistent with the
    syndrome failing the tests of fail_mask, in (|F|, F) lexicographic order:
    ``_search_candidates`` on the tables ``_fail_tables`` builds."""
    return _search_candidates(g, *_fail_tables(g, fail_mask), t, s)


def _replay(g: Graph, fail: list, free: list, t: int, s: int, expected: list) -> bool:
    """True when every assignment of the tests at the positions ``free``, on
    top of the failing tests at the positions ``fail``, decodes to exactly
    ``expected``; False at the first one that does not.

    The failure tables are built once, from ``fail``, and the assignments are
    visited in Gray-code order: each step toggles one test a -> b of ``free``
    in fail_out[a], fail_in[b] and b's tested bit, then searches the stepped
    tables.
    """
    ends = g._ends
    steps = [(ends[pos], 1 << ends[pos], ends[pos ^ 1], 1 << ends[pos ^ 1]) for pos in free]
    fail_in, fail_out, tested = _fail_tables(g, _masks.mask_of(fail, len(ends)))
    for step in range(1 << len(steps)):
        if step:
            a, abit, b, bbit = steps[(step & -step).bit_length() - 1]
            fail_out[a] ^= bbit
            fail_in[b] ^= abit
            tested = tested | bbit if fail_in[b] else tested & ~bbit
        if _search_candidates(g, fail_in, fail_out, tested, t, s) != expected:
            return False
    return True
