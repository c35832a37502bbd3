"""Simple undirected graphs with dense integer vertex ids, plus topology builders.

Graphs are immutable after construction and every query here is pure.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from itertools import chain, combinations, islice, repeat
from operator import lt, or_

from .errors import InputError

#: Largest supported hypercube dimension.  Building Q_15, one fault pair, its
#: syndrome and both distinguishability routes peaks near 68 MB of RSS
#: (``inject-q15`` in ``bench/frontier.py``, Python 3.11.7, x86-64).  The
#: neighbor bits (``_masks.layout_of``), which only the decoder and the search
#: build, dominate beyond that: one vertex-wide int per vertex, about 4^n / 9
#: bytes for Q_n (115 MB for Q_15).
HYPERCUBE_DIMENSION_CAP = 15

#: Largest vertex and edge counts of any graph: those of Q_15, the largest
#: graph whose peak memory is measured.  Builders refuse larger sizes before
#: they allocate anything.
VERTEX_CAP = 1 << HYPERCUBE_DIMENSION_CAP
EDGE_CAP = HYPERCUBE_DIMENSION_CAP << (HYPERCUBE_DIMENSION_CAP - 1)


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge: two distinct ints, not bools."""
    if not (_is_int(u) and _is_int(v)):
        raise InputError(f"edge {u!r}-{v!r} has an endpoint that is not an int")
    if u == v:
        raise InputError(f"self-loop at vertex {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    Every graph is built by one core (``_fill``) from two edge columns,
    which it takes as given.  The constructor checks its outside edges once
    and sorts them into the columns; the builders hand their own sorted
    columns to ``_from_columns``.  A refused edge list is named by one edge,
    by the rule ``_first_bad_edge`` writes once: the first edge in input
    order that is not a pair of ints, is a self-loop or has an endpoint
    outside 0..vertex_count-1, failing that the first repeat, as
    ``duplicate edge u-v`` at its second occurrence.  A graph keeps its
    edges as one flat endpoint column ``_ends``: edge k = (a, b), a < b, sits at
    ``_ends[2k]`` and ``_ends[2k + 1]``, the edges in ascending order.  That
    is also the tester column of the canonical test order: test i is
    ``_ends[i]`` -> ``_ends[i ^ 1]``.  Per vertex u, ``_nbrs[u]`` holds its
    neighbor ids, ascending, and ``_eids[u]`` the index k of the edge to each
    of them, one int shared by both endpoints.  An edge is found by bisecting an
    endpoint's ``_nbrs`` row (``_edge_id``).  ``edges``, the edges as
    canonical (min, max) tuples, is read-only and built from the column on
    first use.  Vertex ids are ints, never bools.  ``labels`` optionally
    attaches a text label per vertex (hypercubes use their bit strings).
    ``vertex_transitive`` is true only for builders whose output provably
    looks the same from every vertex (hypercube, cycle, complete); search
    code uses it to fix a single seed vertex, so callers cannot set it.
    """

    __slots__ = (
        "vertex_count",
        "labels",
        "name",
        "_vertex_transitive",
        "_ends",
        "_edges",
        "_nbrs",
        "_eids",
        "_layout",
        "_min_degree",
        "_closure",
        "_pair_closure",
    )

    def __init__(self, vertex_count, edges, labels=None, name="graph"):
        _check_vertex_count(vertex_count)
        try:
            pairs = list(edges)
        except TypeError:
            raise InputError(f"edges must be an iterable of vertex pairs, not {edges!r}") from None
        _check_edge_count(len(pairs))
        # 2-tuples of exact ints, the common input, are only oriented here,
        # their already canonical tuples reused; anything else goes through
        # edge(), and when an item fails there the scan names the first bad edge
        if (set(map(type, pairs)) <= {tuple} and set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int}):
            canon = [e if e[0] < e[1] else (e[1], e[0]) for e in pairs]
        else:
            # an iterator item is read once, so edge() and the scan see the same values
            pairs = [tuple(islice(p, 3)) if hasattr(p, "__next__") else p for p in pairs]
            try:
                canon = [edge(u, v) for u, v in pairs]
            except (TypeError, ValueError):     # ValueError includes InputError
                raise InputError(_first_bad_edge(vertex_count, pairs)[1]) from None
        canon.sort()
        lo, hi = _columns(canon)
        # oriented and sorted, an edge can still lie out of range, be a
        # self-loop or repeat the one before it
        if canon and (lo[0] < 0 or max(hi) >= vertex_count or not all(map(lt, lo, hi))
                      or not all(map(lt, canon, islice(canon, 1, None)))):
            raise InputError(_first_bad_edge(vertex_count, pairs)[1])
        if labels is not None:
            try:
                labels = tuple(labels)
            except TypeError:
                raise InputError(f"labels must be a sequence, not {labels!r}") from None
            if len(labels) != vertex_count:
                raise InputError("labels must cover every vertex")
        self._fill(vertex_count, lo, hi, labels, name)

    @classmethod
    def _from_columns(cls, vertex_count: int, lo, hi, labels=None, name: str = "graph") -> Graph:
        """The graph whose edge k is (lo[k], hi[k]); a builder's entry point.

        Nothing is checked: the builder guarantees that lo and hi are
        sequences of ints, not bools, of one length, with lo[k] < hi[k] <
        vertex_count and the pairs strictly ascending, and that labels is a
        tuple of vertex_count labels or None.
        """
        g = cls.__new__(cls)
        g._fill(vertex_count, lo, hi, labels, name)
        return g

    def _fill(self, vertex_count: int, lo, hi, labels, name: str):
        """Build every structure from edge columns that keep ``_from_columns``' contract."""
        m = len(lo)
        # the edges are sorted, so each vertex meets its neighbors in ascending order
        nbrs = [[] for _ in range(vertex_count)]
        eids = [[] for _ in range(vertex_count)]
        for k, u, v in zip(range(m), lo, hi):
            nbrs[u].append(v)
            eids[u].append(k)
            nbrs[v].append(u)
            eids[v].append(k)
        ends = [0] * (2 * m)
        ends[::2] = lo
        ends[1::2] = hi
        self.vertex_count = vertex_count
        self.labels = labels
        self.name = name
        self._vertex_transitive = False
        self._ends = ends
        self._edges = None  # edge tuples, built on first use by the edges property
        self._nbrs = tuple(map(tuple, nbrs))
        del nbrs        # freed before the second copy, which lowers the peak
        self._eids = tuple(map(tuple, eids))
        self._layout = None  # neighbor-bits cache, built on demand by _masks.layout_of
        self._min_degree = None  # delta(G) cache, set on first use by _min_degree
        self._closure = None  # seed 0's closure value f*, cached by diagnosability._first_size
        self._pair_closure = None  # (least F(0, b) or the cap, the cap), likewise

    @property
    def edges(self) -> tuple:
        """The edges as canonical (min, max) tuples, ascending; edge k is
        (``_ends[2k]``, ``_ends[2k + 1]``).  Built on first use and cached."""
        if self._edges is None:
            ends = self._ends
            self._edges = tuple(zip(ends[::2], ends[1::2]))
        return self._edges

    @property
    def vertex_transitive(self) -> bool:
        return self._vertex_transitive

    def _edge_id(self, u: int, v: int):
        """Index in ``edges`` of the edge u-v, or None; u and v must be vertex ids."""
        row = self._nbrs[u]
        i = bisect_left(row, v)
        if i < len(row) and row[i] == v:
            return self._eids[u][i]
        return None

    def has_edge(self, u: int, v: int) -> bool:
        """True when u and v are adjacent; False for u == v; both must be vertices."""
        return self._edge_id(self.check_vertex(u), self.check_vertex(v)) is not None

    def check_vertex(self, u: int) -> int:
        if not _is_int(u) or not 0 <= u < self.vertex_count:
            raise InputError(f"vertex id {u!r} is not in 0..{self.vertex_count - 1}")
        return u

    def check_edge(self, e) -> tuple[int, int]:
        return self._check_edge_id(e)[0]

    def _check_edge_id(self, e) -> tuple[tuple[int, int], int]:
        """``check_edge``'s canonical edge and its index in ``edges``, from one lookup."""
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not a pair of vertices") from None
        ce = edge(self.check_vertex(u), self.check_vertex(v))
        k = self._edge_id(*ce)
        if k is None:
            raise InputError(f"edge {u}-{v} is not an edge of {self.name}")
        return ce, k

    def __repr__(self):
        return f"Graph({self.name}: {self.vertex_count} vertices, {len(self._ends) // 2} edges)"


def _first_bad_edge(vertex_count: int, pairs):
    """(index, message) of the edge that ``Graph(...)`` refuses pairs for, or None.

    The one rule for naming it: the first item in input order that is not a
    pair, has an endpoint that is not an int, is a self-loop or has an
    endpoint outside 0..vertex_count-1; failing that, the first repeat of an
    earlier edge, in either orientation, named at its second occurrence.
    """
    seen, repeat = set(), None
    for i, item in enumerate(pairs):
        try:
            u, v = item
            e = edge(u, v)
        except InputError as exc:
            return i, str(exc)
        except (TypeError, ValueError):
            return i, f"edge {item!r} is not a pair of vertices"
        if not (0 <= e[0] and e[1] < vertex_count):
            return i, f"edge {u}-{v} has an endpoint outside 0..{vertex_count - 1}"
        if repeat is None and e in seen:
            repeat = i, f"duplicate edge {u}-{v}"
        seen.add(e)
    return repeat


def _columns(pairs) -> tuple[list, list]:
    """The lo and hi columns of an iterable of (lo, hi) pairs."""
    ends = list(chain.from_iterable(pairs))
    return ends[::2], ends[1::2]


def _is_int(x) -> bool:
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, value) -> int:
    """value when it is an int, not a bool."""
    if not _is_int(value):
        raise InputError(f"{name} must be an int, not {value!r}")
    return value


def _check_instance(value, cls):
    """value when it is an instance of cls; InputError otherwise."""
    if not isinstance(value, cls):
        raise InputError(f"expected a {cls.__name__}, not {value!r}")
    return value


def _check_bound(name: str, value, least: int = 0) -> int:
    """value when it is an int, not a bool, of at least ``least`` (0 or 1)."""
    if _check_int(name, value) < least:
        raise InputError(f"{name} must be {'positive' if least else 'non-negative'}, not {value}")
    return value


def _check_vertex_count(n):
    """Refuse n unless it is an int, not a bool, in 0..VERTEX_CAP."""
    if _check_bound("vertex_count", n) > VERTEX_CAP:
        raise InputError(f"{n} vertices exceed the cap of {VERTEX_CAP} (the size of Q_15)")


def _check_edge_count(m):
    """Refuse m unless it is an int, not a bool, in 0..EDGE_CAP."""
    if _check_bound("edge count", m) > EDGE_CAP:
        raise InputError(f"{m} edges exceed the cap of {EDGE_CAP} (the size of Q_15)")


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def _row(g: Graph, u: int) -> tuple:
    """The neighbor ids of vertex u of g, ascending; g and u are checked."""
    return _check_instance(g, Graph)._nbrs[g.check_vertex(u)]


def neighbors(g: Graph, u: int) -> frozenset[int]:
    """All vertices adjacent to u."""
    return frozenset(_row(g, u))


def incident_edges(g: Graph, u: int) -> frozenset[tuple[int, int]]:
    """All edges having u as an endpoint."""
    return frozenset(map(edge, repeat(u), _row(g, u)))


def degree(g: Graph, u: int) -> int:
    return len(_row(g, u))


def min_degree(g: Graph) -> int:
    if _check_instance(g, Graph).vertex_count == 0:
        raise InputError("minimum degree of the empty graph is undefined")
    return _min_degree(g)


def _min_degree(g: Graph) -> int:
    """delta(G), 0 for the empty graph, computed on first use and cached on g.

    The decoder and ``min_degree`` share this one cache, so building a graph
    does no work for it."""
    if g._min_degree is None:
        g._min_degree = min(map(len, g._nbrs), default=0)
    return g._min_degree


def girth(g: Graph):
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; a non-tree edge seen at BFS level d closes a cycle
    of length at most d(u) + d(v) + 1, and the minimum over all start vertices
    is exact.  The BFS runs on the 2-core of what is left: vertices with at
    most one neighbour left lie on no cycle, so they are peeled away first,
    and each source is deleted after its BFS, peeling again.  This stays
    exact, because the smallest vertex of a shortest cycle still sees that
    whole cycle when its turn comes.  So a forest starts no BFS, and a long
    cycle starts one.  On a vertex-transitive builder graph every vertex lies
    on a shortest cycle, so vertex 0 alone starts one.
    """
    _check_instance(g, Graph)
    nbrs = g._nbrs
    left = list(map(len, nbrs))     # per vertex, its neighbours not yet deleted
    alive = [True] * g.vertex_count

    def delete(stack):
        while stack:
            v = stack.pop()
            if alive[v]:
                alive[v] = False
                for w in nbrs[v]:
                    left[w] -= 1
                    if left[w] == 1:
                        stack.append(w)

    delete([v for v, d in enumerate(left) if d < 2])
    best = math.inf
    for source in range(1 if g._vertex_transitive else g.vertex_count):
        if not alive[source]:
            continue
        dist = {source: 0}
        parent = {source: None}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            if dist[cur] * 2 >= best:
                continue
            for nxt in nbrs[cur]:
                if not alive[nxt]:
                    continue
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    parent[nxt] = cur
                    queue.append(nxt)
                elif parent[cur] != nxt:
                    best = min(best, dist[cur] + dist[nxt] + 1)
        if best == 3:
            return 3
        delete([source])
    return best


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _transitive(g: Graph) -> Graph:
    """Mark a builder's output as vertex-transitive; only for proven families."""
    g._vertex_transitive = True
    return g


def build_hypercube(n: int) -> Graph:
    """The n-dimensional hypercube: 2^n vertices, adjacency = one flipped bit.

    Vertex i carries the label format(i, "0nb").  Label positions are counted
    from 1 starting at the leftmost character, so the neighbor across
    dimension d, whose label differs in position d, is i ^ (1 << (n - d)).
    """
    if not 1 <= _check_int("hypercube dimension", n) <= HYPERCUBE_DIMENSION_CAP:
        raise InputError(f"hypercube dimension must be in 1..{HYPERCUBE_DIMENSION_CAP}")
    size = 1 << n
    # clear[v]: the bits clear in v, ascending.  Q_{d+1} is two copies of Q_d,
    # and in the lower one, where bit d is clear, every vertex gains bit d.
    clear = [()]
    for d in range(n):
        clear = [c + (1 << d,) for c in clear] + clear
    # edge (v, v | b) for each clear bit b: the edges in ascending order, each
    # vertex one int object wherever it appears
    vertices = list(range(size))
    lo = list(chain.from_iterable(map(repeat, vertices, map(len, clear))))
    hi = list(map(vertices.__getitem__, map(or_, lo, chain.from_iterable(clear))))
    labels = tuple(map(format, vertices, repeat(f"0{n}b")))
    return _transitive(Graph._from_columns(size, lo, hi, labels, f"hypercube-{n}"))


def build_path(n: int) -> Graph:
    if _check_int("path length n", n) < 1:
        raise InputError("path needs at least one vertex")
    _check_vertex_count(n)
    return Graph._from_columns(n, range(n - 1), range(1, n), name=f"path-{n}")


def build_cycle(n: int) -> Graph:
    if _check_int("cycle length n", n) < 3:
        raise InputError("cycle needs at least three vertices")
    _check_vertex_count(n)
    # the path's edges with (0, n - 1) second in order
    lo = [0, *range(n - 1)]
    hi = [1, n - 1, *range(2, n)]
    return _transitive(Graph._from_columns(n, lo, hi, name=f"cycle-{n}"))


def build_complete(n: int) -> Graph:
    if _check_int("complete graph size n", n) < 1:
        raise InputError("complete graph needs at least one vertex")
    _check_edge_count(n * (n - 1) // 2)
    # combinations yields the pairs (lo, hi) in ascending order
    lo, hi = _columns(combinations(range(n), 2))
    return _transitive(Graph._from_columns(n, lo, hi, name=f"complete-{n}"))


def build_random(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each candidate edge kept independently; fixed seed, fixed graph."""
    if _check_int("random graph size n", n) < 1:
        raise InputError("random graph needs at least one vertex")
    _check_int("random graph seed", seed)
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise InputError(f"edge probability must be a number, not {p!r}")
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    _check_edge_count(n * (n - 1) // 2)     # every candidate edge draws a number
    rng = random.Random(seed)
    lo, hi = _columns(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph._from_columns(n, lo, hi, name=f"random-{n}-p{p}-s{seed}")


#: Per stock topology: its builder and the keyword parameters it takes.
_BUILDERS = {
    "hypercube": (build_hypercube, ("n",)),
    "path": (build_path, ("n",)),
    "cycle": (build_cycle, ("n",)),
    "complete": (build_complete, ("n",)),
    "random": (build_random, ("n", "p", "seed")),
}


def build_named_topology(name: str, **params) -> Graph:
    """Build one of the stock topologies: hypercube, path, cycle, complete, random.

    Every parameter the topology takes is required, and a parameter it does
    not take is refused rather than ignored.  Values go to the builder as
    given, so it refuses a value of the wrong type rather than converting it.
    """
    try:
        builder, takes = _BUILDERS[name]
    except (KeyError, TypeError):   # TypeError: a name that cannot be hashed
        known = ", ".join(sorted(_BUILDERS))
        raise InputError(f"unknown topology {name!r} (known: {known})") from None
    for key in params:
        if key not in takes:
            raise InputError(
                f"topology {name!r} does not take parameter {key!r} (takes: {', '.join(takes)})")
    for key in takes:
        if params.get(key) is None:
            raise InputError(f"topology parameter {key!r} is required")
    return builder(**params)


# ---------------------------------------------------------------------------
# edge-list text format and DOT export
# ---------------------------------------------------------------------------

def _edge_rows(text: str):
    """(line number, a, b) of each line of edge-list text that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected two fields, got {raw!r}")
        try:
            yield lineno, int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected two integers, got {raw!r}") from None


def parse_edge_list(text: str, name: str = "edge-list") -> Graph:
    """Parse the plain text format: first line "n m", then m lines "u v".

    Lines starting with '#' and blank lines are ignored.  Errors carry the
    1-based line number of the offending line.  The header is checked as
    soon as it is read, before any edge line: n must be in 0..VERTEX_CAP and
    m in 0..EDGE_CAP.  A refused edge list names the edge that
    ``Graph(...)`` names, with its message, as "line L: <message>": the
    first edge that is out of range or a self-loop, failing that the second
    occurrence of the first repeat.  Its line is found by reading the text
    again, so no line number is kept per edge.
    """
    if not isinstance(text, str):
        raise InputError(f"edge list text must be a str, not {text!r}")
    rows = _edge_rows(text)
    header = next(rows, None)
    if header is None:
        raise InputError("line 1: missing 'n m' header line")
    lineno, n, m = header
    try:
        _check_vertex_count(n)
        _check_edge_count(m)
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}") from None
    pairs = [(a, b) for _, a, b in rows]
    if len(pairs) != m:
        raise InputError(f"header declares {m} edges but {len(pairs)} were given")
    try:
        return Graph(n, pairs, name=name)
    except InputError:
        # the header is checked, so the graph refused an edge; row 0 is the header
        index, message = _first_bad_edge(n, pairs)
        lineno = next(islice(_edge_rows(text), index + 1, None))[0]
        raise InputError(f"line {lineno}: {message}") from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{_check_instance(g, Graph).vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for (u, v) in g.edges)
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """GraphViz source for the graph, vertex labels included when present."""
    _check_instance(g, Graph)
    lines = ["graph G {"]
    for v in range(g.vertex_count):
        if g.labels is not None:
            label = str(g.labels[v]).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for (u, v) in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
