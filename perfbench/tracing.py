"""Per-layer tracing for the benchmark: wraps module attributes of gpmcdiag.

Every wrapped function records its call count and inclusive time under a span
name; some also record counts taken from their return value.  The library is
not modified: the wrappers replace the module attributes from outside, in
every gpmcdiag module that holds a reference to the same function object (so
``from .faults import make_fault_pair`` copies are wrapped as well).

Searches with ``jobs > 1`` run ``diagnosability._seed_task`` in forked pool
workers.  Those workers inherit the wrappers; what they record inside a task
is added to a shared array under a lock, so the parent's snapshot covers the
pool as well.  This relies on the ``fork`` start method (the Linux default).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import resource
import sys
from collections import defaultdict
from time import perf_counter

#: Stats that pool workers can touch; shipped back to the parent per task.
SHIPPED = (
    "search.seed.calls", "search.seed.s",
    "search.cover.calls", "search.cover.s", "search.cover.hits",
)

#: Per-pass counters that must repeat exactly on every pass at one seed.
DETERMINISTIC = (
    "masks.forced_masks.calls", "masks.pairs_indist.calls", "masks.pairs_indist.hits",
    "search.levels", "search.structures", "search.pairs", "search.seeds",
    "search.cover.calls", "search.cover.hits",
    "decode.calls", "decode.found", "decode.unique", "decode.ambiguous", "decode.none",
    "roundtrip.calls", "roundtrip.decoder_calls", "distinguish.calls",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Call counts, inclusive times and result counts at module boundaries."""

    def __init__(self):
        self.enabled = False
        self.stats = defaultdict(float)
        self._active = defaultdict(int)
        self._shared = multiprocessing.Array("d", len(SHIPPED))
        self._parent_pid = os.getpid()

    def snapshot(self) -> dict:
        """Everything recorded so far, pool workers included."""
        out = dict(self.stats)
        with self._shared.get_lock():
            for i, key in enumerate(SHIPPED):
                out[key] = out.get(key, 0.0) + self._shared[i]
        return out

    def span(self, name, fn, on_result=None):
        stats, active = self.stats, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats[name + ".s"] += perf_counter() - start
                stats[name + ".calls"] += 1
                active[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def ship(self, fn):
        """Wrap a pool task so a worker adds what it recorded to the shared array."""
        stats, shared = self.stats, self._shared

        @functools.wraps(fn)
        def wrapper(payload):
            if os.getpid() == self._parent_pid:
                return fn(payload)
            before = [stats[k] for k in SHIPPED]
            result = fn(payload)
            with shared.get_lock():
                for i, key in enumerate(SHIPPED):
                    shared[i] += stats[key] - before[i]
            return result

        return wrapper

    def active(self, name) -> bool:
        return self._active[name] > 0

    def add(self, key, value=1):
        self.stats[key] += value


def _replace(package_modules, original, replacement):
    for mod in package_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(gp) -> Tracer:
    """Wrap the layer boundaries of the imported gpmcdiag package."""
    tracer = Tracer()
    mods = [m for n, m in sys.modules.items() if n == "gpmcdiag" or n.startswith("gpmcdiag.")]
    diag, faults, engine = gp.diagnosability, gp.faults, gp.engine

    def level_result(res):
        tracer.add("search.structures", res.stats.get("structures_examined", 0))
        tracer.add("search.pairs", res.stats.get("pairs_examined", 0))
        tracer.add("search.seeds", res.stats.get("seeds", 0))

    def decode_result(found):
        tracer.add("decode.found", len(found))
        if tracer.active("roundtrip"):
            tracer.add("roundtrip.decoder_calls")

    def diagnosis_result(res):
        tracer.add("decode." + {"unique": "unique", "ambiguous": "ambiguous",
                                "no-candidate": "none"}[res.status.value])

    def layout_of(fn):
        def measured(g):
            if not tracer.enabled:
                return fn(g)
            before = _rss_mb()
            lay = fn(g)
            tracer.add("masks.layout.rss_mb", _rss_mb() - before)
            return lay
        return functools.wraps(fn)(measured)

    spans = [
        (gp.graph, "build_hypercube", "graph.build", None),
        (gp.graph, "parse_edge_list", "graph.build", None),
        (gp._masks, "forced_masks", "masks.forced_masks", None),
        (gp._masks, "pairs_indistinguishable", "masks.pairs_indist",
         lambda hit: tracer.add("masks.pairs_indist.hits", bool(hit))),
        (diag, "is_ts_diagnosable", "search.level", level_result),
        (diag, "_search_seed", "search.seed", None),
        (diag, "_cover_subset", "search.cover",
         lambda chosen: tracer.add("search.cover.hits", chosen is not None)),
        (diag, "_full_search", "search.full", None),
        (diag, "_witness_pairs", "search.witness_check", None),
        (faults, "_candidate_masks", "decode", decode_result),
        (engine, "diagnose", "decode.diagnose", diagnosis_result),
        (faults, "_pair_from_masks", "decode.pair_build", None),
        (engine, "adversarial_roundtrip", "roundtrip", None),
        (faults, "make_fault_pair", "faults.make_pair", None),
        (faults, "generate_syndrome", "faults.syndrome", None),
        (faults, "is_consistent", "faults.consistent", None),
        (gp.distinguish, "distinguishable", "distinguish", None),
        (gp.distinguish, "distinguishable_oracle", "distinguish.oracle", None),
    ]
    for module, attr, name, on_result in spans:
        original = getattr(module, attr)
        _replace(mods, original, tracer.span(name, original, on_result))
    original = gp._masks.layout_of
    _replace(mods, original, tracer.span("masks.layout", layout_of(original)))
    original = diag._seed_task
    _replace(mods, original, tracer.ship(original))
    return tracer


#: Per-layer metrics: (name, unit).  Times are inclusive, except search.seed.s,
#: which excludes the time spent in _cover_subset.
PER_LAYER = (
    ("graph.build_s", "s"), ("graph.vertices", "count"), ("graph.edges", "count"),
    ("masks.layout_s", "s"), ("masks.layout_rss_mb", "MB"),
    ("masks.forced_masks.calls", "count"), ("masks.forced_masks.s", "s"),
    ("masks.pairs_indist.calls", "count"), ("masks.pairs_indist.s", "s"),
    ("masks.pairs_indist.hits", "count"),
    ("search.levels", "count"), ("search.structures", "count"), ("search.pairs", "count"),
    ("search.seeds", "count"), ("search.seed.s", "s"),
    ("search.cover.calls", "count"), ("search.cover.hits", "count"),
    ("search.cover.hit_ratio", "ratio"), ("search.cover.s", "s"),
    ("search.full.s", "s"), ("search.witness_check.s", "s"),
    ("decode.calls", "count"), ("decode.s", "s"), ("decode.found", "count"),
    ("decode.unique", "count"), ("decode.ambiguous", "count"), ("decode.none", "count"),
    ("decode.pair_build.s", "s"),
    ("roundtrip.calls", "count"), ("roundtrip.decoder_calls", "count"), ("roundtrip.s", "s"),
    ("faults.make_pair.s", "s"), ("faults.syndrome.s", "s"), ("faults.consistent.s", "s"),
    ("distinguish.calls", "count"), ("distinguish.s", "s"), ("distinguish.oracle.s", "s"),
    ("cli.diagnosability.s", "s"), ("cli.diagnosability.bytes", "bytes"),
    ("cli.diagnose.s", "s"), ("cli.diagnose.bytes", "bytes"),
    ("cli.inject.s", "s"), ("cli.inject.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def setup_metrics(snap: dict) -> dict:
    """Layer metrics of the set-up phase, from the snapshot taken when it ends."""
    return {
        "graph.build_s": snap.get("graph.build.s", 0.0),
        "masks.layout_s": snap.get("masks.layout.s", 0.0),
        "masks.layout_rss_mb": snap.get("masks.layout.rss_mb", 0.0),
    }


def pass_metrics(before: dict, after: dict) -> dict:
    """Layer metrics of one pass, from the snapshots around it."""
    d = defaultdict(float, {k: v - before.get(k, 0.0) for k, v in after.items()})
    out = {name: d[name] for name, _ in PER_LAYER}
    out["search.levels"] = d["search.level.calls"]
    out["search.seed.s"] = d["search.seed.s"] - d["search.cover.s"]
    calls = d["search.cover.calls"]
    out["search.cover.hit_ratio"] = d["search.cover.hits"] / calls if calls else 0.0
    return out
