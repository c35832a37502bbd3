"""Syndrome decoding: locate the fault pair from observed test results.

Decoding enumerates the consistent fault pairs within the (t, s) bounds.  On a
(t, s)-diagnosable graph a syndrome produced by an in-bound pair has exactly
one in-bound explanation, so the decoder pinpoints it; otherwise the result
honestly reports every candidate rather than ranking them, because the model
gives no grounds to prefer one.

Every public decoding entry point is here (``enumerate_consistent_pairs``,
``diagnose`` and ``adversarial_roundtrip``), and each checks its arguments
through one helper before any decode.  The failure tables they decode with are built, stepped
and searched in ``faults`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import _masks
from .errors import GraphMismatchError, InputError
from .faults import FaultPair, Syndrome, _candidate_masks, _pair_from_masks, _replay
from .graph import Graph, _check_bound, _check_instance


class DiagnosisStatus(Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    NO_CANDIDATE = "no-candidate"


DEFAULT_CANDIDATE_CAP = 64


@dataclass(frozen=True)
class DiagnosisResult:
    """Decoding outcome; ``total_candidates`` is always exact, the candidate
    list is truncated to the cap when an ambiguity explodes."""

    status: DiagnosisStatus
    candidates: tuple[FaultPair, ...]
    total_candidates: int

    @property
    def unique_pair(self) -> FaultPair:
        if self.status is not DiagnosisStatus.UNIQUE:
            raise InputError(f"diagnosis is {self.status.value}, not unique")
        return self.candidates[0]


def _check_decode(g: Graph, obj: object, cls: type, what: str, t: int, s: int) -> None:
    """The checks of a decode: obj is a cls bound to g, and t and s are bounds."""
    if _check_instance(obj, cls).graph is not g:
        raise GraphMismatchError(f"{what} belongs to a different graph")
    _check_bound("bound t", t)
    _check_bound("bound s", s)


def enumerate_consistent_pairs(g: Graph, sig: Syndrome, t: int, s: int) -> list[FaultPair]:
    """All consistent fault pairs with |F| <= t and |S| <= s explaining sig."""
    _check_decode(g, sig, Syndrome, "syndrome", t, s)
    return [_pair_from_masks(g, f, sm) for f, sm in _candidate_masks(g, sig.fail_mask, t, s)]


def diagnose(g: Graph, sig: Syndrome, t: int, s: int, *,
             candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> DiagnosisResult:
    """All in-bound fault pairs consistent with the syndrome, classified."""
    _check_decode(g, sig, Syndrome, "syndrome", t, s)
    _check_bound("candidate cap", candidate_cap, 1)
    found = _candidate_masks(g, sig.fail_mask, t, s)
    total = len(found)
    if total == 0:
        return DiagnosisResult(DiagnosisStatus.NO_CANDIDATE, (), 0)
    status = DiagnosisStatus.UNIQUE if total == 1 else DiagnosisStatus.AMBIGUOUS
    shown = tuple(_pair_from_masks(g, f, sm) for f, sm in found[:candidate_cap])
    return DiagnosisResult(status, shown, total)


EXHAUSTIVE_ADVERSARY_LIMIT = 16


def adversarial_roundtrip(g: Graph, fp: FaultPair, t: int, s: int) -> bool:
    """True when every adversary choice still decodes to the injected pair.

    Every assignment of the faulty testers' results that can change the
    decode is tried, so the answer is exact.  Intended for graphs already
    known (t, s)-diagnosable; a False from an in-bound pair on such a graph
    would contradict diagnosability.

    A faulty tester f with more than t + s good neighbours is pinned: every
    in-bound candidate blames it, whatever its tests read.  Each good
    neighbour x of f is good under the pair and no faulty edge touches f, so
    the test x -> f fails in every adversary syndrome.  A candidate
    (F', S') that leaves f good must explain each of those failures by
    x in F' or (x, f) in S', one distinct member each, so it holds more than
    t + s members and is out of bounds.  So every candidate puts every
    pinned tester in F', where the tests that tester runs constrain nothing,
    and the candidates are the same whatever those tests read.  Their free
    tests stay at pass; only the other free tests are enumerated, and a pair
    with more than 16 of those (over 2^16 assignments) raises InputError
    before any table is built.  A pair whose faulty testers are all pinned
    takes one search at any size.  ``faults._replay`` visits the assignments.
    """
    _check_decode(g, fp, FaultPair, "fault pair", t, s)
    if len(fp.faulty_vertices) > t or len(fp.faulty_edges) > s:
        raise InputError("injected pair exceeds the diagnosis bounds")
    free, fail = _masks._fault_tests(g, fp.f_mask, fp.s_mask)
    ends, f_mask = g._ends, fp.f_mask
    pinned = {f for f in fp.faulty_vertices
              if sum(not f_mask >> x & 1 for x in g._nbrs[f]) > t + s}
    free = [pos for pos in free if ends[pos] not in pinned]
    if len(free) > EXHAUSTIVE_ADVERSARY_LIMIT:
        raise InputError(
            f"{len(free)} tests have a faulty tester with at most t + s good neighbours; "
            f"the roundtrip tries every assignment of such tests only up to "
            f"{EXHAUSTIVE_ADVERSARY_LIMIT}")
    return _replay(g, fail, free, t, s, [(fp.f_mask, fp.s_mask)])
