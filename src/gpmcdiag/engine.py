"""Syndrome decoding: locate the fault pair from observed test results.

Decoding enumerates the consistent fault pairs within the (t, s) bounds.  On a
(t, s)-diagnosable graph a syndrome produced by an in-bound pair has exactly
one in-bound explanation, so the decoder pinpoints it; otherwise the result
honestly reports every candidate rather than ranking them, because the model
gives no grounds to prefer one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import _masks
from .errors import GraphMismatchError, InputError
from .faults import (FaultPair, Syndrome, _candidate_masks, _fail_tables, _pair_from_masks,
                     _search_candidates)
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


def diagnose(g: Graph, sig: Syndrome, t: int, s: int, *,
             candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> DiagnosisResult:
    """All in-bound fault pairs consistent with the syndrome, classified."""
    if _check_instance(sig, Syndrome).graph is not g:
        raise GraphMismatchError("syndrome belongs to a different graph")
    _check_bound("bound t", t)
    _check_bound("bound s", s)
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

    Every assignment of the faulty testers' results is tried, so the answer
    is exact.  A pair whose faulty testers run more than 16 tests (over 2^16
    assignments) raises InputError before any table is built.  Intended
    for graphs already known (t, s)-diagnosable; a False from an in-bound
    pair on such a graph would contradict diagnosability.

    The decoder's failure tables are built once, from the tests the pair
    forces to fail, and the assignments are visited in Gray-code order: each
    step toggles one free test a -> b in fail_out[a], fail_in[b] and b's
    tested bit, then searches the stepped tables.
    """
    if _check_instance(fp, FaultPair).graph is not g:
        raise GraphMismatchError("fault pair belongs to a different graph")
    _check_bound("bound t", t)
    _check_bound("bound s", s)
    if len(fp.faulty_vertices) > t or len(fp.faulty_edges) > s:
        raise InputError("injected pair exceeds the diagnosis bounds")
    free, fail = _masks._fault_tests(g, fp.f_mask, fp.s_mask)
    if len(free) > EXHAUSTIVE_ADVERSARY_LIMIT:
        raise InputError(
            f"{len(free)} tests have a faulty tester; the roundtrip tries every "
            f"assignment only up to {EXHAUSTIVE_ADVERSARY_LIMIT}")
    ends = g._ends
    steps = [(ends[pos], 1 << ends[pos], ends[pos ^ 1], 1 << ends[pos ^ 1]) for pos in free]
    fail_in, fail_out, tested = _fail_tables(g, _masks.mask_of(fail, len(ends)))
    expected = [(fp.f_mask, fp.s_mask)]
    if _search_candidates(g, fail_in, fail_out, tested, t, s) != expected:
        return False
    for step in range(1, 1 << len(steps)):
        a, abit, b, bbit = steps[(step & -step).bit_length() - 1]
        fail_out[a] ^= bbit
        fail_in[b] ^= abit
        tested = tested | bbit if fail_in[b] else tested & ~bbit
        if _search_candidates(g, fail_in, fail_out, tested, t, s) != expected:
            return False
    return True
