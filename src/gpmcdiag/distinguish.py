"""Deciding whether two fault pairs can be told apart by some syndrome.

Two routes are kept deliberately separate so each can check the other, and
each is one predicate on two fault patterns in ``_masks``, which the search's
witness check calls the same way:

- ``distinguishable`` evaluates the two structural conditions (a fault-free
  vertex that can test a one-sided faulty vertex over a non-faulty edge, or a
  one-sided faulty edge with both endpoints fault-free on the other side),
  and names the smallest hit of ``_masks.condition_hits``, the evaluator
  behind ``_masks.pairs_indistinguishable``.
- ``distinguishable_oracle`` compares forced outcomes test by test through
  ``_masks.share_syndrome``: the syndrome sets of two patterns intersect
  exactly when no test is forced to opposite values, because unconstrained
  tests can always be set to agree.

The literal definition, materializing both syndrome sets and intersecting
them, is the test suite's reference (``sigma_set`` in ``tests/brute.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _masks
from .errors import GraphMismatchError, InputError
from .faults import FaultPair
from .graph import Graph, _check_instance


@dataclass(frozen=True)
class Witness:
    """Which condition fired, at which edge, and which pair plays the first role."""

    condition: int              # 1 = testable faulty vertex, 2 = testable faulty edge
    edge: tuple[int, int]
    direction: int              # 1 or 2: which input pair holds the fault being exposed


@dataclass(frozen=True)
class Verdict:
    distinguishable: bool
    witness: Witness | None = None


def _check_pair_args(g: Graph, p1: FaultPair, p2: FaultPair):
    for p in (p1, p2):
        _check_instance(p, FaultPair)
    if p1.graph is not g or p2.graph is not g:
        raise GraphMismatchError("fault pairs must be bound to the given graph")
    if p1.faulty_vertices == p2.faulty_vertices and p1.faulty_edges == p2.faulty_edges:
        raise InputError("distinguishability is defined for two distinct fault pairs")


def distinguishable(g: Graph, p1: FaultPair, p2: FaultPair) -> Verdict:
    """Structural-condition route; returns a checkable witness when positive.

    The witness is the smallest hit: the qualifying edge of smallest index
    (canonical edge order), then condition 1 before condition 2, then
    direction 1 before direction 2.
    """
    _check_pair_args(g, p1, p2)
    hit = min(_masks.condition_hits(g, p1.f_mask, p1.s_mask, p2.f_mask, p2.s_mask),
              default=None)
    if hit is None:
        return Verdict(False)
    k, condition, direction = hit
    return Verdict(True, Witness(condition, (g._ends[2 * k], g._ends[2 * k + 1]), direction))


def distinguishable_oracle(g: Graph, p1: FaultPair, p2: FaultPair) -> bool:
    """Forced-outcome route: the syndrome sets are disjoint iff some test is
    forced to pass under one pair and to fail under the other."""
    _check_pair_args(g, p1, p2)
    return not _masks.share_syndrome(g, p1.f_mask, p1.s_mask, p2.f_mask, p2.s_mask)

