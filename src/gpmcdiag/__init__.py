"""Hybrid node/link fault diagnosis of interconnection networks.

Models multiprocessor systems as simple undirected graphs in which adjacent
processors test each other across their shared link.  Both processors and
links may be faulty, with the restriction that a faulty link never touches a
faulty processor.  The library validates fault circumstances, decides whether
two of them are distinguishable by any syndrome, decodes syndromes back to
fault sets, and computes restricted diagnosability parameters by exhaustive
search.
"""

__version__ = "0.1.0"

from .diagnosability import (
    AnalyticBounds,
    DiagnosabilityReport,
    TsResult,
    analytic_upper_bounds,
    construct_edge_witness,
    construct_indistinguishable_witness,
    edge_restricted_diagnosability,
    is_ts_diagnosable,
    pmc_diagnosability,
    vertex_restricted_edge_diagnosability,
)
from .distinguish import (
    Verdict,
    Witness,
    distinguishable,
    distinguishable_oracle,
)
from .engine import (
    DiagnosisResult,
    DiagnosisStatus,
    adversarial_roundtrip,
    diagnose,
    enumerate_consistent_pairs,
)
from .errors import ConsistencyError, GraphMismatchError, InputError
from .faults import (
    FaultPair,
    Syndrome,
    TestOutcome,
    fault_pair_from_record,
    generate_syndrome,
    is_consistent,
    make_fault_pair,
    syndrome_from_triples,
)
from .graph import (
    Graph,
    build_complete,
    build_cycle,
    build_hypercube,
    build_named_topology,
    build_path,
    build_random,
    degree,
    edge,
    format_edge_list,
    girth,
    incident_edges,
    min_degree,
    neighbors,
    parse_edge_list,
    to_dot,
)

__all__ = [
    "AnalyticBounds",
    "ConsistencyError",
    "DiagnosabilityReport",
    "DiagnosisResult",
    "DiagnosisStatus",
    "FaultPair",
    "Graph",
    "GraphMismatchError",
    "InputError",
    "Syndrome",
    "TestOutcome",
    "TsResult",
    "Verdict",
    "Witness",
    "adversarial_roundtrip",
    "analytic_upper_bounds",
    "build_complete",
    "build_cycle",
    "build_hypercube",
    "build_named_topology",
    "build_path",
    "build_random",
    "construct_edge_witness",
    "construct_indistinguishable_witness",
    "degree",
    "diagnose",
    "distinguishable",
    "distinguishable_oracle",
    "edge",
    "edge_restricted_diagnosability",
    "enumerate_consistent_pairs",
    "fault_pair_from_record",
    "format_edge_list",
    "generate_syndrome",
    "girth",
    "incident_edges",
    "is_consistent",
    "is_ts_diagnosable",
    "make_fault_pair",
    "min_degree",
    "neighbors",
    "parse_edge_list",
    "pmc_diagnosability",
    "syndrome_from_triples",
    "to_dot",
    "vertex_restricted_edge_diagnosability",
]
