"""One error contract for the whole public API, held by a fuzz test.

Every callable in ``gpmcdiag.__all__``, called as in a valid call but with
junk in one argument, either returns a value or raises ``InputError``.
``GraphMismatchError`` and ``ConsistencyError`` are subclasses of it, so
a bare ``TypeError``, ``AttributeError``, ``ValueError`` or ``OverflowError``
fails the test.
Junk means wrong types, bools, floats, negatives, strings, ``None``, nesting,
and graphs, fault pairs and syndromes bound to another graph.  Sizes stay
small: junk ints lie in -4..9, so no call builds more than Q_9 (512
vertices) or searches a graph larger than Q_3, or are +-10^30, which no
list or buffer can be sized by, so a size taken on trust fails at once
rather than allocating.  The exception classes and the two enums are exempt.
"""

import enum

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gpmcdiag as gd
from gpmcdiag.errors import InputError

Q2 = gd.build_hypercube(2)
Q3 = gd.build_hypercube(3)
PAIR = gd.make_fault_pair(Q3, {0}, {(2, 6)})
OTHER_PAIR = gd.make_fault_pair(Q3, {1}, ())
SIG = gd.generate_syndrome(PAIR, "all-fail")
Q2_ROWS = gd.generate_syndrome(gd.make_fault_pair(Q2, {0}, ()), "all-pass").to_triples()

#: values bound to a graph other than Q3: a second Q_3, and Q_2
ELSEWHERE = gd.build_hypercube(3)
FOREIGN = [ELSEWHERE, Q2, gd.make_fault_pair(ELSEWHERE, {0}, {(2, 6)}),
           gd.generate_syndrome(gd.make_fault_pair(ELSEWHERE, {0}, ()), "all-fail")]

SEARCH = {"method": "auto", "audit": False, "jobs": 1}

#: name -> (positional arguments, keyword arguments) of one valid call
VALID_CALLS = {
    "AnalyticBounds": ((3, 1), {}),
    "DiagnosabilityReport": (("q3", "edge-restricted", 0, 3, None, 0.0),
                             {"stats": {}, "outside_analyzed_range": False}),
    "DiagnosisResult": ((gd.DiagnosisStatus.UNIQUE, (PAIR,), 1), {}),
    "FaultPair": ((Q3, frozenset({0}), frozenset({(2, 6)})), {}),
    "Graph": ((3, [(0, 1), (2, 1)]), {"labels": "abc", "name": "p3"}),
    "Syndrome": ((Q2, [0] * 8), {}),
    "TsResult": ((True, None, {}), {}),
    "Verdict": ((True, None), {}),
    "Witness": ((1, (0, 1), 1), {}),
    "adversarial_roundtrip": ((Q3, PAIR, 2, 1), {}),
    "analytic_upper_bounds": ((Q3, 1), {}),
    "build_complete": ((4,), {}),
    "build_cycle": ((5,), {}),
    "build_hypercube": ((3,), {}),
    "build_named_topology": (("random",), {"n": 5, "p": 0.5, "seed": 1}),
    "build_path": ((3,), {}),
    "build_random": ((6, 0.5, 2), {}),
    "construct_edge_witness": ((Q3, (1, 0)), {}),
    "construct_indistinguishable_witness": ((Q3, 0, 1), {}),
    "degree": ((Q3, 0), {}),
    "diagnose": ((Q3, SIG, 2, 1), {"candidate_cap": 4}),
    "distinguishable": ((Q3, PAIR, OTHER_PAIR), {}),
    "distinguishable_oracle": ((Q3, PAIR, OTHER_PAIR), {}),
    "edge": ((2, 1), {}),
    "edge_restricted_diagnosability": ((Q2, 1), SEARCH),
    "enumerate_consistent_pairs": ((Q3, SIG, 2, 1), {}),
    "fault_pair_from_record": ((Q3, {"F": [0], "S": [[2, 6]]}), {}),
    "format_edge_list": ((Q3,), {}),
    "generate_syndrome": ((PAIR, "explicit"),
                          {"seed": 1, "assignments": {(0, 1): 1, (0, 2): 0, (0, 4): 1}}),
    "girth": ((Q3,), {}),
    "incident_edges": ((Q3, 0), {}),
    "is_consistent": ((SIG, PAIR), {}),
    "is_ts_diagnosable": ((Q3, 2, 1), SEARCH),
    "make_fault_pair": ((Q3, [0], [(6, 2)]), {}),
    "min_degree": ((Q3,), {}),
    "neighbors": ((Q3, 0), {}),
    "parse_edge_list": (("3 2\n0 1\n1 2\n",), {"name": "p3"}),
    "pmc_diagnosability": ((Q2,), SEARCH),
    "syndrome_from_triples": ((Q2, Q2_ROWS), {}),
    "to_dot": ((Q3,), {}),
    "vertex_restricted_edge_diagnosability": ((Q2, 1), SEARCH),
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 9), st.sampled_from([10 ** 30, -10 ** 30]),
    st.floats(), st.text(max_size=3), st.sampled_from(FOREIGN))

JUNK = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.lists(inner, max_size=3).map(tuple),
    st.frozensets(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.sampled_from(["F", "S", "x"]), inner, max_size=2),
), max_leaves=6)


def _exempt(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum))


def test_every_public_callable_has_a_valid_call():
    public = {name for name in gd.__all__ if not _exempt(getattr(gd, name))}
    assert set(VALID_CALLS) == public
    for name, (args, kwargs) in VALID_CALLS.items():
        getattr(gd, name)(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_junk_in_one_argument_is_refused_with_input_error(name, data):
    args, kwargs = VALID_CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    slot = data.draw(st.sampled_from(list(range(len(args))) + sorted(kwargs)), label="slot")
    junk = data.draw(JUNK, label="junk")
    if isinstance(slot, int):
        args[slot] = junk
    else:
        kwargs[slot] = junk
    try:
        getattr(gd, name)(*args, **kwargs)
    except InputError:
        pass


#: the search entry points: name -> positional arguments of one valid call
SEARCH_CALLS = {
    "edge_restricted_diagnosability": (Q2, 1),
    "is_ts_diagnosable": (Q2, 1, 0),
    "pmc_diagnosability": (Q2,),
    "vertex_restricted_edge_diagnosability": (Q2, 1),
}


def _answer(result):
    """What a search entry point answers, without its statistics."""
    if isinstance(result, gd.TsResult):
        return result.diagnosable, result.witness
    if isinstance(result, gd.DiagnosabilityReport):
        return result.value, result.witness
    return result


@pytest.mark.parametrize("name", sorted(SEARCH_CALLS))
@pytest.mark.parametrize("keyword, junk", [("audit", junk) for junk in ("no", 1, None, [None])]
                         + [("jobs", junk) for junk in (0, -1, True, 1.5, None, [None])])
def test_search_options_junk_is_refused(name, keyword, junk):
    # audit is exactly a bool, not read by truthiness; jobs is an int of at
    # least 1, checked although the search ignores it
    with pytest.raises(InputError, match=keyword):
        getattr(gd, name)(*SEARCH_CALLS[name], **{keyword: junk})


@pytest.mark.parametrize("name", sorted(SEARCH_CALLS))
def test_search_options_in_range_are_accepted(name):
    call = getattr(gd, name)
    expected = _answer(call(*SEARCH_CALLS[name]))
    for audit in (True, False):
        for jobs in (1, 2, 4):
            assert _answer(call(*SEARCH_CALLS[name], audit=audit, jobs=jobs)) == expected
