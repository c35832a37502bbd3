"""The values and counters the benchmark pins, checked in tier-1.

``perfbench/workloads.py`` checks every search answer and the number of
structures t_0(Q_4) examines on each benchmark pass.  This test reads the
same constants, without changing them, and recomputes them, so a library
change that moves a value or a counter fails here instead of in a benchmark
run.  It also pins the other Q_4 counts, which the benchmark does not check.
"""

import importlib.util
from pathlib import Path

import pytest

import gpmcdiag as gd

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# structures examined by the Q_4 queries besides t_0
Q4_STRUCTURES = {("h", 1): 49_044, ("h", 2): 1_728, ("h", 3): 2, ("h", 4): 1,
                 ("r", 1): 50, ("r", 2): 5_134, ("r", 3): 94_633}


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_constants(wl):
    assert wl.SearchQ4.EXPECTED == {("h", 0): 4, ("h", 1): 3, ("h", 2): 2, ("h", 3): 0,
                                    ("h", 4): 0, ("r", 1): 2, ("r", 2): 2, ("r", 3): 1}
    assert wl.SearchQ4.T0_STRUCTURES == 549_085
    assert wl.SearchIrregular.GRAPHS == {
        (8, 0.5, 1): (3, 2, 2),
        (8, 0.5, 2): (3, 2, 1),
        (10, 0.7, 4): (4, 3, 3),
        (11, 0.6, 6): (4, 3, 3),
        (12, 0.45, 8): (3, 2, 2),
    }


def test_q4_values_and_structures(wl, q4):
    structures = {**Q4_STRUCTURES, ("h", 0): wl.SearchQ4.T0_STRUCTURES}
    for q, value in wl.SearchQ4.EXPECTED.items():
        report = wl._query(gd, q4, *q)
        assert (report.value, report.stats["structures_examined"]) == (value, structures[q]), q


def test_irregular_values(wl):
    for spec, values in wl.SearchIrregular.GRAPHS.items():
        g = gd.Graph(spec[0], wl.random_graph_edges(*spec))
        got = tuple(wl._query(gd, g, *q).value for q in wl.SearchIrregular.QUERIES)
        assert got == values, spec
