"""One untimed pass of every benchmark workload, with the benchmark's own checks.

``perfbench/workloads.py`` builds each workload's inputs, runs one pass of its
fixed work through the library and the in-process CLI, and checks every
output.  This test does the same once per workload, at seed 1, so a library
change that breaks a name, a signature or an answer the benchmark relies on
fails here before it fails a benchmark run.  It only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

import gpmcdiag as gd
import gpmcdiag.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["search-q4", "search-irregular", "decode", "inject-large"])
def test_workload_pass_checks_clean(wl, name, tmp_path):
    workload = wl.WORKLOADS[name](gd, 1, str(tmp_path))
    checks = wl.Checks()
    workload.check(workload.run_pass(gpmcdiag.cli), checks)
    if hasattr(workload, "cross_check"):
        workload.cross_check(checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
