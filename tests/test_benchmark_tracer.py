"""The benchmark's per-layer tracer must still find every name it wraps.

``perfbench/tracing.py`` replaces gpmcdiag module attributes by name, so a
library change that drops or renames one of them breaks every traced
benchmark run.  This test installs the tracer in a fresh interpreter so such
a change fails here first.  It only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import gpmcdiag as gd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_the_library():
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import gpmcdiag as gd\n"
        "import tracing\n"
        "tracer = tracing.install(gd)\n"
        "tracer.enabled = True\n"
        "gd.edge_restricted_diagnosability(gd.build_hypercube(2), 0)\n"
        "print(tracer.snapshot()['search.level.calls'] > 0)\n"
    )
    src = str(Path(gd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script, str(PERFBENCH)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["True"]
