"""One pass of every frontier instance at its small size, with its pins.

``bench/frontier.py`` runs each instance in a fresh child process and checks
the value, the witness digest and the count of structures against pins.  At
``--smoke`` sizes the whole run takes about two seconds, so a library change
that breaks an instance, or changes an answer it pins, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

FRONTIER = Path(__file__).resolve().parent.parent / "bench" / "frontier.py"


def test_every_instance_matches_its_pins(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(FRONTIER), "--smoke", "--passes", "1",
                           "--label", "smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(out.read_text())["runs"]["smoke"]["results"]
    assert set(results) == {"random16-t1", "random30-t3", "hypercube13-t0",
                            "relabelled-q8-t0", "roundtrip-q4", "inject-q15"}
    for name, row in results.items():
        assert row["ok"] and not row["problems"], (name, row)
        assert len(row["wall_s"]) == 1 and row["maxrss_mb"] > 0


def test_a_pin_mismatch_fails_the_run(monkeypatch, tmp_path):
    sys.path.insert(0, str(FRONTIER.parent))
    try:
        import frontier
    finally:
        sys.path.remove(str(FRONTIER.parent))
    instance = frontier.INSTANCES["roundtrip-q4"]
    monkeypatch.setitem(frontier.INSTANCES, "roundtrip-q4",
                        instance[:5] + ({**instance[5], "value": False},))
    out = tmp_path / "bench.json"
    assert frontier.main(["--smoke", "--passes", "1", "--only", "roundtrip-q4",
                          "--out", str(out)]) == 1
    row = json.loads(out.read_text())["runs"]["change"]["results"]["roundtrip-q4"]
    assert not row["ok"] and row["problems"] == ["value True != pin False"]
