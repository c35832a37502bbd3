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
    assert set(results) == {"random30-t3", "random40-t3", "hypercube13-t0", "hypercube14-t0",
                            "hypercube14-t1", "relabelled-q8-t0", "relabelled-q9-t0",
                            "roundtrip-q4", "roundtrip-q8", "diagnose-q12", "inject-q15",
                            "edge-list-q15", "cli-q4", "cli-inject-q12"}
    for name, row in results.items():
        assert row["ok"] and not row["problems"], (name, row)
        assert len(row["wall_s"]) == 1 and row["maxrss_mb"] > 0


def _frontier():
    sys.path.insert(0, str(FRONTIER.parent))
    try:
        import frontier
    finally:
        sys.path.remove(str(FRONTIER.parent))
    return frontier


def test_a_pin_mismatch_fails_the_run(monkeypatch, tmp_path):
    frontier = _frontier()
    instance = frontier.INSTANCES["roundtrip-q4"]
    monkeypatch.setitem(frontier.INSTANCES, "roundtrip-q4",
                        instance[:5] + ({**instance[5], "value": False},))
    out = tmp_path / "bench.json"
    assert frontier.main(["--smoke", "--passes", "1", "--only", "roundtrip-q4",
                          "--out", str(out)]) == 1
    row = json.loads(out.read_text())["runs"]["change"]["results"]["roundtrip-q4"]
    assert not row["ok"] and row["problems"] == ["value True != pin False"]


def test_runs_merged_under_one_label_keep_every_pass(monkeypatch, tmp_path):
    # alternating runs accumulate: one noisy run is one more pass in the
    # median, and a pin mismatch in any run leaves the row not ok
    frontier = _frontier()
    out = tmp_path / "bench.json"

    def argv(passes=1):
        return ["--smoke", "--passes", str(passes), "--only", "roundtrip-q4", "--out", str(out)]

    def row():
        return json.loads(out.read_text())["runs"]["change"]["results"]["roundtrip-q4"]

    assert frontier.main(argv()) == 0
    assert frontier.main(argv(2)) == 0
    merged = row()
    assert (merged["runs"], merged["passes"], merged["ok"]) == (2, 3, True)
    assert len(merged["wall_s"]) == 3 and len(merged["maxrss_mb_runs"]) == 2
    assert merged["wall_s_median"] == sorted(merged["wall_s"])[1]
    instance = frontier.INSTANCES["roundtrip-q4"]
    monkeypatch.setitem(frontier.INSTANCES, "roundtrip-q4",
                        instance[:5] + ({**instance[5], "value": False},))
    assert frontier.main(argv()) == 1
    monkeypatch.setitem(frontier.INSTANCES, "roundtrip-q4", instance)
    assert frontier.main(argv()) == 0
    merged = row()
    assert (merged["runs"], merged["passes"], merged["value"]) == (4, 5, True)
    assert not merged["ok"] and merged["problems"] == ["value True != pin False"]
