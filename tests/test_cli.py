import argparse
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gpmcdiag as gd
from gpmcdiag import cli, faults
from gpmcdiag.cli import main
from gpmcdiag.faults import _syndrome_from_mask

import brute

SCHEMA_KEYS = {"command", "config", "result", "stats", "version"}


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text()), out.read_bytes()


class TestTopologyCommand:
    def test_hypercube_summary(self, tmp_path):
        code, rep, _ = run_json(tmp_path, ["topology", "--topology", "hypercube", "--n", "3"])
        assert code == 0
        assert set(rep) == SCHEMA_KEYS
        r = rep["result"]
        assert (r["vertices"], r["edges"], r["min_degree"], r["girth"]) == (8, 12, 3, 4)

    def test_cycle_summary(self, capsys):
        assert main(["topology", "--topology", "cycle", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "4" in out

    def test_tree_girth_rendered_infinite(self, capsys):
        assert main(["topology", "--topology", "path", "--n", "5"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_exports(self, tmp_path):
        dot = tmp_path / "g.dot"
        elist = tmp_path / "g.txt"
        code = main(["topology", "--topology", "hypercube", "--n", "2",
                     "--dot", str(dot), "--edge-list-out", str(elist),
                     "--format", "json", "--output", str(tmp_path / "r.json")])
        assert code == 0
        assert dot.read_text().startswith("graph G {")
        g = gd.parse_edge_list(elist.read_text())
        assert g.edges == gd.build_hypercube(2).edges

    def test_edge_list_input(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("3 2\n0 1\n1 2\n")
        code, rep, _ = run_json(tmp_path, ["topology", "--edge-list", str(src)])
        assert code == 0
        assert rep["result"]["vertices"] == 3

    def test_malformed_edge_list_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("3 2\n0 1\na b\n")
        assert main(["topology", "--edge-list", str(src)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--output", "--dot", "--edge-list-out"])
    def test_unwritable_path_is_input_error(self, tmp_path, capsys, flag):
        # exit 1 means a verification mismatch, so a failed write must exit 2
        target = tmp_path / "missing-dir" / "x.out"
        assert main(["topology", "--topology", "hypercube", "--n", "3", flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]
        assert not target.parent.exists()

    def test_unreadable_edge_list_names_path_once(self, tmp_path, capsys):
        src = tmp_path / "absent.txt"
        assert main(["topology", "--edge-list", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: cannot read edge list {src}: No such file or directory"]

    @pytest.mark.parametrize("source, stray", [
        (["--topology", "hypercube", "--n", "3"], ["--p", "0.5"]),
        (["--topology", "hypercube", "--n", "3"], ["--topology-seed", "4"]),
        (["--topology", "cycle", "--n", "5"], ["--p", "0.5", "--topology-seed", "4"]),
        (["--edge-list", "{src}"], ["--n", "3"]),
        (["--edge-list", "{src}"], ["--p", "0.5"]),
        (["--edge-list", "{src}"], ["--topology-seed", "4"]),
    ])
    def test_stray_topology_parameter_is_input_error(self, tmp_path, capsys, source, stray):
        # a parameter the topology does not take is refused, not dropped
        src = tmp_path / "g.txt"
        src.write_text("3 2\n0 1\n1 2\n")
        out = tmp_path / "out.json"
        source = [a.format(src=src) for a in source]
        assert main(["topology", *source, *stray, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert main(["topology", *source, "--output", str(out)]) == 0

    def test_missing_source_is_input_error(self, capsys):
        assert main(["topology"]) == 2
        assert main(["topology", "--topology", "hypercube", "--n", "99"]) == 2

    def test_csv_format(self, capsys):
        assert main(["topology", "--topology", "hypercube", "--n", "3",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,vertices,edges,min_degree,girth"
        assert lines[1] == "hypercube-3,8,12,3,4"


class TestInjectCommand:
    def test_syndrome_roundtrips(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "inject", "--topology", "hypercube", "--n", "3",
            "--faulty-vertices", "0", "--faulty-edges", "3-7",
            "--adversary", "all-fail"])
        assert code == 0
        g = gd.build_hypercube(3)
        pair = gd.fault_pair_from_record(g, rep["result"]["pair"])
        sig = gd.syndrome_from_triples(g, rep["result"]["syndrome"])
        assert gd.is_consistent(sig, pair)

    def test_random_faults_need_seed(self, capsys):
        assert main(["inject", "--topology", "hypercube", "--n", "3",
                     "--random-faults", "2,1"]) == 2
        for counts in ("-1,0", "1,-2"):
            assert main(["inject", "--topology", "hypercube", "--n", "3",
                         f"--random-faults={counts}", "--seed", "1"]) == 2
            assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("counts", ["1,a", "1", "1,2,3", ""])
    def test_random_faults_not_two_counts(self, capsys, counts):
        # the counts are named as the flag's NV,NS form, not as a vertex list
        assert main(["inject", "--topology", "hypercube", "--n", "3",
                     f"--random-faults={counts}", "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: --random-faults expects NV,NS, not {counts!r}\n"

    def test_random_faults_reproducible(self, tmp_path):
        args = ["inject", "--topology", "hypercube", "--n", "3",
                "--random-faults", "2,1", "--seed", "5"]
        _, rep1, raw1 = run_json(tmp_path, args, "a.json")
        _, rep2, raw2 = run_json(tmp_path, args, "b.json")
        assert raw1 == raw2
        assert len(rep1["result"]["pair"]["F"]) == 2

    @pytest.mark.parametrize("topology, counts, seed, pair", [
        (["--topology", "hypercube", "--n", "4"], "3,2", 7,
         {"F": [2, 6, 10], "S": [[0, 4], [13, 15]]}),
        (["--topology", "cycle", "--n", "9"], "2,3", 4,
         {"F": [3, 4], "S": [[0, 1], [5, 6], [6, 7]]}),
        (["--topology", "random", "--n", "10", "--p", "0.5", "--topology-seed", "3"], "2,4", 1,
         {"F": [1, 2], "S": [[0, 6], [3, 4], [4, 7], [6, 7]]}),
        (["--topology", "complete", "--n", "6"], "1,5", 11,
         {"F": [3], "S": [[1, 2], [1, 5], [2, 4], [2, 5], [4, 5]]}),
        (["--topology", "hypercube", "--n", "8"], "40,6", 7,
         {"F": [9, 11, 12, 14, 15, 17, 18, 22, 23, 24, 31, 38, 54, 56, 57, 61, 93, 101,
                107, 108, 111, 129, 137, 141, 144, 147, 149, 160, 161, 165, 166, 210, 211,
                223, 230, 232, 242, 244, 250, 252],
          "S": [[43, 171], [46, 174], [86, 214], [134, 150], [177, 241], [183, 247]]}),
    ])
    def test_random_faults_draw_is_pinned(self, tmp_path, topology, counts, seed, pair):
        # the vertices come from one rng.sample over the vertex ids and the
        # edges from one over the edge ids avoiding them, in ascending order;
        # any change to either list or its order changes the draw
        code, rep, _ = run_json(tmp_path, ["inject", *topology, "--random-faults", counts,
                                           "--seed", str(seed)])
        assert code == 0
        assert rep["result"]["pair"] == pair

    def test_inconsistent_faults_rejected(self, capsys):
        assert main(["inject", "--topology", "hypercube", "--n", "3",
                     "--faulty-vertices", "0", "--faulty-edges", "0-1"]) == 2
        assert "incident" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_recovers_injected_pair(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "diagnose", "--topology", "hypercube", "--n", "3",
            "--faulty-vertices", "0", "--faulty-edges", "3-7",
            "--t", "1", "--s", "1", "--adversary", "all-fail"])
        assert code == 0
        r = rep["result"]
        assert r["status"] == "unique" and r["recovered"] is True
        assert r["true_pair"] == {"F": [0], "S": [[3, 7]]}

    def test_fault_free_trivial(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "diagnose", "--topology", "hypercube", "--n", "2",
            "--t", "0", "--s", "0"])
        assert code == 0
        assert rep["result"]["status"] == "unique"
        assert rep["result"]["candidates"] == [{"F": [], "S": []}]

    def test_bounds_must_cover_injection(self, capsys):
        assert main(["diagnose", "--topology", "hypercube", "--n", "3",
                     "--faulty-vertices", "0,3", "--t", "1", "--s", "0"]) == 2

    @pytest.mark.parametrize("name, bounds", [("t", ["-1", "0"]), ("s", ["0", "-1"])])
    def test_negative_bound_named_before_the_pair_is_compared(self, capsys, name, bounds):
        # the fault-free pair exceeds a negative bound too, but the bound's
        # own error is the one reported
        assert main(["diagnose", "--topology", "hypercube", "--n", "2",
                     "--t", bounds[0], "--s", bounds[1]]) == 2
        assert capsys.readouterr().err == f"error: bound {name} must be non-negative, not -1\n"

    def test_random_adversary_needs_seed(self, capsys):
        assert main(["diagnose", "--topology", "hypercube", "--n", "3",
                     "--faulty-vertices", "0", "--t", "1", "--s", "0",
                     "--adversary", "random"]) == 2

    def test_loose_bounds_make_blocked_pattern_ambiguous(self, tmp_path):
        # vertex 0 plus two neighbors faulty, all-fail adversary: at bounds
        # (3,1) the variant blaming edge 0-1 instead of vertex 0 also fits
        code, rep, _ = run_json(tmp_path, [
            "diagnose", "--topology", "hypercube", "--n", "3",
            "--faulty-vertices", "0,2,4", "--t", "3", "--s", "1",
            "--adversary", "all-fail"])
        assert code == 0
        assert rep["result"]["status"] == "ambiguous"
        assert rep["result"]["recovered"] is False
        assert rep["result"]["total_candidates"] == 2


class TestDiagnosabilityCommand:
    def test_edge_restricted_q3(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "diagnosability", "--topology", "hypercube", "--n", "3",
            "--edge-restricted", "1"])
        assert code == 0
        r = rep["result"]
        assert r["value"] == 2
        assert r["analytic_bounds"] == {"t_h_bound": 2, "s1_bound": 1}
        assert r["witness"] is not None
        g = gd.build_hypercube(3)
        p1 = gd.fault_pair_from_record(g, r["witness"]["first"])
        p2 = gd.fault_pair_from_record(g, r["witness"]["second"])
        assert not gd.distinguishable_oracle(g, p1, p2)

    def test_classical_level_zero(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "diagnosability", "--topology", "hypercube", "--n", "3",
            "--edge-restricted", "0"])
        assert rep["result"]["value"] == 3

    def test_vertex_restricted_q4(self, tmp_path):
        code, rep, _ = run_json(tmp_path, [
            "diagnosability", "--topology", "hypercube", "--n", "4",
            "--vertex-restricted", "1"])
        assert code == 0
        assert rep["result"]["value"] == 2
        assert rep["result"]["analytic_bounds"] == {"s1_bound": 2}

    def test_structured_output_has_no_timing(self, tmp_path):
        _, rep, raw = run_json(tmp_path, [
            "diagnosability", "--topology", "hypercube", "--n", "2",
            "--edge-restricted", "1"])
        assert b"elapsed" not in raw
        assert "jobs" not in rep["config"]

    def test_table_output_has_timing(self, capsys):
        assert main(["diagnosability", "--topology", "hypercube", "--n", "2",
                     "--edge-restricted", "1"]) == 0
        assert "elapsed" in capsys.readouterr().out

    def test_jobs_do_not_change_structured_bytes(self, tmp_path):
        base = ["diagnosability", "--topology", "random", "--n", "7",
                "--p", "0.5", "--topology-seed", "8", "--edge-restricted", "1"]
        _, _, raw1 = run_json(tmp_path, base + ["--jobs", "1"], "j1.json")
        _, _, raw4 = run_json(tmp_path, base + ["--jobs", "4"], "j4.json")
        assert raw1 == raw4


class TestVerifyTheoremsCommand:
    def test_rows_report_computed_truth(self, tmp_path):
        code, rep, _ = run_json(tmp_path, ["verify-theorems", "--max-n", "2"])
        rows = {(r["kind"], r["level"]): r for r in rep["result"]["rows"]}
        # the 2-cube: computed classical value is 1 against the claimed 2,
        # and the edge-budget-1 value is 0 against the claimed 1
        assert rows[("edge-restricted", 0)]["computed"] == 1
        assert rows[("edge-restricted", 0)]["match"] is False
        assert rows[("edge-restricted", 1)]["computed"] == 0
        assert rows[("edge-restricted", 1)]["match"] is False
        assert rows[("edge-restricted", 2)]["match"] is True
        assert rows[("vertex-restricted-edge", 1)]["computed"] == 0
        assert rows[("vertex-restricted-edge", 1)]["match"] is True
        assert rep["result"]["all_match"] is False
        assert code == 1  # mismatch exit status

    def test_q3_rows(self, tmp_path):
        code, rep, _ = run_json(tmp_path, ["verify-theorems", "--max-n", "3"])
        rows = {(r["n"], r["kind"], r["level"]): r["computed"]
                for r in rep["result"]["rows"]}
        assert rows[(3, "edge-restricted", 0)] == 3
        assert rows[(3, "edge-restricted", 1)] == 2
        assert rows[(3, "edge-restricted", 2)] == 0
        assert rows[(3, "edge-restricted", 3)] == 0
        assert rows[(3, "vertex-restricted-edge", 1)] == 1

    def test_max_n_validation(self, capsys):
        assert main(["verify-theorems", "--max-n", "9"]) == 2

    def test_table_format_shows_mismatches(self, capsys):
        code = main(["verify-theorems", "--max-n", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "all match: NO" in out

    def test_csv_rows(self, capsys):
        main(["verify-theorems", "--max-n", "2", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,kind,level,computed,expected,match"
        assert len(lines) == 1 + 4  # t_0, t_1, t_2, s_1

    def test_audit_sweep_matches_pruned_values(self, tmp_path):
        # self-consistency: the all-seed sweep and the single-seed shortcut
        # must compute identical values up to the 4-cube
        _, plain, _ = run_json(tmp_path, ["verify-theorems", "--max-n", "4"], "p.json")
        _, audit, _ = run_json(tmp_path, ["verify-theorems", "--max-n", "4",
                                          "--audit-full-enumeration"], "a.json")
        strip = lambda rows: [(r["n"], r["kind"], r["level"], r["computed"])
                              for r in rows]
        assert strip(plain["result"]["rows"]) == strip(audit["result"]["rows"])


class TestDeterminism:
    def test_verify_theorems_byte_identical_across_runs(self, tmp_path):
        args = ["verify-theorems", "--max-n", "3"]
        raws = [run_json(tmp_path, args, f"r{i}.json")[2] for i in range(3)]
        assert raws[0] == raws[1] == raws[2]

    def test_verify_theorems_byte_identical_across_jobs(self, tmp_path):
        args = ["verify-theorems", "--max-n", "3"]
        _, _, raw1 = run_json(tmp_path, args + ["--jobs", "1"], "j1.json")
        _, _, raw4 = run_json(tmp_path, args + ["--jobs", "4"], "j4.json")
        assert raw1 == raw4

    def test_csv_deterministic(self, tmp_path):
        args = ["verify-theorems", "--max-n", "2", "--format", "csv"]
        outs = []
        for i in range(2):
            out = tmp_path / f"c{i}.csv"
            assert main(args + ["--output", str(out)]) == 1
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CONFIGS = {
    "diagnosability-q4-h1.json": ["diagnosability", "--topology", "hypercube", "--n", "4",
                                  "--edge-restricted", "1", "--format", "json"],
    "diagnosability-q4-r1.json": ["diagnosability", "--topology", "hypercube", "--n", "4",
                                  "--vertex-restricted", "1", "--format", "json"],
    "diagnose-q6-random.json": ["diagnose", "--topology", "hypercube", "--n", "6",
                                "--random-faults", "3,1", "--t", "3", "--s", "1",
                                "--adversary", "random", "--seed", "7", "--format", "json"],
    "inject-q3.csv": ["inject", "--topology", "hypercube", "--n", "3",
                      "--faulty-vertices", "0,5", "--faulty-edges", "2-6",
                      "--adversary", "random", "--seed", "3", "--format", "csv"],
    "inject-q3.json": ["inject", "--topology", "hypercube", "--n", "3",
                       "--faulty-vertices", "0,5", "--faulty-edges", "2-6",
                       "--adversary", "random", "--seed", "3", "--format", "json"],
    "inject-q3.txt": ["inject", "--topology", "hypercube", "--n", "3",
                      "--faulty-vertices", "0,5", "--faulty-edges", "2-6",
                      "--adversary", "random", "--seed", "3", "--format", "table"],
    "topology-q4.json": ["topology", "--topology", "hypercube", "--n", "4", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_output_matches_golden_bytes(tmp_path, name):
    # the structured output is a contract: a fixed config keeps its exact bytes
    out = tmp_path / name
    assert main(GOLDEN_CONFIGS[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.sampled_from(["", "é", "日本", "😀", '"\\', "\n\t\x00\x7f", "\u2028"]))
# json.dumps writes non-str keys as "1", "true", "null" or "1.5"; the keys of
# one dict must be mutually orderable for sort_keys
_NON_STR_KEYS = (st.none(), st.integers() | st.booleans() | st.floats())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4).map(OrderedDict),
                            *(st.dictionaries(keys, inner, max_size=4)
                              for keys in _NON_STR_KEYS)),
    max_leaves=24)


@given(st.sampled_from(sorted(cli.COMMANDS)), _JSON_VALUES, _JSON_VALUES, _JSON_VALUES,
       st.dictionaries(st.text(), _JSON_VALUES, max_size=3), st.data())
def test_render_json_matches_stdlib_bytes(command, config, stats, syndrome, rest, data):
    # every report renders as the stdlib dumps it; a result["syndrome"] that
    # is not a Syndrome, in an inject report or any other, is a plain value
    result = data.draw(st.sampled_from([{**rest, "syndrome": syndrome}, rest])
                       if command == "inject" else _JSON_VALUES)
    report = cli._report(command, config, result, stats)
    assert cli.render(report, "json", {}) == json.dumps(report, indent=2, sort_keys=True) + "\n"


FORMATS = ("json", "csv", "table")

#: the ``inject-large`` command line of the benchmark under ``perfbench/``,
#: at its default seed 1
INJECT_Q12_ARGV = ["inject", "--topology", "hypercube", "--n", "12",
                   "--faulty-vertices", "516,965,2089",
                   "--faulty-edges", "391-2439,964-980,1859-1867,2240-3264,2354-2418,"
                                     "2438-2470,3386-3387",
                   "--adversary", "random", "--seed", "3098990846"]


def _inject_report(argv):
    report, extras, code = cli.cmd_inject(cli.build_parser().parse_args(argv))
    assert code == 0
    return report, extras


@given(st.integers(1, 12), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 99),
       st.data())
def test_inject_renders_match_the_row_by_row_reference(n, p, seed, data):
    # random graphs, edgeless ones included, with an arbitrary syndrome and
    # a random fault pair: every format keeps the bytes of the per-row render
    nv = data.draw(st.integers(0, n))
    report, extras = _inject_report([
        "inject", "--topology", "random", "--n", str(n), "--p", str(p),
        "--topology-seed", str(seed), "--random-faults", f"{nv},0", "--seed", str(seed)])
    g = report["result"]["syndrome"].graph
    mask = data.draw(st.integers(0, (1 << (2 * len(g.edges))) - 1))
    sig = report["result"]["syndrome"] = _syndrome_from_mask(g, mask)
    assert sig.to_triples() == [(tester, testee, (mask >> i) & 1)
                                for i, (tester, testee, _) in enumerate(brute.directed_tests(g))]
    for fmt in FORMATS:
        assert cli.render(report, fmt, extras) == brute.reference_inject_render(report, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", [["inject", "--topology", "path", "--n", "1"], INJECT_Q12_ARGV],
                         ids=["path-1", "benchmark-q12"])
def test_inject_output_matches_the_row_by_row_reference(capsys, argv, fmt):
    report, extras = _inject_report(argv)
    expected = brute.reference_inject_render(report, fmt)
    assert main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
    if argv[2] == "path":   # no edges, so no tests: an empty list and a bare header
        assert {"json": '"syndrome": []' in expected,
                "csv": expected == "tester,testee,outcome\n",
                "table": expected == "pair      F={} S={}\nsyndrome\n"}[fmt]


def test_inject_json_builds_no_test_objects(monkeypatch, capsys):
    # the syndrome rows come from the edge list and the fail mask alone, in
    # one _syndrome_pieces call per render, and never as to_triples rows
    def refuse_rows(sig):
        raise AssertionError("inject built the to_triples rows")

    pieces = cli._syndrome_pieces
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pieces(*args)

    argv = ["inject", "--topology", "hypercube", "--n", "10",
            "--faulty-vertices", "3,700", "--faulty-edges", "0-1",
            "--adversary", "random", "--seed", "2", "--format"]
    monkeypatch.setattr(faults.Syndrome, "to_triples", refuse_rows)
    monkeypatch.setattr(cli, "_syndrome_pieces", counted)
    assert main(argv + ["json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert len(report["result"]["syndrome"]) == 2 * 5120
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    for fmt, header_lines in (("csv", 1), ("table", 2)):
        assert main(argv + [fmt]) == 0
        assert capsys.readouterr().out.count("\n") == header_lines + 2 * 5120
    assert calls == 3


def test_inject_edge_list_path_holding_the_key(tmp_path, capsys):
    # the path, a string in the config, holds the text the JSON splice looks
    # for; JSON escapes its quotes, so only the result's key matches
    path = tmp_path / 'x"syndrome": []y.txt'
    path.write_text("3 2\n0 1\n1 2\n")
    argv = ["inject", "--edge-list", str(path), "--faulty-vertices", "1"]
    report, _ = _inject_report(argv)
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == brute.reference_inject_render(report, "json")
    parsed = json.loads(out)
    assert parsed["config"]["topology"]["edge_list"] == str(path)
    assert len(parsed["result"]["syndrome"]) == 4


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_repeated_main_calls_share_one_parser(monkeypatch, capsys):
    # scripts and test suites call main() many times in one process: after
    # the first call no parser is built again, and usage errors, help, input
    # errors and reports come out exactly as from a fresh process
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    sequence = [
        ["diagnosability", "--topology", "hypercube", "--n", "4", "--h", "1", "--r", "1"],
        ["diagnose", "--topology", "hypercube", "--n", "3", "--s", "0"],
        ["--help"],
        ["diagnosability", "--help"],
        ["topology", "--topology", "hypercube", "--n", "99"],
    ]
    expected_codes = [("exit", 2), ("exit", 2), ("exit", 0), ("exit", 0), 2]
    first = [outcome(argv) for argv in sequence]

    built = 0
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    again = [outcome(argv) for argv in sequence]
    assert again == first
    assert [code for code, _, _ in again] == expected_codes
    assert "not allowed with argument" in again[0][2]
    assert "the following arguments are required: --t" in again[1][2]
    assert again[2][1].startswith("usage: gpmcdiag") and again[3][1].startswith(
        "usage: gpmcdiag diagnosability")
    assert again[4][2].startswith("error: ")
    for name in sorted(GOLDEN_CONFIGS):
        code, out, err = outcome(GOLDEN_CONFIGS[name])
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / name).read_bytes(), name
    assert built == 0


@pytest.mark.parametrize("argv, expected", [
    (["topology", "--topology", "hypercube", "--n", "2", "--format", "json"], 0),
    (["topology", "--topology", "hypercube", "--n", "99"], 2),
])
def test_module_entry_point_matches_main(capsys, argv, expected):
    # python -m gpmcdiag runs a source checkout's CLI: the same stdout,
    # stderr and exit code as cli.main in this process
    code = main(argv)
    captured = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(gd.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "gpmcdiag", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
    assert code == expected
