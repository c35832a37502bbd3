import ast
from pathlib import Path

import gpmcdiag as gd


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    # in optimized runs; the library raises its errors explicitly instead
    found = []
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_resolve_once():
    # every exported name exists and is listed once; the per-test object
    # model and the unused graph helpers stay out of the public API
    names = gd.__all__
    assert [name for name in names if not hasattr(gd, name)] == []
    assert len(set(names)) == len(names)
    removed = {"Test", "enumerate_tests", "ForcedOutcome", "forced_outcome",
               "common_neighbors", "hypercube_neighbor"}
    assert removed.isdisjoint(names)
    assert not any(hasattr(gd, name) for name in removed)


#: the (caller, public callee) pairs in library code, each kept on purpose;
#: any other call of a public function would re-check arguments the caller
#: has checked or built already, and a pair that disappears leaves the list
ALLOWED_PUBLIC_CALLS = {
    # perfbench/tracing.py times each level as the span search.level
    ("_ascend", "is_ts_diagnosable"),
    ("pmc_diagnosability", "edge_restricted_diagnosability"),
    ("fault_pair_from_record", "make_fault_pair"),
    ("make_fault_pair", "edge"),
    # Graph(...) orients non-tuple input, and the one scan names a refused edge
    ("__init__", "edge"),
    ("_first_bad_edge", "edge"),
    ("_check_edge_id", "edge"),
    ("analytic_upper_bounds", "min_degree"),
}


def _calls(tree, names):
    """(enclosing function, callee) of every call of a name in ``names``,
    called by its name or as an attribute."""
    found = []

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node.name
        elif caller is not None and isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in names:
                found.append((caller, callee))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    visit(tree, None)
    return found


def test_library_calls_public_functions_only_where_allowed():
    # each public function checks its arguments once; library code passes
    # values it has checked or built itself to private helpers instead.
    # Classes and exceptions are exempt, and so is the CLI, which is a caller
    public = {name for name in gd.__all__ if not isinstance(getattr(gd, name), type)}
    found = set()
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        if path.name != "cli.py":
            found.update(_calls(ast.parse(path.read_text(), filename=str(path)), public))
    assert found == ALLOWED_PUBLIC_CALLS


def test_only_the_builders_hand_columns_to_the_core():
    # the graph core takes its edge columns unchecked: outside edges reach it
    # through the constructor's one check, and the columns of graph.py's
    # builders are proven by the builder-equality tests in test_graph.py
    builders = ("build_hypercube", "build_path", "build_cycle", "build_complete",
                "build_random")
    found = set()
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, *call) for call in _calls(tree, {"_from_columns", "_fill"}))
    assert found == {("graph.py", "__init__", "_fill"), ("graph.py", "_from_columns", "_fill"),
                     *(("graph.py", name, "_from_columns") for name in builders)}


def test_one_scan_names_a_refused_edge_list():
    # which edge of a refused list is named, and why, is written once: only
    # Graph.__init__ and the edge-list parser ask _first_bad_edge, and the
    # parser has no loop of its own over the edges once the graph refuses them
    scan = {"_first_bad_edge"}
    found = []
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, caller) for caller, _ in _calls(tree, scan)]
    graph = ast.parse(Path(gd.graph.__file__).read_text())
    graph_class = next(node for node in graph.body
                       if isinstance(node, ast.ClassDef) and node.name == "Graph")
    in_class = [caller for caller, _ in _calls(graph_class, scan)]
    assert set(in_class) == {"__init__"}
    assert sorted(found) == sorted([("graph.py", "__init__")] * len(in_class)
                                   + [("graph.py", "parse_edge_list")])
    parser = next(node for node in graph.body
                  if isinstance(node, ast.FunctionDef) and node.name == "parse_edge_list")
    handlers = [node for node in ast.walk(parser) if isinstance(node, ast.ExceptHandler)]
    assert not [node for handler in handlers for node in ast.walk(handler)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_one_bound_layer_decides_where_the_search_starts():
    # whether a seed is walked at a level, and from which |X1|, is answered
    # once: only _local_search asks _first_size, only _first_size reads the
    # closure flows, and both readers build the one flow state, so no walk
    # works out its own start again and no rule keeps its own flow
    names = {"_first_size", "_closure_value", "_pair_closure", "_Closure"}
    found = []
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, *call) for call in _calls(tree, names)]
    assert sorted(found) == [("diagnosability.py", "_closure_value", "_Closure"),
                             ("diagnosability.py", "_first_size", "_closure_value"),
                             ("diagnosability.py", "_first_size", "_pair_closure"),
                             ("diagnosability.py", "_local_search", "_first_size"),
                             ("diagnosability.py", "_pair_closure", "_Closure")]


def test_one_witness_layer_builds_pairs_and_counts_seeds():
    # a witness is its structure (X1, X2, C): only _witness_pairs writes the
    # forced S and builds pairs from masks, only _seed_count ranks or totals a
    # seed's leaves, and the walk itself does neither
    rules = {"_blocking_edges", "_pair_from_masks", "_leaf_rank", "_seed_leaves"}
    tree = ast.parse(Path(gd.diagnosability.__file__).read_text())
    assert sorted(_calls(tree, rules)) == [
        ("_seed_count", "_leaf_rank"), ("_seed_count", "_seed_leaves"),
        ("_witness_pairs", "_blocking_edges"), ("_witness_pairs", "_blocking_edges"),
        ("_witness_pairs", "_pair_from_masks"), ("_witness_pairs", "_pair_from_masks")]


def test_only_faults_owns_the_failure_tables():
    # the decoder's failure tables are built, stepped and searched in faults.py
    # only: no other module imports, calls or names them; every public
    # decoding entry point is defined in engine.py, and the checks they
    # share are written once there
    private = {"_fail_tables", "_search_candidates", "fail_in", "fail_out"}
    owners, defined = set(), {}
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners.update(path.name for node in ast.walk(tree)
                      if {getattr(node, key, None) for key in ("id", "attr", "name")} & private)
        defined.update((node.name, path.name) for node in tree.body
                       if isinstance(node, ast.FunctionDef))
    assert owners == {"faults.py"}
    entry_points = ("diagnose", "enumerate_consistent_pairs", "adversarial_roundtrip")
    assert {name: defined[name] for name in entry_points} == dict.fromkeys(entry_points,
                                                                           "engine.py")
    engine = ast.parse(Path(gd.engine.__file__).read_text())
    assert sorted(_calls(engine, {"_check_decode"})) == [
        ("adversarial_roundtrip", "_check_decode"), ("diagnose", "_check_decode"),
        ("enumerate_consistent_pairs", "_check_decode")]


def test_each_distinguishability_route_is_one_predicate():
    # each route is one _masks predicate on two patterns: only share_syndrome
    # compares forced outcomes (is_consistent reads one pattern's masks), and
    # only pairs_indistinguishable and distinguishable, which names the
    # smallest hit, walk the conditions; no helper composes a route for its
    # callers, so find_condition_witness and all_tests stay deleted
    found = []
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "find_condition_witness" not in text and "all_tests" not in text, path.name
        tree = ast.parse(text, filename=str(path))
        found += [(path.name, *call) for call in _calls(tree, {"forced_masks", "condition_hits"})]
    assert sorted(found) == [
        ("_masks.py", "pairs_indistinguishable", "condition_hits"),
        ("_masks.py", "share_syndrome", "forced_masks"),
        ("_masks.py", "share_syndrome", "forced_masks"),
        ("distinguish.py", "distinguishable", "condition_hits"),
        ("faults.py", "is_consistent", "forced_masks")]
