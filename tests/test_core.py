from __future__ import annotations

import ast
import copy
import dataclasses
import datetime
import itertools
import json
import math
import random
import re
import string
import uuid
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_merge, reference_canonical_json, reference_normalize
from synth import random_json_value

import guidegraph
from guidegraph.aggregator import union_graphs
from guidegraph.builder import register_node
from guidegraph.core import (
    Chunk,
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    MergedRef,
    NodeKind,
    add_edge_or_log_loop,
    canonical_json,
    chunks_from_doc,
    chunks_to_doc,
    graph_from_doc,
    graph_to_doc,
    load_doc,
    merge_nodes,
    normalize_label,
)
from guidegraph.errors import (
    EmptyLabelError,
    GraphIntegrityError,
    InvalidMergeError,
    ManifestError,
    MissingNodeError,
    UsageError,
)


def make_node(node_id: str, label: str | None = None,
              kind: NodeKind = NodeKind.INTERMEDIATE, origin: int = 1) -> DecisionNode:
    return DecisionNode(node_id=node_id, label=label or node_id, kind=kind,
                        origin_chunk=origin)


def graph_with(nodes: list[str], edges: list[tuple[str, str, str]]) -> DecisionGraph:
    graph = DecisionGraph()
    for node_id in nodes:
        graph.add_node(make_node(node_id))
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


# ---------------------------------------------------------------------------
# normalize_label


def test_normalize_strips_case_space_and_trailing_punctuation():
    assert normalize_label("  Radical Prostatectomy. ") == "radical prostatectomy"


def test_normalize_is_idempotent_on_plain_text():
    assert normalize_label("radical prostatectomy") == "radical prostatectomy"


def test_normalize_collapses_internal_whitespace():
    value = normalize_label("PSA\t>\t10 ng/mL")
    assert value == "psa > 10 ng/ml"
    assert value == reference_normalize("PSA\t>\t10 ng/mL")


def test_normalize_empty_raises():
    for raw in ("", "   ", ".,;:", " . "):
        with pytest.raises(EmptyLabelError):
            normalize_label(raw)


def test_normalize_matches_reference_and_is_idempotent_on_random_corpus():
    rng = random.Random(4821)
    alphabet = string.ascii_letters + string.digits + " \t\n.,;:<>/-%éÅß"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        expected = reference_normalize(raw)
        if not expected:
            with pytest.raises(EmptyLabelError):
                normalize_label(raw)
            continue
        once = normalize_label(raw)
        assert once == expected
        assert normalize_label(once) == once


WHITESPACE = "".join(chr(code) for code in range(0x110000) if chr(code).isspace())


def regex_normalize(raw: str) -> str:
    """The earlier regex form of `normalize_label`, kept as a reference. It
    is not idempotent: one `rstrip` of the punctuation stops at a space."""
    text = re.sub(r"\s+", " ", raw.casefold()).strip()
    return text.rstrip(".,;:").strip()


def test_whitespace_set_is_the_29_code_points_of_the_regex_class():
    assert len(WHITESPACE) == 29
    assert re.findall(r"\s", "".join(map(chr, range(0x110000)))) == list(WHITESPACE)
    assert {"\u00a0", "\u2028", "\u3000"} <= set(WHITESPACE)


def label_corpus(seed: int, count: int) -> list[str]:
    """Labels of words, every whitespace code point, `.,;:` and mixed case."""
    rng = random.Random(seed)
    pieces = ["Repeat", "biopsy", "PSA", "ÉTAPE", "straße", "x", "10", "ng/mL",
              *WHITESPACE, *".,;:"]
    return ["".join(rng.choices(pieces, k=rng.randint(1, 12))) for _ in range(count)]


def test_normalize_is_idempotent():
    assert normalize_label("Repeat biopsy. .") == "repeat biopsy"
    assert regex_normalize("Repeat biopsy. .") == "repeat biopsy."  # the earlier defect
    checked = 0
    for raw in label_corpus(613, 4000):
        try:
            once = normalize_label(raw)
        except EmptyLabelError:
            continue
        assert normalize_label(once) == once, raw
        checked += 1
    assert checked > 2000


def test_normalize_equals_the_regex_form_wherever_that_form_is_idempotent():
    compared = differed = 0
    for raw in label_corpus(709, 4000) + list(WHITESPACE) + [f"A{c}b{c}." for c in WHITESPACE]:
        expected = regex_normalize(raw)
        if regex_normalize(expected) != expected:
            differed += 1
            continue
        compared += 1
        if not expected:
            with pytest.raises(EmptyLabelError):
                normalize_label(raw)
        else:
            assert normalize_label(raw) == expected, raw
    assert compared > 3000 and differed > 10


def test_a_label_ending_in_spaced_punctuation_survives_a_chunk_list_round_trip():
    chunk = Chunk(1, "ctx", ("Repeat biopsy. .",), ("Watchful waiting ;",), "d", (), (1,))
    assert chunk.entry_labels == ("repeat biopsy",)
    assert chunk.terminal_labels == ("watchful waiting",)
    doc = chunks_to_doc([chunk])
    assert chunks_from_doc(json.loads(canonical_json(doc))) == [chunk]
    assert chunks_to_doc(chunks_from_doc(doc)) == doc


def test_a_chunk_stores_its_page_span_sorted_and_writes_it_so():
    chunk = Chunk(1, "ctx", ("entry",), ("terminal",), "d", (3,), (3, 1, 2))
    assert chunk.page_span == (1, 2, 3)
    doc = chunks_to_doc([chunk])
    assert doc["chunks"][0]["page_span"] == [1, 2, 3]
    assert chunks_from_doc(json.loads(canonical_json(doc))) == [chunk]


# ---------------------------------------------------------------------------
# builder.register_node


def chunk_of(chunk_id: int, page_span: tuple[int, ...] = (1,)) -> Chunk:
    return Chunk(chunk_id, "ctx", ("entry",), ("terminal",), "d", (), page_span)


def test_register_node_without_ancestor():
    graph = DecisionGraph()
    chunk = chunk_of(1, (3, 2))
    node_id = register_node(graph, chunk, "biopsy", NodeKind.ENTRY, None)
    assert len(graph.nodes) == 1
    assert not graph.edges
    assert graph.nodes[node_id] == DecisionNode(node_id, "biopsy", NodeKind.ENTRY, 1,
                                                provenance_pages=[2, 3],
                                                interface_labels=["biopsy"])


def test_register_node_adds_incoming_edge():
    graph = DecisionGraph()
    chunk = chunk_of(1)
    ancestor = register_node(graph, chunk, "psa", NodeKind.ENTRY, None)
    node_id = register_node(graph, chunk, "biopsy", NodeKind.INTERMEDIATE,
                            (ancestor, "psa elevated"))
    assert len(graph.nodes) == 2
    assert set(graph.edges) == {DecisionEdge(ancestor, "psa elevated", node_id)}
    assert graph.nodes[node_id].interface_labels == []


def test_node_ids_are_sequential_per_prefix():
    first, second = DecisionGraph(), DecisionGraph()
    ids = [register_node(first, chunk_of(1), "one", NodeKind.ENTRY, None),
           register_node(first, chunk_of(1), "two", NodeKind.ENTRY, None),
           register_node(second, chunk_of(12), "one", NodeKind.ENTRY, None)]
    assert ids == ["c01n001", "c01n002", "c12n001"]


# ---------------------------------------------------------------------------
# add_edge and add_edge_or_log_loop


def test_add_edge_rejects_absent_nodes_and_self_loops():
    graph = graph_with(["A", "B"], [])
    for source, target in (("A", "ghost"), ("ghost", "B"), ("ghost", "ghost")):
        with pytest.raises(MissingNodeError):
            graph.add_edge(source, "c", target)
    with pytest.raises(GraphIntegrityError):
        graph.add_edge("A", "c", "A")
    assert not graph.edges and not graph.suppressed_self_loops


def test_add_edge_or_log_loop_adds_an_edge_once():
    graph = graph_with(["A", "B"], [("A", "c", "B")])
    add_edge_or_log_loop(graph, "A", "c", "B")  # present: a no-op
    add_edge_or_log_loop(graph, "B", "d", "A")
    assert set(graph.edges) == {("A", "c", "B"), ("B", "d", "A")}
    assert not graph.suppressed_self_loops
    with pytest.raises(MissingNodeError):
        add_edge_or_log_loop(graph, "A", "c", "ghost")


def test_add_edge_or_log_loop_logs_self_loops():
    graph = graph_with(["A", "B"], [("A", "c", "B")])
    add_edge_or_log_loop(graph, "A", "e", "A")
    assert set(graph.edges) == {("A", "c", "B")}
    assert graph.suppressed_self_loops == [("A", "e", "A")]


# ---------------------------------------------------------------------------
# merge_nodes


def test_merge_rewires_incoming_and_outgoing():
    graph = graph_with(["P", "S", "X", "Y"], [("X", "c", "S"), ("S", "d", "Y")])
    merge_nodes(graph, "P", "S")
    assert {tuple(e) for e in graph.edges} == {("X", "c", "P"), ("P", "d", "Y")}
    assert "S" not in graph.nodes
    assert MergedRef("S", 1) in graph.nodes["P"].merged_from


def test_merge_suppresses_self_loop():
    graph = graph_with(["P", "S"], [("P", "c", "S")])
    merge_nodes(graph, "P", "S")
    assert not graph.edges
    assert [tuple(e) for e in graph.suppressed_self_loops] == [("P", "c", "P")]


def test_merge_random_20_node_graph_matches_quotient_oracle():
    rng = random.Random(77)
    nodes = [f"n{i:02d}" for i in range(20)]
    graph = graph_with(nodes, [])
    for _ in range(60):
        source, target = rng.sample(nodes, 2)
        graph.add_edge(source, rng.choice("abc"), target)
    primary, secondary = rng.sample(nodes, 2)
    before = {tuple(e) for e in graph.edges}
    merge_nodes(graph, primary, secondary)
    expected_kept, expected_dropped = brute_force_merge(before, primary, secondary)
    assert {tuple(e) for e in graph.edges} == expected_kept
    assert {tuple(e) for e in graph.suppressed_self_loops} == expected_dropped


def test_merge_same_node_rejected():
    graph = graph_with(["P"], [])
    with pytest.raises(InvalidMergeError):
        merge_nodes(graph, "P", "P")


def test_merge_replay_raises_missing_node():
    graph = graph_with(["P", "S"], [])
    merge_nodes(graph, "P", "S")
    with pytest.raises(MissingNodeError):
        merge_nodes(graph, "P", "S")


def test_merge_unions_provenance_and_interface_labels():
    graph = DecisionGraph()
    p = DecisionNode("P", "p", NodeKind.ENTRY, 1, provenance_pages=[1, 2],
                     interface_labels=["p"])
    s = DecisionNode("S", "s", NodeKind.INTERMEDIATE, 2, provenance_pages=[2, 3],
                     interface_labels=["s"], merged_from=[MergedRef("old", 2)])
    graph.add_node(p)
    graph.add_node(s)
    merge_nodes(graph, "P", "S")
    merged = graph.nodes["P"]
    assert merged.provenance_pages == [1, 2, 3]
    assert merged.interface_labels == ["p", "s"]
    assert merged.merged_from == [MergedRef("old", 2), MergedRef("S", 2)]
    assert (merged.label, merged.kind, merged.origin_chunk) == ("p", NodeKind.ENTRY, 1)


def test_merge_replaces_the_primary_and_changes_no_node_object():
    chunk_1, chunk_2 = DecisionGraph(), DecisionGraph()
    chunk_1.add_node(DecisionNode("P", "p", NodeKind.TERMINAL, 1, provenance_pages=[1],
                                  interface_labels=["p"], merged_from=[MergedRef("old", 1)]))
    chunk_2.add_node(DecisionNode("S", "s", NodeKind.ENTRY, 2, provenance_pages=[2],
                                  interface_labels=["s"]))
    before = [copy.deepcopy(chunk.nodes) for chunk in (chunk_1, chunk_2)]
    union = union_graphs([chunk_1, chunk_2])
    old_primary = union.nodes["P"]
    assert old_primary is chunk_1.nodes["P"]  # the union shares the chunk's node
    merge_nodes(union, "P", "S")
    assert union.nodes["P"] is not old_primary
    assert union.nodes["P"] == DecisionNode(
        "P", "p", NodeKind.INTERMEDIATE, 1, merged_from=[MergedRef("old", 1), MergedRef("S", 2)],
        provenance_pages=[1, 2], interface_labels=["p", "s"])
    assert chunk_1.nodes["P"] is old_primary
    assert [chunk.nodes for chunk in (chunk_1, chunk_2)] == before
    assert union.lowest_label_id("p") == "P" and union.lowest_label_id("s") is None


def test_merge_terminal_with_non_terminal_becomes_intermediate():
    graph = DecisionGraph()
    graph.add_node(make_node("P", kind=NodeKind.ENTRY))
    graph.add_node(make_node("S", kind=NodeKind.TERMINAL))
    merge_nodes(graph, "P", "S")
    assert graph.nodes["P"].kind is NodeKind.INTERMEDIATE


def test_merge_two_terminals_stays_terminal():
    graph = DecisionGraph()
    graph.add_node(make_node("P", kind=NodeKind.TERMINAL))
    graph.add_node(make_node("S", kind=NodeKind.TERMINAL))
    merge_nodes(graph, "P", "S")
    assert graph.nodes["P"].kind is NodeKind.TERMINAL


def _check_merge_against_oracle(nodes: list[str], edges: set[tuple[str, str, str]],
                                primary: str, secondary: str) -> None:
    graph = graph_with(nodes, sorted(edges))
    merge_nodes(graph, primary, secondary)
    expected_kept, expected_dropped = brute_force_merge(edges, primary, secondary)
    assert {tuple(e) for e in graph.edges} == expected_kept
    assert {tuple(e) for e in graph.suppressed_self_loops} == expected_dropped
    graph.check_integrity()


def test_merge_equals_quotient_exhaustively_on_small_graphs():
    # Exhaustive for 3 nodes (all edge subsets, all ordered merge pairs).
    nodes = ["a", "b", "c"]
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    for bits in range(2 ** len(pairs)):
        edges = {(s, "c", t) for i, (s, t) in enumerate(pairs) if bits >> i & 1}
        for primary, secondary in itertools.permutations(nodes, 2):
            _check_merge_against_oracle(nodes, edges, primary, secondary)


def test_merge_equals_quotient_on_sampled_4_to_6_node_graphs():
    rng = random.Random(99)
    for _ in range(600):
        count = rng.randint(4, 6)
        nodes = [f"n{i}" for i in range(count)]
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        edges = {(s, rng.choice("ab"), t) for s, t in pairs if rng.random() < 0.4}
        primary, secondary = rng.sample(nodes, 2)
        _check_merge_against_oracle(nodes, edges, primary, secondary)


def test_integrity_holds_after_each_mutation():
    graph = graph_with(["A"], [])
    b = register_node(graph, chunk_of(1), "b", NodeKind.INTERMEDIATE, ("A", "go"))
    graph.check_integrity()
    add_edge_or_log_loop(graph, b, "back", b)
    graph.check_integrity()
    merge_nodes(graph, "A", b)
    graph.check_integrity()


def test_edges_are_a_set_never_a_multiset():
    graph = graph_with(["A", "B"], [("A", "c", "B")])
    graph.add_edge("A", "c", "B")
    assert len(graph.edges) == 1


def _assert_label_index_matches_scan(graph: DecisionGraph) -> None:
    scan: dict[str, set[str]] = {}
    for nid, node in graph.nodes.items():
        scan.setdefault(node.label, set()).add(nid)
    assert graph._label_index == scan


def add_node(graph: DecisionGraph, node_id: str, label: str,
             incoming: tuple[str, str] | None = None) -> None:
    """Add a node, then its incoming (ancestor, edge label) edge if any."""
    graph.add_node(make_node(node_id, label))
    if incoming is not None:
        graph.add_edge(incoming[0], incoming[1], node_id)


def test_label_index_matches_full_scan_under_random_mutations():
    rng = random.Random(41)
    labels = ["alpha", "beta", "gamma", "delta"]
    for _ in range(30):
        graphs = [DecisionGraph()]
        for step in range(40):
            graph = rng.choice(graphs)
            op = rng.choice(["register", "register", "register", "merge", "union", "doc"])
            if op == "register":
                ancestor = rng.choice(sorted(graph.nodes)) if graph.nodes and rng.random() < 0.5 else None
                add_node(graph, f"s{step:02d}", rng.choice(labels),
                         None if ancestor is None else (ancestor, "go"))
            elif op == "merge" and len(graph.nodes) >= 2:
                primary, secondary = rng.sample(sorted(graph.nodes), 2)
                merge_nodes(graph, primary, secondary)
            elif op == "union":
                other = DecisionGraph()
                for seq in range(rng.randint(0, 3)):
                    add_node(other, f"u{step:02d}n{seq:03d}", rng.choice(labels))
                graphs.append(union_graphs([graph, other]))
            elif op == "doc":
                graphs.append(graph_from_doc(graph_to_doc(graph)))
            for each in graphs:
                _assert_label_index_matches_scan(each)


def test_lowest_label_id_equals_a_scan_of_the_nodes():
    # Ids run past 999 in each chunk, where c01n1000 sorts before c01n999.
    rng = random.Random(57)
    labels = ["alpha", "beta", "gamma"]
    seen: dict[str, int] = dict.fromkeys(
        ("excluded chunk holds the lowest id", "only the excluded chunk has the label",
         "no exclusion", "absent label"), 0)
    for _ in range(200):
        graph = DecisionGraph()
        next_seq = {chunk: rng.choice([1, 997]) for chunk in (1, 2, 3)}
        for _ in range(rng.randint(0, 12)):
            chunk = rng.randint(1, 3)
            graph.add_node(make_node(f"c{chunk:02d}n{next_seq[chunk]:03d}", rng.choice(labels),
                                     origin=chunk))
            next_seq[chunk] += 1
        if len(graph.nodes) >= 2 and rng.random() < 0.5:
            merge_nodes(graph, *rng.sample(sorted(graph.nodes), 2))
        for label in labels + ["absent"]:
            for exclude in (None, 1, 2, 3, 9):
                eligible = sorted(nid for nid, node in graph.nodes.items()
                                  if node.label == label and node.origin_chunk != exclude)
                expected = eligible[0] if eligible else None
                assert graph.lowest_label_id(label, exclude) == expected, (label, exclude)
                everyone = sorted(nid for nid, node in graph.nodes.items() if node.label == label)
                seen["no exclusion"] += exclude is None and expected is not None
                seen["absent label"] += not everyone
                seen["excluded chunk holds the lowest id"] += bool(everyone) and (
                    expected != everyone[0])
                seen["only the excluded chunk has the label"] += bool(everyone) and (
                    expected is None)
    assert min(seen.values()) > 20, seen


# ---------------------------------------------------------------------------
# serialization


def test_graph_doc_round_trip_and_byte_stability():
    graph = graph_with(["b", "a"], [("b", "z", "a"), ("a", "c", "b")])
    graph.nodes["a"].kind = NodeKind.ENTRY
    graph.nodes["a"].interface_labels = ["a"]
    doc = graph_to_doc(graph)
    assert [n["id"] for n in doc["nodes"]] == ["a", "b"]
    assert [(e["source"], e["label"], e["target"]) for e in doc["edges"]] == [
        ("a", "c", "b"), ("b", "z", "a"),
    ]
    restored = graph_from_doc(doc)
    assert canonical_json(graph_to_doc(restored)) == canonical_json(doc)


def _labeled_doc(node_labels: list[str], edge_labels: list[str] = (),
                 interface_labels: list[str] = ()) -> dict:
    """A graph doc whose nodes n0, n1, ... carry `node_labels`, whose edges
    all run n0 -> n1 under `edge_labels`, and whose n0 lists
    `interface_labels`."""
    doc = graph_to_doc(graph_with([f"n{i}" for i in range(len(node_labels))], []))
    for entry, label in zip(doc["nodes"], node_labels):
        entry["label"] = label
    doc["nodes"][0]["interface_labels"] = list(interface_labels)
    doc["edges"] = [{"source": "n0", "label": label, "target": "n1"} for label in edge_labels]
    return doc


def test_a_graph_file_loads_every_label_normalized():
    rng = random.Random(3707)
    alphabet = "aBc .;:,\t\n\u00a0\u3000ßİ"
    for _ in range(300):
        raw = ["".join(rng.choices(alphabet, k=rng.randint(1, 12))) + "x" for _ in range(6)]
        graph = graph_from_doc(_labeled_doc(raw[:2], raw[2:4], raw[4:]))
        assert [node.label for node in graph.nodes.values()] == [
            reference_normalize(label) for label in raw[:2]]
        assert sorted(edge.label for edge in graph.edges) == sorted(
            {reference_normalize(label) for label in raw[2:4]})
        assert graph.nodes["n0"].interface_labels == list(dict.fromkeys(
            reference_normalize(label) for label in raw[4:]))


def test_edges_that_differ_only_in_spelling_load_as_one():
    graph = graph_from_doc(_labeled_doc(["a", "b"], ["Yes", " yes."]))
    assert list(graph.edges) == [DecisionEdge("n0", "yes", "n1")]


def test_a_repeated_interface_spelling_loads_once_where_it_first_stands():
    graph = graph_from_doc(_labeled_doc(
        ["a", "b"], interface_labels=["Low-Risk Group", "other", "  LOW-RISK\tgroup ;"]))
    assert graph.nodes["n0"].interface_labels == ["low-risk group", "other"]


@pytest.mark.parametrize("labels", [(["a", " ."], [], []), (["a", "b"], ["yes", "..."], []),
                                    (["a", "b"], [], ["a", " ;"])],
                         ids=["node", "edge", "interface"])
def test_a_graph_label_with_no_text_is_refused_on_load(labels):
    with pytest.raises(EmptyLabelError):
        graph_from_doc(_labeled_doc(*labels))


def test_canonical_json_matches_the_standard_library_encoder():
    rng = random.Random(2028)
    for _ in range(600):
        doc = {"doc": random_json_value(rng)}
        assert canonical_json(doc) == reference_canonical_json(doc)
        assert canonical_json(doc, compact=True) == reference_canonical_json(doc, compact=True)


@dataclasses.dataclass
class Point:
    x: int


def test_canonical_json_differences_from_the_standard_library_encoder():
    # Floats outside [1e-4, 1e16) keep their shortest form and reload equal.
    for value, text in [(1e-05, "0.00001"), (1e16, "1e16"), (-2.5e-7, "-2.5e-7"),
                        (1e300, "1e300")]:
        assert canonical_json(value, compact=True) == text
        assert canonical_json(value, compact=True) != reference_canonical_json(value, compact=True)
        assert json.loads(text) == value
    for value in (math.nan, math.inf, -math.inf):
        assert canonical_json([value], compact=True) == "[null]"
    # Dataclasses, datetimes and UUIDs are serialized where json raises.
    for value, text in [(Point(1), '{"x":1}'), (datetime.date(2026, 1, 2), '"2026-01-02"'),
                        (uuid.UUID(int=1), '"00000000-0000-0000-0000-000000000001"')]:
        assert canonical_json(value, compact=True) == text
        with pytest.raises(TypeError):
            reference_canonical_json(value)
    # Keys that are not exactly str, ints past 64 bits, numpy scalars and
    # lone surrogates raise.
    for value in ({1: "a"}, {NodeKind.ENTRY: "a"}, 2**64, -2**63 - 1, np.float64(0.5),
                  np.int64(1), "\ud800"):
        with pytest.raises(TypeError):
            canonical_json(value)


def test_load_doc_parses_a_file_and_builds_from_its_doc(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1, 2.5, "\\u00e9"]}', encoding="utf-8")
    assert load_doc(path) == {"a": [1, 2.5, "\u00e9"]}
    assert load_doc(path, lambda doc: doc["a"][0]) == 1


@pytest.mark.parametrize("content", [b"{", b"NaN", b"[Infinity]", b"[1e999]", b'"\\ud800"',
                                     b'"\xff"', b'{"b": 1}', b"[]"],
                         ids=["truncated", "nan", "infinity", "overflow", "lone-surrogate",
                              "not-utf8", "from-doc-key", "from-doc-type"])
def test_load_doc_raises_the_given_error_naming_a_malformed_file(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(ManifestError, match="malformed") as info:
        load_doc(path, lambda doc: doc["a"], error=ManifestError)
    assert str(path) in str(info.value)


def test_load_doc_names_a_missing_or_unreadable_file(tmp_path):
    with pytest.raises(UsageError, match="not found") as info:
        load_doc(tmp_path / "absent.json")
    assert str(tmp_path / "absent.json") in str(info.value)
    with pytest.raises(UsageError, match="cannot read") as info:
        load_doc(tmp_path)
    assert str(tmp_path) in str(info.value)


def test_no_module_imports_the_standard_json_codec():
    """Every JSON input enters through `load_doc`; a module importing `json`
    could parse one around it, with the other codec's rules."""
    for path in sorted(Path(guidegraph.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "json" not in {name.partition(".")[0] for name in imported}, path.name


# Imports kept for a binding that perfbench/layers.py rebinds (NORMALIZE_BINDINGS),
# not for a read in the module itself.
TRACER_BOUND_IMPORTS = {
    ("aggregator.py", "normalize_label"),  # perfbench/layers.py counts calls through it
    ("retrieval.py", "normalize_label"),  # perfbench/layers.py counts calls through it
    ("evaluation.py", "normalize_label"),  # perfbench/layers.py counts calls through it
    ("aggregator.py", "cosine_candidates"),  # perfbench/layers.py spans calls through it
}


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module loads, `__all__`'s entries and the names in
    string annotations included."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


def _imported(tree: ast.Module) -> set[str]:
    """Every name the module's imports bind."""
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    return imported | {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                       for alias in node.names}


def test_no_module_imports_a_name_it_never_reads():
    """An import left behind by a refactor reads as a dependency that is not
    there, and so does a module-level name (such as a logger) that nothing in
    its module reads. Test modules are held to the import rule only: some
    export module-level names (`synth.FIXTURE_DIR`, say) to other tests."""
    for path in sorted(Path(guidegraph.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned = {target.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    if isinstance(target, ast.Name) and not target.id.startswith("__")}
        unread = {(path.name, name) for name in (_imported(tree) | assigned) - _names_read(tree)}
        assert unread <= TRACER_BOUND_IMPORTS, sorted(unread - TRACER_BOUND_IMPORTS)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _imported(tree) <= _names_read(tree), (
            path.name, sorted(_imported(tree) - _names_read(tree)))


def test_graph_doc_rejects_unknown_format():
    with pytest.raises(ValueError):
        graph_from_doc({"format": "decision-graph/999", "nodes": [], "edges": []})


def test_finalized_graph_rejects_self_loop():
    graph = graph_with(["A", "B"], [])
    graph._edges[DecisionEdge("A", "c", "A")] = None  # add_edge refuses self-loops
    with pytest.raises(GraphIntegrityError):
        graph.check_integrity()


def test_chunk_validation():
    Chunk(1, "ctx", ("a",), ("b",), "d", (2,), (1, 2))
    with pytest.raises(ValueError):
        Chunk(1, "ctx", ("a",), ("a",), "d", (), (1,))  # overlapping interface
    with pytest.raises(ValueError):
        Chunk(1, "ctx", ("a",), ("b",), "d", (9,), (1, 2))  # carried page outside the span


def test_chunk_list_rejects_a_repeated_chunk_id():
    chunks = [Chunk(i, "ctx", ("a",), ("b",), "d", (), (i,)) for i in (1, 2, 3)]
    assert chunks_from_doc(chunks_to_doc(chunks)) == chunks
    doc = chunks_to_doc(chunks)
    doc["chunks"][1]["chunk_id"] = 1  # ids [1, 1, 3]
    with pytest.raises(ValueError, match="^chunk_id 1 appears twice$"):
        chunks_from_doc(doc)


@pytest.mark.parametrize("entry, terminal, outcome", [
    (("a",), ("Repeat Biopsy", "repeat biopsy."), "chunk 1: duplicate terminal labels"),
    (("MRI", " mri "), ("b",), "chunk 1: duplicate entry labels"),
    (("MRI",), ("mri.",), "chunk 1: entry/terminal overlap ['mri']"),
    (("a", "..."), ("b",), "chunk 1: label '...' is empty after normalization"),
    ((" MRI ",), ("Done.",), (("mri",), ("done",))),
], ids=["duplicate-terminals", "duplicate-entries", "overlap", "empty-label", "normalized"])
def test_chunk_validation_compares_normalized_labels(entry, terminal, outcome):
    """An invalid interface raises its message; a valid one is stored normalized."""
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc_info:
            Chunk(1, "ctx", entry, terminal, "d", (), (1,))
        assert str(exc_info.value) == outcome
    else:
        chunk = Chunk(1, "ctx", entry, terminal, "d", (), (1,))
        assert (chunk.entry_labels, chunk.terminal_labels) == outcome
