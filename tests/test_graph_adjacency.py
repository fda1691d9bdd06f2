"""The graph's in/out adjacency, and merge order against the scanning merge."""
from __future__ import annotations

import random

import pytest

from oracles import scan_merge_nodes

from guidegraph.aggregator import union_graphs
from guidegraph.core import (
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    MergedRef,
    NodeKind,
    canonical_json,
    graph_from_doc,
    graph_to_doc,
    merge_nodes,
)
from guidegraph.errors import GraphIntegrityError

KINDS = [NodeKind.ENTRY, NodeKind.INTERMEDIATE, NodeKind.TERMINAL]


def scan_reachable(edges, start) -> set[str]:
    seen = set(start)
    while True:
        grown = seen | {e.target for e in edges if e.source in seen}
        if grown == seen:
            return seen
        seen = grown


def assert_adjacency_matches_scan(graph: DecisionGraph) -> None:
    edges = set(graph.edges)
    ids = set(graph.nodes) | {e.source for e in edges} | {e.target for e in edges} | {"absent"}
    for nid in ids:
        into = {e for e in edges if e.target == nid}
        out = {e for e in edges if e.source == nid}
        assert set(graph.in_edges(nid)) == into, nid
        assert set(graph.out_edges(nid)) == out, nid
        assert graph.reachable([nid]) == scan_reachable(edges, [nid]), nid
    # no entry is left behind for a node that lost its last edge
    assert set(graph._out) == {e.source for e in edges}
    assert set(graph._into) == {e.target for e in edges}
    entries = [nid for nid, node in graph.nodes.items() if node.kind is NodeKind.ENTRY]
    assert graph.reachable(entries) == scan_reachable(edges, entries)


def _random_edge(rng: random.Random, graph: DecisionGraph) -> DecisionEdge:
    source, target = rng.sample(sorted(graph.nodes), 2)
    return DecisionEdge(source, rng.choice("ab"), target)


def add_node(graph: DecisionGraph, node_id: str, label: str, kind: NodeKind,
             incoming: tuple[str, str] | None = None) -> None:
    """Add a node, then its incoming (ancestor, edge label) edge if any."""
    graph.add_node(DecisionNode(node_id, label, kind, 1))
    if incoming is not None:
        graph.add_edge(incoming[0], incoming[1], node_id)


def _mutate(rng: random.Random, graph: DecisionGraph, graphs: list[DecisionGraph],
            step: int) -> None:
    edges = sorted(graph.edges)
    op = rng.choice([
        "register", "register", "add_edge", "add_edge", "merge", "merge",
        "remove_edge", "remove_edge", "union", "doc",
    ])
    if op == "register" or len(graph.nodes) < 2:
        ancestor = rng.choice(sorted(graph.nodes)) if graph.nodes and rng.random() < 0.7 else None
        add_node(graph, f"s{step:02d}", rng.choice(["p", "q", "r"]), rng.choice(KINDS),
                 None if ancestor is None else (ancestor, "go"))
    elif op == "add_edge":
        graph.add_edge(*_random_edge(rng, graph))
    elif op == "merge":
        merge_nodes(graph, *rng.sample(sorted(graph.nodes), 2))
    elif op == "remove_edge":  # an absent edge is a no-op
        graph.remove_edge(*(rng.choice(edges) if edges and rng.random() < 0.8
                            else _random_edge(rng, graph)))
    elif op == "union":
        other = DecisionGraph()
        for seq in range(rng.randint(0, 3)):
            add_node(other, f"u{step:02d}n{seq}", "u", NodeKind.ENTRY)
        graphs.append(union_graphs([graph, other]))
    elif op == "doc":
        graphs.append(graph_from_doc(graph_to_doc(graph)))


def test_adjacency_matches_full_scan_under_random_mutations():
    rng = random.Random(5150)
    for _ in range(40):
        graphs = [DecisionGraph()]
        for step in range(50):
            _mutate(rng, rng.choice(graphs), graphs, step)
            for graph in graphs:
                assert_adjacency_matches_scan(graph)


def test_changing_a_union_leaves_its_input_graph_unchanged():
    graph = DecisionGraph()
    graph.add_node(DecisionNode("a", "a", NodeKind.ENTRY, 1, merged_from=[MergedRef("z", 2)],
                                provenance_pages=[1], interface_labels=["a"]))
    graph.add_node(DecisionNode("b", "b", NodeKind.TERMINAL, 1, provenance_pages=[2]))
    graph.add_node(DecisionNode("c", "c", NodeKind.INTERMEDIATE, 1))
    graph.add_edge("a", "go", "b")
    graph.add_edge("a", "go", "c")
    graph.add_edge("c", "on", "b")

    def state() -> tuple:  # a snapshot: a graph's doc holds its nodes' own lists
        return (canonical_json(graph_to_doc(graph)), set(graph.edges),
                {label: set(ids) for label, ids in graph._label_index.items()},
                {nid: (set(graph.in_edges(nid)), set(graph.out_edges(nid))) for nid in "abc"})

    before = state()
    dup = union_graphs([graph])
    dup.remove_edge("a", "go", "b")
    dup.add_edge("b", "back", "a")
    merge_nodes(dup, "a", "c")  # rewires c's edges and folds its provenance into a's
    merge_nodes(dup, "b", "a")  # a terminal absorbs an entry
    assert dup.nodes["b"].kind is NodeKind.INTERMEDIATE
    assert dup.nodes["b"].merged_from == [MergedRef("z", 2), MergedRef("c", 1), MergedRef("a", 1)]
    assert state() == before
    assert_adjacency_matches_scan(dup)
    assert_adjacency_matches_scan(graph)


def test_edges_are_a_read_only_view():
    graph = DecisionGraph()
    for node_id in "ab":
        graph.add_node(DecisionNode(node_id, node_id, NodeKind.ENTRY, 1))
    graph.add_edge("a", "go", "b")
    edge, back = DecisionEdge("a", "go", "b"), DecisionEdge("b", "go", "a")
    view = graph.edges
    with pytest.raises(AttributeError):
        graph.edges.add(back)
    with pytest.raises(AttributeError):
        graph.edges = {back}
    with pytest.raises(AttributeError):
        graph.edges |= {back}
    assert graph.edges == {edge} and edge in graph.edges and len(graph.edges) == 1
    assert graph.edges | {back} == {edge, back} and not graph.edges - {edge}
    graph.remove_edge(*back)  # absent: a no-op
    assert view == {edge}
    graph.remove_edge(*edge)
    assert not view and not graph.in_edges("b") and not graph.out_edges("a")
    assert_adjacency_matches_scan(graph)


def _random_merge_case(rng: random.Random) -> tuple[DecisionGraph, list[tuple[str, str]]]:
    graph = DecisionGraph()
    nodes = [f"n{i}" for i in range(rng.randint(3, 7))]
    for node_id in nodes:
        graph.add_node(DecisionNode(node_id, rng.choice("xyz"), rng.choice(KINDS),
                                    rng.randint(1, 3), provenance_pages=[rng.randint(1, 9)],
                                    interface_labels=[node_id]))
    for source in nodes:
        for target in nodes:
            for label in "abc":
                if source != target and rng.random() < 0.3:
                    graph.add_edge(source, label, target)
    merges = []
    alive = list(nodes)
    for _ in range(rng.randint(1, len(nodes) - 1)):
        primary, secondary = rng.sample(alive, 2)
        alive.remove(secondary)
        merges.append((primary, secondary))
    return graph, merges


def test_merge_order_equals_scanning_merge_on_random_graphs():
    rng = random.Random(2718)
    multi_loop_merges = 0
    for _ in range(300):
        graph, merges = _random_merge_case(rng)
        reference = graph_from_doc(graph_to_doc(graph))
        for primary, secondary in merges:
            loops_before = len(graph.suppressed_self_loops)
            merge_nodes(graph, primary, secondary)
            scan_merge_nodes(reference, primary, secondary)
            multi_loop_merges += len(graph.suppressed_self_loops) - loops_before >= 2
            assert graph_to_doc(graph) == graph_to_doc(reference)
            assert graph.suppressed_self_loops == reference.suppressed_self_loops
            assert_adjacency_matches_scan(graph)
            graph.check_integrity()  # merge_nodes itself checks only incident edges
    assert multi_loop_merges > 100  # the order of several loops per merge is compared


class LeakyGraph(DecisionGraph):
    """A graph whose `remove_edge` keeps one given edge."""

    def __init__(self, kept: tuple[str, str, str] | None) -> None:
        super().__init__()
        self.kept = kept

    def remove_edge(self, source: str, label: str, target: str) -> None:
        if (source, label, target) != self.kept:
            super().remove_edge(source, label, target)


@pytest.mark.parametrize("kept", [("a", "go", "s"), ("s", "go", "b"), None])
def test_merge_that_leaves_an_edge_behind_raises(kept):
    graph = LeakyGraph(kept)
    for node_id in ("a", "p", "s", "b"):
        graph.add_node(DecisionNode(node_id, node_id, NodeKind.INTERMEDIATE, 1))
    graph.add_edge("a", "go", "s")
    graph.add_edge("s", "go", "b")
    if kept is None:  # a self-loop that entered without add_edge's check
        loop = DecisionEdge("p", "go", "p")
        graph._edges[loop] = None
        graph._out.setdefault("p", set()).add(loop)
        graph._into.setdefault("p", set()).add(loop)
    with pytest.raises(GraphIntegrityError):
        merge_nodes(graph, "p", "s")
