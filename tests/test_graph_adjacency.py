"""The graph's in/out adjacency, and merge order against the scanning merge."""
from __future__ import annotations

import random

from oracles import scan_merge_nodes

from guidegraph.aggregator import union_graphs
from guidegraph.core import (
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    MergedRef,
    NodeKind,
    QueueItem,
    graph_from_doc,
    graph_to_doc,
    merge_nodes,
    redirect_ancestor_edge,
    register_node,
)

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
        assert graph.ancestors_of(nid) == sorted((e.source, e.label) for e in into), nid
        assert graph.reachable([nid]) == scan_reachable(edges, [nid]), nid
    # no entry is left behind for a node that lost its last edge
    assert set(graph.edges.out) == {e.source for e in edges}
    assert set(graph.edges.into) == {e.target for e in edges}
    entries = [nid for nid, node in graph.nodes.items() if node.kind is NodeKind.ENTRY]
    assert graph.reachable(entries) == scan_reachable(edges, entries)


def _random_edge(rng: random.Random, graph: DecisionGraph) -> DecisionEdge:
    source, target = rng.sample(sorted(graph.nodes), 2)
    return DecisionEdge(source, rng.choice("ab"), target)


def _mutate(rng: random.Random, graph: DecisionGraph, graphs: list[DecisionGraph],
            step: int) -> None:
    edges = sorted(graph.edges, key=DecisionEdge.as_triple)
    some = {e for e in edges if rng.random() < 0.5}
    op = rng.choice([
        "register", "register", "add_edge", "add_edge", "redirect", "merge", "merge",
        "edges.add", "edges.discard", "edges.remove", "edges.pop", "assign", "ior", "isub",
        "iand", "ixor", "update", "difference_update", "clear", "copy", "union", "doc",
    ])
    if op == "register" or len(graph.nodes) < 2:
        ancestor = rng.choice(sorted(graph.nodes)) if graph.nodes and rng.random() < 0.7 else None
        register_node(graph, QueueItem(rng.choice(["p", "q", "r"]),
                                       None if ancestor is None else (ancestor, "go")),
                      rng.choice(KINDS), id_prefix=f"s{step:02d}n")
    elif op == "add_edge":
        edge = _random_edge(rng, graph)
        graph.add_edge(edge.source, edge.label, edge.target)
    elif op == "redirect" and edges:
        source, label, _ = rng.choice(edges).as_triple()
        old = rng.choice(edges).as_triple()
        redirect_ancestor_edge(graph, old, (source, label, rng.choice(sorted(graph.nodes))))
    elif op == "merge":
        merge_nodes(graph, *rng.sample(sorted(graph.nodes), 2))
    elif op == "edges.add":
        graph.edges.add(_random_edge(rng, graph))
    elif op == "edges.discard":
        graph.edges.discard(rng.choice(edges) if edges else _random_edge(rng, graph))
    elif op == "edges.remove" and edges:
        graph.edges.remove(rng.choice(edges))
    elif op == "edges.pop" and edges:
        graph.edges.pop()
    elif op == "assign":
        graph.edges = some | {_random_edge(rng, graph)}
    elif op == "ior":
        graph.edges |= {_random_edge(rng, graph) for _ in range(3)}
    elif op == "isub":
        graph.edges -= some
    elif op == "iand":
        graph.edges &= some
    elif op == "ixor":
        graph.edges ^= some | {_random_edge(rng, graph)}
    elif op == "update":
        graph.edges.update([_random_edge(rng, graph)], (_random_edge(rng, graph),))
    elif op == "difference_update":
        graph.edges.difference_update(list(some))
    elif op == "clear":
        graph.edges.clear()
    elif op == "copy":
        graphs.append(graph.copy())
    elif op == "union":
        other = DecisionGraph()
        for _ in range(rng.randint(0, 3)):
            register_node(other, QueueItem("u"), NodeKind.ENTRY, id_prefix=f"u{step:02d}n")
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


def test_copies_share_no_mutable_state():
    graph = DecisionGraph()
    graph.add_node(DecisionNode("a", "a", NodeKind.ENTRY, 1, merged_from=[MergedRef("z", 2)],
                                provenance_pages=[1], interface_labels=["a"]))
    graph.add_node(DecisionNode("b", "b", NodeKind.TERMINAL, 1))
    graph.add_edge("a", "go", "b")
    for dup in (graph.copy(), union_graphs([graph])):
        node = dup.nodes["a"]
        assert node == graph.nodes["a"] and node is not graph.nodes["a"]
        assert node.merged_from is not graph.nodes["a"].merged_from
        assert node.merged_from[0] is graph.nodes["a"].merged_from[0]  # frozen, shared
        node.provenance_pages.append(9)
        node.interface_labels.append("x")
        dup.edges.discard(DecisionEdge("a", "go", "b"))
        assert graph.nodes["a"].provenance_pages == [1]
        assert graph.nodes["a"].interface_labels == ["a"]
        assert graph.in_edges("b") == {DecisionEdge("a", "go", "b")}
        assert_adjacency_matches_scan(dup)
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
    assert multi_loop_merges > 100  # the order of several loops per merge is compared
