from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import make_client
from oracles import (
    assert_edge_preservation,
    closure_quotient,
    impl_class_edges,
    impl_partition,
    per_edge_union,
    random_universe,
)
from synth import (
    GOLDEN_DIR,
    ClassVerifierBackend,
    StaticBackend,
    SyntheticRuleBackend,
    synthetic_config,
)

from guidegraph.aggregator import (
    aggregate,
    choose_primary_secondary,
    get_ancestors,
    merge_log_doc,
    provenance_doc,
    seed_interface_queue,
    union_graphs,
)
from guidegraph.builder import build_graph
from guidegraph.core import (
    Chunk,
    DecisionGraph,
    DecisionNode,
    NodeKind,
    canonical_json,
    chunks_from_doc,
    graph_to_doc,
    merge_nodes,
)
from guidegraph.errors import IdCollisionError, InterfaceResolutionError
from guidegraph.oracle import OracleTask
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend


def config(**overrides):
    cfg = synthetic_config("unused")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def store():
    return EmbeddingStore(HashingEmbeddingBackend())


def node(node_id: str, label: str, kind: NodeKind, origin: int,
         interface: bool = True) -> DecisionNode:
    return DecisionNode(node_id=node_id, label=label, kind=kind, origin_chunk=origin,
                        provenance_pages=[origin],
                        interface_labels=[label] if interface else [])


def tiny_graph(chunk_id: int, entry_label: str, terminal_label: str,
               extra_label: str | None = None) -> tuple[Chunk, DecisionGraph]:
    graph = DecisionGraph()
    terminal = node(f"c{chunk_id:02d}n001", terminal_label, NodeKind.TERMINAL, chunk_id)
    entry = node(f"c{chunk_id:02d}n002", entry_label, NodeKind.ENTRY, chunk_id)
    graph.add_node(terminal)
    graph.add_node(entry)
    graph.add_edge(entry.node_id, "go", terminal.node_id)
    if extra_label is not None:
        extra = node(f"c{chunk_id:02d}n003", extra_label, NodeKind.INTERMEDIATE,
                     chunk_id, interface=False)
        graph.add_node(extra)
        graph.add_edge(entry.node_id, "aside", extra.node_id)
    chunk = Chunk(chunk_id=chunk_id, context=f"chunk {chunk_id}",
                  entry_labels=(entry_label,), terminal_labels=(terminal_label,),
                  description="d", carried_pages=(), page_span=(chunk_id,))
    return chunk, graph


def no_match_client():
    return make_client(StaticBackend('{"matches": []}'))


# ---------------------------------------------------------------------------
# union_graphs


def test_union_of_disjoint_graphs():
    _, g1 = tiny_graph(1, "a start", "a end", "a mid")
    _, g2 = tiny_graph(2, "b start", "b end", "b mid")
    union = union_graphs([g1, g2])
    assert len(union.nodes) == 6
    assert union.edges == g1.edges | g2.edges
    assert {n.origin_chunk for n in union.nodes.values()} == {1, 2}


def test_union_of_empty_list_is_empty_graph():
    union = union_graphs([])
    assert not union.nodes and not union.edges


def test_union_node_count_is_sum_of_parts():
    chunks, graphs = golden_chunks_and_graphs()
    union = union_graphs(graphs)
    assert len(union.nodes) == sum(len(g.nodes) for g in graphs) == 14


def test_union_detects_id_collisions():
    _, g1 = tiny_graph(1, "a start", "a end")
    _, g2 = tiny_graph(1, "b start", "b end")
    with pytest.raises(IdCollisionError):
        union_graphs([g1, g2])


def test_merging_in_a_union_leaves_its_input_graphs_unchanged():
    _, g1 = tiny_graph(1, "a start", "a end", "a mid")
    _, g2 = tiny_graph(2, "b start", "b end", "b mid")
    before = [graph_state(graph) for graph in (g1, g2)]
    union = union_graphs([g1, g2])
    merge_nodes(union, "c01n001", "c02n002")  # a terminal absorbs an entry
    merge_nodes(union, "c02n003", "c01n003")
    union.remove_edge("c01n001", "go", "c02n001")
    union.add_edge("c01n002", "new", "c02n001")
    assert [graph_state(graph) for graph in (g1, g2)] == before
    assert union.nodes["c01n001"].kind is NodeKind.INTERMEDIATE
    assert g1.nodes["c01n001"].kind is NodeKind.TERMINAL


def graph_state(graph: DecisionGraph) -> tuple:
    """Nodes, edges, adjacency and label index: a snapshot, compared by value.
    A graph's doc holds its nodes' own lists, so the nodes are kept as text."""
    return (canonical_json(graph_to_doc(graph)), set(graph.edges),
            {nid: (set(graph.in_edges(nid)), set(graph.out_edges(nid))) for nid in graph.nodes},
            {label: set(ids) for label, ids in graph._label_index.items()})


def test_bulk_union_equals_the_per_edge_union():
    cases = [golden_chunks_and_graphs()[1]]
    cases += [random_universe(seed, max_nodes=30)[1] for seed in range(40)]
    for graphs in cases:
        union, reference = union_graphs(graphs), per_edge_union(graphs)
        assert graph_state(union) == graph_state(reference)
        assert list(union.nodes) == list(reference.nodes)
    assert max(len(graphs) for graphs in cases) > 2


def test_union_collision_adds_nothing_of_the_colliding_graph():
    _, g1 = tiny_graph(1, "a start", "a end")
    _, g2 = tiny_graph(2, "b start", "b end", "b mid")
    g2.add_node(node("c01n002", "clash", NodeKind.ENTRY, 2))
    union = union_graphs([g1])
    before = graph_state(union)
    with pytest.raises(IdCollisionError, match="c01n002"):
        union.add_graph(g2)
    assert graph_state(union) == before


def test_aggregation_leaves_the_chunk_graphs_untouched():
    chunks, graphs = golden_chunks_and_graphs()
    before = [graph_state(graph) for graph in graphs]
    result = aggregate(chunks, graphs, make_client(SyntheticRuleBackend()), store(), config())
    assert len(result.decisions) == 3
    assert [graph_state(graph) for graph in graphs] == before


# ---------------------------------------------------------------------------
# seed_interface_queue


def test_seed_queue_counts_entries_then_terminals_in_chunk_order():
    c1, g1 = tiny_graph(1, "a start", "a end")
    c2, g2 = tiny_graph(2, "b start", "b end")
    c1 = Chunk(1, c1.context, ("a start",), ("a end", "a other end"), "d", (), (1,))
    g1.add_node(node("c01n004", "a other end", NodeKind.TERMINAL, 1))
    c2 = Chunk(2, c2.context, ("b start",), ("b end", "b other end"), "d", (), (2,))
    g2.add_node(node("c02n004", "b other end", NodeKind.TERMINAL, 2))
    queue = seed_interface_queue([c1, c2], union_graphs([g1, g2]))
    assert len(queue) == 6
    assert list(queue) == ["c01n002", "c01n001", "c01n004",
                           "c02n002", "c02n001", "c02n004"]


def test_seed_queue_resolves_label_to_lowest_id_of_its_chunk():
    c1, g1 = tiny_graph(1, "a start", "a end")
    g1.nodes["c01n001"].interface_labels.append("a start")
    c2, g2 = tiny_graph(2, "b start", "b end")
    g2.add_node(DecisionNode("c00n001", "a start", NodeKind.INTERMEDIATE, 2,
                             interface_labels=["a start"]))
    queue = seed_interface_queue([c1, c2], union_graphs([g1, g2]))
    assert list(queue) == ["c01n001", "c02n002", "c02n001"]


def test_seed_queue_empty_for_no_chunks():
    assert list(seed_interface_queue([], DecisionGraph())) == []


def test_seed_queue_deduplicates_merged_interface_node():
    # An entry that merged into a terminal during building resolves to the
    # same node id; that id must appear once.
    class EntryEqualsTerminal(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.FIND_DUPLICATE:
                return {"matches": [i for i, label in enumerate(payload["candidates"])
                                    if payload["candidate"] == "begin"
                                    and label == "end state"]}
            return super().body_for(task, payload)

    chunk = Chunk(1, "ctx", ("begin",), ("end state",), "d", (), (1,))
    result = build_graph(chunk, make_client(EntryEqualsTerminal()), store(), config())
    queue = seed_interface_queue([chunk], union_graphs([result.graph]))
    assert len(queue) == 1


def test_seed_queue_unresolvable_label_errors():
    chunk, graph = tiny_graph(1, "a start", "a end")
    graph.nodes["c01n002"].interface_labels = []
    with pytest.raises(InterfaceResolutionError):
        seed_interface_queue([chunk], graph)


# ---------------------------------------------------------------------------
# aggregate


def golden_chunks_and_graphs():
    chunks = chunks_from_doc(json.loads((GOLDEN_DIR / "chunks.json").read_text()))
    graphs = [build_graph(c, make_client(SyntheticRuleBackend()), store(), config()).graph
              for c in chunks]
    return chunks, graphs


def test_interface_stitch_merges_shared_labels():
    chunks, graphs = golden_chunks_and_graphs()
    union = union_graphs(graphs)
    result = aggregate(chunks, graphs, make_client(SyntheticRuleBackend()), store(), config())
    assert_edge_preservation(union, result)

    low = [n for n in result.graph.nodes.values() if n.label == "low-risk group"]
    assert len(low) == 1
    survivor = low[0]
    assert survivor.origin_chunk == 2
    assert survivor.kind is NodeKind.INTERMEDIATE
    incoming = {(e.source, e.label) for e in result.graph.edges
                if e.target == survivor.node_id}
    outgoing = {(e.label, e.target) for e in result.graph.edges
                if e.source == survivor.node_id}
    assert incoming, "chunk-1 edge into the shared node is missing"
    assert outgoing, "chunk-2 edges out of the shared node are missing"
    assert [m.origin_chunk for m in survivor.merged_from] == [1]


def test_no_cross_chunk_duplicates_yields_union_byte_for_byte():
    c1, g1 = tiny_graph(1, "a start", "a end")
    c2, g2 = tiny_graph(2, "b start", "b end")
    union = union_graphs([g1, g2])
    result = aggregate([c1, c2], [g1, g2], no_match_client(), store(), config())
    assert canonical_json(graph_to_doc(result.graph)) == canonical_json(graph_to_doc(union))
    assert result.decisions == []
    assert_edge_preservation(union, result)


def test_three_way_duplicate_collapses_to_earliest_chunk():
    chunks, graphs = [], []
    for chunk_id in (1, 2, 3):
        chunk, graph = tiny_graph(chunk_id, "shared pathway", f"finish {chunk_id}")
        chunks.append(chunk)
        graphs.append(graph)
    union = union_graphs(graphs)
    result = aggregate(chunks, graphs, no_match_client(), store(), config())
    shared = [n for n in result.graph.nodes.values() if n.label == "shared pathway"]
    assert len(shared) == 1
    assert shared[0].origin_chunk == 1
    absorbed = {m.node_id for m in shared[0].merged_from}
    assert absorbed == {"c02n002", "c03n002"}
    assert_edge_preservation(union, result)
    assert any(d.requeued_primary for d in result.decisions)
    # earlier-chunk preference applied on both merges of equal kinds
    for decision in result.decisions:
        assert decision.reason == "earlier_chunk"
        assert decision.primary_origin < decision.secondary_origin


def test_same_origin_nodes_never_merge():
    # two identical labels in one chunk (hand-built) plus a cross-chunk twin
    g1 = DecisionGraph()
    g1.add_node(node("c01n001", "end a", NodeKind.TERMINAL, 1))
    g1.add_node(node("c01n002", "dup state", NodeKind.ENTRY, 1))
    g1.add_edge("c01n002", "go", "c01n001")
    c1 = Chunk(1, "ctx", ("dup state",), ("end a",), "d", (), (1,))
    c2, g2 = tiny_graph(2, "dup state", "end b")
    union = union_graphs([g1, g2])
    result = aggregate([c1, c2], [g1, g2], no_match_client(), store(), config())
    for decision in result.decisions:
        assert decision.primary_origin != decision.secondary_origin
    assert_edge_preservation(union, result)


def test_merge_preference_prefers_non_terminal():
    graph = DecisionGraph()
    graph.add_node(node("n1", "state", NodeKind.TERMINAL, 1))
    graph.add_node(node("n2", "state", NodeKind.ENTRY, 2))
    primary, secondary, reason = choose_primary_secondary(graph, "n1", "n2")
    assert (primary, secondary, reason) == ("n2", "n1", "non_terminal_preferred")


def test_merge_preference_id_tie_break():
    graph = DecisionGraph()
    graph.add_node(node("b", "state", NodeKind.ENTRY, 1))
    graph.add_node(node("a", "state", NodeKind.ENTRY, 1))
    primary, secondary, reason = choose_primary_secondary(graph, "b", "a")
    assert (primary, secondary, reason) == ("a", "b", "id_tie_break")


def test_get_ancestors_sorted():
    _, graph = tiny_graph(1, "a start", "a end")
    assert get_ancestors(graph, "c01n001") == [("a start", "go")]


def test_ancestor_context_capped_at_eight():
    from guidegraph.aggregator import _capped_ancestors

    graph = DecisionGraph()
    graph.add_node(node("x", "hub state", NodeKind.INTERMEDIATE, 1, interface=False))
    for i in range(12):
        graph.add_node(node(f"a{i:02d}", f"ancestor {i}", NodeKind.INTERMEDIATE, 1,
                            interface=False))
        graph.add_edge(f"a{i:02d}", f"cond {i}", "x")
    capped = _capped_ancestors(graph, "x", store())
    assert len(capped) == 8
    assert set(capped) <= set(get_ancestors(graph, "x"))


def test_aggregate_suppresses_self_loops_from_chained_merges():
    # Both endpoints of a chunk-1 edge are terminals absorbed, one after the
    # other, by the same chunk-2 entry: the edge collapses into a logged
    # self-loop.
    g1 = DecisionGraph()
    g1.add_node(node("c01n001", "x1", NodeKind.TERMINAL, 1))
    g1.add_node(node("c01n002", "x2", NodeKind.TERMINAL, 1))
    g1.add_node(node("c01n003", "e other", NodeKind.ENTRY, 1))
    g1.add_edge("c01n001", "cond", "c01n002")
    c1 = Chunk(1, "ctx", ("e other",), ("x1", "x2"), "d", (), (1,))
    g2 = DecisionGraph()
    g2.add_node(node("c02n001", "xw", NodeKind.ENTRY, 2))
    g2.add_node(node("c02n002", "x other", NodeKind.TERMINAL, 2))
    c2 = Chunk(2, "ctx", ("xw",), ("x other",), "d", (), (2,))

    label_class = {"x1": 7, "x2": 7, "xw": 7, "x other": 8, "e other": 9}
    union = union_graphs([g1, g2])
    result = aggregate([c1, c2], [g1, g2],
                       make_client(ClassVerifierBackend(label_class)), store(),
                       config(candidate_count=12))
    assert_edge_preservation(union, result)
    assert [tuple(e) for e in result.graph.suppressed_self_loops] == [
        ("c02n001", "cond", "c02n001"),
    ]
    labels = sorted(n.label for n in result.graph.nodes.values())
    assert labels == ["e other", "x other", "xw"]
    assert result.graph.nodes["c02n001"].kind is NodeKind.INTERMEDIATE


def test_aggregate_retrieval_ranks_by_node_label():
    # With k=1 the paraphrase twin must win retrieval on label similarity,
    # otherwise the verifier never even sees it.
    g1 = DecisionGraph()
    g1.add_node(node("c01n001", "surveillance complete", NodeKind.TERMINAL, 1))
    g1.add_node(node("c01n002", "active surveillance protocol", NodeKind.ENTRY, 1))
    g1.add_edge("c01n002", "go", "c01n001")
    c1 = Chunk(1, "ctx", ("active surveillance protocol",),
               ("surveillance complete",), "d", (), (1,))
    g2 = DecisionGraph()
    g2.add_node(node("c02n001", "totally unrelated imaging clinic", NodeKind.TERMINAL, 2))
    g2.add_node(node("c02n002", "active surveillance protocols", NodeKind.ENTRY, 2))
    g2.add_edge("c02n002", "go", "c02n001")
    c2 = Chunk(2, "ctx", ("active surveillance protocols",),
               ("totally unrelated imaging clinic",), "d", (), (2,))

    classes = {"active surveillance protocol": 1, "active surveillance protocols": 1,
               "surveillance complete": 2, "totally unrelated imaging clinic": 3}
    result = aggregate([c1, c2], [g1, g2],
                       make_client(ClassVerifierBackend(classes)), store(),
                       config(candidate_count=1))
    merged = [n for n in result.graph.nodes.values()
              if n.label == "active surveillance protocol"]
    assert len(merged) == 1
    assert [m.node_id for m in merged[0].merged_from] == ["c02n002"]
    decision = result.decisions[0]
    assert decision.how == "verifier"
    assert decision.similarity == pytest.approx(0.947514, abs=1e-6)


def test_quotient_matches_brute_force_on_random_universes():
    verified = 0
    for seed in range(60):
        chunks, graphs, label_class = random_universe(seed)
        union = union_graphs(graphs)
        result = aggregate(chunks, graphs,
                           make_client(ClassVerifierBackend(label_class)), store(),
                           config(candidate_count=12))

        def equivalent(a, b):
            return label_class.get(a.label) == label_class.get(b.label)

        oracle_classes, oracle_edges = closure_quotient(union, equivalent)
        assert impl_partition(union, result) == oracle_classes, f"seed {seed}"
        assert impl_class_edges(union, result) == oracle_edges, f"seed {seed}"
        assert_edge_preservation(union, result)
        for decision in result.decisions:
            assert decision.primary_origin != decision.secondary_origin
            terminal_mix = (decision.primary_kind == "terminal") != (
                decision.secondary_kind == "terminal")
            if terminal_mix:
                assert decision.primary_kind != "terminal"
            else:
                assert decision.primary_origin < decision.secondary_origin
        verified += len(result.decisions)
    assert verified > 0, "universes never produced a merge"


def test_merge_log_and_provenance_docs():
    chunks, graphs = golden_chunks_and_graphs()
    result = aggregate(chunks, graphs, make_client(SyntheticRuleBackend()), store(), config())
    log = merge_log_doc(result)
    assert log["format"] == "merge-log/1"
    assert len(log["decisions"]) == 3
    assert all(d["reason"] == "non_terminal_preferred" for d in log["decisions"])
    assert log["decisions"] == [dataclasses.asdict(d) for d in result.decisions]
    prov = provenance_doc(result)
    merged_rows = [row for row in prov["nodes"] if row["merged_from"]]
    assert merged_rows
    low = next(row for row in prov["nodes"] if row["label"] == "low-risk group")
    assert low["chunks"] == [1, 2]
    assert low["pages"] == [2, 3, 4]
