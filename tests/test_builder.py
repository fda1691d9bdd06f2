from __future__ import annotations

import json
import random

import pytest

from conftest import make_client, placed_store, ranking_pool
from synth import (
    GOLDEN_DIR,
    EndlessChildrenBackend,
    StaticBackend,
    SyntheticRuleBackend,
    synthetic_config,
)

from guidegraph import builder
from guidegraph.builder import (
    DuplicateQuery,
    build_graph,
    duplicate_query,
    find_duplicate,
    generate_children,
)
from guidegraph.core import (
    Chunk,
    DecisionGraph,
    DecisionNode,
    NodeKind,
    canonical_json,
    chunks_from_doc,
    graph_to_doc,
    normalize_label,
)
from guidegraph.errors import ExpansionBudgetExceeded, UsageError
from guidegraph.oracle import OracleTask
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend, RankingPool


def load_golden_chunks() -> list[Chunk]:
    doc = json.loads((GOLDEN_DIR / "chunks.json").read_text())
    return chunks_from_doc(doc)


def config(**overrides):
    cfg = synthetic_config("unused")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def build(chunk, backend, **overrides):
    return build_graph(chunk, make_client(backend),
                       EmbeddingStore(HashingEmbeddingBackend()), config(**overrides))


def simple_chunk(entry=("alpha",), terminal=("omega",), chunk_id=1, context="ctx"):
    return Chunk(chunk_id=chunk_id, context=context, entry_labels=tuple(entry),
                 terminal_labels=tuple(terminal), description="d",
                 carried_pages=(), page_span=(chunk_id,))


class TableBackend(SyntheticRuleBackend):
    """Children and paraphrases supplied per test."""

    def __init__(self, children: dict[str, list[tuple[str, str]]],
                 paraphrases: dict[str, str] | None = None):
        self._children = children
        self._paraphrases = paraphrases or {}

    def body_for(self, task, payload):
        if task is OracleTask.GENERATE_CHILDREN:
            pairs = self._children.get(payload["node"], [])
            return {"children": [{"label": l, "edge_label": e} for l, e in pairs]}
        if task is OracleTask.FIND_DUPLICATE:
            target = self._paraphrases.get(payload["candidate"])
            return {"matches": [i for i, label in enumerate(payload["candidates"])
                                if target is not None and label == target]}
        return super().body_for(task, payload)


def test_synthetic_chunk_one_matches_golden_graph():
    chunk = load_golden_chunks()[0]
    result = build(chunk, SyntheticRuleBackend())
    golden = json.loads((GOLDEN_DIR / "graphs" / "chunk_01.json").read_text())
    assert graph_to_doc(result.graph) == golden
    kinds = [n.kind for n in result.graph.nodes.values()]
    assert kinds.count(NodeKind.ENTRY) == 1
    assert kinds.count(NodeKind.TERMINAL) == 2
    assert kinds.count(NodeKind.INTERMEDIATE) == 2
    assert len(result.graph.edges) == 5


def test_build_is_deterministic_byte_for_byte():
    chunk = load_golden_chunks()[1]
    first = build(chunk, SyntheticRuleBackend())
    second = build(chunk, SyntheticRuleBackend())
    assert canonical_json(graph_to_doc(first.graph)) == canonical_json(graph_to_doc(second.graph))
    assert first.trace == second.trace


def test_entry_label_generating_itself_merges_without_new_node():
    backend = TableBackend({"alpha": [("alpha", "loop"), ("omega", "done")]})
    result = build(simple_chunk(), backend)
    labels = sorted(n.label for n in result.graph.nodes.values())
    assert labels == ["alpha", "omega"]
    assert {tuple(e) for e in result.graph.edges} == {
        (result.graph.lowest_label_id("alpha"), "done", result.graph.lowest_label_id("omega")),
    }
    # the self-referential child collapsed into its own ancestor, and the trace says so
    alpha = result.graph.lowest_label_id("alpha")
    assert result.graph.suppressed_self_loops == [(alpha, "loop", alpha)]
    assert [event for event in result.trace if event["event"] == "self_loop"] == [
        {"event": "self_loop", "chunk": 1, "source": alpha, "label": "loop"}]


def test_unbounded_chain_hits_cap_exactly():
    client = make_client(EndlessChildrenBackend())
    with pytest.raises(ExpansionBudgetExceeded):
        build_graph(simple_chunk(entry=("start here",), terminal=("never reached",)), client,
                    EmbeddingStore(HashingEmbeddingBackend()), config(expansion_cap=10))
    # The cap admits 10 nodes, the terminal and 9 that each asked for children;
    # the 11th is refused before it asks.
    tasks = [entry["task"] for entry in client.audit.entries]
    assert tasks.count("generate_children") == 10 - 1


def test_a_dequeue_builds_a_query_and_looks_its_label_up_only_on_a_miss(monkeypatch):
    # "alpha" and "omega" come back as children, so four dequeues are exact
    # hits: they build no query and look nothing up. Each miss looks its
    # label up once and hands that entry to its node's pool row.
    backend = TableBackend({"alpha": [("beta", "b"), ("alpha", "loop"), ("omega", "end")],
                            "beta": [("alpha", "back"), ("omega", "end")]})
    queries, looked_up, rows = [], [], {}

    class Recorded(DuplicateQuery):
        __slots__ = ()

        def __init__(self, *fields):
            queries.append(fields[0])
            super().__init__(*fields)

    def entry(self, label, find=EmbeddingStore.entry):
        looked_up.append(label)
        return find(self, label)

    def add(self, node_id, label, group, entry=None, add=RankingPool.add):
        rows[label] = entry
        add(self, node_id, label, group, entry)

    monkeypatch.setattr(builder, "DuplicateQuery", Recorded)
    monkeypatch.setattr(EmbeddingStore, "entry", entry)
    monkeypatch.setattr(EmbeddingStore, "lookup", None)  # no batch lookup either
    monkeypatch.setattr(RankingPool, "add", add)
    store = EmbeddingStore(HashingEmbeddingBackend())
    result = build_graph(simple_chunk(), make_client(backend), store, config())
    exact = [e["label"] for e in result.trace if e["event"] == "duplicate" and e["how"] == "exact"]
    assert sorted(exact) == ["alpha", "alpha", "omega", "omega"]
    assert queries == ["alpha", "beta"]
    assert looked_up == ["omega", "alpha", "beta"]  # by the terminal's row, then by each query
    monkeypatch.undo()
    assert rows["omega"] is None
    assert rows["alpha"] is store.entry("alpha") and rows["beta"] is store.entry("beta")


def test_every_node_gets_its_own_copy_of_the_sorted_page_span():
    chunk = Chunk(chunk_id=1, context="ctx", entry_labels=("alpha",), terminal_labels=("omega",),
                  description="d", carried_pages=(), page_span=(3, 1, 2))
    graph = build(chunk, TableBackend({"alpha": [("beta", "b")]})).graph
    pages = [node.provenance_pages for node in graph.nodes.values()]
    assert pages == [[1, 2, 3]] * 3
    assert len({id(each) for each in pages}) == 3


def test_cap_smaller_than_interface_rejected():
    with pytest.raises(UsageError):
        build(simple_chunk(entry=("a", "b"), terminal=("c", "d")),
              SyntheticRuleBackend(), expansion_cap=3)


def dedup_graph(members: dict[str, str], store: EmbeddingStore | None = None,
                groups: dict[str, int] | None = None) -> tuple[DecisionGraph, RankingPool]:
    """A graph of the members (node id -> label) and a pool of all of them,
    each in its group (origin chunk), by default 1."""
    groups = {node_id: (groups or {}).get(node_id, 1) for node_id in members}
    graph = DecisionGraph()
    for node_id, label in members.items():
        graph.add_node(DecisionNode(node_id, label, NodeKind.INTERMEDIATE, groups[node_id]))
    return graph, ranking_pool(store or EmbeddingStore(HashingEmbeddingBackend()),
                               members, groups)


class RecordingBackend(TableBackend):
    """A `TableBackend` that keeps each find_duplicate payload it answers."""

    def __init__(self, paraphrases: dict[str, str] | None = None):
        super().__init__({}, paraphrases)
        self.payloads: list[dict] = []

    def body_for(self, task, payload):
        if task is OracleTask.FIND_DUPLICATE:
            self.payloads.append(payload)
        return super().body_for(task, payload)


def test_fast_path_exact_match_skips_oracle():
    backend = StaticBackend("never called")
    graph, pool = dedup_graph({"n2": "active surveillance", "n1": "active surveillance",
                               "n0": "watchful waiting"})
    match, similarity, how = find_duplicate(duplicate_query(
        normalize_label("Active Surveillance"), lambda: [], graph, pool, 5), make_client(backend))
    assert (match, similarity, how) == ("n1", 1.0, "exact")
    assert backend.calls == 0


def test_exact_hit_never_ranks(monkeypatch):
    def must_not_rank(*args):
        raise AssertionError("an exact hit must not rank the pool")

    monkeypatch.setattr(builder, "cosine_candidates", must_not_rank)
    # a1 is the lowest id with the label, but its group is excluded.
    graph, pool = dedup_graph({"a1": "mri", "b2": "mri", "b3": "mri"},
                              groups={"a1": 1, "b2": 2, "b3": 2})
    backend = StaticBackend("never called")
    match, _, how = find_duplicate(duplicate_query("mri", lambda: [], graph, pool, 5, exclude=1),
                                   make_client(backend))
    assert (match, how) == ("b2", "exact")
    assert backend.calls == 0


def test_only_a_ranked_query_builds_its_ancestor_context():
    built = []

    def ancestors():
        built.append(True)
        return [("psa elevated", "yes")]

    graph, pool = dedup_graph({"a1": "mri", "b1": "prostate mri"}, groups={"a1": 1, "b1": 2})
    assert duplicate_query("mri", ancestors, graph, pool, 5) == "a1"  # an exact hit is its id
    assert duplicate_query("mri", ancestors, graph, pool, 5, exclude=2) == "a1"
    empty_graph, empty_pool = dedup_graph({})
    assert duplicate_query("mri", ancestors, empty_graph, empty_pool, 5).payload is None
    assert built == []
    query = duplicate_query("mri", ancestors, graph, pool, 5, exclude=1)
    assert isinstance(query, DuplicateQuery)
    assert [c[0] for c in query.candidates] == ["b1"]
    assert query.payload["ancestors"] == [{"label": "psa elevated", "edge": "yes"}]
    assert built == [True]


def test_empty_candidate_set_returns_none_without_oracle():
    backend = StaticBackend("never called")
    graph, pool = dedup_graph({})
    match, _, how = find_duplicate(duplicate_query("fresh", lambda: [], graph, pool, 5),
                                   make_client(backend))
    assert match is None
    assert how == "empty-pool"
    assert backend.calls == 0


def test_all_excluded_is_empty_pool_without_a_call_or_an_embed():
    texts: list[str] = []

    class CountingBackend(HashingEmbeddingBackend):
        def embed_texts(self, batch):
            texts.extend(batch)
            return super().embed_texts(batch)

    graph, pool = dedup_graph({"a1": "mri", "a2": "repeat biopsy"},
                              store=EmbeddingStore(CountingBackend()))
    backend = StaticBackend("never called")
    for label in ("mri", "prostate mri"):
        result = find_duplicate(duplicate_query(label, lambda: [], graph, pool, 5, exclude=1),
                                make_client(backend))
        assert result == (None, None, "empty-pool")
    assert backend.calls == 0
    assert texts == ["mri", "repeat biopsy"]  # embedded by the pool, not by a query


def test_same_label_in_the_excluded_group_goes_to_the_verifier():
    backend = RecordingBackend()
    graph, pool = dedup_graph({"a1": "mri", "b1": "magnetic resonance imaging"},
                              groups={"a1": 1, "b1": 2})
    match, _, how = find_duplicate(duplicate_query(
        "mri", lambda: [("psa elevated", "yes")], graph, pool, 5, exclude=1),
        make_client(backend))
    assert (match, how) == (None, "verifier")
    assert backend.payloads == [{"candidate": "mri",
                                 "ancestors": [{"label": "psa elevated", "edge": "yes"}],
                                 "candidates": ["magnetic resonance imaging"]}]


def test_paraphrase_match_via_verifier():
    backend = RecordingBackend(paraphrases={"as protocol": "active surveillance"})
    store = placed_store({"as protocol": [1.0, 0.0],
                          "active surveillance": [0.7, 0.51 ** 0.5],
                          "watchful waiting": [0.4, 0.84 ** 0.5]})
    graph, pool = dedup_graph({"n1": "watchful waiting", "n2": "active surveillance"}, store)
    match, similarity, how = find_duplicate(
        duplicate_query("as protocol", lambda: [], graph, pool, 5), make_client(backend))
    assert (match, how) == ("n2", "verifier")
    assert similarity == pytest.approx(0.7)
    assert backend.payloads[0]["candidates"] == ["active surveillance", "watchful waiting"]


def test_verifier_picks_highest_similarity_then_lowest_id():
    class ConfirmEverythingWorstFirst(SyntheticRuleBackend):
        def body_for(self, task, payload):
            assert task is OracleTask.FIND_DUPLICATE
            return {"matches": list(reversed(range(len(payload["candidates"]))))}

    store = placed_store({"x": [1.0, 0.0], "a": [0.0, 1.0], "b": [1.0, 0.0],
                          "c": [1.0, 0.0]})
    graph, pool = dedup_graph({"n3": "c", "n1": "a", "n2": "b"}, store)
    match, similarity, _ = find_duplicate(duplicate_query("x", lambda: [], graph, pool, 5),
                                          make_client(ConfirmEverythingWorstFirst()))
    assert (match, similarity) == ("n2", 1.0)


def test_duplicate_oracle_failure_degrades_to_new_node():
    backend = StaticBackend("garbage")
    graph, pool = dedup_graph({"n1": "other"})
    match, _, how = find_duplicate(duplicate_query("x", lambda: [], graph, pool, 5),
                                   make_client(backend))
    assert match is None
    assert how == "error-degraded"


def test_generate_children_drops_empty_labels():
    backend = TableBackend({"alpha": [("", "cond"), ("beta", ""), ("gamma", "ok")]})
    children = generate_children("alpha", None, "ctx", make_client(backend))
    assert children == [("gamma", "ok")]


def test_generate_children_oracle_failure_yields_dead_end():
    class NoChildrenEver(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.GENERATE_CHILDREN:
                return {"broken": True}
            return super().body_for(task, payload)

    result = build(simple_chunk(), NoChildrenEver())
    assert sorted(n.label for n in result.graph.nodes.values()) == ["alpha", "omega"]
    assert any(e["event"] == "dead_end" for e in result.trace)


def test_terminal_fixity_on_all_golden_graphs():
    for chunk in load_golden_chunks():
        result = build(chunk, SyntheticRuleBackend())
        terminals = {n.label for n in result.graph.nodes.values()
                     if n.kind is NodeKind.TERMINAL}
        assert terminals == {normalize_label(z) for z in chunk.terminal_labels}


def _raw_spelling(rng: random.Random, label: str) -> str:
    """The label with random case, padding, inner whitespace and end punctuation."""
    words = [word.upper() if rng.random() < 0.5 else word.title() for word in label.split()]
    return (" " * rng.randint(0, 2) + (" " * rng.randint(1, 3)).join(words)
            + rng.choice(["", ".", ";", " :"]) + " " * rng.randint(0, 2))


def test_every_stored_label_is_normalized_whatever_the_raw_spelling():
    children = {"active surveillance": [("repeat biopsy", "psa rising"),
                                        ("watchful waiting", "psa stable")],
                "repeat biopsy": [("radical treatment", "upgrade found"),
                                  ("active surveillance", "no upgrade")],
                "watchful waiting": [("discharge", "ten years stable")]}
    for seed in range(20):
        rng = random.Random(seed)
        raw_children = {node: [(_raw_spelling(rng, label), _raw_spelling(rng, edge))
                               for label, edge in pairs] for node, pairs in children.items()}
        chunk = simple_chunk(entry=[_raw_spelling(rng, "active surveillance")],
                             terminal=[_raw_spelling(rng, "radical treatment"),
                                       _raw_spelling(rng, "discharge")])
        graph = build(chunk, TableBackend(raw_children)).graph
        labels = [label for node in graph.nodes.values()
                  for label in (node.label, *node.interface_labels)]
        labels.extend(edge.label for edge in graph.edges)
        assert all(label == normalize_label(label) for label in labels), labels
        assert sorted(node.label for node in graph.nodes.values()) == sorted(
            {label for pairs in children.values() for label, _ in pairs}
            | {"active surveillance"})
        assert len(graph.edges) == 5


def test_every_nonterminal_nonentry_node_has_incoming_edge():
    for chunk in load_golden_chunks():
        graph = build(chunk, SyntheticRuleBackend()).graph
        for node_id, node in graph.nodes.items():
            if node.kind is NodeKind.INTERMEDIATE:
                assert any(e.target == node_id for e in graph.edges), node.label


def test_no_duplicate_nonterminal_labels_within_chunk():
    for chunk in load_golden_chunks():
        graph = build(chunk, SyntheticRuleBackend()).graph
        labels = [n.label for n in graph.nodes.values()]
        assert len(labels) == len(set(labels))


def test_queue_discipline_is_fifo_bfs():
    backend = TableBackend({
        "alpha": [("left branch", "l"), ("right branch", "r")],
        "left branch": [("omega", "end")],
        "right branch": [("omega", "end")],
    })
    result = build(simple_chunk(), backend)
    registered = [e["label"] for e in result.trace if e["event"] == "register"]
    assert registered == ["omega", "alpha", "left branch", "right branch"]


def test_entry_merged_into_terminal_records_interface_label():
    class EntryEqualsTerminal(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.FIND_DUPLICATE:
                matches = [i for i, label in enumerate(payload["candidates"])
                           if payload["candidate"] == "begin" and label == "end state"]
                return {"matches": matches}
            return super().body_for(task, payload)

    result = build(simple_chunk(entry=("begin",), terminal=("end state",)),
                   EntryEqualsTerminal())
    assert len(result.graph.nodes) == 1
    terminal = next(iter(result.graph.nodes.values()))
    assert terminal.kind is NodeKind.TERMINAL
    assert terminal.interface_labels == ["end state", "begin"]


def test_entry_label_equal_to_a_node_id_is_ranked_as_a_label():
    # The terminal "done" registers as c01n001. The entry label "c01n001"
    # names no node: it is ranked against "done", so the verifier is asked
    # before the entry registers.
    payloads = []

    class RecordingTable(TableBackend):
        def body_for(self, task, payload):
            payloads.append((task, payload))
            return super().body_for(task, payload)

    client = make_client(RecordingTable({}))
    result = build_graph(simple_chunk(entry=("c01n001",), terminal=("done",)), client,
                         EmbeddingStore(HashingEmbeddingBackend()), config())
    assert [record["task"] for record in client.audit.entries] == [
        "find_duplicate", "generate_children"]
    assert payloads[0] == (OracleTask.FIND_DUPLICATE,
                           {"candidate": "c01n001", "ancestors": [], "candidates": ["done"]})
    assert sorted(n.label for n in result.graph.nodes.values()) == ["c01n001", "done"]


def test_child_label_spelled_like_a_sibling_id_keeps_the_sibling_edge():
    # "biopsy" registers as c01n003; its sibling "c01n003" duplicates the
    # terminal. Pointing the sibling's edge at the terminal must not touch
    # the edge into the node whose id the sibling's label spells.
    backend = TableBackend({"alpha": [("biopsy", "go"), ("c01n003", "go")]},
                           paraphrases={"c01n003": "omega"})
    result = build(simple_chunk(), backend)
    assert [(n.node_id, n.label) for n in result.graph.nodes.values()] == [
        ("c01n001", "omega"), ("c01n002", "alpha"), ("c01n003", "biopsy")]
    assert set(result.graph.edges) == {("c01n002", "go", "c01n001"),
                                       ("c01n002", "go", "c01n003")}


def test_adversarial_cyclic_fixture_terminates():
    backend = TableBackend({
        "alpha": [("beta state", "go")],
        "beta state": [("alpha", "back")],
    })
    result = build(simple_chunk(), backend)
    triples = {tuple(e) for e in result.graph.edges}
    alpha = result.graph.lowest_label_id("alpha")
    beta = result.graph.lowest_label_id("beta state")
    assert (alpha, "go", beta) in triples
    assert (beta, "back", alpha) in triples


def test_protocol_failure_in_duplicate_check_registers_new_node():
    class BrokenVerifier(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.FIND_DUPLICATE:
                return {"nope": 1}
            if task is OracleTask.GENERATE_CHILDREN:
                return {"children": []}
            return super().body_for(task, payload)

    result = build(simple_chunk(), BrokenVerifier())
    assert sorted(n.label for n in result.graph.nodes.values()) == ["alpha", "omega"]
