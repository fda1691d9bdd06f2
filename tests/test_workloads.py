"""The benchmark's three workload shapes, run whole at seed 3 with zero
latency at parallelism 1: the oracle calls by task, the embeddings and
rankings, and the digests of the result files are pinned, so a change that
means to leave outputs and work alone shows that it does on the workloads
the benchmark times. The merged graphs, the golden one included, keep the
structure every run gives them by construction."""
from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from guidegraph import builder, cli
from guidegraph.core import DecisionGraph, DecisionNode, NodeKind, graph_from_doc, load_doc
from guidegraph.oracle import AuditLog, OracleClient
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend

from synth import GOLDEN_DIR

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from generator import GeneratorBackend, Shape, make_document, write_manifest  # noqa: E402

# The shapes of perfbench/run.py's WORKLOADS.
SHAPES = {
    "expand_dense": Shape(pages=15, chunk_pages=3, width=10, depth=10, fanout=3, interface=2),
    "merge_chain": Shape(pages=20, chunk_pages=1, width=4, depth=3, fanout=2, interface=6,
                         paraphrase_every=2),
    "roundtrip": Shape(pages=60, chunk_pages=4, width=3, depth=2, fanout=2, interface=2,
                       aux_every=10),
}
RESULT_FILES = ("merged.json", "merge_log.json", "provenance.json", "expansion_trace.json",
                "chunks.json")

# Per shape: oracle calls by task, (labels embedded, embedding requests:
# one per chunk for its interface plus one per BFS level), rankings (calls
# of `cosine_candidates`) and each result file's sha256.
LEDGER = {
    "expand_dense": (
        {"extract_profile": 1, "classify_page": 15, "predict_boundary": 14, "build_chunk": 5,
         "refine_nodes": 5, "find_duplicate": 522, "generate_children": 510},
        (512, 55), 522,
        {"merged.json": "ffdc3ed12d1f55bf38a7da066b13bd43454aadc00a64b29f9b237bfbe7381b6f",
         "merge_log.json": "f99c94d1366d0c96a2ab276c5ae758e13ec895a3c5acb61ed40ebe53ae5be9b8",
         "provenance.json": "5d650fe375859ae47668e3ad2e2b33d5e0c15aec91740a78985e18c298b96ef3",
         "expansion_trace.json":
             "97d0b1dc5b3536bf77244bc465a3a98ed3ea8a26839dfca1ececa1e89a9f5251",
         "chunks.json": "c74f7139c8e6d2d743d093c7188a6ed5f25440f6be7f92179079e5bbf79b7f31"},
    ),
    "merge_chain": (
        {"extract_profile": 1, "classify_page": 20, "predict_boundary": 19, "build_chunk": 20,
         "refine_nodes": 20, "find_duplicate": 543, "generate_children": 360},
        (423, 80), 543,
        {"merged.json": "20ae472065c62800bd2a47824200a5c81c1954ad5893a855a7603fb7eb75bdcb",
         "merge_log.json": "d33f1f0769a615b90cfb575298832aaa18beb464f1e950b2d7c8027a36931c0d",
         "provenance.json": "370b5aa0fc6abff33950c9bf4cecbe83f4d42373b4462a77d4938ef78aa40683",
         "expansion_trace.json":
             "83b7cbee727723b09c3a1b3fd5613bc6931ca3180d102784a733c33876efe517",
         "chunks.json": "7e1309ede56300ad6b87d6ff6a448a3b0cacf7190a2af76e593281359b9ee27a"},
    ),
    "roundtrip": (
        {"extract_profile": 1, "classify_page": 60, "predict_boundary": 48, "build_chunk": 18,
         "refine_nodes": 18, "find_duplicate": 182, "generate_children": 144},
        (146, 54), 182,
        {"merged.json": "2e262332946edeffce9dc494911e16902e5b91787478bf4c457b7a517dfda492",
         "merge_log.json": "16949f20cdeec3b5d4c211833ceaa52d40d72b9805ea48624b6c880f4c38ac0b",
         "provenance.json": "47fe07231dd7d66085e4fa10a0d8b5c7d2c2e4c7b28c2b35a5fb0b99209154ef",
         "expansion_trace.json":
             "cb83636ceb9ee0588060f7c9f148c9eac991bc6b368e3a49940857b82c3fa880",
         "chunks.json": "eeaae8bf6eb19848b7501b524d7eb0cd3140465536a859333e10dfa0f30835d8"},
    ),
}


def assert_merged_structure(graph: DecisionGraph) -> None:
    """Every non-terminal is reachable from an entry and no terminal has
    out-edges. An entry may have in-edges: a loop back to it is legitimate."""
    reached = graph.reachable(nid for nid, node in graph.nodes.items()
                              if node.kind is NodeKind.ENTRY)
    unreached = sorted(nid for nid, node in graph.nodes.items()
                       if node.kind is not NodeKind.TERMINAL and nid not in reached)
    assert unreached == []
    leaving = sorted(nid for nid, node in graph.nodes.items()
                     if node.kind is NodeKind.TERMINAL and graph.out_edges(nid))
    assert leaving == []


@pytest.mark.parametrize("shape", SHAPES)
def test_a_workload_makes_its_pinned_calls_and_writes_its_pinned_files(tmp_path, monkeypatch,
                                                                       shape):
    document = make_document(SHAPES[shape], seed=3)
    manifest = write_manifest(document, tmp_path / "in")
    clients: list[OracleClient] = []
    counts: Counter[str] = Counter()

    class CountingEmbedder(HashingEmbeddingBackend):
        def embed_texts(self, texts):
            counts["embeds"] += len(texts)
            counts["embed requests"] += 1
            return super().embed_texts(texts)

    def session(settings, out_dir):
        clients.append(OracleClient(GeneratorBackend(document),
                                    audit=AuditLog(out_dir / "audit.log")))
        return clients[-1], EmbeddingStore(CountingEmbedder())

    def ranked(*args, rank=builder.cosine_candidates):
        counts["rankings"] += 1
        return rank(*args)

    monkeypatch.setattr(cli, "make_session", session)
    monkeypatch.setattr(builder, "cosine_candidates", ranked)
    run_dir = cli.run_pipeline(manifest, cli.PipelineConfig(expansion_cap=400, parallelism=1),
                               tmp_path / "run")

    calls, (embeds, requests), rankings, digests = LEDGER[shape]
    assert Counter(entry["task"] for entry in clients[-1].audit.entries) == calls
    assert (counts["embeds"], counts["embed requests"], counts["rankings"]) == (
        embeds, requests, rankings)
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in RESULT_FILES} == digests
    assert_merged_structure(load_doc(run_dir / "merged.json", graph_from_doc))


def test_the_golden_merged_graph_keeps_its_structure():
    graph = load_doc(GOLDEN_DIR / "merged.json", graph_from_doc)
    assert {node.kind for node in graph.nodes.values()} == set(NodeKind)
    assert_merged_structure(graph)


def test_the_structure_check_fails_an_unreached_node_and_a_leaving_terminal():
    def graph(*edges: tuple[str, str]) -> DecisionGraph:
        built = DecisionGraph()
        for node_id, kind in (("e", NodeKind.ENTRY), ("i", NodeKind.INTERMEDIATE),
                              ("t", NodeKind.TERMINAL)):
            built.add_node(DecisionNode(node_id, node_id, kind, 1))
        for source, target in edges:
            built.add_edge(source, "go", target)
        return built

    assert_merged_structure(graph(("e", "i"), ("i", "t"), ("i", "e")))  # a loop back to an entry
    for faulty in (graph(("e", "t")), graph(("e", "i"), ("i", "t"), ("t", "i"))):
        with pytest.raises(AssertionError):
            assert_merged_structure(faulty)
