"""Global aggregation: union the chunk graphs, then resolve cross-chunk
duplicates starting from the interface nodes, merging with full edge
rewiring and provenance preserved.

The duplicate search never considers nodes from the candidate's own chunk.
After each merge the surviving node is re-enqueued once so chains of
near-duplicates spanning three or more chunks can collapse; each such
requeue is recorded on the merge decision rather than applied silently.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from .core import (
    Chunk,
    DecisionGraph,
    NodeKind,
    merge_nodes,
    normalize_label,
)
from .errors import IdCollisionError, InterfaceResolutionError
from .oracle import OracleClient
from .retrieval import CandidateSet, EmbeddingStore, cosine_candidates
from .builder import find_duplicate

logger = logging.getLogger(__name__)

MERGE_LOG_FORMAT = "merge-log/1"
MAX_ANCESTOR_CONTEXT = 8


@dataclass(frozen=True)
class MergeDecision:
    primary: str
    secondary: str
    reason: str  # non_terminal_preferred | earlier_chunk | id_tie_break
    similarity: float | None
    how: str
    primary_kind: str
    secondary_kind: str
    primary_origin: int
    secondary_origin: int
    requeued_primary: bool


@dataclass
class AggregationResult:
    graph: DecisionGraph
    decisions: list[MergeDecision]
    merge_map: dict[str, str] = field(default_factory=dict)

    def resolve(self, node_id: str) -> str:
        """Final surviving id for a union node id, following merge chains."""
        while node_id in self.merge_map:
            node_id = self.merge_map[node_id]
        return node_id


def union_graphs(chunk_graphs: Sequence[DecisionGraph]) -> DecisionGraph:
    """Disjoint union of chunk graphs, origin provenance intact."""
    union = DecisionGraph()
    for graph in chunk_graphs:
        for node_id in sorted(graph.nodes):
            if node_id in union.nodes:
                raise IdCollisionError(f"node id {node_id!r} appears in two chunk graphs")
            union.add_node(graph.nodes[node_id].copy())
        union.edges |= graph.edges
    union.check_integrity()
    return union


def seed_interface_queue(chunks: Sequence[Chunk], graph: DecisionGraph) -> deque[str]:
    """Queue of interface node ids: per chunk, entries then terminals, deduped.

    A label resolves to the lowest id among the chunk's nodes that carry it
    as an interface label.
    """
    lowest: dict[tuple[int, str], str] = {}
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        for label in node.interface_labels:
            lowest.setdefault((node.origin_chunk, label), nid)
    queue: deque[str] = deque()
    seen: set[str] = set()
    for chunk in chunks:
        for raw in tuple(chunk.entry_labels) + tuple(chunk.terminal_labels):
            label = normalize_label(raw)
            node_id = lowest.get((chunk.chunk_id, label))
            if node_id is None:
                raise InterfaceResolutionError(
                    f"chunk {chunk.chunk_id}: interface label {label!r} resolves to no node"
                )
            if node_id not in seen:
                seen.add(node_id)
                queue.append(node_id)
    return queue


def get_ancestors(graph: DecisionGraph, node_id: str) -> list[tuple[str, str]]:
    """(ancestor label, edge label) pairs for edges into node_id, sorted."""
    return sorted(
        (graph.nodes[source].label, edge_label)
        for source, edge_label in graph.ancestors_of(node_id)
    )


def choose_primary_secondary(graph: DecisionGraph, a: str, b: str) -> tuple[str, str, str]:
    """Pick the surviving node: prefer non-terminal, then earlier chunk, then id."""
    node_a, node_b = graph.nodes[a], graph.nodes[b]
    a_terminal = node_a.kind is NodeKind.TERMINAL
    b_terminal = node_b.kind is NodeKind.TERMINAL
    if a_terminal != b_terminal:
        return (a, b, "non_terminal_preferred") if b_terminal else (b, a, "non_terminal_preferred")
    if node_a.origin_chunk != node_b.origin_chunk:
        if node_a.origin_chunk < node_b.origin_chunk:
            return a, b, "earlier_chunk"
        return b, a, "earlier_chunk"
    return (a, b, "id_tie_break") if a < b else (b, a, "id_tie_break")


def _capped_ancestors(graph: DecisionGraph, node_id: str,
                      store: EmbeddingStore) -> list[tuple[str, str]]:
    ancestors = get_ancestors(graph, node_id)
    if len(ancestors) <= MAX_ANCESTOR_CONTEXT:
        return ancestors
    node_label = graph.nodes[node_id].label
    ranked = sorted(
        ancestors,
        key=lambda pair: (-store.cosine(pair[0], node_label), pair[0], pair[1]),
    )
    return ranked[:MAX_ANCESTOR_CONTEXT]


def aggregate(chunks: Sequence[Chunk], chunk_graphs: Sequence[DecisionGraph],
              client: OracleClient, store: EmbeddingStore, config) -> AggregationResult:
    """Merge chunk graphs into one consolidated decision graph."""
    graph = union_graphs(chunk_graphs)
    queue = seed_interface_queue(chunks, graph)
    in_queue = set(queue)
    tombstones: set[str] = set()
    decisions: list[MergeDecision] = []
    merge_map: dict[str, str] = {}
    by_chunk: dict[int, dict[str, str]] = {}  # origin chunk -> live node id -> label
    for nid, each in graph.nodes.items():
        by_chunk.setdefault(each.origin_chunk, {})[nid] = each.label

    while queue:
        x = queue.popleft()
        in_queue.discard(x)
        if x in tombstones or x not in graph.nodes:
            continue
        node = graph.nodes[x]
        if len(by_chunk[node.origin_chunk]) == len(graph.nodes):  # no node of another chunk
            continue
        exact_id = next((nid for nid in graph.label_ids(node.label)
                         if graph.nodes[nid].origin_chunk != node.origin_chunk), None)

        def rank() -> tuple[CandidateSet, dict[str, str]]:
            pool: dict[str, str] = {}
            for chunk_id, labels in by_chunk.items():
                if chunk_id != node.origin_chunk:
                    pool.update(labels)
            return cosine_candidates(node.label, pool, config.candidate_count, store), pool

        ancestors = _capped_ancestors(graph, x, store)
        match_id, similarity, how = find_duplicate(node.label, ancestors, exact_id,
                                                   rank, client)
        if match_id is None:
            continue
        primary, secondary, reason = choose_primary_secondary(graph, x, match_id)
        p_kind = graph.nodes[primary].kind.value
        s_kind = graph.nodes[secondary].kind.value
        p_origin = graph.nodes[primary].origin_chunk
        s_origin = graph.nodes[secondary].origin_chunk
        merge_nodes(graph, primary, secondary)
        del by_chunk[s_origin][secondary]
        merge_map[secondary] = primary
        tombstones.add(secondary)
        requeued = primary not in in_queue
        if requeued:
            queue.append(primary)
            in_queue.add(primary)
        decisions.append(MergeDecision(
            primary=primary,
            secondary=secondary,
            reason=reason,
            similarity=None if similarity is None else round(similarity, 6),
            how=how,
            primary_kind=p_kind,
            secondary_kind=s_kind,
            primary_origin=p_origin,
            secondary_origin=s_origin,
            requeued_primary=requeued,
        ))

    graph.check_integrity()
    return AggregationResult(graph=graph, decisions=decisions, merge_map=merge_map)


def merge_log_doc(result: AggregationResult) -> dict[str, Any]:
    return {
        "format": MERGE_LOG_FORMAT,
        "decisions": [
            {
                "primary": d.primary,
                "secondary": d.secondary,
                "reason": d.reason,
                "similarity": d.similarity,
                "how": d.how,
                "primary_kind": d.primary_kind,
                "secondary_kind": d.secondary_kind,
                "primary_origin": d.primary_origin,
                "secondary_origin": d.secondary_origin,
                "requeued_primary": d.requeued_primary,
            }
            for d in result.decisions
        ],
        "suppressed_self_loops": [
            {"source": e.source, "label": e.label, "target": e.target}
            for e in result.graph.suppressed_self_loops
        ],
    }


def provenance_doc(result: AggregationResult) -> dict[str, Any]:
    """Table mapping each final node to its contributing chunks and pages."""
    nodes = []
    for node_id in sorted(result.graph.nodes):
        node = result.graph.nodes[node_id]
        chunks_involved = sorted({node.origin_chunk} | {m.origin_chunk for m in node.merged_from})
        nodes.append({
            "node_id": node.node_id,
            "label": node.label,
            "kind": node.kind.value,
            "chunks": chunks_involved,
            "pages": list(node.provenance_pages),
            "merged_from": [
                {"node_id": m.node_id, "origin_chunk": m.origin_chunk}
                for m in node.merged_from
            ],
        })
    return {"format": "provenance/1", "nodes": nodes}
