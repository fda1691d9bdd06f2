"""Per-chunk graph expansion: FIFO worklist from the entry labels toward a
fixed terminal set, with duplicate detection against the growing node pool.

Terminal nodes are registered up front and are never created by expansion;
a candidate that matches one is merged into it by redirecting its incoming
edge. The node cap turns a hallucination loop into a diagnosable error.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from .core import (
    Chunk,
    DecisionGraph,
    NodeKind,
    QueueItem,
    normalize_label,
    register_node,
    redirect_ancestor_edge,
)
from .errors import (
    EmptyLabelError,
    ExpansionBudgetExceeded,
    GraphIntegrityError,
    OracleProtocolError,
    UsageError,
)
from .oracle import OracleClient, OracleTask
from .retrieval import EmbeddingStore, RankingPool, cosine_candidates

logger = logging.getLogger(__name__)


@dataclass
class BuildResult:
    graph: DecisionGraph
    trace: list[dict[str, Any]]


def children_payload(label: str, incoming: tuple[str, str] | None,
                     context: str) -> dict[str, Any]:
    return {
        "node": label,
        "incoming": None if incoming is None else {"ancestor": incoming[0], "edge": incoming[1]},
        "context": context,
    }


def duplicate_payload(candidate_label: str, ancestors: Sequence[tuple[str, str]],
                      candidate_labels: Sequence[str]) -> dict[str, Any]:
    return {
        "candidate": candidate_label,
        "ancestors": [{"label": label, "edge": edge} for label, edge in ancestors],
        "candidates": list(candidate_labels),
    }


def find_duplicate(
    candidate_label: str,
    ancestors: Sequence[tuple[str, str]],
    graph: DecisionGraph,
    pool: RankingPool,
    k: int,
    client: OracleClient,
) -> tuple[str | None, float | None, str]:
    """Decide whether a candidate duplicates a node of `pool`, which is a
    pool of `graph`'s nodes or a view of one.

    Fast path: the lowest id in the pool whose label equals the candidate's
    normalized label wins without ranking or an oracle call. Otherwise the
    pool's top k by cosine similarity go to the verifier; among confirmed
    matches the highest-similarity one wins, ties broken by ascending node
    id. An empty pool is "empty-pool", with no call. Oracle failure
    degrades to no-duplicate: keeping structure beats silently merging.

    Returns (node_id or None, similarity or None, how).
    """
    exact_id = next((nid for nid in graph.label_ids(candidate_label) if nid in pool), None)
    if exact_id is not None:
        return exact_id, 1.0, "exact"
    candidates = cosine_candidates(candidate_label, pool, k)
    if not candidates:
        return None, None, "empty-pool"
    payload = duplicate_payload(candidate_label, ancestors,
                                [label for _, label, _ in candidates])
    try:
        body = client.call(OracleTask.FIND_DUPLICATE, payload)
    except OracleProtocolError:
        logger.warning("duplicate check failed for %r; treating as new", candidate_label)
        return None, None, "error-degraded"
    confirmed = [i for i in body["matches"] if 0 <= i < len(candidates)]
    if not confirmed:
        return None, None, "verifier"
    node_id, _, similarity = candidates[min(confirmed)]  # candidates come best first
    return node_id, similarity, "verifier"


def generate_children(label: str, incoming: tuple[str, str] | None, context: str,
                      client: OracleClient) -> list[tuple[str, str]]:
    """Successor (label, transition condition) pairs for a registered node.

    Pairs with empty labels are dropped; a node whose expansion never
    validates becomes a logged dead end rather than aborting the chunk.
    """
    try:
        body = client.call(OracleTask.GENERATE_CHILDREN,
                           children_payload(label, incoming, context))
    except OracleProtocolError:
        logger.warning("child generation failed for %r; node becomes a dead end", label)
        return []
    children: list[tuple[str, str]] = []
    for child in body["children"]:
        try:
            children.append((normalize_label(child["label"]),
                             normalize_label(child["edge_label"])))
        except EmptyLabelError:
            logger.warning("dropping child with empty label under %r: %r", label, child)
    return children


def build_graph(chunk: Chunk, client: OracleClient, store: EmbeddingStore,
                config) -> BuildResult:
    """Expand one chunk into its decision graph.

    Terminals come only from the chunk's terminal labels; every non-terminal
    node is reachable from an entry; node ids are assigned in deterministic
    worklist order so repeated runs serialize identically. The chunk's
    interface labels are normalized when it is made, and child and edge
    labels when the reply is parsed, so every label is stored as it comes.
    """
    interface_size = len(chunk.entry_labels) + len(chunk.terminal_labels)
    if config.expansion_cap < interface_size:
        raise UsageError(
            f"chunk {chunk.chunk_id}: expansion_cap {config.expansion_cap} is smaller "
            f"than the interface ({interface_size} nodes)"
        )

    prefix = f"c{chunk.chunk_id:02d}n"
    graph = DecisionGraph()
    pool = RankingPool(store)  # every node of the graph
    queue: deque[QueueItem] = deque()
    trace: list[dict[str, Any]] = []

    def register(item: QueueItem, kind: NodeKind, interface_label: str | None) -> str:
        if len(graph.nodes) >= config.expansion_cap:
            trace.append({"event": "cap", "chunk": chunk.chunk_id,
                          "label": item.candidate_label})
            raise ExpansionBudgetExceeded(
                f"chunk {chunk.chunk_id}: expansion cap {config.expansion_cap} reached",
                partial_graph=graph,
            )
        node_id = register_node(
            graph, item, kind,
            origin_chunk=chunk.chunk_id,
            provenance_pages=chunk.page_span,
            id_prefix=prefix,
            interface_labels=[interface_label] if interface_label else [],
        )
        pool.add(node_id, graph.nodes[node_id].label)
        trace.append({"event": "register", "chunk": chunk.chunk_id,
                      "node_id": node_id, "label": item.candidate_label,
                      "kind": kind.value})
        return node_id

    for label in chunk.terminal_labels:
        register(QueueItem(label, None), NodeKind.TERMINAL, label)
    queue.extend(QueueItem(label, None) for label in chunk.entry_labels)

    while queue:
        item = queue.popleft()
        label = item.candidate_label
        ancestors = [] if item.incoming is None else [
            (graph.nodes[item.incoming[0]].label, item.incoming[1])
        ]
        match_id, similarity, how = find_duplicate(
            label, ancestors, graph, pool, config.candidate_count, client)
        if match_id is not None:
            trace.append({"event": "duplicate", "chunk": chunk.chunk_id,
                          "label": label, "match": match_id, "how": how,
                          "similarity": None if similarity is None else round(similarity, 6)})
            if item.incoming is not None:
                ancestor, edge_label = item.incoming
                redirect_ancestor_edge(graph, (ancestor, edge_label, label),
                                       (ancestor, edge_label, match_id))
            else:
                matched = graph.nodes[match_id]
                if label not in matched.interface_labels:
                    matched.interface_labels.append(label)
            continue
        kind = NodeKind.ENTRY if item.incoming is None else NodeKind.INTERMEDIATE
        node_id = register(item, kind, label if item.incoming is None else None)
        children = generate_children(label, item.incoming, chunk.context, client)
        if not children:
            trace.append({"event": "dead_end", "chunk": chunk.chunk_id,
                          "node_id": node_id, "label": label})
            logger.warning("chunk %d: non-terminal %r has no successors",
                           chunk.chunk_id, label)
        for child_label, edge_label in children:
            queue.append(QueueItem(child_label, (node_id, edge_label)))

    graph.check_integrity()
    _assert_terminal_fixity(chunk, graph)
    _assert_reachability(graph)
    return BuildResult(graph=graph, trace=trace)


def _assert_terminal_fixity(chunk: Chunk, graph: DecisionGraph) -> None:
    terminals = {node.label for node in graph.nodes.values()
                 if node.kind is NodeKind.TERMINAL}
    expected = set(chunk.terminal_labels)
    if terminals != expected:
        raise GraphIntegrityError(
            f"chunk {chunk.chunk_id}: terminal set {sorted(terminals)} != "
            f"interface {sorted(expected)}"
        )


def _assert_reachability(graph: DecisionGraph) -> None:
    seen = graph.reachable(nid for nid, node in graph.nodes.items()
                           if node.kind is NodeKind.ENTRY)
    unreachable = [
        nid for nid, node in graph.nodes.items()
        if node.kind is not NodeKind.TERMINAL and nid not in seen
    ]
    if unreachable:
        raise GraphIntegrityError(f"unreachable non-terminal nodes {sorted(unreachable)}")
