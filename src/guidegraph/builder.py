"""Per-chunk graph expansion: FIFO worklist from the entry labels toward a
fixed terminal set, with duplicate detection against the growing node pool.

Terminal nodes are registered up front and are never created by expansion.
A candidate that duplicates a node creates none: its incoming edge is
pointed at the duplicate: an exact hit reads `lowest_label_id` and builds
nothing else, and a miss's node gets the (vector, norm) its query looked
up. The builder names and makes its own nodes (`register_node`). The node
cap turns a hallucination loop into a diagnosable error.

Two steps of the loop are batched per chunk. The store embeds the chunk's
interface in one request, and each BFS level in one more, when its first
label without a vector is dequeued. Every `generate_children` digest
continues from the hash of the chunk's context, taken once.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .core import (
    KIND_NAMES,
    Chunk,
    DecisionGraph,
    DecisionNode,
    NodeKind,
    add_edge_or_log_loop,
    normalize_label,
)
from .errors import (
    EmptyLabelError,
    ExpansionBudgetExceeded,
    GraphIntegrityError,
    OracleProtocolError,
    UsageError,
)
from .oracle import OracleClient, OracleTask, PayloadPrefix
from .retrieval import EmbeddingStore, Entry, RankingPool, cosine_candidates

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


def context_prefix(context: str) -> PayloadPrefix:
    """The digest prefix every `children_payload` of a chunk shares: its
    context, the payload's first key in sorted order and nearly all its bytes."""
    return PayloadPrefix(OracleTask.GENERATE_CHILDREN, "context", context)


def duplicate_payload(candidate_label: str, ancestors: Sequence[tuple[str, str]],
                      candidate_labels: Sequence[str]) -> dict[str, Any]:
    return {
        "candidate": candidate_label,
        "ancestors": [{"label": label, "edge": edge} for label, edge in ancestors],
        "candidates": list(candidate_labels),
    }


@dataclass(slots=True)
class DuplicateQuery:
    """A miss's ranked candidates; an exact hit's query is the node id."""

    label: str
    candidates: tuple[tuple[str, str, float], ...]  # best first
    payload: dict[str, Any] | None  # the verifier payload; None without candidates
    entry: Entry | None = field(compare=False)  # the label's (vector, norm), once ranked


def duplicate_query(candidate_label: str, ancestors: Callable[[], Sequence[tuple[str, str]]],
                    graph: DecisionGraph, pool: RankingPool, k: int,
                    exclude: int | None = None) -> str | DuplicateQuery:
    """What `find_duplicate` decides on for a candidate among the nodes of
    `graph` (`pool` holds them all) outside origin chunk `exclude`.

    The exact match is the lowest such id whose label is the candidate's
    normalized label, returned as the query without ranking. On a miss the
    pool's top k outside group `exclude` by cosine similarity go into the
    verifier payload, with the (ancestor label, edge label) context that
    `ancestors()` builds only then, and the query keeps the label's entry.
    """
    exact = graph.lowest_label_id(candidate_label, exclude)
    if exact is not None:
        return exact
    entry = pool.store.entry(candidate_label) if pool.eligible(exclude) else None
    candidates = cosine_candidates(candidate_label, pool, k, exclude, entry)
    payload = duplicate_payload(candidate_label, ancestors(),
                                [label for _, label, _ in candidates]) if candidates else None
    return DuplicateQuery(candidate_label, candidates, payload, entry)


def find_duplicate(query: str | DuplicateQuery,
                   client: OracleClient) -> tuple[str | None, float | None, str]:
    """Decide on a duplicate query: an exact match (a node id) wins without
    an oracle call; otherwise the candidates go to the verifier, and among
    confirmed matches the highest-similarity one wins, ties broken by
    ascending node id. No candidate is "empty-pool", with no call. Oracle
    failure degrades to no-duplicate: keeping structure beats silently merging.

    Returns (node_id or None, similarity or None, how).
    """
    if isinstance(query, str):
        return query, 1.0, "exact"
    if query.payload is None:
        return None, None, "empty-pool"
    try:
        body = client.call(OracleTask.FIND_DUPLICATE, query.payload)
    except OracleProtocolError:
        logger.warning("duplicate check failed for %r; treating as new", query.label)
        return None, None, "error-degraded"
    confirmed = [i for i in body["matches"] if 0 <= i < len(query.candidates)]
    if not confirmed:
        return None, None, "verifier"
    node_id, _, similarity = query.candidates[min(confirmed)]  # candidates come best first
    return node_id, similarity, "verifier"


def generate_children(label: str, incoming: tuple[str, str] | None, context: str,
                      client: OracleClient,
                      prefix: PayloadPrefix | None = None) -> list[tuple[str, str]]:
    """Successor (label, transition condition) pairs for a registered node;
    `prefix` is the chunk's `context_prefix`, if the caller keeps one.

    Pairs with empty labels are dropped; a node whose expansion never
    validates becomes a logged dead end rather than aborting the chunk.
    """
    try:
        body = client.call(OracleTask.GENERATE_CHILDREN,
                           children_payload(label, incoming, context), prefix)
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


def register_node(graph: DecisionGraph, chunk: Chunk, label: str, kind: NodeKind,
                  incoming: tuple[str, str] | None, pages: Sequence[int]) -> str:
    """Add a node of `chunk` with `label`, wire its incoming (ancestor id,
    edge label) edge if it has one, and return its id.

    Ids are `c{chunk:02d}n{sequence:03d}` in registration order: the builder
    never removes a node, so the graph's size gives the sequence. It gets a
    copy of `pages`, the chunk's sorted page span. A node without an
    incoming edge, an entry or terminal, keeps its label as an interface
    label. Labels are stored as given, so they must be normalized.
    """
    node_id = f"c{chunk.chunk_id:02d}n{len(graph.nodes) + 1:03d}"
    graph.add_node(DecisionNode(node_id, label, kind, chunk.chunk_id,
                                provenance_pages=list(pages),
                                interface_labels=[label] if incoming is None else []))
    if incoming is not None:
        graph.add_edge(incoming[0], incoming[1], node_id)
    return node_id


def build_graph(chunk: Chunk, client: OracleClient, store: EmbeddingStore,
                config) -> BuildResult:
    """Expand one chunk into its decision graph.

    Terminals come only from the chunk's terminal labels; every non-terminal
    node is reachable from an entry; node ids are assigned in deterministic
    worklist order so repeated runs serialize identically. The worklist
    holds (label, incoming) pairs, where incoming is the (ancestor id, edge
    label) a child was generated under; a candidate that duplicates a node
    adds that edge to the duplicate instead of a node, or, when the
    duplicate is the ancestor, logs it as a suppressed self-loop and a
    `self_loop` trace event. The chunk's
    interface labels are normalized when it is made, and child and edge
    labels when the reply is parsed, so every label is stored as it comes.
    """
    interface_size = len(chunk.entry_labels) + len(chunk.terminal_labels)
    if config.expansion_cap < interface_size:
        raise UsageError(
            f"chunk {chunk.chunk_id}: expansion_cap {config.expansion_cap} is smaller "
            f"than the interface ({interface_size} nodes)"
        )

    graph = DecisionGraph()
    pool = RankingPool(store)  # every node of the graph
    pages = sorted(chunk.page_span)
    trace: list[dict[str, Any]] = []

    def register(label: str, kind: NodeKind, incoming: tuple[str, str] | None,
                 entry: Entry | None = None) -> str:
        if len(graph.nodes) >= config.expansion_cap:
            raise ExpansionBudgetExceeded(
                f"chunk {chunk.chunk_id}: expansion cap {config.expansion_cap} reached")
        node_id = register_node(graph, chunk, label, kind, incoming, pages)
        pool.add(node_id, label, chunk.chunk_id, entry)
        trace.append({"event": "register", "chunk": chunk.chunk_id,
                      "node_id": node_id, "label": label, "kind": KIND_NAMES[kind]})
        return node_id

    # Every label the loop dequeues is embedded, at its own miss or as the
    # label of the node it matches exactly, so embedding the interface, and
    # then each BFS level when its first missing label is dequeued, changes
    # only how many requests the store sends: one per level.
    store.embed([*chunk.terminal_labels, *chunk.entry_labels])
    for label in chunk.terminal_labels:
        register(label, NodeKind.TERMINAL, None)
    queue: deque[tuple[str, tuple[str, str] | None]] = deque(
        (label, None) for label in chunk.entry_labels)
    prefix = context_prefix(chunk.context)

    def ancestors() -> list[tuple[str, str]]:  # of the item just dequeued
        return [] if incoming is None else [(graph.nodes[incoming[0]].label, incoming[1])]
    while queue:
        label, incoming = queue.popleft()
        if label not in store:
            store.embed([label, *[queued for queued, _ in queue]])
        query = duplicate_query(label, ancestors, graph, pool, config.candidate_count)
        match_id, similarity, how = find_duplicate(query, client)
        if match_id is not None:
            trace.append({"event": "duplicate", "chunk": chunk.chunk_id,
                          "label": label, "match": match_id, "how": how,
                          "similarity": None if similarity is None else round(similarity, 6)})
            if incoming is not None:
                if match_id == incoming[0]:
                    trace.append({"event": "self_loop", "chunk": chunk.chunk_id,
                                  "source": match_id, "label": incoming[1]})
                add_edge_or_log_loop(graph, incoming[0], incoming[1], match_id)
            else:
                matched = graph.nodes[match_id]
                if label not in matched.interface_labels:
                    matched.interface_labels.append(label)
            continue
        kind = NodeKind.ENTRY if incoming is None else NodeKind.INTERMEDIATE
        node_id = register(label, kind, incoming, query.entry)
        children = generate_children(label, incoming, chunk.context, client, prefix)
        if not children:
            trace.append({"event": "dead_end", "chunk": chunk.chunk_id,
                          "node_id": node_id, "label": label})
            logger.warning("chunk %d: non-terminal %r has no successors",
                           chunk.chunk_id, label)
        queue.extend((child_label, (node_id, edge_label)) for child_label, edge_label in children)

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
