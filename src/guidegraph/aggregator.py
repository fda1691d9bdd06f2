"""Global aggregation: union the chunk graphs, then resolve cross-chunk
duplicates starting from the interface nodes, merging with full edge
rewiring and provenance preserved.

The duplicate search never considers nodes from the candidate's own chunk.
After each merge the surviving node is re-enqueued once so chains of
near-duplicates spanning three or more chunks can collapse; each such
requeue is recorded on the merge decision rather than applied silently.

Decisions are made one at a time, in queue order, but the verifier calls
of upcoming items that no earlier undecided item can change are sent
early, on the client's call window (`_LookAhead`); every artifact and
the audit log are a serial run's.
"""
from __future__ import annotations

from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Sequence

# `normalize_label` and `cosine_candidates` are not called here: the benchmark's
# tracer wraps these bindings (perfbench/tracer.py reads vars(aggregator)).
from .core import (
    KIND_NAMES,
    Chunk,
    DecisionGraph,
    NodeKind,
    merge_nodes,
    merged_refs_doc,
    normalize_label,
)
from .errors import InterfaceResolutionError
from .oracle import Held, OracleClient, OracleTask
from .retrieval import EmbeddingStore, RankingPool, cosine_candidates
from .builder import DuplicateQuery, duplicate_query, find_duplicate

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


def union_graphs(chunk_graphs: Sequence[DecisionGraph]) -> DecisionGraph:
    """Disjoint union of chunk graphs, origin provenance intact.

    Each graph is added whole by `DecisionGraph.add_graph`, which shares its
    node objects, copies its adjacency and does not check its edges again:
    it relies on each chunk graph having passed `check_integrity`
    (`build_graph` and `graph_from_doc` both check) and on the graphs' node
    ids being disjoint. Aggregation changes no chunk graph, as `merge_nodes`
    replaces a primary node rather than changing it.

    Raises:
        IdCollisionError: a node id appears in two chunk graphs.
    """
    union = DecisionGraph()
    for graph in chunk_graphs:
        union.add_graph(graph)
    return union


def seed_interface_queue(chunks: Sequence[Chunk], graph: DecisionGraph) -> deque[str]:
    """Queue of interface node ids: per chunk, entries then terminals, deduped.

    A label resolves to the lowest id among the chunk's nodes that carry it
    as an interface label; both sides are normalized already.
    """
    lowest: dict[tuple[int, str], str] = {}
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        for label in node.interface_labels:
            lowest.setdefault((node.origin_chunk, label), nid)
    queue: deque[str] = deque()
    seen: set[str] = set()
    for chunk in chunks:
        for label in chunk.entry_labels + chunk.terminal_labels:
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
    return sorted((graph.nodes[edge.source].label, edge.label) for edge in graph.in_edges(node_id))


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


@dataclass
class _Plan:
    """A queued item as the look-ahead sees it under the current graph."""

    query: str | DuplicateQuery  # what its turn takes if the plan survives: exact id or miss
    footprint: set[str]  # what its query reads: `joins` and its in-edge sources
    joins: set[str]  # what its decision may merge: it, its exact partner or top-k candidates
    call: Held | None = None  # its early verifier call, once sent


class _LookAhead:
    """Each aggregation item's duplicate query, and the oracle client that
    `find_duplicate` calls for the current item.

    `call` sends the current item's verifier call and, while it is in
    flight, scans the queue in order: it plans each upcoming item (works
    out its query) and sends early the call of each one whose decision no
    undecided item before it can change. An item's footprint is all that
    its query reads: the item, its in-edge sources and its exact partner
    or top-k candidates. Its decision can merge only the item with its
    partner or a candidate, and a merge changes only the queries whose
    footprint holds a node it joins. So an upcoming item passes when no
    earlier undecided item, the current one included, can join a node of
    its footprint. The scan stops at the first item that fails, or once
    `parallelism` calls are in flight. `merged` drops every plan whose
    footprint a merge touches. The pool only shrinks and a merge keeps the
    primary's label, so a surviving plan's query is the one its turn would
    work out, and `reach` takes it without ranking again.

    Each call, current or early, is a `Held` on the client's window, taken
    by its item's turn, so the audit log is a serial run's. At parallelism 1
    the width is 0 and there is no executor: nothing is planned or scanned.
    """

    def __init__(self, client: OracleClient, graph: DecisionGraph, pool: RankingPool,
                 queue: deque[str], store: EmbeddingStore, config) -> None:
        self.client, self.graph, self.pool, self.queue, self.store = (
            client, graph, pool, queue, store)
        self.k = config.candidate_count
        self.width = client.parallelism - 1  # early calls in flight beside the current one
        self.plans: dict[str, _Plan] = {}  # planned items, until a merge touches a footprint
        self.early: deque[_Plan] = deque()  # early calls not yet taken, in queue order
        self.plan: _Plan | None = None  # the current item's; None at width 0

    def reach(self, item: str) -> str | DuplicateQuery:
        """Make the live `item` the current item and return its query: its
        surviving plan's, or one worked out now."""
        self.plan = self.plans.pop(item, None)
        if self.plan is None and self.width:
            self.plan = self._plan(item)
        return self._query(item) if self.plan is None else self.plan.query

    def merged(self, primary: str, secondary: str) -> None:
        """Forget the plans whose footprint a merge of the two nodes touches."""
        for item, plan in list(self.plans.items()):
            if plan.call is None and (primary in plan.footprint or secondary in plan.footprint):
                del self.plans[item]

    def call(self, task: OracleTask, payload: dict[str, Any]) -> dict[str, Any]:
        """The current item's verifier reply: its early call's, or a call's
        sent now."""
        plan = self.plan
        if plan is not None and plan.call is not None:
            if self.early[0] is not plan:
                raise RuntimeError(f"aggregation look-ahead: the early verifier call for "
                                   f"{plan.query.label!r} is taken out of order")
            self.early.popleft()
            call = plan.call
        else:
            call = Held(self.client, OracleClient.call, task, payload)
        try:
            self._scan()
        finally:
            body = call.take()
        return body

    def close(self) -> int:
        """Take, in queue order, the early calls not taken; return their count."""
        untaken = len(self.early)
        while self.early:
            # The error of a call whose turn never came is not the run's.
            with suppress(Exception):
                self.early.popleft().call.take()
        return untaken

    def _scan(self) -> None:
        if len(self.early) >= self.width:
            return
        joinable = set(self.plan.joins)  # what the undecided items so far may merge
        for item in self.queue:
            if item not in self.graph.nodes:  # skipped at its turn
                continue
            plan = self.plans.get(item)
            if plan is None:
                plan = self.plans[item] = self._plan(item)
            if not joinable.isdisjoint(plan.footprint):
                return
            joinable |= plan.joins
            if plan.call is None and isinstance(plan.query, DuplicateQuery) and plan.query.payload:
                plan.call = Held(self.client, OracleClient.call,
                                 OracleTask.FIND_DUPLICATE, plan.query.payload)
                self.early.append(plan)
                if len(self.early) >= self.width:
                    return

    def _query(self, item: str) -> str | DuplicateQuery:
        node = self.graph.nodes[item]
        return duplicate_query(node.label, lambda: _capped_ancestors(self.graph, item, self.store),
                               self.graph, self.pool, self.k, node.origin_chunk)

    def _plan(self, item: str) -> _Plan:
        """The item's query, what it reads and what its decision may merge."""
        query = self._query(item)
        joins = {item, query} if isinstance(query, str) else {
            item, *(node_id for node_id, _, _ in query.candidates)}
        sources = {edge.source for edge in self.graph.in_edges(item)}
        return _Plan(query, sources | joins, joins)


def aggregate(chunks: Sequence[Chunk], chunk_graphs: Sequence[DecisionGraph],
              client: OracleClient, store: EmbeddingStore, config) -> AggregationResult:
    """Merge chunk graphs into one consolidated decision graph.

    Items are decided one at a time in queue order; on the client's window,
    `_LookAhead` overlaps the verifier calls no earlier decision can change.

    Raises:
        RuntimeError: an early verifier call was taken out of order or never
            taken; the look-ahead's rule is wrong.
    """
    graph = union_graphs(chunk_graphs)
    queue = seed_interface_queue(chunks, graph)
    in_queue = set(queue)
    decisions: list[MergeDecision] = []
    pool = RankingPool(store)  # every live node, grouped by origin chunk
    pool.extend([(nid, each.label, each.origin_chunk) for nid, each in graph.nodes.items()])
    lookahead = _LookAhead(client, graph, pool, queue, store, config)

    try:
        while queue:
            x = queue.popleft()
            in_queue.discard(x)
            if x not in graph.nodes:  # merged away while queued
                continue
            match_id, similarity, how = find_duplicate(lookahead.reach(x), lookahead)
            if match_id is None:
                continue
            primary, secondary, reason = choose_primary_secondary(graph, x, match_id)
            p_kind = KIND_NAMES[graph.nodes[primary].kind]
            s_kind = KIND_NAMES[graph.nodes[secondary].kind]
            p_origin = graph.nodes[primary].origin_chunk
            s_origin = graph.nodes[secondary].origin_chunk
            merge_nodes(graph, primary, secondary)
            lookahead.merged(primary, secondary)
            pool.discard(secondary)
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
    finally:
        untaken = lookahead.close()
    if untaken:
        raise RuntimeError(f"aggregation look-ahead: {untaken} early verifier calls were "
                           "never taken by their item's turn")

    graph.check_integrity()
    return AggregationResult(graph=graph, decisions=decisions)


def merge_log_doc(result: AggregationResult) -> dict[str, Any]:
    return {
        "format": MERGE_LOG_FORMAT,
        "decisions": [dict(vars(d)) for d in result.decisions],
        "suppressed_self_loops": [
            {"source": e.source, "label": e.label, "target": e.target}
            for e in result.graph.suppressed_self_loops
        ],
    }


def provenance_doc(result: AggregationResult) -> dict[str, Any]:
    """Table mapping each final node to its contributing chunks and pages.
    Like `graph_to_doc`, the doc holds each node's own page list."""
    nodes = []
    for node_id in sorted(result.graph.nodes):
        node = result.graph.nodes[node_id]
        chunks_involved = sorted({node.origin_chunk} | {m.origin_chunk for m in node.merged_from})
        nodes.append({
            "node_id": node.node_id,
            "label": node.label,
            "kind": KIND_NAMES[node.kind],
            "chunks": chunks_involved,
            "pages": node.provenance_pages,
            "merged_from": merged_refs_doc(node.merged_from),
        })
    return {"format": "provenance/1", "nodes": nodes}
