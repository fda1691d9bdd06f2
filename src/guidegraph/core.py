"""Data model for guideline decision graphs and the primitive mutations on them.

Every stage (chunking, per-chunk expansion, cross-chunk aggregation,
evaluation) speaks in terms of these types. Graphs are mutable,
single-writer values; the canonical JSON form defined here is the
interchange format between stages and is byte-stable, so equal graphs
serialize to equal files.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Mapping

from .errors import (
    EmptyLabelError,
    GraphIntegrityError,
    InvalidMergeError,
    MissingAncestorError,
    MissingNodeError,
)

GRAPH_FORMAT = "decision-graph/1"
CHUNKS_FORMAT = "chunk-list/1"
PROFILE_FORMAT = "guideline-profile/1"

_WS_RUN = re.compile(r"\s+")
_TRAILING_PUNCT = ".,;:"


def normalize_label(raw: str) -> str:
    """Canonicalize a node or edge label.

    Casefolds, collapses whitespace runs to single spaces, strips
    leading/trailing whitespace and trailing sentence punctuation.
    Idempotent by construction.

    Raises:
        EmptyLabelError: if nothing is left after normalization.
    """
    text = _WS_RUN.sub(" ", raw.casefold()).strip()
    text = text.rstrip(_TRAILING_PUNCT).strip()
    if not text:
        raise EmptyLabelError(f"label {raw!r} is empty after normalization")
    return text


def canonical_json(obj: Any, *, compact: bool = False) -> str:
    """Serialize to the canonical JSON form used for files and digests.

    Keys are sorted and non-ASCII text is kept verbatim so that equal
    values always produce equal bytes. The pretty form ends with a
    newline; the compact form is used for content digests.
    """
    if compact:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


class PageLabel(str, Enum):
    CORE = "core"
    AUXILIARY = "auxiliary"


class NodeKind(str, Enum):
    ENTRY = "entry"
    TERMINAL = "terminal"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class PageRecord:
    """One document page: 1-based index, extracted text, optional image.

    `image_ref` is the image path as the manifest gives it (relative to the
    manifest) and `image_digest` the sha256 of the image bytes.
    """

    index: int
    text: str
    image_ref: str | None = None
    image_digest: str | None = None

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"page index must be >= 1, got {self.index}")


@dataclass
class GuidelineProfile:
    """Document-level metadata plus the scope context threaded through chunking."""

    metadata: dict[str, str]
    scope_context: str


@dataclass(frozen=True)
class Chunk:
    """One decision segment with its entry/terminal interface."""

    chunk_id: int
    context: str
    entry_labels: tuple[str, ...]
    terminal_labels: tuple[str, ...]
    description: str
    carried_pages: tuple[int, ...]
    page_span: tuple[int, ...]

    def validate(self) -> None:
        if self.chunk_id < 1:
            raise ValueError(f"chunk_id must be >= 1, got {self.chunk_id}")
        if not self.entry_labels or not self.terminal_labels:
            raise ValueError(f"chunk {self.chunk_id}: interface labels must be non-empty")
        if len(set(self.entry_labels)) != len(self.entry_labels):
            raise ValueError(f"chunk {self.chunk_id}: duplicate entry labels")
        if len(set(self.terminal_labels)) != len(self.terminal_labels):
            raise ValueError(f"chunk {self.chunk_id}: duplicate terminal labels")
        overlap = set(self.entry_labels) & set(self.terminal_labels)
        if overlap:
            raise ValueError(f"chunk {self.chunk_id}: entry/terminal overlap {sorted(overlap)}")
        span = set(self.page_span)
        if not set(self.carried_pages) <= span:
            raise ValueError(f"chunk {self.chunk_id}: carried pages outside page span")


@dataclass(frozen=True)
class QueueItem:
    """A node candidate paired with its incoming (ancestor_id, edge_label) context."""

    candidate_label: str
    incoming: tuple[str, str] | None = None


@dataclass(frozen=True)
class DecisionEdge:
    source: str
    label: str
    target: str

    def as_triple(self) -> tuple[str, str, str]:
        return (self.source, self.label, self.target)


@dataclass(frozen=True)
class MergedRef:
    """Provenance record for a node absorbed during a merge."""

    node_id: str
    origin_chunk: int


@dataclass
class DecisionNode:
    node_id: str
    label: str
    kind: NodeKind
    origin_chunk: int
    merged_from: list[MergedRef] = field(default_factory=list)
    provenance_pages: list[int] = field(default_factory=list)
    interface_labels: list[str] = field(default_factory=list)

    def copy(self) -> "DecisionNode":
        """A copy with its own lists; the frozen `MergedRef`s are shared."""
        return DecisionNode(self.node_id, self.label, self.kind, self.origin_chunk,
                            list(self.merged_from), list(self.provenance_pages),
                            list(self.interface_labels))


_NO_EDGES: frozenset[DecisionEdge] = frozenset()


class EdgeSet(set):
    """A set of edges that keeps per-node in/out adjacency in step with itself.

    Every mutating method of `set` is overridden, so `add`, `discard`, `|=`
    and the rest update `out` (source id -> edges) and `into` (target id ->
    edges) as they change the set. Operators that build a new set (`|`,
    `-`, `copy()`) return a plain `set`. Ids need not name a node: a
    dangling edge is indexed like any other, and `check_integrity` reports
    it.
    """

    __slots__ = ("out", "into")

    def __init__(self, edges: Iterable[DecisionEdge] = ()) -> None:
        super().__init__(edges)
        self.out: dict[str, set[DecisionEdge]] = {}
        self.into: dict[str, set[DecisionEdge]] = {}
        for edge in self:
            self.out.setdefault(edge.source, set()).add(edge)
            self.into.setdefault(edge.target, set()).add(edge)

    def _unlink(self, edge: DecisionEdge) -> None:
        for index, node_id in ((self.out, edge.source), (self.into, edge.target)):
            incident = index[node_id]
            incident.discard(edge)
            if not incident:
                del index[node_id]

    def add(self, edge: DecisionEdge) -> None:
        size = len(self)
        set.add(self, edge)
        if len(self) != size:
            self.out.setdefault(edge.source, set()).add(edge)
            self.into.setdefault(edge.target, set()).add(edge)

    def discard(self, edge: DecisionEdge) -> None:
        size = len(self)
        set.discard(self, edge)
        if len(self) != size:
            self._unlink(edge)

    def remove(self, edge: DecisionEdge) -> None:
        set.remove(self, edge)
        self._unlink(edge)

    def pop(self) -> DecisionEdge:
        edge = set.pop(self)
        self._unlink(edge)
        return edge

    def clear(self) -> None:
        set.clear(self)
        self.out.clear()
        self.into.clear()

    def update(self, *others: Iterable[DecisionEdge]) -> None:
        for other in others:
            for edge in other:
                self.add(edge)

    def difference_update(self, *others: Iterable[DecisionEdge]) -> None:
        for other in others:
            for edge in list(other):
                self.discard(edge)

    def intersection_update(self, *others: Iterable[DecisionEdge]) -> None:
        keep = set(self).intersection(*others)
        for edge in set(self) - keep:
            self.discard(edge)

    def symmetric_difference_update(self, other: Iterable[DecisionEdge]) -> None:
        for edge in set(other):
            if edge in self:
                self.discard(edge)
            else:
                self.add(edge)

    def _in_place(self, update, other):
        if not isinstance(other, (set, frozenset)):  # as for `set`: `|=` takes sets only
            return NotImplemented
        update(other)
        return self

    def __ior__(self, other):
        return self._in_place(self.update, other)

    def __iand__(self, other):
        return self._in_place(self.intersection_update, other)

    def __isub__(self, other):
        return self._in_place(self.difference_update, other)

    def __ixor__(self, other):
        return self._in_place(self.symmetric_difference_update, other)


class DecisionGraph:
    """Directed labeled graph with per-node provenance.

    Edges form a set of (source, label, target) triples; duplicate triples
    carry no information and are never stored twice. Self-loops produced by
    rewiring are suppressed and logged rather than kept.

    Nodes enter only through `add_node` and leave only through
    `merge_nodes`, which keep the label index; a node's label never changes
    once it is in the graph. `edges` is an `EdgeSet`, which keeps the in/out
    adjacency on every mutation; assigning any set of edges to `edges`
    stores an `EdgeSet` built from it.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, DecisionNode] = {}
        self._edges = EdgeSet()
        self.suppressed_self_loops: list[DecisionEdge] = []
        self._id_counters: dict[str, int] = {}
        self._label_index: dict[str, set[str]] = {}

    def add_node(self, node: DecisionNode) -> None:
        if node.node_id in self.nodes:
            raise GraphIntegrityError(f"node id {node.node_id!r} already present")
        self.nodes[node.node_id] = node
        self._label_index.setdefault(node.label, set()).add(node.node_id)

    @property
    def edges(self) -> EdgeSet:
        return self._edges

    @edges.setter
    def edges(self, edges: Iterable[DecisionEdge]) -> None:
        if edges is not self._edges:  # `graph.edges |= ...` assigns the same set back
            self._edges = EdgeSet(edges)

    def _remove_node(self, node_id: str) -> None:
        node = self.nodes.pop(node_id)
        ids = self._label_index[node.label]
        ids.discard(node_id)
        if not ids:
            del self._label_index[node.label]

    def next_node_id(self, prefix: str) -> str:
        seq = self._id_counters.get(prefix, 0) + 1
        self._id_counters[prefix] = seq
        return f"{prefix}{seq:03d}"

    def label_ids(self, normalized_label: str) -> list[str]:
        """Node ids whose label equals the given normalized label, ascending."""
        return sorted(self._label_index.get(normalized_label, ()))

    def in_edges(self, node_id: str) -> AbstractSet[DecisionEdge]:
        """Edges into node_id. A live view: snapshot it before changing edges."""
        return self._edges.into.get(node_id, _NO_EDGES)

    def out_edges(self, node_id: str) -> AbstractSet[DecisionEdge]:
        """Edges out of node_id. A live view: snapshot it before changing edges."""
        return self._edges.out.get(node_id, _NO_EDGES)

    def ancestors_of(self, node_id: str) -> list[tuple[str, str]]:
        """(source_id, edge_label) pairs of edges into node_id, sorted."""
        return sorted((e.source, e.label) for e in self.in_edges(node_id))

    def reachable(self, start: Iterable[str]) -> set[str]:
        """Ids reachable from the start ids along out-edges, the start included."""
        out = self._edges.out
        seen = set(start)
        frontier = list(seen)
        while frontier:
            for edge in out.get(frontier.pop(), _NO_EDGES):
                if edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
        return seen

    def add_edge(self, source: str, label: str, target: str) -> None:
        if source not in self.nodes:
            raise MissingNodeError(f"edge source {source!r} not in graph")
        if target not in self.nodes:
            raise MissingNodeError(f"edge target {target!r} not in graph")
        if source == target:
            raise GraphIntegrityError(f"self-loop on {source!r} not allowed")
        self._edges.add(DecisionEdge(source, label, target))

    def check_integrity(self) -> None:
        for edge in self._edges:
            if edge.source not in self.nodes or edge.target not in self.nodes:
                raise GraphIntegrityError(f"dangling edge {edge.as_triple()}")
            if edge.source == edge.target:
                raise GraphIntegrityError(f"self-loop {edge.as_triple()}")

    def copy(self) -> "DecisionGraph":
        dup = DecisionGraph()
        for node in self.nodes.values():
            dup.add_node(node.copy())
        dup.edges = self._edges  # the setter builds a new EdgeSet
        dup.suppressed_self_loops = list(self.suppressed_self_loops)
        dup._id_counters = dict(self._id_counters)
        return dup


def register_node(
    graph: DecisionGraph,
    item: QueueItem,
    kind: NodeKind,
    *,
    origin_chunk: int = 0,
    provenance_pages: Iterable[int] = (),
    id_prefix: str = "n",
    interface_labels: Iterable[str] = (),
) -> str:
    """Add a fresh node for a queue item; wire the incoming edge if present.

    Returns the new node id.

    Raises:
        MissingAncestorError: the incoming context names an absent ancestor.
        EmptyLabelError: the candidate label normalizes to nothing.
    """
    label = normalize_label(item.candidate_label)
    if item.incoming is not None:
        ancestor, _ = item.incoming
        if ancestor not in graph.nodes:
            raise MissingAncestorError(f"ancestor {ancestor!r} not in graph")
    node_id = graph.next_node_id(id_prefix)
    graph.add_node(
        DecisionNode(
            node_id=node_id,
            label=label,
            kind=kind,
            origin_chunk=origin_chunk,
            provenance_pages=sorted(provenance_pages),
            interface_labels=list(interface_labels),
        )
    )
    if item.incoming is not None:
        ancestor, edge_label = item.incoming
        graph.add_edge(ancestor, normalize_label(edge_label), node_id)
    return node_id


def redirect_ancestor_edge(
    graph: DecisionGraph,
    from_triple: tuple[str, str, str],
    to_triple: tuple[str, str, str],
) -> None:
    """Replace an ancestor edge (a, e, u) with (a, e, u_star).

    The from-edge is removed if it exists (it may name a candidate that was
    never registered, in which case removal is a no-op). Adding the new edge
    is skipped when it would form a self-loop; the suppressed triple is
    logged on the graph. Redirecting onto an already-present triple is a
    no-op beyond the removal, keeping the edge set duplicate-free.

    Raises:
        MissingNodeError: the redirect target is not in the graph.
    """
    source, label, target = to_triple
    if target not in graph.nodes:
        raise MissingNodeError(f"redirect target {target!r} not in graph")
    graph.edges.discard(DecisionEdge(*from_triple))
    if source == target:
        graph.suppressed_self_loops.append(DecisionEdge(source, label, target))
        return
    if source not in graph.nodes:
        raise MissingNodeError(f"redirect source {source!r} not in graph")
    graph.edges.add(DecisionEdge(source, label, target))


def merge_nodes(graph: DecisionGraph, primary: str, secondary: str) -> None:
    """Absorb `secondary` into `primary`, rewiring every incident edge.

    Incoming edges (u, l, secondary) become (u, l, primary) and outgoing
    edges (secondary, l, v) become (primary, l, v). Only the secondary's
    incident edges are visited, read from the adjacency, in (source, label,
    target) order; rewires that would form self-loops are suppressed and
    logged in that order. The secondary's provenance (pages, interface
    labels, prior merges) is folded into the primary so the merge chain
    stays auditable. When exactly one of the two nodes is terminal the
    survivor becomes intermediate: it now sits on both sides of a
    transition.

    Raises:
        InvalidMergeError: primary == secondary.
        MissingNodeError: either node is absent (e.g. a replayed merge).
    """
    if primary == secondary:
        raise InvalidMergeError(f"cannot merge {primary!r} with itself")
    if primary not in graph.nodes:
        raise MissingNodeError(f"merge primary {primary!r} not in graph")
    if secondary not in graph.nodes:
        raise MissingNodeError(f"merge secondary {secondary!r} not in graph")

    p_node = graph.nodes[primary]
    s_node = graph.nodes[secondary]

    incident = graph.in_edges(secondary) | graph.out_edges(secondary)
    for edge in sorted(incident, key=DecisionEdge.as_triple):
        if edge.target == secondary:
            redirect_ancestor_edge(graph, edge.as_triple(), (edge.source, edge.label, primary))
        elif edge.source == secondary:
            graph.edges.discard(edge)
            if edge.target == primary:
                graph.suppressed_self_loops.append(DecisionEdge(primary, edge.label, primary))
            else:
                graph.edges.add(DecisionEdge(primary, edge.label, edge.target))

    p_node.merged_from.extend(s_node.merged_from)
    p_node.merged_from.append(MergedRef(secondary, s_node.origin_chunk))
    p_node.provenance_pages = sorted(set(p_node.provenance_pages) | set(s_node.provenance_pages))
    for label in s_node.interface_labels:
        if label not in p_node.interface_labels:
            p_node.interface_labels.append(label)
    if (p_node.kind is NodeKind.TERMINAL) != (s_node.kind is NodeKind.TERMINAL):
        p_node.kind = NodeKind.INTERMEDIATE
    graph._remove_node(secondary)
    graph.check_integrity()


# ---------------------------------------------------------------------------
# Canonical serialization


def graph_to_doc(graph: DecisionGraph) -> dict[str, Any]:
    """Canonical document form: nodes sorted by id, edges by triple."""
    nodes = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        nodes.append(
            {
                "id": node.node_id,
                "label": node.label,
                "kind": node.kind.value,
                "origin_chunk": node.origin_chunk,
                "merged_from": [
                    {"node_id": ref.node_id, "origin_chunk": ref.origin_chunk}
                    for ref in node.merged_from
                ],
                "provenance_pages": list(node.provenance_pages),
                "interface_labels": list(node.interface_labels),
            }
        )
    edges = [
        {"source": e.source, "label": e.label, "target": e.target}
        for e in sorted(graph.edges, key=DecisionEdge.as_triple)
    ]
    return {"format": GRAPH_FORMAT, "nodes": nodes, "edges": edges}


def graph_from_doc(doc: Mapping[str, Any]) -> DecisionGraph:
    if doc.get("format") != GRAPH_FORMAT:
        raise ValueError(f"unsupported graph format {doc.get('format')!r}")
    graph = DecisionGraph()
    for entry in doc["nodes"]:
        graph.add_node(
            DecisionNode(
                node_id=entry["id"],
                label=entry["label"],
                kind=NodeKind(entry["kind"]),
                origin_chunk=int(entry.get("origin_chunk", 0)),
                merged_from=[
                    MergedRef(ref["node_id"], int(ref["origin_chunk"]))
                    for ref in entry.get("merged_from", [])
                ],
                provenance_pages=[int(p) for p in entry.get("provenance_pages", [])],
                interface_labels=list(entry.get("interface_labels", [])),
            )
        )
    for entry in doc["edges"]:
        graph.add_edge(entry["source"], entry["label"], entry["target"])
    graph.check_integrity()
    return graph


def save_graph(graph: DecisionGraph, path: str | Path) -> None:
    Path(path).write_text(canonical_json(graph_to_doc(graph)), encoding="utf-8")


def load_graph(path: str | Path) -> DecisionGraph:
    return graph_from_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def chunks_to_doc(chunks: Iterable[Chunk]) -> dict[str, Any]:
    return {
        "format": CHUNKS_FORMAT,
        "chunks": [
            {
                "chunk_id": c.chunk_id,
                "description": c.description,
                "context": c.context,
                "entry_labels": list(c.entry_labels),
                "terminal_labels": list(c.terminal_labels),
                "carried_pages": list(c.carried_pages),
                "page_span": list(c.page_span),
            }
            for c in chunks
        ],
    }


def chunks_from_doc(doc: Mapping[str, Any]) -> list[Chunk]:
    if doc.get("format") != CHUNKS_FORMAT:
        raise ValueError(f"unsupported chunk-list format {doc.get('format')!r}")
    out = []
    for entry in doc["chunks"]:
        chunk = Chunk(
            chunk_id=int(entry["chunk_id"]),
            context=entry["context"],
            entry_labels=tuple(entry["entry_labels"]),
            terminal_labels=tuple(entry["terminal_labels"]),
            description=entry["description"],
            carried_pages=tuple(int(p) for p in entry["carried_pages"]),
            page_span=tuple(int(p) for p in entry["page_span"]),
        )
        chunk.validate()
        out.append(chunk)
    return out


def profile_to_doc(profile: GuidelineProfile) -> dict[str, Any]:
    return {
        "format": PROFILE_FORMAT,
        "metadata": dict(sorted(profile.metadata.items())),
        "scope_context": profile.scope_context,
    }


def profile_from_doc(doc: Mapping[str, Any]) -> GuidelineProfile:
    if doc.get("format") != PROFILE_FORMAT:
        raise ValueError(f"unsupported profile format {doc.get('format')!r}")
    return GuidelineProfile(metadata=dict(doc["metadata"]), scope_context=doc["scope_context"])
