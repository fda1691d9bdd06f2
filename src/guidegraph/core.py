"""Data model for guideline decision graphs and the primitive mutations on them.

Every stage (chunking, per-chunk expansion, cross-chunk aggregation,
evaluation) speaks in terms of these types. Graphs are mutable,
single-writer values; the canonical JSON form defined here is the
interchange format between stages and is byte-stable, so equal graphs
serialize to equal files. The mutations are the graph's own node and edge
methods, `add_edge_or_log_loop` and `merge_nodes`; callers name and make
their nodes themselves (the builder gives each chunk's nodes their ids).
Every JSON input file enters through `load_doc`, parsed by orjson, the
codec that writes every artifact and digest, and every JSON value, oracle
replies included, is type-checked by `typed`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Any, Callable, Iterable, KeysView, Mapping, NamedTuple

import orjson

from .errors import (
    EmptyLabelError,
    GraphIntegrityError,
    GuidegraphError,
    IdCollisionError,
    InvalidMergeError,
    MissingNodeError,
    UsageError,
)

GRAPH_FORMAT = "decision-graph/1"
CHUNKS_FORMAT = "chunk-list/1"
PROFILE_FORMAT = "guideline-profile/1"


def normalize_label(raw: str) -> str:
    """Canonicalize a node or edge label.

    Casefolds, collapses each whitespace run to one space, drops leading
    whitespace and strips any trailing mix of spaces and sentence
    punctuation (`.,;:`). Whitespace is what `str.isspace` accepts: the
    same 29 code points as `re`'s whitespace class in a str pattern, U+00A0,
    U+2028 and U+3000 among them. Idempotent: a normalized label normalizes
    to itself, so `"Repeat biopsy. ."` gives `"repeat biopsy"` once and for
    all.

    Raises:
        EmptyLabelError: if nothing is left after normalization.
    """
    text = " ".join(raw.casefold().split()).rstrip(".,;: ")
    if not text:
        raise EmptyLabelError(f"label {raw!r} is empty after normalization")
    return text


def canonical_json(obj: Any, *, compact: bool = False) -> str:
    """`canonical_bytes` as text."""
    return canonical_bytes(obj, compact=compact).decode("utf-8")


def canonical_bytes(obj: Any, *, compact: bool = False) -> bytes:
    """Serialize to the canonical JSON form used for files and digests, as
    the UTF-8 bytes orjson writes, which files take unchanged.

    Keys are sorted and non-ASCII text is kept verbatim, so equal values give
    equal bytes. The pretty form is indented by two spaces and ends with a
    newline; the compact form, used for digests and audit lines, has no
    whitespace. The bytes equal those of `json.dumps(obj, sort_keys=True,
    ensure_ascii=False)`, with `indent=2` or `separators=(",", ":")`, except:
    - a nonzero float outside [1e-4, 1e16) in magnitude keeps its shortest
      form, which reloads equal: `1e-05` is `0.00001`, `1e+16` is `1e16`;
    - NaN and +/-Infinity are written as `null`;
    - dataclass, datetime and UUID instances are serialized, not rejected;
    - keys that are not exactly `str` (str-Enum keys included), ints past
      64 bits, numpy scalars and lone surrogates raise a `TypeError`
      (`orjson.JSONEncodeError`).
    """
    if compact:
        return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS)
    return orjson.dumps(obj, option=_PRETTY)


_PRETTY = orjson.OPT_SORT_KEYS | orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE


class PageLabel(str, Enum):
    CORE = "core"
    AUXILIARY = "auxiliary"


class NodeKind(str, Enum):
    ENTRY = "entry"
    TERMINAL = "terminal"
    INTERMEDIATE = "intermediate"


# Each kind's name as documents and trace events write it, read once here
# rather than through the `Enum.value` property for every node.
KIND_NAMES: dict[NodeKind, str] = {kind: kind.value for kind in NodeKind}


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
    """One decision segment with its entry/terminal interface.

    Construction checks the interface and stores its labels normalized, so
    every `Chunk`, a loaded one included, is valid and later stages use its
    labels as they are. Raises ValueError unless the labels are distinct
    and disjoint once normalized, none of them empty, and the carried pages
    lie in the page span.
    """

    chunk_id: int
    context: str
    entry_labels: tuple[str, ...]
    terminal_labels: tuple[str, ...]
    description: str
    carried_pages: tuple[int, ...]
    page_span: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.chunk_id < 1:
            raise ValueError(f"chunk_id must be >= 1, got {self.chunk_id}")
        if not self.entry_labels or not self.terminal_labels:
            raise ValueError(f"chunk {self.chunk_id}: interface labels must be non-empty")
        try:
            entries = tuple(normalize_label(label) for label in self.entry_labels)
            terminals = tuple(normalize_label(label) for label in self.terminal_labels)
        except EmptyLabelError as exc:
            raise ValueError(f"chunk {self.chunk_id}: {exc}") from exc
        if len(set(entries)) != len(entries):
            raise ValueError(f"chunk {self.chunk_id}: duplicate entry labels")
        if len(set(terminals)) != len(terminals):
            raise ValueError(f"chunk {self.chunk_id}: duplicate terminal labels")
        overlap = set(entries) & set(terminals)
        if overlap:
            raise ValueError(f"chunk {self.chunk_id}: entry/terminal overlap {sorted(overlap)}")
        span = set(self.page_span)
        if not set(self.carried_pages) <= span:
            raise ValueError(f"chunk {self.chunk_id}: carried pages outside page span")
        object.__setattr__(self, "entry_labels", entries)
        object.__setattr__(self, "terminal_labels", terminals)


class DecisionEdge(NamedTuple):
    """A (source, label, target) triple; equal to and sorted like the plain tuple."""

    source: str
    label: str
    target: str


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


_NO_EDGES: frozenset[DecisionEdge] = frozenset()


class DecisionGraph:
    """Directed labeled graph with per-node provenance.

    Edges form a set of (source, label, target) triples; duplicate triples
    carry no information and are never stored twice. Self-loops produced by
    rewiring are suppressed and logged rather than kept.

    Nodes enter only through `add_node` and `add_graph` and leave only
    through `merge_nodes`, which keep the label index; a node's label never
    changes once it is in the graph, and a merge replaces its primary's
    node object rather than changing it, so graphs may share nodes. Edges
    enter only through `add_edge` and `add_graph` and leave only through
    `remove_edge`, which keep the in/out adjacency; `edges` is a read-only
    view of them.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, DecisionNode] = {}
        self._edges: dict[DecisionEdge, None] = {}
        self._out: dict[str, set[DecisionEdge]] = {}  # source id -> edges
        self._into: dict[str, set[DecisionEdge]] = {}  # target id -> edges
        self.suppressed_self_loops: list[DecisionEdge] = []
        self._label_index: dict[str, set[str]] = {}

    def add_node(self, node: DecisionNode) -> None:
        if node.node_id in self.nodes:
            raise GraphIntegrityError(f"node id {node.node_id!r} already present")
        self.nodes[node.node_id] = node
        self._label_index.setdefault(node.label, set()).add(node.node_id)

    def add_graph(self, other: "DecisionGraph") -> None:
        """Add another graph's nodes, in id order, and all its edges.

        The other graph must have passed `check_integrity`; its edges are
        not checked again. Its node objects are shared, not copied: no
        mutation of a graph changes a node in place (`merge_nodes` puts a
        new primary node in), so changing either graph leaves the other as
        it was. Its adjacency sets are copied, as edges do change them in
        place, and its suppressed self-loops are not carried over.

        Raises:
            IdCollisionError: a node id is in both graphs; nothing is added.
        """
        shared = other.nodes.keys() & self.nodes.keys()
        if shared:
            raise IdCollisionError(f"node id {min(shared)!r} appears in two chunk graphs")
        self.nodes.update((nid, other.nodes[nid]) for nid in sorted(other.nodes))
        for label, ids in other._label_index.items():
            self._label_index.setdefault(label, set()).update(ids)
        self._edges.update(other._edges)
        self._out.update((nid, set(edges)) for nid, edges in other._out.items())
        self._into.update((nid, set(edges)) for nid, edges in other._into.items())

    @property
    def edges(self) -> KeysView[DecisionEdge]:
        """A live, read-only set view of the edges."""
        return self._edges.keys()

    def _remove_node(self, node_id: str) -> None:
        node = self.nodes.pop(node_id)
        ids = self._label_index[node.label]
        ids.discard(node_id)
        if not ids:
            del self._label_index[node.label]

    def lowest_label_id(self, normalized_label: str,
                        exclude_chunk: int | None = None) -> str | None:
        """The lowest id of a node whose label equals the given normalized
        label and whose origin chunk is not `exclude_chunk`, or None."""
        ids = self._label_index.get(normalized_label, ())
        if exclude_chunk is not None:
            nodes = self.nodes
            ids = [nid for nid in ids if nodes[nid].origin_chunk != exclude_chunk]
        return min(ids, default=None)

    def in_edges(self, node_id: str) -> AbstractSet[DecisionEdge]:
        """Edges into node_id. A live view: snapshot it before changing edges."""
        return self._into.get(node_id, _NO_EDGES)

    def out_edges(self, node_id: str) -> AbstractSet[DecisionEdge]:
        """Edges out of node_id. A live view: snapshot it before changing edges."""
        return self._out.get(node_id, _NO_EDGES)

    def reachable(self, start: Iterable[str]) -> set[str]:
        """Ids reachable from the start ids along out-edges, the start included."""
        seen = set(start)
        frontier = list(seen)
        while frontier:
            for edge in self._out.get(frontier.pop(), _NO_EDGES):
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
        edge = DecisionEdge(source, label, target)
        if edge not in self._edges:
            self._edges[edge] = None
            self._out.setdefault(source, set()).add(edge)
            self._into.setdefault(target, set()).add(edge)

    def remove_edge(self, source: str, label: str, target: str) -> None:
        """Remove the edge if it is present; an absent edge is a no-op."""
        edge = DecisionEdge(source, label, target)
        if edge not in self._edges:
            return
        del self._edges[edge]
        for index, node_id in ((self._out, source), (self._into, target)):
            incident = index[node_id]
            incident.discard(edge)
            if not incident:
                del index[node_id]

    def check_integrity(self) -> None:
        for edge in self._edges:
            if edge.source not in self.nodes or edge.target not in self.nodes:
                raise GraphIntegrityError(f"dangling edge {tuple(edge)}")
            if edge.source == edge.target:
                raise GraphIntegrityError(f"self-loop {tuple(edge)}")


def add_edge_or_log_loop(graph: DecisionGraph, source: str, label: str, target: str) -> None:
    """Add the edge, or log it in `graph.suppressed_self_loops` when it
    would be a self-loop. Adding a present edge is a no-op.

    Raises:
        MissingNodeError: the source or target of an edge that is not a
            self-loop is not in the graph.
    """
    if source == target:
        graph.suppressed_self_loops.append(DecisionEdge(source, label, target))
    else:
        graph.add_edge(source, label, target)


def merge_nodes(graph: DecisionGraph, primary: str, secondary: str) -> None:
    """Absorb `secondary` into `primary`, rewiring every incident edge.

    Both directions follow one rule: each of the secondary's incident
    edges, read from the adjacency in (source, label, target) order, is
    removed and added again through `add_edge_or_log_loop` with `primary`
    in place of `secondary` at either end. So (u, l, secondary) becomes
    (u, l, primary), (secondary, l, v) becomes (primary, l, v), and rewires
    that would form self-loops are logged in that order. The secondary's
    provenance (pages, interface labels, prior merges) is folded into the
    primary so the merge chain stays auditable. When exactly one of the two
    nodes is terminal the survivor becomes intermediate: it now sits on both
    sides of a transition. The primary is replaced by a new node object
    under its id and label, and neither old node object changes, so a graph
    that shares them (a chunk graph under `add_graph`) stays as it was.

    Raises:
        InvalidMergeError: primary == secondary.
        MissingNodeError: either node is absent (e.g. a replayed merge).
        GraphIntegrityError: the rewiring left an edge on the secondary or a
            self-loop on the primary.
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
    for source, label, target in sorted(incident):
        graph.remove_edge(source, label, target)
        add_edge_or_log_loop(graph, primary if source == secondary else source, label,
                             primary if target == secondary else target)

    interface_labels = list(p_node.interface_labels)
    for label in s_node.interface_labels:
        if label not in interface_labels:
            interface_labels.append(label)
    kind = p_node.kind
    if (kind is NodeKind.TERMINAL) != (s_node.kind is NodeKind.TERMINAL):
        kind = NodeKind.INTERMEDIATE
    graph.nodes[primary] = DecisionNode(  # same id and label, so the label index holds
        primary, p_node.label, kind, p_node.origin_chunk,
        [*p_node.merged_from, *s_node.merged_from, MergedRef(secondary, s_node.origin_chunk)],
        sorted(set(p_node.provenance_pages) | set(s_node.provenance_pages)), interface_labels)
    # Only the secondary's incident edges changed, so checking them and the
    # primary's out-edges covers what a full integrity scan would.
    if (graph.in_edges(secondary) or graph.out_edges(secondary)
            or any(edge.target == primary for edge in graph.out_edges(primary))):
        raise GraphIntegrityError(f"merging {secondary!r} into {primary!r} left an edge "
                                  f"on {secondary!r} or a self-loop on {primary!r}")
    graph._remove_node(secondary)


# ---------------------------------------------------------------------------
# Canonical serialization


def merged_refs_doc(refs: Iterable[MergedRef]) -> list[dict[str, Any]]:
    return [{"node_id": ref.node_id, "origin_chunk": ref.origin_chunk} for ref in refs]


def graph_to_doc(graph: DecisionGraph) -> dict[str, Any]:
    """Canonical document form: nodes sorted by id, edges by triple. The doc
    holds each node's own page and interface lists, so serialize it before
    the graph changes, and do not change it."""
    nodes = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        nodes.append(
            {
                "id": node.node_id,
                "label": node.label,
                "kind": KIND_NAMES[node.kind],
                "origin_chunk": node.origin_chunk,
                "merged_from": merged_refs_doc(node.merged_from),
                "provenance_pages": node.provenance_pages,
                "interface_labels": node.interface_labels,
            }
        )
    edges = [
        {"source": e.source, "label": e.label, "target": e.target}
        for e in sorted(graph.edges)
    ]
    return {"format": GRAPH_FORMAT, "nodes": nodes, "edges": edges}


def typed(value: Any, kind: type, what: str, of: type = object) -> Any:
    """`value`, which a JSON document must give as a `kind`: the one type
    check of every JSON input. A JSON value has exactly one of these types,
    so no string is read as a list, and no `2.2`, `"3"` or `true` as an
    int; a `float` kind alone also takes an int, as a float. If `of` is
    given, each entry of a list, or each value of a dict, must be exactly
    an `of`. Anything else raises a TypeError naming `what`."""
    if type(value) is kind:
        if of is object:
            return value
        for entry in (value.values() if kind is dict else value):
            if type(entry) is not of:
                break
        else:
            return value
    elif kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"{what} must be {kind.__name__}"
                    + ("" if of is object else f" of {of.__name__}"))


def graph_from_doc(doc: Mapping[str, Any]) -> DecisionGraph:
    if doc.get("format") != GRAPH_FORMAT:
        raise ValueError(f"unsupported graph format {doc.get('format')!r}")
    graph = DecisionGraph()
    for entry in typed(doc["nodes"], list, "nodes"):
        graph.add_node(
            DecisionNode(
                node_id=typed(entry["id"], str, "id"),
                label=typed(entry["label"], str, "label"),
                kind=NodeKind(entry["kind"]),
                origin_chunk=typed(entry.get("origin_chunk", 0), int, "origin_chunk"),
                merged_from=[
                    MergedRef(typed(ref["node_id"], str, "node_id"),
                              typed(ref["origin_chunk"], int, "origin_chunk"))
                    for ref in typed(entry.get("merged_from", []), list, "merged_from")
                ],
                provenance_pages=list(typed(entry.get("provenance_pages", []), list,
                                            "provenance_pages", int)),
                interface_labels=list(typed(entry.get("interface_labels", []), list,
                                            "interface_labels", str)),
            )
        )
    for entry in typed(doc["edges"], list, "edges"):
        graph.add_edge(typed(entry["source"], str, "source"),
                       typed(entry["label"], str, "label"),
                       typed(entry["target"], str, "target"))
    graph.check_integrity()
    return graph


def load_doc(path: str | Path, from_doc: Callable[[Any], Any] = lambda doc: doc,
             error: type[GuidegraphError] = UsageError) -> Any:
    """`from_doc` of a file's JSON document, parsed by orjson: `NaN`, `Infinity`,
    overflowing numbers and unpaired surrogate escapes are malformed, and an
    integer past 64 bits reads as a float. A file that cannot be read or parsed,
    or that `from_doc` rejects with a ValueError, KeyError, TypeError,
    AttributeError or GuidegraphError, raises `error` naming the path."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror or exc
        raise error(f"cannot read {path}: {reason}") from exc
    try:
        return from_doc(orjson.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError, GuidegraphError) as exc:
        raise error(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def load_graph(path: str | Path) -> DecisionGraph:
    """A graph file's graph, read by `load_doc`, so a bad file is a UsageError."""
    return load_doc(path, graph_from_doc)


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
    chunks = [
        Chunk(
            chunk_id=typed(entry["chunk_id"], int, "chunk_id"),
            context=typed(entry["context"], str, "context"),
            entry_labels=tuple(typed(entry["entry_labels"], list, "entry_labels", str)),
            terminal_labels=tuple(typed(entry["terminal_labels"], list, "terminal_labels", str)),
            description=typed(entry["description"], str, "description"),
            carried_pages=tuple(typed(entry["carried_pages"], list, "carried_pages", int)),
            page_span=tuple(typed(entry["page_span"], list, "page_span", int)),
        )
        for entry in typed(doc["chunks"], list, "chunks")
    ]
    seen: set[int] = set()
    for chunk in chunks:  # two chunks with one id would share a graph file and node ids
        if chunk.chunk_id in seen:
            raise ValueError(f"chunk_id {chunk.chunk_id} appears twice")
        seen.add(chunk.chunk_id)
    return chunks


def profile_to_doc(profile: GuidelineProfile) -> dict[str, Any]:
    return {
        "format": PROFILE_FORMAT,
        "metadata": profile.metadata,
        "scope_context": profile.scope_context,
    }
