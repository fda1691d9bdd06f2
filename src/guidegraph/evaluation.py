"""Node/edge/triplet precision-recall harness with supported-over-total counts.

Precision matches predictions to the reference; recall matches the
reference to predictions. An edge is supported when both endpoints map and
any edge connects their images; a triplet additionally requires the
transition label to match under the active policy, which is what makes it
the topological-consistency metric. Percentages are supported/total
rounded half-up to one decimal; an empty denominator reports as undefined
rather than 0%.

A score normalizes each distinct label of the two graphs once, then
builds one `GraphIndex` per graph: its node labels in id order, and for
each (source, target) pair the labels of its parallel edges. Both match
directions and both edge counts read these indexes, so an edge costs two
mapping lookups, one pair lookup and one membership test. Parallel labels
are judged one at a time, in raw-label order, only when none is equal and
the policy is not exact. Nothing is kept across calls. A label with no
text left after normalization matches nothing under any policy; it is
never embedded or sent to the verifier, but it counts in the totals. The
embedding policy scores every open (prediction, reference) pair in one
matrix product.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple

import numpy as np

from .core import DecisionGraph, normalize_label
from .errors import EmptyLabelError, UsageError
from .oracle import OracleClient, OracleTask
from .retrieval import EmbeddingStore, HashingEmbeddingBackend
from .builder import duplicate_payload

REPORT_FORMAT = "eval-report/1"


class MatchMode(str, Enum):
    EXACT_NORMALIZED = "exact"
    EMBEDDING_THRESHOLD = "embedding"
    ORACLE_VERIFIED = "oracle"


@dataclass(frozen=True)
class MatchPolicy:
    """How `eval` matches labels. A given threshold lies in (0, 1] under
    every mode, which refuses `nan` too; the embedding mode needs one."""

    mode: MatchMode = MatchMode.EXACT_NORMALIZED
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise UsageError(f"match_threshold must lie in (0, 1], got {self.threshold}")
        if self.mode is MatchMode.EMBEDDING_THRESHOLD and self.threshold is None:
            raise UsageError("the embedding match mode needs a match_threshold")


def percent_value(supported: int, total: int) -> float | None:
    """supported/total as a percentage, half-up to one decimal; None if total=0."""
    if total == 0:
        return None
    # In tenths of a percent, floor(1000 * supported / total + 1/2): exact
    # integer arithmetic, then one correctly rounded division by 10.
    return (2000 * supported + total) // (2 * total) / 10


@dataclass(frozen=True)
class MetricCount:
    supported: int
    total: int

    @property
    def percent(self) -> float | None:
        return percent_value(self.supported, self.total)

    def as_doc(self) -> dict[str, Any]:
        return {"supported": self.supported, "total": self.total, "percent": self.percent}


@dataclass(frozen=True)
class EvalReport:
    unit_name: str
    node_precision: MetricCount
    node_recall: MetricCount
    edge_precision: MetricCount
    edge_recall: MetricCount
    triplet_precision: MetricCount
    triplet_recall: MetricCount

    def to_doc(self) -> dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "unit_name": self.unit_name,
            "nodes": {"precision": self.node_precision.as_doc(),
                      "recall": self.node_recall.as_doc()},
            "edges": {"precision": self.edge_precision.as_doc(),
                      "recall": self.edge_recall.as_doc()},
            "triplets": {"precision": self.triplet_precision.as_doc(),
                         "recall": self.triplet_recall.as_doc()},
        }


def _label_table(*graphs: DecisionGraph) -> dict[str, str]:
    """Raw -> normalized label ("" when nothing is left) for every node and
    edge label of the graphs, normalizing each distinct label once."""
    table = dict.fromkeys([node.label for graph in graphs for node in graph.nodes.values()]
                          + [label for graph in graphs for _, label, _ in graph.edges], "")
    for label in table:
        try:
            table[label] = normalize_label(label)
        except EmptyLabelError:
            pass
    return table


class GraphIndex(NamedTuple):
    """What a score reads of one graph, built once per `score` call.

    `labels` maps raw to normalized labels and covers the graph's node and
    edge labels. `nodes` maps each node id, in id order, to its normalized
    label. `pairs` maps the (source, target) pair of every edge to the
    normalized labels of the edges between them, for the equal-label test.
    """

    graph: DecisionGraph
    labels: Mapping[str, str]
    nodes: dict[str, str]
    pairs: dict[tuple[str, str], tuple[str, ...]]

    def parallel(self, source: str, target: str) -> list[str]:
        """The normalized labels of the edges source -> target, in the order
        of their raw labels: the order in which they are judged."""
        return [self.labels[edge.label] for edge in sorted(self.graph.out_edges(source))
                if edge.target == target]


def index_graph(graph: DecisionGraph, labels: Mapping[str, str]) -> GraphIndex:
    """The `GraphIndex` of `graph` under the label table `labels`."""
    nodes = graph.nodes
    pairs: dict[tuple[str, str], tuple[str, ...]] = {}
    for source, raw, target in graph.edges:
        pair = source, target
        pairs[pair] = pairs.get(pair, ()) + (labels[raw],)
    return GraphIndex(graph, labels, {nid: labels[nodes[nid].label] for nid in sorted(nodes)},
                      pairs)


def _labels_equivalent(left: str, right: str, policy: MatchPolicy,
                       store: EmbeddingStore | None,
                       client: OracleClient | None) -> bool:
    """Whether two distinct normalized labels with text match under the
    embedding or the oracle policy."""
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD:
        assert store is not None
        return store.cosine(left, right) >= policy.threshold
    assert client is not None
    body = client.call(OracleTask.FIND_DUPLICATE, duplicate_payload(left, [], [right]))
    return 0 in body["matches"]


def _cosines(store: EmbeddingStore, left: list[str], right: list[str]) -> np.ndarray:
    """Cosine of every (left, right) label pair: each dot product over the
    product of the two norms, as `EmbeddingStore.cosine` divides."""
    (left_vectors, left_norms), (right_vectors, right_norms) = (
        zip(*store.lookup(labels)) for labels in (left, right))
    return (np.array(left_vectors) @ np.array(right_vectors).T) / np.outer(left_norms, right_norms)


def match_nodes(predicted: GraphIndex, reference: GraphIndex, policy: MatchPolicy,
                store: EmbeddingStore | None, client: OracleClient | None) -> dict[str, str]:
    """Injective partial mapping predicted node id -> reference node id.

    Exact mode pairs equal normalized labels; embedding mode is greedy
    highest-similarity-first above the threshold, scored with `store`;
    oracle mode asks the verifier for each still-unmatched prediction. Each
    reference node is used at most once, and a node whose label has no text
    is never matched.
    """
    if policy.mode is MatchMode.ORACLE_VERIFIED and client is None:
        raise UsageError("oracle-verified matching needs an oracle client")
    pred_labels, ref_labels = predicted.nodes, reference.nodes

    # Exact pass runs first under every policy: equal normalized labels
    # never need a similarity judgment. Each label's reference ids are
    # stacked highest first, so a pop takes the lowest one left.
    by_label: dict[str, list[str]] = {}
    for rid in reversed(ref_labels):
        by_label.setdefault(ref_labels[rid], []).append(rid)
    by_label.pop("", None)
    mapping: dict[str, str] = {}
    for pid, label in pred_labels.items():
        ids = by_label.get(label)
        if ids:
            mapping[pid] = ids.pop()
    used = set(mapping.values())

    open_preds = [pid for pid, label in pred_labels.items() if label and pid not in mapping]
    open_refs = [rid for rid, label in ref_labels.items() if label and rid not in used]
    if not open_preds or not open_refs:
        return mapping
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD:
        assert store is not None
        sims = _cosines(store, [pred_labels[pid] for pid in open_preds],
                        [ref_labels[rid] for rid in open_refs])
        pairs = [(-float(sims[i, j]), open_preds[i], open_refs[j])
                 for i, j in zip(*np.nonzero(sims >= policy.threshold))]
        for _, pid, rid in sorted(pairs):
            if pid not in mapping and rid not in used:
                mapping[pid] = rid
                used.add(rid)
    elif policy.mode is MatchMode.ORACLE_VERIFIED:
        for pid in open_preds:
            body = client.call(OracleTask.FIND_DUPLICATE, duplicate_payload(
                pred_labels[pid], [], [ref_labels[rid] for rid in open_refs]))
            valid = [i for i in body["matches"] if 0 <= i < len(open_refs)]
            if valid:
                mapping[pid] = open_refs.pop(valid[0])
                if not open_refs:
                    break
    return mapping


def _edge_counts(source: GraphIndex, target: GraphIndex, mapping: dict[str, str],
                 policy: MatchPolicy, store: EmbeddingStore | None,
                 client: OracleClient | None) -> tuple[MetricCount, MetricCount]:
    """(edge, triplet) supported-over-total for source edges against target.

    An equal parallel label settles a triplet; only when none is equal, and
    the policy is not exact, are the parallel labels judged, in order.
    """
    judged = policy.mode is not MatchMode.EXACT_NORMALIZED
    labels = source.labels
    edge_supported = 0
    triplet_supported = 0
    for source_id, raw, target_id in source.graph.edges:
        src_img, tgt_img = mapping.get(source_id), mapping.get(target_id)
        parallel = target.pairs.get((src_img, tgt_img))
        if parallel is None:
            continue
        edge_supported += 1
        label = labels[raw]
        if label and (label in parallel or judged and any(
                _labels_equivalent(label, other, policy, store, client)
                for other in target.parallel(src_img, tgt_img) if other)):
            triplet_supported += 1
    total = len(source.graph.edges)
    return MetricCount(edge_supported, total), MetricCount(triplet_supported, total)


def score(predicted: DecisionGraph, reference: DecisionGraph, policy: MatchPolicy,
          unit_name: str = "unit", store: EmbeddingStore | None = None,
          client: OracleClient | None = None) -> EvalReport:
    """Score a predicted graph against a reference at node/edge/triplet level."""
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD and store is None:
        store = EmbeddingStore(HashingEmbeddingBackend())
    labels = _label_table(predicted, reference)
    pred_index, ref_index = index_graph(predicted, labels), index_graph(reference, labels)
    forward = match_nodes(pred_index, ref_index, policy, store, client)
    backward = match_nodes(ref_index, pred_index, policy, store, client)
    edge_p, triplet_p = _edge_counts(pred_index, ref_index, forward, policy, store, client)
    edge_r, triplet_r = _edge_counts(ref_index, pred_index, backward, policy, store, client)
    return EvalReport(
        unit_name=unit_name,
        node_precision=MetricCount(len(forward), len(predicted.nodes)),
        node_recall=MetricCount(len(backward), len(reference.nodes)),
        edge_precision=edge_p,
        edge_recall=edge_r,
        triplet_precision=triplet_p,
        triplet_recall=triplet_r,
    )


def _cell(metric: MetricCount) -> str:
    pct = metric.percent
    shown = "undef" if pct is None else f"{pct:.1f}"
    return f"{shown:>6} {metric.supported}/{metric.total}"


def render_table(reports: list[EvalReport]) -> str:
    """Human-readable table: one row per unit, % and S/T per metric cell."""
    header = (
        f"{'unit':<16} {'node P':>12} {'node R':>12} {'edge P':>12} "
        f"{'edge R':>12} {'trip P':>12} {'trip R':>12}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.unit_name:<16} {_cell(report.node_precision):>12} "
            f"{_cell(report.node_recall):>12} {_cell(report.edge_precision):>12} "
            f"{_cell(report.edge_recall):>12} {_cell(report.triplet_precision):>12} "
            f"{_cell(report.triplet_recall):>12}"
        )
    return "\n".join(lines)
