"""Node/edge/triplet precision-recall harness with supported-over-total counts.

Precision matches predictions to the reference; recall matches the
reference to predictions. An edge is supported when both endpoints map and
any edge connects their images; a triplet additionally requires the
transition label to match under the active policy, which is what makes it
the topological-consistency metric. Percentages are supported/total
rounded half-up to one decimal; an empty denominator reports as undefined
rather than 0%.

A score normalizes each distinct label of the two graphs once, and every
match reads that table. A label with no text left after normalization
matches nothing under any policy; it is never embedded or sent to the
verifier, but it counts in the totals. The embedding policy scores every
open (prediction, reference) pair in one matrix product.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Any

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
    exact = Decimal(supported * 100) / Decimal(total)
    return float(exact.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


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


def _norm(label: str) -> str:
    try:
        return normalize_label(label)
    except EmptyLabelError:
        return ""


def _normalize_all(labels: Iterable[str]) -> dict[str, str]:
    """Raw label -> normalized label ("" when nothing is left), normalizing
    each distinct label once."""
    return {label: _norm(label) for label in dict.fromkeys(labels)}


def _labels_equivalent(left: str, right: str, policy: MatchPolicy,
                       store: EmbeddingStore | None,
                       client: OracleClient | None) -> bool:
    """Whether two distinct normalized labels match (the caller settles equal
    ones); a label with no text matches nothing."""
    if not left or not right or policy.mode is MatchMode.EXACT_NORMALIZED:
        return False
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


def match_nodes(predicted: DecisionGraph, reference: DecisionGraph, policy: MatchPolicy,
                store: EmbeddingStore | None, client: OracleClient | None,
                labels: Mapping[str, str]) -> dict[str, str]:
    """Injective partial mapping predicted node id -> reference node id.

    Exact mode pairs equal normalized labels; embedding mode is greedy
    highest-similarity-first above the threshold, scored with `store`;
    oracle mode asks the verifier for each still-unmatched prediction. Each
    reference node is used at most once, and a node whose label has no text
    is never matched. `labels` maps raw to normalized labels and must cover
    both graphs' node labels.
    """
    if policy.mode is MatchMode.ORACLE_VERIFIED and client is None:
        raise UsageError("oracle-verified matching needs an oracle client")
    pred_labels = {pid: labels[predicted.nodes[pid].label] for pid in sorted(predicted.nodes)}
    ref_labels = {rid: labels[reference.nodes[rid].label] for rid in sorted(reference.nodes)}
    mapping: dict[str, str] = {}
    used: set[str] = set()

    # Exact pass runs first under every policy: equal normalized labels
    # never need a similarity judgment.
    by_label: dict[str, list[str]] = {}
    for rid, label in ref_labels.items():
        by_label.setdefault(label, []).append(rid)
    by_label.pop("", None)
    for pid, label in pred_labels.items():
        for rid in by_label.get(label, []):
            if rid not in used:
                mapping[pid] = rid
                used.add(rid)
                break

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


def _edge_counts(source: DecisionGraph, target: DecisionGraph,
                 mapping: dict[str, str], labels: Mapping[str, str],
                 policy: MatchPolicy, store: EmbeddingStore | None,
                 client: OracleClient | None) -> tuple[MetricCount, MetricCount]:
    """(edge, triplet) supported-over-total for source edges against target; an
    equal parallel label settles a triplet before any other is judged."""
    target_pairs: dict[tuple[str, str], list[str]] = {}
    for edge in target.edges:
        target_pairs.setdefault((edge.source, edge.target), []).append(edge.label)
    edge_supported = 0
    triplet_supported = 0
    for edge in source.edges:
        src_img = mapping.get(edge.source)
        tgt_img = mapping.get(edge.target)
        if src_img is None or tgt_img is None:
            continue
        others = target_pairs.get((src_img, tgt_img))
        if not others:
            continue
        edge_supported += 1
        label = labels[edge.label]
        parallel = [labels[other] for other in sorted(others)]
        if (label and label in parallel) or any(
                _labels_equivalent(label, other, policy, store, client) for other in parallel):
            triplet_supported += 1
    total = len(source.edges)
    return MetricCount(edge_supported, total), MetricCount(triplet_supported, total)


def score(predicted: DecisionGraph, reference: DecisionGraph, policy: MatchPolicy,
          unit_name: str = "unit", store: EmbeddingStore | None = None,
          client: OracleClient | None = None) -> EvalReport:
    """Score a predicted graph against a reference at node/edge/triplet level."""
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD and store is None:
        store = EmbeddingStore(HashingEmbeddingBackend())
    labels = _normalize_all(
        label for graph in (predicted, reference)
        for label in [*(node.label for node in graph.nodes.values()),
                      *(edge.label for edge in graph.edges)])
    forward = match_nodes(predicted, reference, policy, store, client, labels)
    backward = match_nodes(reference, predicted, policy, store, client, labels)
    edge_p, triplet_p = _edge_counts(predicted, reference, forward, labels, policy, store, client)
    edge_r, triplet_r = _edge_counts(reference, predicted, backward, labels, policy, store, client)
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
