"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: character-by-character
normalization, relabel-then-dedup graph quotients, compute-all-and-sort
retrieval, union-find transitive closures, a merge that scans every
edge, evaluation by pair loops. None of it shares code with the
implementation under test, except that the per-member ranking loop reads
its vectors from the embedding store, the scanning merge mutates a
`DecisionGraph` through its edge set and node removal, and the loop
evaluation normalizes with `normalize_label`, scores with
`EmbeddingStore.cosine` and reports in `evaluation`'s types.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

from guidegraph.builder import duplicate_payload
from guidegraph.core import (
    Chunk,
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    MergedRef,
    NodeKind,
    normalize_label,
)
from guidegraph.errors import EmptyLabelError, UsageError
from guidegraph.evaluation import EvalReport, MatchMode, MatchPolicy, MetricCount
from guidegraph.oracle import OracleClient, OracleTask
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend


def reference_normalize(raw: str) -> str:
    """Character-by-character reimplementation of label normalization."""
    folded = raw.casefold()
    out: list[str] = []
    for ch in folded:
        if ch.isspace():
            if out and out[-1] == " ":
                continue
            out.append(" ")
        else:
            out.append(ch)
    while out and out[0] == " ":
        out.pop(0)
    while out and (out[-1] == " " or out[-1] in ".,;:"):
        out.pop()
    return "".join(out)


def reference_canonical_json(obj, *, compact: bool = False) -> str:
    """The standard-library encoding that `core.canonical_json` must match
    byte for byte on the inputs its docstring names."""
    if compact:
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def reference_embed_text(text: str, dim: int, seed: int, ngram: int = 3) -> np.ndarray:
    """The hashing embedder as one `blake2b` per trigram occurrence, added
    into the vector one at a time."""
    padded = f" {text} "
    vector = np.zeros(dim, dtype=np.float64)
    for i in range(max(1, len(padded) - ngram + 1)):
        gram = padded[i : i + ngram]
        digest = hashlib.blake2b(f"{seed}:{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        sign = 1.0 if value & 1 else -1.0
        vector[(value >> 1) % dim] += sign
    return vector


def per_edge_union(graphs: Iterable[DecisionGraph]) -> DecisionGraph:
    """Disjoint union built one node and one checked `add_edge` at a time."""
    union = DecisionGraph()
    for graph in graphs:
        for node_id in sorted(graph.nodes):
            union.add_node(graph.nodes[node_id])
        for edge in graph.edges:
            union.add_edge(*edge)
    return union


def brute_force_merge(edges: Iterable[tuple[str, str, str]], primary: str,
                      secondary: str) -> tuple[set[tuple[str, str, str]], set[tuple[str, str, str]]]:
    """Relabel secondary->primary across all triples, dedup, drop self-loops.

    Returns (kept edges, dropped self-loops).
    """
    relabeled = set()
    for source, label, target in edges:
        src = primary if source == secondary else source
        tgt = primary if target == secondary else target
        relabeled.add((src, label, tgt))
    kept = {t for t in relabeled if t[0] != t[2]}
    dropped = {t for t in relabeled if t[0] == t[2]}
    return kept, dropped


def exhaustive_top_k(query_vec, pool_vectors: dict[str, list[float]], k: int,
                     exclude: str | None = None) -> list[tuple[str, float]]:
    """Compute every cosine, sort by (-similarity, id), take k."""

    def cosine(a, b) -> float:
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        return dot / (na * nb)

    scored = [
        (node_id, cosine(query_vec, vec))
        for node_id, vec in pool_vectors.items()
        if node_id != exclude
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def loop_cosine_candidates(query_label: str, pool: dict[str, str], k: int,
                           store) -> tuple[tuple[str, str, float], ...]:
    """The per-member ranking loop: one `np.dot` per pool member, full sort.

    Same arithmetic as the matrix form, one member at a time, so on
    integer-valued (hashing) embeddings the results must be equal.
    """
    if not pool:
        return ()
    q = store.vector(query_label)
    q_norm = float(np.linalg.norm(q))
    scored = []
    for node_id, label in pool.items():
        v = store.vector(label)
        scored.append((node_id, label, float(np.dot(q, v) / (q_norm * np.linalg.norm(v)))))
    scored.sort(key=lambda item: (-item[2], item[0]))
    return tuple(scored[:k])


# ---------------------------------------------------------------------------
# Evaluation by pair loops

# Each label is normalized again inside every loop that reads it, and each
# (prediction, reference) pair is scored by its own `EmbeddingStore.cosine`.
# A label that normalizes to "" matches nothing, and is never embedded or
# sent to the verifier.


def _loop_norm(label: str) -> str:
    try:
        return normalize_label(label)
    except EmptyLabelError:
        return ""


def _loop_labels_equivalent(a: str, b: str, policy: MatchPolicy,
                            store: EmbeddingStore | None,
                            client: OracleClient | None) -> bool:
    left, right = _loop_norm(a), _loop_norm(b)
    if not left or not right:
        return False
    if left == right:
        return True
    if policy.mode is MatchMode.EXACT_NORMALIZED:
        return False
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD:
        assert store is not None
        return store.cosine(left, right) >= (policy.threshold or 1.0)
    assert client is not None
    body = client.call(OracleTask.FIND_DUPLICATE, duplicate_payload(left, [], [right]))
    return 0 in body["matches"]


def loop_match_nodes(predicted: DecisionGraph, reference: DecisionGraph,
                     policy: MatchPolicy, store: EmbeddingStore | None = None,
                     client: OracleClient | None = None) -> dict[str, str]:
    """Injective partial mapping predicted node id -> reference node id.

    Exact mode pairs equal normalized labels; embedding mode is greedy
    highest-similarity-first above the threshold, scored with `store`;
    oracle mode asks the verifier for each still-unmatched prediction. Each
    reference node is used at most once.
    """
    mapping: dict[str, str] = {}
    used: set[str] = set()
    pred_ids = sorted(predicted.nodes)
    ref_ids = sorted(reference.nodes)

    # Exact pass runs first under every policy: equal normalized labels
    # never need a similarity judgment.
    by_label: dict[str, list[str]] = {}
    for rid in ref_ids:
        by_label.setdefault(_loop_norm(reference.nodes[rid].label), []).append(rid)
    for pid in pred_ids:
        label = _loop_norm(predicted.nodes[pid].label)
        for rid in by_label.get(label, []) if label else []:
            if rid not in used:
                mapping[pid] = rid
                used.add(rid)
                break

    if policy.mode is MatchMode.EMBEDDING_THRESHOLD:
        pairs = []
        for pid in pred_ids:
            if pid in mapping:
                continue
            for rid in ref_ids:
                if rid in used:
                    continue
                left = _loop_norm(predicted.nodes[pid].label)
                right = _loop_norm(reference.nodes[rid].label)
                if not left or not right:
                    continue
                sim = store.cosine(left, right)
                if sim >= (policy.threshold or 1.0):
                    pairs.append((sim, pid, rid))
        pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
        for _, pid, rid in pairs:
            if pid not in mapping and rid not in used:
                mapping[pid] = rid
                used.add(rid)
    elif policy.mode is MatchMode.ORACLE_VERIFIED:
        if client is None:
            raise UsageError("oracle-verified matching needs an oracle client")
        for pid in pred_ids:
            if pid in mapping or not _loop_norm(predicted.nodes[pid].label):
                continue
            open_refs = [rid for rid in ref_ids
                         if rid not in used and _loop_norm(reference.nodes[rid].label)]
            if not open_refs:
                break
            body = client.call(OracleTask.FIND_DUPLICATE, duplicate_payload(
                _loop_norm(predicted.nodes[pid].label), [],
                [_loop_norm(reference.nodes[rid].label) for rid in open_refs],
            ))
            valid = [i for i in body["matches"] if 0 <= i < len(open_refs)]
            if valid:
                rid = open_refs[valid[0]]
                mapping[pid] = rid
                used.add(rid)
    return mapping


def _loop_edge_counts(source: DecisionGraph, target: DecisionGraph,
                      mapping: dict[str, str], policy: MatchPolicy,
                      store: EmbeddingStore | None,
                      client: OracleClient | None) -> tuple[MetricCount, MetricCount]:
    """(edge, triplet) supported-over-total for source edges against target."""
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
        labels = target_pairs.get((src_img, tgt_img))
        if not labels:
            continue
        edge_supported += 1
        # An equal label settles the triplet before any other is judged.
        if any(_loop_norm(edge.label) == _loop_norm(other) != "" for other in labels) or any(
                _loop_labels_equivalent(edge.label, other, policy, store, client)
                for other in sorted(labels)):
            triplet_supported += 1
    total = len(source.edges)
    return MetricCount(edge_supported, total), MetricCount(triplet_supported, total)


def loop_score(predicted: DecisionGraph, reference: DecisionGraph, policy: MatchPolicy,
               unit_name: str = "unit", store: EmbeddingStore | None = None,
               client: OracleClient | None = None) -> EvalReport:
    """Score a predicted graph against a reference at node/edge/triplet level."""
    if policy.mode is MatchMode.EMBEDDING_THRESHOLD and store is None:
        store = EmbeddingStore(HashingEmbeddingBackend())
    forward = loop_match_nodes(predicted, reference, policy, store, client)
    backward = loop_match_nodes(reference, predicted, policy, store, client)
    edge_p, triplet_p = _loop_edge_counts(predicted, reference, forward, policy, store, client)
    edge_r, triplet_r = _loop_edge_counts(reference, predicted, backward, policy, store, client)
    return EvalReport(
        unit_name=unit_name,
        node_precision=MetricCount(len(forward), len(predicted.nodes)),
        node_recall=MetricCount(len(backward), len(reference.nodes)),
        edge_precision=edge_p,
        edge_recall=edge_r,
        triplet_precision=triplet_p,
        triplet_recall=triplet_r,
    )


def scan_merge_nodes(graph: DecisionGraph, primary: str, secondary: str) -> None:
    """The merge that sorts every edge of the graph and rewires the secondary's.

    Edges are visited in (source, label, target) order, so rewires and
    suppressed self-loops happen in that order; provenance is folded as
    `merge_nodes` folds it. Assumes a valid graph and two distinct nodes.
    """
    p_node = graph.nodes[primary]
    s_node = graph.nodes[secondary]
    for edge in sorted(graph.edges):
        if edge.target == secondary:
            graph.remove_edge(*edge)
            if edge.source == primary:
                graph.suppressed_self_loops.append(DecisionEdge(primary, edge.label, primary))
            else:
                graph.add_edge(edge.source, edge.label, primary)
        elif edge.source == secondary:
            graph.remove_edge(*edge)
            if edge.target == primary:
                graph.suppressed_self_loops.append(DecisionEdge(primary, edge.label, primary))
            else:
                graph.add_edge(primary, edge.label, edge.target)
    p_node.merged_from.extend(s_node.merged_from)
    p_node.merged_from.append(MergedRef(secondary, s_node.origin_chunk))
    p_node.provenance_pages = sorted(set(p_node.provenance_pages) | set(s_node.provenance_pages))
    for label in s_node.interface_labels:
        if label not in p_node.interface_labels:
            p_node.interface_labels.append(label)
    if (p_node.kind is NodeKind.TERMINAL) != (s_node.kind is NodeKind.TERMINAL):
        p_node.kind = NodeKind.INTERMEDIATE
    graph._remove_node(secondary)


def scan_runs(indices: list[int]) -> list[list[int]]:
    """Brute-force scan partition into maximal consecutive runs."""
    runs: list[list[int]] = []
    for index in indices:
        if runs and runs[-1][-1] + 1 == index:
            runs[-1].append(index)
        else:
            runs.append([index])
    return runs


class _UnionFind:
    def __init__(self, items: Iterable[str]) -> None:
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def closure_quotient(union_graph: DecisionGraph,
                     equivalent: Callable[[DecisionNode, DecisionNode], bool],
                     ) -> tuple[set[frozenset[str]], set[tuple[frozenset[str], str, frozenset[str]]]]:
    """Brute-force quotient: enumerate cross-chunk pairs, apply the
    equivalence generator, take the transitive closure, relabel every edge
    to its class, dedup, and drop self-loops.
    """
    ids = sorted(union_graph.nodes)
    uf = _UnionFind(ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            node_a, node_b = union_graph.nodes[a], union_graph.nodes[b]
            if node_a.origin_chunk == node_b.origin_chunk:
                continue
            if equivalent(node_a, node_b):
                uf.union(a, b)
    members: dict[str, set[str]] = defaultdict(set)
    for node_id in ids:
        members[uf.find(node_id)].add(node_id)
    classes = {frozenset(v) for v in members.values()}
    class_of = {node_id: frozenset(members[uf.find(node_id)]) for node_id in ids}
    edges = set()
    for edge in union_graph.edges:
        src_class = class_of[edge.source]
        tgt_class = class_of[edge.target]
        if src_class != tgt_class:
            edges.add((src_class, edge.label, tgt_class))
    return classes, edges


def resolve(result, node_id: str) -> str:
    """Final surviving id of a union node id under an AggregationResult,
    following its merge decisions' chains."""
    merged_into = {d.secondary: d.primary for d in result.decisions}
    while node_id in merged_into:
        node_id = merged_into[node_id]
    return node_id


def impl_partition(union_graph: DecisionGraph, result) -> set[frozenset[str]]:
    """Partition induced by an AggregationResult's merge decisions."""
    groups: dict[str, set[str]] = defaultdict(set)
    for node_id in union_graph.nodes:
        groups[resolve(result, node_id)].add(node_id)
    return {frozenset(v) for v in groups.values()}


def impl_class_edges(union_graph: DecisionGraph, result,
                     ) -> set[tuple[frozenset[str], str, frozenset[str]]]:
    """Output edges of an AggregationResult relabeled to merge classes."""
    groups: dict[str, set[str]] = defaultdict(set)
    for node_id in union_graph.nodes:
        groups[resolve(result, node_id)].add(node_id)
    class_of = {survivor: frozenset(members) for survivor, members in groups.items()}
    return {
        (class_of[e.source], e.label, class_of[e.target])
        for e in result.graph.edges
    }


def assert_edge_preservation(union_graph: DecisionGraph, result) -> None:
    """Union edges mapped through the merge map must equal the output edges
    plus exactly the logged suppressed self-loops."""
    mapped = {
        (resolve(result, e.source), e.label, resolve(result, e.target))
        for e in union_graph.edges
    }
    output = {tuple(e) for e in result.graph.edges}
    suppressed = {
        (resolve(result, e.source), e.label, resolve(result, e.target))
        for e in result.graph.suppressed_self_loops
    }
    assert all(t[0] == t[2] for t in suppressed), "suppressed entries must be self-loops"
    assert not (output & suppressed)
    assert mapped == output | suppressed, (
        f"edge preservation failed:\n mapped-only={mapped - (output | suppressed)}\n"
        f" extra={(output | suppressed) - mapped}"
    )


# ---------------------------------------------------------------------------
# Random aggregation universes

CONDITIONS = ("if a", "if b", "if c")


def random_universe(seed: int, max_nodes: int = 12,
                    ) -> tuple[list[Chunk], list[DecisionGraph], dict[str, int]]:
    """A random multi-chunk universe for quotient testing.

    Duplicate classes touch interface nodes only, with at most one member
    per chunk, so the pairwise interface-seeded merge procedure and the
    full transitive-closure quotient must agree. Returns (chunks, graphs,
    label->class map for the verifier rule).
    """
    rng = random.Random(seed)
    chunk_count = rng.randint(1, 3)
    class_counter = 0
    label_class: dict[str, int] = {}
    # classes shared across chunks: list of (class_id, style, label)
    shared: list[dict] = []

    chunks: list[Chunk] = []
    graphs: list[DecisionGraph] = []
    total_nodes = 0

    for chunk_id in range(1, chunk_count + 1):
        remaining = max_nodes - total_nodes - (chunk_count - chunk_id) * 2
        if remaining < 2:
            entry_count, terminal_count, inner_count = 1, 1, 0
        else:
            entry_count = rng.randint(1, min(2, remaining - 1))
            terminal_count = rng.randint(1, min(2, remaining - entry_count))
            inner_count = rng.randint(0, max(0, min(2, remaining - entry_count - terminal_count)))
        total_nodes += entry_count + terminal_count + inner_count

        used_classes: set[int] = set()
        interface_labels: list[str] = []
        for _ in range(entry_count + terminal_count):
            reusable = [s for s in shared if s["class_id"] not in used_classes]
            if reusable and rng.random() < 0.6:
                chosen = rng.choice(reusable)
            else:
                class_counter += 1
                chosen = {
                    "class_id": class_counter,
                    "style": rng.choice(("exact", "paraphrase")),
                    "label": f"shared state {class_counter}",
                }
                shared.append(chosen)
            used_classes.add(chosen["class_id"])
            if chosen["style"] == "exact":
                label = chosen["label"]
            else:
                label = f"state {chosen['class_id']} wording {chunk_id}"
            label_class[label] = chosen["class_id"]
            interface_labels.append(label)

        entry_labels = tuple(interface_labels[:entry_count])
        terminal_labels = tuple(interface_labels[entry_count:])
        inner_labels = []
        for idx in range(inner_count):
            class_counter += 1
            label = f"local {chunk_id} item {idx}"
            label_class[label] = class_counter
            inner_labels.append(label)

        graph = DecisionGraph()
        node_ids: list[str] = []
        seq = 0

        def add(label: str, kind: NodeKind, interface: bool) -> str:
            nonlocal seq
            seq += 1
            node_id = f"c{chunk_id:02d}n{seq:03d}"
            graph.add_node(DecisionNode(
                node_id=node_id, label=label, kind=kind, origin_chunk=chunk_id,
                provenance_pages=[chunk_id],
                interface_labels=[label] if interface else [],
            ))
            node_ids.append(node_id)
            return node_id

        for label in terminal_labels:
            add(label, NodeKind.TERMINAL, True)
        for label in entry_labels:
            add(label, NodeKind.ENTRY, True)
        for label in inner_labels:
            add(label, NodeKind.INTERMEDIATE, False)

        for source in node_ids:
            if graph.nodes[source].kind is NodeKind.TERMINAL:
                continue
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(node_ids)
                if target != source:
                    graph.add_edge(source, rng.choice(CONDITIONS), target)
        graph.check_integrity()
        graphs.append(graph)

        chunks.append(Chunk(
            chunk_id=chunk_id,
            context=f"universe chunk {chunk_id}",
            entry_labels=entry_labels,
            terminal_labels=terminal_labels,
            description=f"chunk {chunk_id}",
            carried_pages=(),
            page_span=(chunk_id,),
        ))

    return chunks, graphs, label_class
