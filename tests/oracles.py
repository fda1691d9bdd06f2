"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: character-by-character
normalization, relabel-then-dedup graph quotients, compute-all-and-sort
retrieval, union-find transitive closures, a merge that scans every
edge. None of it shares code with the implementation under test, except
that the per-member ranking loop reads its vectors from the embedding
store and the scanning merge mutates a `DecisionGraph` through its edge
set and node removal.
"""
from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

from guidegraph.core import (
    Chunk,
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    MergedRef,
    NodeKind,
)


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


def loop_cosine_candidates(query: str, pool: dict[str, str], k: int,
                           store) -> tuple[tuple[str, float], ...]:
    """The per-member ranking loop: one `np.dot` per pool member, full sort.

    Same arithmetic as the matrix form, one member at a time, so on
    integer-valued (hashing) embeddings the results must be equal.
    """
    if query in pool:
        query_label = pool[query]
        members = [(nid, label) for nid, label in pool.items() if nid != query]
    else:
        query_label = query
        members = list(pool.items())
    if not members:
        return ()
    q = store.vector(query_label)
    q_norm = float(np.linalg.norm(q))
    scored = []
    for node_id, label in members:
        v = store.vector(label)
        scored.append((node_id, float(np.dot(q, v) / (q_norm * np.linalg.norm(v)))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])


def scan_merge_nodes(graph: DecisionGraph, primary: str, secondary: str) -> None:
    """The merge that sorts every edge of the graph and rewires the secondary's.

    Edges are visited in (source, label, target) order, so rewires and
    suppressed self-loops happen in that order; provenance is folded as
    `merge_nodes` folds it. Assumes a valid graph and two distinct nodes.
    """
    p_node = graph.nodes[primary]
    s_node = graph.nodes[secondary]
    for edge in sorted(graph.edges, key=DecisionEdge.as_triple):
        if edge.target == secondary:
            graph.edges.discard(edge)
            if edge.source == primary:
                graph.suppressed_self_loops.append(DecisionEdge(primary, edge.label, primary))
            else:
                graph.edges.add(DecisionEdge(edge.source, edge.label, primary))
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


def impl_partition(union_graph: DecisionGraph, result) -> set[frozenset[str]]:
    """Partition induced by an AggregationResult's merge map."""
    groups: dict[str, set[str]] = defaultdict(set)
    for node_id in union_graph.nodes:
        groups[result.resolve(node_id)].add(node_id)
    return {frozenset(v) for v in groups.values()}


def impl_class_edges(union_graph: DecisionGraph, result,
                     ) -> set[tuple[frozenset[str], str, frozenset[str]]]:
    """Output edges of an AggregationResult relabeled to merge classes."""
    groups: dict[str, set[str]] = defaultdict(set)
    for node_id in union_graph.nodes:
        groups[result.resolve(node_id)].add(node_id)
    class_of = {survivor: frozenset(members) for survivor, members in groups.items()}
    return {
        (class_of[e.source], e.label, class_of[e.target])
        for e in result.graph.edges
    }


def assert_edge_preservation(union_graph: DecisionGraph, result) -> None:
    """Union edges mapped through the merge map must equal the output edges
    plus exactly the logged suppressed self-loops."""
    mapped = {
        (result.resolve(e.source), e.label, result.resolve(e.target))
        for e in union_graph.edges
    }
    output = {e.as_triple() for e in result.graph.edges}
    suppressed = {
        (result.resolve(e.source), e.label, result.resolve(e.target))
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
                    graph.edges.add(DecisionEdge(source, rng.choice(CONDITIONS), target))
        graph.check_integrity()
        graphs.append(graph)

        chunk = Chunk(
            chunk_id=chunk_id,
            context=f"universe chunk {chunk_id}",
            entry_labels=entry_labels,
            terminal_labels=terminal_labels,
            description=f"chunk {chunk_id}",
            carried_pages=(),
            page_span=(chunk_id,),
        )
        chunk.validate()
        chunks.append(chunk)

    return chunks, graphs, label_class
