"""Seeded synthetic guideline and the generator oracle that answers for it.

A `Document` is planned from a `Shape` and a seed: which pages are core,
how the core runs split into chunks, and, per chunk, a layered decision
graph from its entry labels through `depth` layers of `width` nodes to its
terminal labels. Chunk k's terminal concepts are chunk k+1's entry
concepts, so aggregation has real cross-chunk merges. The generator knows
the graph it encodes, so it also emits the reference graph that the
pipeline's merged graph is scored against.

The seed changes every label and every page text but never the shape:
label lengths, page lengths and graph structure are the same for every
seed, so the pipeline does the same amount of work.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from guidegraph.core import GRAPH_FORMAT, canonical_json
from guidegraph.oracle import OracleRequest, OracleTask

CONSONANTS = "bcdfghklmnprstvz"
VOWELS = "aeiou"
SYLLABLES_PER_WORD = 3
WORDS_PER_LABEL = 3
WORDS_PER_EDGE_LABEL = 2
VOCABULARY_SIZE = 600
LINES_PER_PAGE = 14
# Paraphrases keep the concept's words behind a clinical lead-in. The
# lead-ins all have the same length, so every seed yields equal-length labels.
PARAPHRASE_LEADS = ("refer for", "offer the", "arrange a")


@dataclass(frozen=True)
class Shape:
    """Size of a synthetic document; the seed never changes it."""

    pages: int
    chunk_pages: int
    width: int
    depth: int
    fanout: int
    interface: int
    aux_every: int = 0  # every n-th page is auxiliary; 0 means none
    paraphrase_every: int = 0  # every n-th carried terminal is paraphrased; 0 means none


@dataclass
class ChunkPlan:
    chunk_id: int
    pages: tuple[int, ...]
    entry_labels: list[str]
    terminal_labels: list[str]  # as the chunk states them, paraphrases included
    description: str


@dataclass
class Document:
    page_texts: dict[int, str]
    page_kinds: dict[int, str]
    chunks: list[ChunkPlan]
    children: dict[str, list[tuple[str, str]]]  # label -> (child label, edge label)
    concept_of: dict[str, int]  # every label the pipeline can see -> concept id
    reference: dict[str, Any]  # decision-graph/1 document
    scope: str


def _child_indices(source: int, n_source: int, n_target: int, fanout: int) -> list[int]:
    # Stride so that every target has at least one parent even when the
    # source layer is narrower than the target layer.
    per_source = max(fanout, -(-n_target // n_source))
    return sorted({(source * per_source + t) % n_target for t in range(per_source)})


class _Labels:
    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        syllables = [c + v for c in CONSONANTS for v in VOWELS]
        words: set[str] = set()
        while len(words) < VOCABULARY_SIZE:
            words.add("".join(rng.choice(syllables) for _ in range(SYLLABLES_PER_WORD)))
        self._words = sorted(words)
        self._used: set[str] = set()

    def fresh(self, n_words: int = WORDS_PER_LABEL) -> str:
        while True:
            label = " ".join(self._rng.choice(self._words) for _ in range(n_words))
            if label not in self._used:
                self._used.add(label)
                return label

    def edge(self) -> str:
        return " ".join(self._rng.choice(self._words) for _ in range(WORDS_PER_EDGE_LABEL))


def plan_chunks(shape: Shape) -> tuple[dict[int, str], list[tuple[int, ...]]]:
    """Page kinds and the page spans of the chunks, in document order."""
    kinds = {
        i: "auxiliary" if shape.aux_every and i % shape.aux_every == 0 else "core"
        for i in range(1, shape.pages + 1)
    }
    spans: list[tuple[int, ...]] = []
    run: list[int] = []
    for i in range(1, shape.pages + 2):
        if i <= shape.pages and kinds[i] == "core":
            run.append(i)
            continue
        for start in range(0, len(run), shape.chunk_pages):
            spans.append(tuple(run[start:start + shape.chunk_pages]))
        run = []
    return kinds, spans


def make_document(shape: Shape, seed: int) -> Document:
    rng = random.Random(seed)
    labels = _Labels(rng)
    kinds, spans = plan_chunks(shape)
    concept_of: dict[str, int] = {}
    canonical: list[str] = []  # concept id -> canonical label
    children: dict[str, list[tuple[str, str]]] = {}
    ref_edges: list[tuple[int, str, int]] = []

    def concept() -> int:
        label = labels.fresh()
        concept_of[label] = len(canonical)
        canonical.append(label)
        return concept_of[label]

    def connect(sources: list[tuple[int, str]], targets: list[tuple[int, str]]) -> None:
        for j, (source, source_label) in enumerate(sources):
            edges = []
            for t in _child_indices(j, len(sources), len(targets), shape.fanout):
                target, target_label = targets[t]
                edge = labels.edge()
                edges.append((target_label, edge))
                ref_edges.append((source, edge, target))
            children[source_label] = edges

    def layer(size: int) -> list[tuple[int, str]]:
        """Fresh concepts, each with the label a chunk states for it."""
        return [(c, canonical[c]) for c in (concept() for _ in range(size))]

    entries = layer(shape.interface)
    first_entries = {c for c, _ in entries}
    chunks: list[ChunkPlan] = []
    lines_by_chunk: list[list[str]] = []
    paraphrased = 0
    for k, span in enumerate(spans, start=1):
        terminals = layer(shape.interface)
        next_entries = list(terminals)
        for i, (c, label) in enumerate(terminals):
            if k == len(spans) or not shape.paraphrase_every or i % shape.paraphrase_every:
                continue
            paraphrase = f"{PARAPHRASE_LEADS[paraphrased % len(PARAPHRASE_LEADS)]} {label}"
            concept_of[paraphrase] = c
            # Alternate the side that states the paraphrase. A merge keeps the
            # entry node, so on the terminal side the merged graph keeps the
            # canonical label and on the entry side it keeps the paraphrase.
            if paraphrased % 2 == 0:
                terminals[i] = (c, paraphrase)
            else:
                next_entries[i] = (c, paraphrase)
            paraphrased += 1
        path = [entries] + [layer(shape.width) for _ in range(shape.depth)] + [terminals]
        for source, target in zip(path, path[1:]):
            connect(source, target)
        chunks.append(ChunkPlan(
            chunk_id=k,
            pages=span,
            entry_labels=[label for _, label in entries],
            terminal_labels=[label for _, label in terminals],
            description=f"segment {k}: {entries[0][1]} to {terminals[0][1]}",
        ))
        lines_by_chunk.append([
            f"If {edge}, {parent} leads to {child}."
            for nodes in path[:-1] for _, parent in nodes
            for child, edge in children[parent]
        ])
        entries = next_entries

    page_texts = {}
    for i in range(1, shape.pages + 1):
        if kinds[i] == "auxiliary":
            page_texts[i] = "References.\n" + "\n".join(
                f"{n}. {labels.edge()} et al., {labels.edge()}." for n in range(1, LINES_PER_PAGE + 1)
            ) + "\n"
    for plan, lines in zip(chunks, lines_by_chunk):
        for position, page in enumerate(plan.pages):
            body = lines[position::len(plan.pages)][:LINES_PER_PAGE]
            page_texts[page] = f"Section {plan.chunk_id}.{position + 1}.\n" + "\n".join(body) + "\n"

    kinds_of = {c: "entry" for c in first_entries} | {c: "terminal" for c, _ in terminals}
    reference = {
        "format": GRAPH_FORMAT,
        "nodes": [
            {
                "id": f"r{c:05d}",
                "label": label,
                "kind": kinds_of.get(c, "intermediate"),
                "origin_chunk": 0,
                "merged_from": [],
                "provenance_pages": [],
                "interface_labels": [],
            }
            for c, label in enumerate(canonical)
        ],
        "edges": [
            {"source": f"r{s:05d}", "label": edge, "target": f"r{t:05d}"}
            for s, edge, t in ref_edges
        ],
    }
    return Document(page_texts, kinds, chunks, children, concept_of, reference,
                    scope=f"synthetic guideline {labels.edge()}")


def write_manifest(document: Document, directory: Path) -> Path:
    """Write page files and a page manifest; returns the manifest path."""
    pages_dir = directory / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, text in sorted(document.page_texts.items()):
        name = f"page{index:04d}.txt"
        (pages_dir / name).write_text(text, encoding="utf-8")
        entries.append({"index": index, "text_path": f"pages/{name}"})
    manifest = directory / "manifest.json"
    manifest.write_text(canonical_json({"format": "page-manifest/1", "pages": entries}),
                        encoding="utf-8")
    return manifest


def _raw(body: dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True, ensure_ascii=False)


class GeneratorBackend:
    """Oracle backend that answers all seven tasks from the document plan.

    Replies that depend only on the page index or the node label are
    rendered once, at construction. `latency_s` emulates a remote model
    with a sleep that holds no lock, so concurrent callers overlap.
    """

    name = "perfbench-generator"

    def __init__(self, document: Document, latency_s: float = 0.0) -> None:
        self._latency_s = latency_s
        self._concept_of = document.concept_of
        last_pages = {plan.pages[-1] for plan in document.chunks}
        self._classify = {i: _raw({"label": kind}) for i, kind in document.page_kinds.items()}
        self._boundary = {i: _raw({"cut": i in last_pages}) for i in document.page_kinds}
        self._build = {
            plan.pages: _raw({
                "description": plan.description,
                "entry_labels": plan.entry_labels,
                "terminal_labels": plan.terminal_labels,
                "carry_pages": [],
                "updated_context": f"after {plan.description}",
            })
            for plan in document.chunks
        }
        self._children = {
            label: _raw({"children": [{"label": c, "edge_label": e} for c, e in pairs]})
            for label, pairs in document.children.items()
        }
        self._profile = _raw({"metadata": {"title": "perfbench synthetic guideline"},
                              "scope_context": document.scope})

    def reply(self, task: OracleTask, payload: dict[str, Any]) -> str:
        if task is OracleTask.GENERATE_CHILDREN:
            return self._children[payload["node"]]
        if task is OracleTask.FIND_DUPLICATE:
            concept = self._concept_of.get(payload["candidate"])
            return _raw({"matches": [
                i for i, label in enumerate(payload["candidates"])
                if concept is not None and self._concept_of.get(label) == concept
            ]})
        if task is OracleTask.CLASSIFY_PAGE:
            return self._classify[payload["page"]["index"]]
        if task is OracleTask.PREDICT_BOUNDARY:
            return self._boundary[payload["current"]["index"]]
        if task is OracleTask.BUILD_CHUNK:
            return self._build[tuple(p["index"] for p in payload["pages"])]
        if task is OracleTask.REFINE_NODES:
            return _raw({"entry_labels": payload["entry_labels"],
                         "terminal_labels": payload["terminal_labels"]})
        if task is OracleTask.EXTRACT_PROFILE:
            return self._profile
        raise ValueError(f"unhandled task {task}")

    def complete(self, request: OracleRequest) -> str:
        if self._latency_s:
            time.sleep(self._latency_s)
        return self.reply(request.task, request.payload)
