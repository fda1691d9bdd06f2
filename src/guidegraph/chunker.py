"""Chunk generation: profile extraction, page classification, run partitioning,
boundary-predicted buffering, and chunk finalization with interface refinement.

Pages are classified independently; the buffering loop is strictly
sequential within a run because the running context threads from one chunk
to the next. The context resets to the profile scope at each run start, so
runs are independent. Both pages and runs fan out over the oracle client.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from .core import Chunk, GuidelineProfile, PageLabel, PageRecord, normalize_label
from .errors import (
    ChunkInterfaceError,
    EmptyLabelError,
    OracleProtocolError,
    ProfileError,
)
from .oracle import OracleClient, OracleTask

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Run:
    """A maximal consecutive run of core page indices."""

    page_indices: tuple[int, ...]


@dataclass
class ChunkBuffer:
    """Pages accumulated for the chunk under construction, plus running memory."""

    pages: list[PageRecord]
    running_context: str

    def text(self) -> str:
        return "\n".join(p.text for p in self.pages)

    def indices(self) -> list[int]:
        return [p.index for p in self.pages]


def _page_payload(page: PageRecord) -> dict[str, Any]:
    payload: dict[str, Any] = {"index": page.index, "text": page.text}
    if page.image_ref is not None:
        payload["image_ref"] = page.image_ref
        payload["image_sha256"] = page.image_digest
    return payload


def profile_payload(pages: Sequence[PageRecord]) -> dict[str, Any]:
    return {"pages": [_page_payload(p) for p in pages]}


def classify_payload(page: PageRecord, profile: GuidelineProfile) -> dict[str, Any]:
    return {"page": _page_payload(page), "metadata": dict(sorted(profile.metadata.items()))}


def boundary_payload(buffer: ChunkBuffer, current: PageRecord,
                     lookahead: PageRecord | None, budget: int) -> dict[str, Any]:
    return {
        "buffer": [_page_payload(p) for p in buffer.pages],
        "current": _page_payload(current),
        "lookahead": _page_payload(lookahead) if lookahead is not None else None,
        "context": buffer.running_context,
        "budget": budget,
    }


def build_payload(buffer: ChunkBuffer, lookahead: PageRecord | None) -> dict[str, Any]:
    return {
        "pages": [_page_payload(p) for p in buffer.pages],
        "lookahead": _page_payload(lookahead) if lookahead is not None else None,
        "context": buffer.running_context,
    }


def refine_payload(buffer: ChunkBuffer, description: str, entry: Sequence[str],
                   terminal: Sequence[str]) -> dict[str, Any]:
    return {
        "pages": [_page_payload(p) for p in buffer.pages],
        "description": description,
        "entry_labels": list(entry),
        "terminal_labels": list(terminal),
    }


def extract_profile(pages: Sequence[PageRecord], client: OracleClient) -> GuidelineProfile:
    """Derive the document profile from the header pages. The reply schema
    requires a non-blank scope context; no valid reply is a ProfileError."""
    if not pages:
        raise ProfileError("no header pages available for profile extraction")
    try:
        body = client.call(OracleTask.EXTRACT_PROFILE, profile_payload(pages))
    except OracleProtocolError as exc:
        raise ProfileError(f"profile extraction failed: {exc}") from exc
    return GuidelineProfile(metadata=dict(body["metadata"]),
                            scope_context=body["scope_context"].strip())


def classify_pages(pages: Sequence[PageRecord], profile: GuidelineProfile,
                   client: OracleClient, parallelism: int = 1) -> list[PageLabel]:
    """Label every page core/auxiliary; order-aligned with the input.

    A page whose classification never validates defaults to auxiliary:
    dropping a page loses recall but never fabricates decision content.
    """

    def classify(child: OracleClient, page: PageRecord) -> PageLabel:
        try:
            body = child.call(OracleTask.CLASSIFY_PAGE, classify_payload(page, profile))
        except OracleProtocolError:
            logger.warning("page %d: classification failed; defaulting to auxiliary",
                           page.index)
            return PageLabel.AUXILIARY
        return PageLabel(body["label"])

    return client.fan_out(classify, pages, parallelism)


def contiguous_runs(core_indices: Sequence[int]) -> list[Run]:
    """Partition sorted, duplicate-free indices into maximal consecutive runs."""
    runs: list[Run] = []
    current: list[int] = []
    for index in core_indices:
        if current and index != current[-1] + 1:
            runs.append(Run(tuple(current)))
            current = []
        current.append(index)
    if current:
        runs.append(Run(tuple(current)))
    return runs


def _exceeds_cap(pages: Sequence[PageRecord], page: PageRecord, budget: int) -> bool:
    """Whether the pages plus one more page would make a chunk text longer
    than the hard cap of twice the budget."""
    return len(ChunkBuffer([*pages, page], "").text()) > 2 * budget


def predict_boundary(buffer: ChunkBuffer, current: PageRecord,
                     lookahead: PageRecord | None, budget: int,
                     client: OracleClient) -> bool:
    """Decide whether the current page should end the chunk.

    A hard override returns True whenever adding the current page would push
    the buffer text past twice the soft budget, without consulting the
    oracle: the budget is advisory, the cap is not. `chunk_run` then cuts
    before the page rather than after it. An oracle that never produces a
    valid reply also cuts, bounding chunk growth.
    """
    if _exceeds_cap(buffer.pages, current, budget):
        logger.warning("page %d: hard budget override, cutting chunk", current.index)
        return True
    try:
        body = client.call(OracleTask.PREDICT_BOUNDARY,
                           boundary_payload(buffer, current, lookahead, budget))
    except OracleProtocolError:
        logger.warning("page %d: boundary prediction failed; cutting chunk", current.index)
        return True
    return bool(body["cut"])


@dataclass(frozen=True)
class BuildOutcome:
    description: str
    entry_labels: tuple[str, ...]
    terminal_labels: tuple[str, ...]
    carry_pages: tuple[int, ...]
    updated_context: str


def build_chunk(buffer: ChunkBuffer, lookahead: PageRecord | None,
                client: OracleClient) -> BuildOutcome:
    """Summarize the buffered pages into description, interface, and carry set.

    The reply schema requires non-empty entry and terminal lists, so an
    empty interface is retried like any invalid reply.
    """
    if not buffer.pages:
        raise ChunkInterfaceError("cannot build a chunk from an empty buffer")
    body = client.call(OracleTask.BUILD_CHUNK, build_payload(buffer, lookahead))
    valid_indices = set(buffer.indices())
    carry = []
    for page in body["carry_pages"]:
        if page in valid_indices:
            carry.append(page)
        else:
            logger.warning("carry page %d outside buffer %s; dropped", page, buffer.indices())
    return BuildOutcome(
        description=body["description"],
        entry_labels=tuple(body["entry_labels"]),
        terminal_labels=tuple(body["terminal_labels"]),
        carry_pages=tuple(carry),
        updated_context=body["updated_context"],
    )


def _supported(label: str, originals: set[str], buffer_text: str) -> bool:
    # A label survives if it appears verbatim in the buffer or the oracle
    # confirmed it by returning a label from the original interface.
    return label in buffer_text or label in originals


def refine_nodes(buffer: ChunkBuffer, description: str, entry: Sequence[str],
                 terminal: Sequence[str], client: OracleClient,
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Normalize, dedup, and support-check the chunk interface labels.

    The oracle returns the labels it confirms; anything it invents that has
    no verbatim support in the buffer is dropped. The refined interface
    must stay non-empty and disjoint.
    """
    body = client.call(OracleTask.REFINE_NODES,
                       refine_payload(buffer, description, entry, terminal))
    buffer_text = normalize_label(buffer.text()) if buffer.text().strip() else ""

    def clean(raw_labels: Sequence[str], originals: Sequence[str]) -> tuple[str, ...]:
        normalized_originals = set()
        for raw in originals:
            try:
                normalized_originals.add(normalize_label(raw))
            except EmptyLabelError:
                continue
        out: list[str] = []
        for raw in raw_labels:
            try:
                label = normalize_label(raw)
            except EmptyLabelError:
                logger.warning("dropping empty interface label %r", raw)
                continue
            if label in out:
                continue
            if not _supported(label, normalized_originals, buffer_text):
                logger.warning("dropping unsupported interface label %r", label)
                continue
            out.append(label)
        return tuple(out)

    refined_entry = clean(body["entry_labels"], entry)
    refined_terminal = clean(body["terminal_labels"], terminal)
    if not refined_entry or not refined_terminal:
        raise ChunkInterfaceError(
            f"pages {buffer.indices()}: refinement emptied the chunk interface"
        )
    overlap = set(refined_entry) & set(refined_terminal)
    if overlap:
        raise ChunkInterfaceError(
            f"pages {buffer.indices()}: entry/terminal overlap {sorted(overlap)}"
        )
    return refined_entry, refined_terminal


def assemble_context(profile: GuidelineProfile, description: str,
                     pages: Sequence[PageRecord], memory: str) -> str:
    lines = ["[guideline]"]
    lines.extend(f"{key}: {value}" for key, value in sorted(profile.metadata.items()))
    lines.append(f"[segment] {description}")
    for page in pages:
        lines.append(f"[page {page.index}]")
        lines.append(page.text)
    lines.append(f"[memory] {memory}")
    return "\n".join(lines)


@dataclass
class ChunkingResult:
    profile: GuidelineProfile
    chunks: list[Chunk]


def chunk_run(run: Run, by_index: dict[int, PageRecord], profile: GuidelineProfile,
              budget: int, client: OracleClient) -> list[Callable[..., Chunk]]:
    """Chunk one run of core pages into drafts: each makes its `Chunk` when
    called with the chunk's document-wide `chunk_id`.

    Carry-forward pages from one chunk seed the next buffer and the running
    context threads across chunks. No chunk text exceeds twice the budget
    unless it is a single page: when the current page would push the buffer
    past that cap, the chunk is built from the buffer, with the page as its
    lookahead, and the page begins the next chunk. A carried page that would
    push the next buffer past the cap together with the page that follows
    is dropped from the carry. `refine_nodes` returns a normalized, valid
    interface and every carried page lies in the buffer, so a draft makes a
    valid `Chunk`.
    """
    drafts: list[Callable[..., Chunk]] = []
    buffer = ChunkBuffer(pages=[], running_context=profile.scope_context)

    def finish(lookahead: PageRecord | None) -> None:
        """Draft a chunk from the buffer and start the next buffer from its carry."""
        nonlocal buffer
        outcome = build_chunk(buffer, lookahead, client)
        entry, terminal = refine_nodes(
            buffer, outcome.description, outcome.entry_labels,
            outcome.terminal_labels, client,
        )
        carried: list[PageRecord] = []
        dropped: set[int] = set()
        for page in buffer.pages:
            if page.index not in outcome.carry_pages:
                continue
            if lookahead is not None and _exceeds_cap([*carried, page], lookahead, budget):
                logger.warning("carry page %d would push the next chunk past the cap; "
                               "dropped", page.index)
                dropped.add(page.index)
            else:
                carried.append(page)
        drafts.append(partial(
            Chunk,
            context=assemble_context(profile, outcome.description, buffer.pages,
                                     outcome.updated_context),
            entry_labels=entry,
            terminal_labels=terminal,
            description=outcome.description,
            carried_pages=tuple(i for i in outcome.carry_pages if i not in dropped),
            page_span=tuple(buffer.indices()),
        ))
        buffer = ChunkBuffer(pages=carried, running_context=outcome.updated_context)

    for position, index in enumerate(run.page_indices):
        current = by_index[index]
        last = position == len(run.page_indices) - 1
        lookahead = None if last else by_index[run.page_indices[position + 1]]
        # The last page ends its chunk whatever the oracle says, so only the
        # hard cap is checked there.
        cut = (_exceeds_cap(buffer.pages, current, budget) if last
               else predict_boundary(buffer, current, lookahead, budget, client))
        if cut and buffer.pages and _exceeds_cap(buffer.pages, current, budget):
            finish(current)
            cut = False
        buffer.pages.append(current)
        if cut or last:
            finish(lookahead)
    return drafts


def run_chunking(pages: Sequence[PageRecord], config, client: OracleClient) -> ChunkingResult:
    """Run the whole chunking stage over a page-ordered document.

    Runs of core pages are chunked independently, fanned out over the
    client; chunks come out ordered by first page. Each `Chunk` is made
    once, with its document-wide id, as its run commits, so an invalid
    chunk raises under that id.
    """
    header = list(pages[: config.header_pages])
    profile = extract_profile(header, client)
    labels = classify_pages(pages, profile, client, parallelism=config.parallelism)
    core_indices = [p.index for p, label in zip(pages, labels) if label is PageLabel.CORE]
    by_index = {p.index: p for p in pages}
    chunks: list[Chunk] = []

    def number(run: Run, drafts: list[Callable[..., Chunk]]) -> None:
        for draft in drafts:
            chunks.append(draft(chunk_id=len(chunks) + 1))

    client.fan_out(
        lambda child, run: chunk_run(run, by_index, profile, config.chunk_budget, child),
        contiguous_runs(core_indices), config.parallelism, on_commit=number,
    )
    return ChunkingResult(profile=profile, chunks=chunks)
