"""Chunk generation: profile extraction, page classification, run partitioning,
boundary-predicted buffering, and chunk finalization with interface refinement.

The profile is its own stage (`cli.stage_profile`), run before chunking,
which takes the profile as an argument. Pages are classified
independently; the buffering loop is strictly sequential within a run
because the running context threads from one chunk to the next. The
context resets to the profile scope at each run start, so runs are
independent. Both pages and runs fan out over the oracle client.
"""
from __future__ import annotations

import logging
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


def _page_payload(page: PageRecord) -> dict[str, Any]:
    payload: dict[str, Any] = {"index": page.index, "text": page.text}
    if page.image_ref is not None:
        payload["image_ref"] = page.image_ref
        payload["image_sha256"] = page.image_digest
    return payload


def profile_payload(pages: Sequence[PageRecord]) -> dict[str, Any]:
    return {"pages": [_page_payload(p) for p in pages]}


def classify_payload(page: PageRecord, profile: GuidelineProfile) -> dict[str, Any]:
    return {"page": _page_payload(page), "metadata": profile.metadata}


def boundary_payload(pages: Sequence[PageRecord], context: str, current: PageRecord,
                     lookahead: PageRecord | None, budget: int) -> dict[str, Any]:
    return {
        "buffer": [_page_payload(p) for p in pages],
        "current": _page_payload(current),
        "lookahead": _page_payload(lookahead) if lookahead is not None else None,
        "context": context,
        "budget": budget,
    }


def build_payload(pages: Sequence[PageRecord], context: str,
                  lookahead: PageRecord | None) -> dict[str, Any]:
    return {
        "pages": [_page_payload(p) for p in pages],
        "lookahead": _page_payload(lookahead) if lookahead is not None else None,
        "context": context,
    }


def refine_payload(pages: Sequence[PageRecord], description: str, entry: Sequence[str],
                   terminal: Sequence[str]) -> dict[str, Any]:
    return {
        "pages": [_page_payload(p) for p in pages],
        "description": description,
        "entry_labels": list(entry),
        "terminal_labels": list(terminal),
    }


def extract_profile(pages: Sequence[PageRecord], client: OracleClient) -> GuidelineProfile:
    """Derive the document profile from the header pages. No header pages is
    a ProfileError; the reply schema requires a non-blank scope context, and
    no valid reply is the OracleProtocolError that `dispatch` raises."""
    if not pages:
        raise ProfileError("no header pages available for profile extraction")
    body = client.call(OracleTask.EXTRACT_PROFILE, profile_payload(pages))
    return GuidelineProfile(metadata=dict(body["metadata"]),
                            scope_context=body["scope_context"].strip())


def classify_pages(pages: Sequence[PageRecord], profile: GuidelineProfile,
                   client: OracleClient) -> list[PageLabel]:
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

    return client.fan_out(classify, pages)


def contiguous_runs(core_indices: Sequence[int]) -> list[tuple[int, ...]]:
    """Partition sorted, duplicate-free indices into maximal consecutive runs."""
    runs: list[tuple[int, ...]] = []
    current: list[int] = []
    for index in core_indices:
        if current and index != current[-1] + 1:
            runs.append(tuple(current))
            current = []
        current.append(index)
    if current:
        runs.append(tuple(current))
    return runs


def _text(pages: Sequence[PageRecord]) -> str:
    return "\n".join(p.text for p in pages)


def _exceeds_cap(pages: Sequence[PageRecord], page: PageRecord, budget: int) -> bool:
    """Whether the pages plus one more page would make a chunk text longer
    than the hard cap of twice the budget."""
    return len(_text([*pages, page])) > 2 * budget


def predict_boundary(pages: Sequence[PageRecord], context: str, current: PageRecord,
                     lookahead: PageRecord | None, budget: int,
                     client: OracleClient) -> bool:
    """Ask the oracle whether the current page should end the chunk.

    Only the oracle is asked: `chunk_run` enforces the hard cap before it
    calls here, so the budget in the payload is advisory. An oracle that
    never produces a valid reply cuts, bounding chunk growth.
    """
    try:
        body = client.call(OracleTask.PREDICT_BOUNDARY,
                           boundary_payload(pages, context, current, lookahead, budget))
    except OracleProtocolError:
        logger.warning("page %d: boundary prediction failed; cutting chunk", current.index)
        return True
    return bool(body["cut"])


def build_chunk(pages: Sequence[PageRecord], context: str, lookahead: PageRecord | None,
                client: OracleClient) -> dict[str, Any]:
    """Summarize the buffered pages into description, interface, and carry set.

    Returns the validated reply as it is; `chunk_run` carries only buffer
    pages. The reply schema requires an entry and a terminal label with
    text after normalization, so a blank or empty interface is retried like
    any invalid reply.
    """
    if not pages:
        raise ChunkInterfaceError("cannot build a chunk from an empty buffer")
    return client.call(OracleTask.BUILD_CHUNK, build_payload(pages, context, lookahead))


def refine_nodes(pages: Sequence[PageRecord], description: str, entry: Sequence[str],
                 terminal: Sequence[str], client: OracleClient,
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Normalize, dedup, and support-check the chunk interface labels.

    The oracle returns the labels it confirms; anything it invents that has
    no verbatim support in the buffer is dropped. The refined interface
    must stay non-empty and disjoint.
    """
    body = client.call(OracleTask.REFINE_NODES,
                       refine_payload(pages, description, entry, terminal))
    try:
        buffer_text = normalize_label(_text(pages))
    except EmptyLabelError:  # blank or punctuation-only text supports no label
        buffer_text = ""

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
            # A label survives if it appears verbatim in the buffer or the oracle
            # confirmed it by returning a label from the original interface.
            if label not in buffer_text and label not in normalized_originals:
                logger.warning("dropping unsupported interface label %r", label)
                continue
            out.append(label)
        return tuple(out)

    refined_entry = clean(body["entry_labels"], entry)
    refined_terminal = clean(body["terminal_labels"], terminal)
    indices = [p.index for p in pages]
    if not refined_entry or not refined_terminal:
        raise ChunkInterfaceError(f"pages {indices}: refinement emptied the chunk interface")
    overlap = set(refined_entry) & set(refined_terminal)
    if overlap:
        raise ChunkInterfaceError(f"pages {indices}: entry/terminal overlap {sorted(overlap)}")
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


def chunk_run(run: tuple[int, ...], by_index: dict[int, PageRecord], profile: GuidelineProfile,
              budget: int, client: OracleClient) -> list[Callable[..., Chunk]]:
    """Chunk one run of core pages into drafts: each makes its `Chunk` when
    called with the chunk's document-wide `chunk_id`.

    The buffer is a page list plus the running context, which starts as the
    profile scope and threads across chunks; carried pages seed the next
    buffer. This loop alone enforces the hard cap of twice the budget, once
    per page. A page that would push the buffer past the cap gets no
    boundary call: the chunk is built from the buffer, with the page as its
    lookahead, and the page begins the next chunk; a page over the cap on
    its own is a chunk of its own. Any other page asks `predict_boundary`,
    except the last of the run, which ends its chunk. A carry page outside
    the buffer is logged and dropped here, the one place that drops it. A
    carried page that would push the next buffer past the cap with the page
    that follows is dropped too, so `carried_pages` lists the pages actually
    carried, each once, in page order. `refine_nodes` returns a normalized,
    valid interface, so a draft makes a valid `Chunk`.
    """
    drafts: list[Callable[..., Chunk]] = []
    pages: list[PageRecord] = []
    context = profile.scope_context

    def finish(lookahead: PageRecord | None) -> None:
        """Draft a chunk from the buffer and start the next buffer from its carry."""
        nonlocal pages, context
        body = build_chunk(pages, context, lookahead, client)
        entry, terminal = refine_nodes(pages, body["description"], body["entry_labels"],
                                       body["terminal_labels"], client)
        indices = [p.index for p in pages]
        for index in body["carry_pages"]:
            if index not in indices:
                logger.warning("carry page %d outside buffer %s; dropped", index, indices)
        carried: list[PageRecord] = []
        for page in pages:
            if page.index not in body["carry_pages"]:
                continue
            if lookahead is not None and _exceeds_cap([*carried, page], lookahead, budget):
                logger.warning("carry page %d would push the next chunk past the cap; "
                               "dropped", page.index)
            else:
                carried.append(page)
        drafts.append(partial(
            Chunk,
            context=assemble_context(profile, body["description"], pages,
                                     body["updated_context"]),
            entry_labels=entry,
            terminal_labels=terminal,
            description=body["description"],
            carried_pages=tuple(p.index for p in carried),
            page_span=tuple(p.index for p in pages),
        ))
        pages, context = carried, body["updated_context"]

    for position, index in enumerate(run):
        current = by_index[index]
        last = position == len(run) - 1
        lookahead = None if last else by_index[run[position + 1]]
        if _exceeds_cap(pages, current, budget):
            logger.warning("page %d: hard budget override, cutting chunk", current.index)
            cut = not pages  # a page over the cap on its own is a chunk of its own
            if pages:
                finish(current)
        else:
            cut = not last and predict_boundary(pages, context, current, lookahead,
                                                budget, client)
        pages.append(current)
        if cut or last:
            finish(lookahead)
    return drafts


def run_chunking(pages: Sequence[PageRecord], profile: GuidelineProfile, config,
                 client: OracleClient) -> list[Chunk]:
    """Chunk a page-ordered document under its profile.

    Runs of core pages are chunked independently, fanned out over the
    client; chunks come out ordered by first page, numbered from 1 in that
    order once every run has committed.
    """
    labels = classify_pages(pages, profile, client)
    core_indices = [p.index for p, label in zip(pages, labels) if label is PageLabel.CORE]
    by_index = {p.index: p for p in pages}
    runs = client.fan_out(
        lambda child, run: chunk_run(run, by_index, profile, config.chunk_budget, child),
        contiguous_runs(core_indices))
    drafts = [draft for run_drafts in runs for draft in run_drafts]
    return [draft(chunk_id=chunk_id) for chunk_id, draft in enumerate(drafts, 1)]
