from __future__ import annotations

import random

import pytest

from conftest import make_client
from oracles import scan_runs
from synth import (
    PAGE_TEXTS,
    PROFILE_BODY,
    FlakyBackend,
    JitterBackend,
    NeverCutBackend,
    StaticBackend,
    SyntheticRuleBackend,
)

from guidegraph import chunker
from guidegraph.chunker import (
    build_chunk,
    chunk_run,
    classify_pages,
    contiguous_runs,
    extract_profile,
    predict_boundary,
    refine_nodes,
    run_chunking,
)
from guidegraph.cli import PipelineConfig
from guidegraph.core import GuidelineProfile, PageLabel, PageRecord
from guidegraph.errors import ChunkInterfaceError, OracleProtocolError, ProfileError
from guidegraph.oracle import OracleTask


def pages() -> list[PageRecord]:
    return [PageRecord(index=i, text=PAGE_TEXTS[i]) for i in sorted(PAGE_TEXTS)]


def rule_client():
    return make_client(SyntheticRuleBackend())


def config(**overrides) -> PipelineConfig:
    base = PipelineConfig()
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


PROFILE = GuidelineProfile(metadata=dict(PROFILE_BODY["metadata"]),
                           scope_context=PROFILE_BODY["scope_context"])


# ---------------------------------------------------------------------------
# extract_profile


def test_profile_from_two_page_header():
    profile = extract_profile(pages()[:2], rule_client())
    assert profile.metadata["title"] == "Synthetic Prostate Pathway"
    assert profile.scope_context == "adult prostate cancer staging and treatment"


def test_profile_from_single_page_document():
    profile = extract_profile(pages()[:1], rule_client())
    assert profile.scope_context


def test_profile_error_after_persistent_malformed_replies():
    # A reply that never validates is a protocol error, as for every task.
    client = make_client(StaticBackend('{"metadata": "broken"}'))
    with pytest.raises(OracleProtocolError):
        extract_profile(pages()[:2], client)


def test_profile_error_on_empty_scope():
    client = make_client(StaticBackend('{"metadata": {}, "scope_context": "  "}'))
    with pytest.raises(OracleProtocolError):
        extract_profile(pages()[:1], client)


def test_profile_error_without_header_pages():
    with pytest.raises(ProfileError, match="no header pages"):
        extract_profile([], rule_client())


# ---------------------------------------------------------------------------
# classify_pages


def test_classify_synthetic_document():
    labels = classify_pages(pages(), PROFILE, rule_client())
    assert labels == [
        PageLabel.AUXILIARY, PageLabel.CORE, PageLabel.CORE, PageLabel.CORE,
        PageLabel.AUXILIARY, PageLabel.CORE, PageLabel.CORE,
    ]


def test_classify_empty_document():
    assert classify_pages([], PROFILE, rule_client()) == []


def test_classify_all_references_document():
    class AllAuxBackend(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.CLASSIFY_PAGE:
                return {"label": "auxiliary"}
            return super().body_for(task, payload)

    docs = [PageRecord(index=i, text=f"reference list part {i}") for i in (1, 2, 3)]
    labels = classify_pages(docs, PROFILE, make_client(AllAuxBackend()))
    assert labels == [PageLabel.AUXILIARY] * 3


def test_classification_failure_defaults_to_auxiliary():
    class FailingPage2(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.CLASSIFY_PAGE and payload["page"]["index"] == 2:
                return {"oops": True}
            return super().body_for(task, payload)

    labels = classify_pages(pages(), PROFILE, make_client(FailingPage2()))
    assert labels[1] is PageLabel.AUXILIARY
    assert labels[2] is PageLabel.CORE


def test_parallel_classification_matches_sequential():
    sequential = classify_pages(pages(), PROFILE, rule_client())
    backend = JitterBackend(SyntheticRuleBackend(), seed=4)
    client = make_client(backend)
    with client.window(4):
        parallel = classify_pages(pages(), PROFILE, client)
    assert parallel == sequential
    assert 2 <= backend.peak <= 4


# ---------------------------------------------------------------------------
# contiguous_runs


def test_runs_definition_example():
    assert contiguous_runs([2, 3, 4, 6, 7]) == [(2, 3, 4), (6, 7)]


def test_runs_singleton():
    assert contiguous_runs([5]) == [(5,)]


def test_runs_empty():
    assert contiguous_runs([]) == []


def test_runs_match_scan_oracle_on_random_sets():
    rng = random.Random(31)
    for _ in range(100):
        indices = sorted(rng.sample(range(1, 40), rng.randint(0, 20)))
        got = [list(run) for run in contiguous_runs(indices)]
        assert got == scan_runs(indices)
        for run in contiguous_runs(indices):
            assert all(b == a + 1 for a, b in zip(run, run[1:]))


# ---------------------------------------------------------------------------
# predict_boundary


def test_mid_table_page_with_continuing_lookahead_is_not_cut():
    current = PageRecord(6, PAGE_TEXTS[6])
    lookahead = PageRecord(7, PAGE_TEXTS[7])
    assert predict_boundary([], PROFILE.scope_context, current, lookahead, 8000,
                            rule_client()) is False


def test_last_page_of_run_returns_oracle_answer():
    # Finalization still happens through the run-end branch in chunk_run.
    assert predict_boundary([PageRecord(6, PAGE_TEXTS[6])],
                            "initial management selected; surveillance follows",
                            PageRecord(7, PAGE_TEXTS[7]), None, 8000, rule_client()) is False


def test_boundary_oracle_failure_cuts():
    backend = StaticBackend("garbage")
    assert predict_boundary([], "ctx", PageRecord(1, "t"), None, 8000,
                            client=make_client(backend)) is True


# ---------------------------------------------------------------------------
# build_chunk / refine_nodes


def chunk1_buffer() -> list[PageRecord]:
    return [PageRecord(2, PAGE_TEXTS[2]), PageRecord(3, PAGE_TEXTS[3])]


def test_build_chunk_synthetic_first_segment():
    body = build_chunk(chunk1_buffer(), PROFILE.scope_context, PageRecord(4, PAGE_TEXTS[4]),
                       rule_client())
    assert body["description"] == "initial risk stratification"
    assert body["entry_labels"] == ["suspected prostate cancer"]
    assert body["terminal_labels"] == ["low-risk group", "high-risk group"]
    assert body["carry_pages"] == [3]


EMPTY_INTERFACE = ('{"description": "d", "entry_labels": [], "terminal_labels": ["z"],'
                   ' "carry_pages": [], "updated_context": "c"}')


def test_build_chunk_empty_interface_is_retried_then_protocol_error():
    backend = FlakyBackend(SyntheticRuleBackend(), bad_attempts=5, bad_raw=EMPTY_INTERFACE)
    client = make_client(backend)
    with pytest.raises(OracleProtocolError, match="must be non-empty"):
        build_chunk(chunk1_buffer(), PROFILE.scope_context, None, client)
    assert len(backend.seen_payloads) == client.retry_limit  # no other re-request
    assert "validation_errors" not in backend.seen_payloads[0]
    assert all(payload["validation_errors"] for payload in backend.seen_payloads[1:])
    assert [e["outcome"] for e in client.audit.entries] == ["protocol_error"]


def test_build_chunk_empty_interface_then_valid_reply_succeeds():
    backend = FlakyBackend(SyntheticRuleBackend(), bad_attempts=1, bad_raw=EMPTY_INTERFACE)
    body = build_chunk(chunk1_buffer(), PROFILE.scope_context, PageRecord(4, PAGE_TEXTS[4]),
                       make_client(backend))
    assert len(backend.seen_payloads) == 2
    assert body["entry_labels"] == ["suspected prostate cancer"]
    assert body["terminal_labels"] == ["low-risk group", "high-risk group"]


def test_chunk_whose_first_reply_has_only_blank_entries_builds_from_the_retry():
    class BlankFirstInterface(SyntheticRuleBackend):
        sent_blank = False

        def body_for(self, task, payload):
            body = super().body_for(task, payload)
            if task is OracleTask.BUILD_CHUNK and not self.sent_blank:
                self.sent_blank = True
                return {**body, "entry_labels": ["...", " ;"]}
            return body

    client = make_client(BlankFirstInterface())
    chunks = run_chunking(pages(), PROFILE, config(), client)
    assert chunks == run_chunking(pages(), PROFILE, config(), rule_client())
    assert chunks[0].entry_labels == ("suspected prostate cancer",)
    builds = [e for e in client.audit.entries if e["task"] == "build_chunk"]
    assert [e["outcome"] for e in builds] == ["ok"] * len(chunks)


def test_refine_dedups_after_normalization():
    backend = StaticBackend(
        '{"entry_labels": ["Low-Risk Group", "low-risk group"],'
        ' "terminal_labels": ["high-risk group"]}'
    )
    entry, terminal = refine_nodes(chunk1_buffer(), "d", ["low-risk group"],
                                   ["high-risk group"], make_client(backend))
    assert entry == ("low-risk group",)
    assert terminal == ("high-risk group",)


def test_refine_drops_label_the_oracle_did_not_confirm():
    # The oracle's reply omits the hallucinated terminal from the build step.
    backend = StaticBackend(
        '{"entry_labels": ["suspected prostate cancer"],'
        ' "terminal_labels": ["low-risk group"]}'
    )
    entry, terminal = refine_nodes(
        chunk1_buffer(), "d", ["suspected prostate cancer"],
        ["low-risk group", "martian dosimetry protocol"], make_client(backend),
    )
    assert terminal == ("low-risk group",)


def test_refine_drops_oracle_invented_unsupported_label():
    backend = StaticBackend(
        '{"entry_labels": ["suspected prostate cancer"],'
        ' "terminal_labels": ["low-risk group", "quantum flux therapy"]}'
    )
    entry, terminal = refine_nodes(chunk1_buffer(), "d", ["suspected prostate cancer"],
                                   ["low-risk group"], make_client(backend))
    assert terminal == ("low-risk group",)


def test_refine_keeps_verbatim_supported_new_wording():
    # "risk assessment" is not in the original interface but appears in the text.
    backend = StaticBackend(
        '{"entry_labels": ["risk assessment"], "terminal_labels": ["low-risk group"]}'
    )
    entry, _ = refine_nodes(chunk1_buffer(), "d", ["suspected prostate cancer"],
                            ["low-risk group"], make_client(backend))
    assert entry == ("risk assessment",)


def test_refine_already_clean_interface_unchanged():
    entry, terminal = refine_nodes(chunk1_buffer(), "initial risk stratification",
                                   ["suspected prostate cancer"],
                                   ["low-risk group", "high-risk group"], rule_client())
    assert entry == ("suspected prostate cancer",)
    assert terminal == ("low-risk group", "high-risk group")


def test_refine_emptied_interface_errors():
    backend = StaticBackend('{"entry_labels": [], "terminal_labels": ["low-risk group"]}')
    with pytest.raises(ChunkInterfaceError):
        refine_nodes(chunk1_buffer(), "d", ["suspected prostate cancer"],
                     ["low-risk group"], make_client(backend))


def test_refine_overlapping_interface_errors():
    backend = StaticBackend(
        '{"entry_labels": ["low-risk group"], "terminal_labels": ["low-risk group"]}'
    )
    with pytest.raises(ChunkInterfaceError):
        refine_nodes(chunk1_buffer(), "d", ["low-risk group"], ["low-risk group"],
                     make_client(backend))


def test_refine_keeps_confirmed_labels_of_a_punctuation_only_page():
    # "..." normalizes to nothing: it supports no label, and fails nothing.
    backend = StaticBackend('{"entry_labels": ["start"], "terminal_labels": ["end"]}')
    entry, terminal = refine_nodes([PageRecord(1, "...")], "d", ["start"], ["end"],
                                   make_client(backend))
    assert (entry, terminal) == (("start",), ("end",))


# ---------------------------------------------------------------------------
# run_chunking


def test_run_chunking_synthetic_document():
    chunks = run_chunking(pages(), PROFILE, config(), rule_client())
    spans = [list(c.page_span) for c in chunks]
    assert spans == [[2, 3], [3, 4], [6, 7]]
    assert list(chunks[0].carried_pages) == [3]
    assert chunks[0].entry_labels == ("suspected prostate cancer",)
    assert chunks[1].chunk_id == 2
    assert "[segment] initial risk stratification" in chunks[0].context
    assert "[page 2]" in chunks[0].context


def test_invalid_chunk_error_names_its_document_wide_id(monkeypatch):
    refine = chunker.refine_nodes

    def overlapping(pages, description, entry, terminal, client):
        refined_entry, refined_terminal = refine(pages, description, entry, terminal, client)
        if [p.index for p in pages] == [6, 7]:  # the first chunk of the second run
            return refined_entry, refined_entry
        return refined_entry, refined_terminal

    monkeypatch.setattr(chunker, "refine_nodes", overlapping)
    for parallelism in (1, 4):
        backend = JitterBackend(SyntheticRuleBackend(), seed=parallelism)
        client = make_client(backend)
        with pytest.raises(ValueError) as exc_info, client.window(parallelism):
            run_chunking(pages(), PROFILE, config(), client)
        assert str(exc_info.value) == "chunk 3: entry/terminal overlap ['active surveillance']"
        assert backend.peak == 1 if parallelism == 1 else 2 <= backend.peak <= parallelism
        assert len(client.audit.entries) == backend.calls
        ids = [entry["request_id"] for entry in client.audit.entries]
        assert ids == [f"req-{i:06d}" for i in range(1, len(ids) + 1)]


def test_run_chunking_all_auxiliary_document_yields_no_chunks():
    class AllAux(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.CLASSIFY_PAGE:
                return {"label": "auxiliary"}
            return super().body_for(task, payload)

    chunks = run_chunking(pages(), PROFILE, config(), make_client(AllAux()))
    assert chunks == []


def test_run_chunking_single_core_page():
    class OnlyPage2Core(SyntheticRuleBackend):
        def body_for(self, task, payload):
            if task is OracleTask.CLASSIFY_PAGE:
                return {"label": "core" if payload["page"]["index"] == 2 else "auxiliary"}
            if task is OracleTask.BUILD_CHUNK:
                return {
                    "description": "single segment",
                    "entry_labels": ["suspected prostate cancer"],
                    "terminal_labels": ["risk assessment"],
                    "carry_pages": [],
                    "updated_context": "done",
                }
            return super().body_for(task, payload)

    chunks = run_chunking(pages(), PROFILE, config(), make_client(OnlyPage2Core()))
    assert [list(c.page_span) for c in chunks] == [[2]]


class ProceduralBackend(SyntheticRuleBackend):
    """Classification and cut decisions driven by per-seed tables."""

    def __init__(self, classes: dict[int, str], cuts: dict[int, bool],
                 carry_last: dict[int, bool]):
        self._classes = classes
        self._cuts = cuts
        self._carry_last = carry_last

    def body_for(self, task, payload):
        if task is OracleTask.EXTRACT_PROFILE:
            return {"metadata": {"title": "random doc"}, "scope_context": "random scope"}
        if task is OracleTask.CLASSIFY_PAGE:
            return {"label": self._classes[payload["page"]["index"]]}
        if task is OracleTask.PREDICT_BOUNDARY:
            return {"cut": self._cuts[payload["current"]["index"]]}
        if task is OracleTask.BUILD_CHUNK:
            indices = [p["index"] for p in payload["pages"]]
            carry = [indices[-1]] if self._carry_last[indices[-1]] and len(indices) > 1 else []
            return {
                "description": f"segment at {indices[0]}",
                "entry_labels": [f"entry p{indices[0]}"],
                "terminal_labels": [f"terminal p{indices[0]}"],
                "carry_pages": carry,
                "updated_context": f"after {indices[-1]}",
            }
        if task is OracleTask.REFINE_NODES:
            return {"entry_labels": list(payload["entry_labels"]),
                    "terminal_labels": list(payload["terminal_labels"])}
        raise AssertionError(task)


def test_run_chunking_invariants_on_random_documents(caplog):
    rng = random.Random(999)
    single_oversized = 0
    for _ in range(100):
        count = rng.randint(1, 12)
        # Pages of 31 to 131 characters: under budgets 40 and 60 some pages
        # alone exceed the cap, under 8000 the cap never fires.
        budget = rng.choice([8000, 40, 60])
        docs = [PageRecord(index=i, text=f"entry p{i:02d} terminal p{i:02d} body"
                           + " text" * rng.randint(0, 20))
                for i in range(1, count + 1)]
        by_index = {p.index: p for p in docs}
        classes = {i: rng.choice(["core", "core", "core", "auxiliary"])
                   for i in range(1, count + 1)}
        cuts = {i: rng.random() < 0.4 for i in range(1, count + 1)}
        carry_last = {i: rng.random() < 0.5 for i in range(1, count + 1)}
        backend = ProceduralBackend(classes, cuts, carry_last)
        chunks = run_chunking(docs, PROFILE, config(chunk_budget=budget), make_client(backend))

        core_pages = {i for i, label in classes.items() if label == "core"}
        runs = [set(r) for r in scan_runs(sorted(core_pages))]
        covered = set()
        for chunk in chunks:
            span = set(chunk.page_span)
            covered |= span
            assert span <= core_pages, "auxiliary page leaked into a chunk span"
            assert any(span <= run for run in runs), "chunk crossed a run boundary"
            text = "\n".join(by_index[i].text for i in chunk.page_span)
            if len(chunk.page_span) > 1:
                assert len(text) <= 2 * budget, "a chunk of several pages passed the cap"
            single_oversized += len(text) > 2 * budget
        assert covered == core_pages, "a core page was left uncovered"

        by_run: dict[int, list] = {}
        for chunk in chunks:
            run_idx = next(i for i, run in enumerate(runs) if set(chunk.page_span) <= run)
            by_run.setdefault(run_idx, []).append(chunk)
        for siblings in by_run.values():
            for earlier, later in zip(siblings, siblings[1:]):
                overlap = set(earlier.page_span) & set(later.page_span)
                assert overlap == set(earlier.carried_pages)
    dropped = [r for r in caplog.records if "past the cap; dropped" in r.getMessage()]
    assert single_oversized > 20 and len(dropped) >= 3


def test_page_over_the_cap_becomes_its_own_chunk_and_drops_the_carry(caplog):
    # Cap 100: pages 1 and 2 fit together, page 3 alone does not.
    docs = [PageRecord(1, "entry p1 terminal p1 " + "a" * 19),
            PageRecord(2, "entry p2 terminal p2 " + "b" * 19),
            PageRecord(3, "entry p3 terminal p3 " + "c" * 129),
            PageRecord(4, "entry p4 terminal p4 " + "d" * 19)]
    backend = ProceduralBackend({i: "core" for i in range(1, 5)},
                                {i: False for i in range(1, 5)},
                                {i: True for i in range(1, 5)})
    chunks = run_chunking(docs, PROFILE, config(chunk_budget=50), make_client(backend))
    assert [c.page_span for c in chunks] == [(1, 2), (3,), (4,)]
    assert [c.carried_pages for c in chunks] == [(), (), ()]
    assert [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()] == [
        "carry page 2 would push the next chunk past the cap; dropped"]


def test_carry_page_outside_the_buffer_is_logged_once_and_dropped(caplog):
    class CarryEverything(SyntheticRuleBackend):
        def body_for(self, task, payload):
            body = super().body_for(task, payload)
            if task is OracleTask.BUILD_CHUNK:
                body["carry_pages"] = [2, 3, 99]
            return body

    drafts = chunk_run((2, 3), {p.index: p for p in pages()}, PROFILE, 8000,
                       make_client(CarryEverything()))
    assert [draft(chunk_id=1).carried_pages for draft in drafts] == [(2, 3)]
    assert [r.getMessage() for r in caplog.records if "outside buffer" in r.getMessage()] == [
        "carry page 99 outside buffer [2, 3]; dropped"]


def test_page_over_the_cap_gets_no_boundary_call():
    # Cap 200: page 1 fits alone, page 2 would push it past the cap, page 3 is last.
    docs = [PageRecord(1, "x" * 200), PageRecord(2, "y" * 10), PageRecord(3, "z")]
    client = make_client(NeverCutBackend())
    drafts = chunk_run((1, 2, 3), {p.index: p for p in docs}, PROFILE, 100, client)
    assert [draft(chunk_id=1).page_span for draft in drafts] == [(1,), (2, 3)]
    boundary = [e for e in client.audit.entries if e["task"] == "predict_boundary"]
    assert len(boundary) == 1


def test_carried_pages_are_listed_once_in_page_order():
    class CarryLastFirstLast(NeverCutBackend):
        def body_for(self, task, payload):
            body = super().body_for(task, payload)
            if task is OracleTask.BUILD_CHUNK:
                indices = [p["index"] for p in payload["pages"]]
                body["carry_pages"] = [indices[-1], indices[0], indices[-1]]
            return body

    docs = [PageRecord(i, f"entry p{i} terminal p{i}") for i in (1, 2, 3)]
    drafts = chunk_run((1, 2, 3), {p.index: p for p in docs}, PROFILE, 8000,
                       make_client(CarryLastFirstLast()))
    assert [draft(chunk_id=1).carried_pages for draft in drafts] == [(1, 3)]


def test_budget_override_bounds_chunk_growth():
    page_count = 12
    docs = [PageRecord(index=i, text=f"entry p{i} terminal p{i} " + "word " * 10)
            for i in range(1, page_count + 1)]
    budget = 90
    chunks = run_chunking(docs, PROFILE, config(chunk_budget=budget),
                          make_client(NeverCutBackend()))
    assert len(chunks) > 1, "override never fired"
    by_index = {p.index: p for p in docs}
    for chunk in chunks:
        assert len("\n".join(by_index[i].text for i in chunk.page_span)) <= 2 * budget
