from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import sys
import threading
import time
import weakref
from contextlib import nullcontext

import orjson
import pytest
import requests

from conftest import make_client
from oracles import reference_canonical_json
from synth import FlakyBackend, JitterBackend, StaticBackend, SyntheticRuleBackend, canonical_docs

from guidegraph import live, oracle
from guidegraph.builder import children_payload
from guidegraph.chunker import build_payload, classify_pages
from guidegraph.core import GuidelineProfile, PageRecord, canonical_json
from guidegraph.errors import (
    EmbeddingError,
    FixtureMissingError,
    OracleProtocolError,
    OracleTransportError,
)
from guidegraph.oracle import (
    AuditLog,
    FixtureSet,
    Held,
    OracleRequest,
    OracleClient,
    OracleTask,
    dispatch,
    payload_digest,
    validate_response,
)
from guidegraph.live import LiveBackend, LiveEmbeddingBackend
from guidegraph.retrieval import EmbeddingStore


def classify_page_payload(index: int, text: str) -> dict:
    return {"page": {"index": index, "text": text}, "metadata": {"title": "t"}}


def make_fixtures() -> FixtureSet:
    fixtures = FixtureSet()
    fixtures.add(OracleTask.CLASSIFY_PAGE,
                 classify_page_payload(9, "references list with citations 1-42"),
                 {"label": "auxiliary"}, summary="references page")
    fixtures.add(OracleTask.CLASSIFY_PAGE,
                 classify_page_payload(4, "treatment flowchart: staging to therapy choice"),
                 {"label": "core"}, summary="flowchart page")
    fixtures.add(OracleTask.FIND_DUPLICATE,
                 {"candidate": "active surveillance", "ancestors": [],
                  "candidates": ["active surveillance", "radiation therapy"]},
                 {"matches": [0]})
    fixtures.add(OracleTask.GENERATE_CHILDREN,
                 {"node": "low-risk group", "incoming": None, "context": "chunk text"},
                 {"children": [
                     {"label": "active surveillance", "edge_label": "patient preference"},
                     {"label": "radical prostatectomy", "edge_label": "patient preference"},
                 ]})
    return fixtures


def test_scripted_references_page_is_auxiliary():
    client = make_client(make_fixtures())
    body = client.call(OracleTask.CLASSIFY_PAGE,
                       classify_page_payload(9, "references list with citations 1-42"))
    assert body["label"] == "auxiliary"


def test_scripted_flowchart_page_is_core():
    client = make_client(make_fixtures())
    body = client.call(OracleTask.CLASSIFY_PAGE,
                       classify_page_payload(4, "treatment flowchart: staging to therapy choice"))
    assert body["label"] == "core"


def test_scripted_missing_fixture_raises_transport_error():
    client = make_client(make_fixtures())
    with pytest.raises(OracleTransportError):
        client.call(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "unseen page"))


def test_scripted_lookup_is_deterministic():
    fixtures = make_fixtures()
    request = OracleRequest(OracleTask.CLASSIFY_PAGE,
                            classify_page_payload(4, "treatment flowchart: staging to therapy choice"))
    first = dispatch(request, fixtures, audit=AuditLog())
    second = dispatch(request, fixtures, audit=AuditLog())
    assert first == second == {"label": "core"}


def test_scripted_lookup_missing_fixture():
    with pytest.raises(FixtureMissingError):
        dispatch(
            OracleRequest(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x")),
            make_fixtures(), audit=AuditLog(),
        )


def test_find_duplicate_fixture_match_index():
    client = make_client(make_fixtures())
    body = client.call(OracleTask.FIND_DUPLICATE,
                       {"candidate": "active surveillance", "ancestors": [],
                        "candidates": ["active surveillance", "radiation therapy"]})
    assert body["matches"] == [0]


def test_generate_children_fixture():
    client = make_client(make_fixtures())
    body = client.call(OracleTask.GENERATE_CHILDREN,
                       {"node": "low-risk group", "incoming": None, "context": "chunk text"})
    assert [(c["label"], c["edge_label"]) for c in body["children"]] == [
        ("active surveillance", "patient preference"),
        ("radical prostatectomy", "patient preference"),
    ]


def test_digest_depends_on_content_not_key_order():
    a = {"page": {"index": 1, "text": "x"}, "metadata": {"title": "t"}}
    b = {"metadata": {"title": "t"}, "page": {"text": "x", "index": 1}}
    assert payload_digest(OracleTask.CLASSIFY_PAGE, a) == payload_digest(OracleTask.CLASSIFY_PAGE, b)
    c = {"page": {"index": 2, "text": "x"}, "metadata": {"title": "t"}}
    assert payload_digest(OracleTask.CLASSIFY_PAGE, a) != payload_digest(OracleTask.CLASSIFY_PAGE, c)


def _random_text(rng: random.Random, longest: int = 12) -> str:
    """Quotes, backslashes, control characters, non-ASCII and astral ones."""
    return "".join(rng.choice('ab "\\/\n\t\x00\x1f\x7fé中\u2028😀')
                   for _ in range(rng.randint(0, longest)))


def reference_digest(task: OracleTask, payload: dict) -> str:
    """sha256 of the standard library's compact canonical encoding."""
    return hashlib.sha256(reference_canonical_json(
        {"task": task.value, "payload": payload}, compact=True).encode("utf-8")).hexdigest()


def test_a_context_prefix_digests_children_payloads_as_the_full_encoding():
    rng = random.Random(34)
    task = OracleTask.GENERATE_CHILDREN
    for case in range(2000):
        if case % 40 == 0:  # a new chunk
            context = _random_text(rng, 400)
        incoming = None if rng.random() < 0.3 else (f"c{rng.randint(0, 99):02d}n{case:03d}",
                                                    _random_text(rng))
        payload = children_payload(_random_text(rng), incoming, context)
        if case % 100 == 50:  # a retry's payload
            payload["validation_errors"] = [_random_text(rng) for _ in range(3)]
        assert payload_digest(task, payload) == reference_digest(task, payload)


def test_build_chunk_payloads_digest_as_the_full_encoding():
    rng = random.Random(36)
    task = OracleTask.BUILD_CHUNK
    pages = [PageRecord(index, _random_text(rng, 200),
                        *((f"p{index}.png", "ab" * 32) if index % 2 else ()))
             for index in range(1, 10)]
    for case in range(200):
        start = rng.randint(0, 6)
        lookahead = pages[start + 2] if case % 3 else None
        payload = build_payload(pages[start:start + 2], _random_text(rng, 300), lookahead)
        assert payload_digest(task, payload) == reference_digest(task, payload)


@pytest.mark.parametrize("payload", [
    {"node": "x", "incoming": None, "context": "another chunk"},
    {"node": "x", "incoming": None, "context": None},
    {"context": "chunk text"},
    {"node": "x", "incoming": None},
    {"node": "x", "incoming": None, "context": "chunk text", "aardvark": 1},
], ids=["other-context", "non-string-context", "context-alone", "no-context", "earlier-key"])
def test_a_prefix_that_does_not_open_the_blob_is_not_used(payload):
    opened = {"node": "x", "incoming": None, "context": "chunk text"}
    payload_digest(OracleTask.GENERATE_CHILDREN, opened)  # caches the opening of "chunk text"
    for task in (OracleTask.GENERATE_CHILDREN, OracleTask.FIND_DUPLICATE):
        assert payload_digest(task, payload) == reference_digest(task, payload)
        assert payload_digest(task, opened) == reference_digest(task, opened)


def test_more_contexts_than_the_cache_holds_digest_as_the_full_encoding():
    task = OracleTask.GENERATE_CHILDREN
    held = oracle._context_opening.cache_info().maxsize
    contexts = [f"chunk {number} text" for number in range(held + 5)]
    for round_ in range(3):
        for number, context in enumerate(contexts):  # round-robin, so every lookup misses
            payload = children_payload(f"node {round_}", ("c01n001", f"edge {number}"), context)
            assert payload_digest(task, payload) == reference_digest(task, payload)
    assert oracle._context_opening.cache_info().currsize <= held


def test_threads_digest_shared_and_distinct_contexts_as_the_full_encoding():
    task = OracleTask.GENERATE_CHILDREN
    payloads = [[children_payload(f"node {worker} {case}", None,
                                  "shared context" if case % 2 else f"context {worker} {case % 5}")
                 for case in range(200)] for worker in range(8)]
    expected = [[reference_digest(task, payload) for payload in own] for own in payloads]
    digests: list[list[str]] = [[] for _ in payloads]

    def digest(worker: int) -> None:
        digests[worker] = [payload_digest(task, payload) for payload in payloads[worker]]

    threads = [threading.Thread(target=digest, args=(worker,)) for worker in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between copying and updating a hash state
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == expected


def test_audit_entries_equal_dispatch_calls():
    client = make_client(make_fixtures())
    client.call(OracleTask.CLASSIFY_PAGE,
                classify_page_payload(9, "references list with citations 1-42"))
    client.call(OracleTask.FIND_DUPLICATE,
                {"candidate": "active surveillance", "ancestors": [],
                 "candidates": ["active surveillance", "radiation therapy"]})
    with pytest.raises(OracleTransportError):
        client.call(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "miss"))
    assert len(client.audit.entries) == 3
    assert [e["outcome"] for e in client.audit.entries] == ["ok", "ok", "transport_error"]
    assert [e["request_id"] for e in client.audit.entries] == [
        "req-000001", "req-000002", "req-000003",
    ]


MALFORMED_REPLIES = [
    '{"label": "core"',                       # truncated
    '{"category": "core"}',                   # wrong field name
    '{"label": 7}',                           # wrong type
    '{"label": "somewhere in between"}',      # out of vocabulary
    'plain text, no json at all',
    '["core"]',                               # not an object
    '{"label": "core", "note": "\\ud800"}',  # lone surrogate: could not be digested
    '',
]


@pytest.mark.parametrize("raw", MALFORMED_REPLIES)
def test_malformed_replies_always_raise_protocol_error(raw):
    backend = StaticBackend(raw)
    request = OracleRequest(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
    with pytest.raises(OracleProtocolError):
        dispatch(request, backend, audit=AuditLog(), retry_limit=2)
    assert backend.calls == 2


def test_malformed_children_payloads_rejected():
    for body in ({"children": [{"label": "x"}]},
                 {"children": [{"label": 1, "edge_label": "e"}]},
                 {"children": "none"},
                 {}):
        with pytest.raises(OracleProtocolError):
            validate_response(OracleTask.GENERATE_CHILDREN, body)


@pytest.mark.parametrize("task, body", [
    (OracleTask.BUILD_CHUNK, {"description": "", "entry_labels": [], "terminal_labels": [],
                              "carry_pages": [True], "updated_context": ""}),
    (OracleTask.FIND_DUPLICATE, {"matches": [False]}),
    (OracleTask.FIND_DUPLICATE, {"matches": "0"}),  # a string is not a list of its characters
])
def test_boolean_page_or_match_index_rejected(task, body):
    with pytest.raises(OracleProtocolError, match="must be list of int$"):
        validate_response(task, body)


def test_chunk_interface_without_a_label_with_text_rejected():
    body = {"description": "d", "entry_labels": ["a"], "terminal_labels": ["z"],
            "carry_pages": [], "updated_context": "c"}
    validate_response(OracleTask.BUILD_CHUNK, {**body, "entry_labels": ["...", "a"]})
    for blank in ({"entry_labels": ["...", " ;"]}, {"terminal_labels": [" ;"]},
                  {"entry_labels": []}):
        with pytest.raises(OracleProtocolError, match="label with text after normalization"):
            validate_response(OracleTask.BUILD_CHUNK, {**body, **blank})


def test_retry_appends_validation_errors_then_succeeds():
    inner = SyntheticRuleBackend()
    backend = FlakyBackend(inner, bad_attempts=1)
    request = OracleRequest(OracleTask.CLASSIFY_PAGE,
                            {"page": {"index": 2, "text": "t"}, "metadata": {}})
    assert dispatch(request, backend, audit=AuditLog(), retry_limit=3) == {"label": "core"}
    assert "validation_errors" not in backend.seen_payloads[0]
    assert backend.seen_payloads[1]["validation_errors"]


def test_retry_exhaustion_raises():
    inner = SyntheticRuleBackend()
    backend = FlakyBackend(inner, bad_attempts=5)
    request = OracleRequest(OracleTask.CLASSIFY_PAGE,
                            {"page": {"index": 2, "text": "t"}, "metadata": {}})
    with pytest.raises(OracleProtocolError):
        dispatch(request, backend, audit=AuditLog(), retry_limit=3)


class _RaisingBackend:
    def complete(self, request):
        raise OracleTransportError("connection refused")


def test_transport_error_propagates_and_audited():
    audit = AuditLog()
    request = OracleRequest(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
    with pytest.raises(OracleTransportError):
        dispatch(request, _RaisingBackend(), audit=audit)
    assert [e["outcome"] for e in audit.entries] == ["transport_error"]


def test_fixture_set_save_and_load_round_trip(tmp_path):
    fixtures = make_fixtures()
    fixtures.save(tmp_path / "saved")
    loaded = FixtureSet.load(tmp_path / "saved")
    loaded.save(tmp_path / "resaved")
    assert FixtureSet.content_digest(tmp_path / "resaved") == FixtureSet.content_digest(
        tmp_path / "saved")
    request = OracleRequest(OracleTask.FIND_DUPLICATE,
                            {"candidate": "active surveillance", "ancestors": [],
                             "candidates": ["active surveillance", "radiation therapy"]})
    assert dispatch(request, loaded, audit=AuditLog()) == {"matches": [0]}


def _http_reply(status: int, body: bytes) -> requests.Response:
    reply = requests.Response()
    reply.status_code, reply._content = status, body
    return reply


class _FakeSession:
    """Records each post and answers it with a 200 reply carrying `payload`
    as JSON, or with `reply`: a response, or an exception to raise."""

    def __init__(self, payload=None, reply: requests.Response | Exception | None = None):
        self.reply = reply if reply is not None else _http_reply(200, json.dumps(payload).encode())
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply


def test_live_backend_returns_message_content():
    session = _FakeSession(payload={
        "choices": [{"message": {"content": '{"label": "core"}'}}],
    })
    backend = LiveBackend("http://backend.test/v1", "demo-model",
                          auth_token="secret", session=session)
    request = OracleRequest(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
    assert backend.complete(request) == '{"label": "core"}'
    sent = session.requests[0]
    assert sent["url"] == "http://backend.test/v1/chat/completions"
    assert sent["json"]["response_format"] == {"type": "json_object"}
    assert sent["headers"]["Authorization"] == "Bearer secret"


def test_live_embedding_backend_returns_the_vector():
    session = _FakeSession(payload={"data": [{"index": 0, "embedding": [3, 4]}]})
    backend = LiveEmbeddingBackend("http://backend.test/v1", "embed-model", session=session)
    assert [vector.tolist() for vector in backend.embed_texts(["mri"])] == [[3.0, 4.0]]
    sent = session.requests[0]
    assert sent["url"] == "http://backend.test/v1/embeddings"
    assert sent["json"] == {"model": "embed-model", "input": ["mri"]}


@pytest.mark.parametrize("payload", [
    {"object": "list"},  # no data
    {"data": []},
    {"data": [{"index": 0, "embedding": ["a", "b"]}]},
    {"data": [{"index": 0, "embedding": [{"x": 1}]}]},
    {"data": [{"index": 0, "embedding": 5}]},
    {"data": "embedding"},
])
def test_live_embedding_backend_maps_a_malformed_envelope_to_a_transport_error(payload):
    backend = LiveEmbeddingBackend("http://backend.test/v1", "embed-model",
                                   session=_FakeSession(payload=payload))
    with pytest.raises(OracleTransportError):
        backend.embed_texts(["mri"])


def test_live_embedding_backend_posts_a_batch_and_reads_it_by_index():
    session = _FakeSession(payload={"data": [{"index": 1, "embedding": [0, 2]},
                                             {"index": 0, "embedding": [3, 4]}]})
    backend = LiveEmbeddingBackend("http://backend.test/v1", "embed-model", session=session)
    assert [vector.tolist() for vector in backend.embed_texts(["mri", "psa"])] == [[3.0, 4.0],
                                                                                 [0.0, 2.0]]
    assert [sent["json"] for sent in session.requests] == [{"model": "embed-model",
                                                            "input": ["mri", "psa"]}]


@pytest.mark.parametrize("data", [
    [{"index": 0, "embedding": [1, 0]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 1, "embedding": [0, 1]},
     {"index": 2, "embedding": [1, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 0, "embedding": [0, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"embedding": [0, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 2, "embedding": [0, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": -1, "embedding": [0, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 1.0, "embedding": [0, 1]}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 1, "embedding": "0 1"}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 1, "embedding": {"0": 1}}],
    [{"index": 0, "embedding": [1, 0]}, {"index": 1, "embedding": [[0, 1]]}],
], ids=["too-few", "too-many", "repeated-index", "no-index", "index-too-high",
        "negative-index", "float-index", "string-embedding", "object-embedding",
        "nested-embedding"])
def test_a_batch_reply_that_does_not_fit_the_inputs_is_a_transport_error(data):
    session = _FakeSession(payload={"data": data})
    store = EmbeddingStore(LiveEmbeddingBackend("http://backend.test/v1", "embed-model",
                                                session=session))
    with pytest.raises(OracleTransportError, match="gave no usable reply"):
        store.lookup(["mri", "psa"])
    assert "mri" not in store and "psa" not in store
    assert len(session.requests) == 1


def test_a_batch_beyond_the_request_limit_is_split(monkeypatch):
    monkeypatch.setattr(live, "MAX_INPUTS", 2)

    class Embeddings(_FakeSession):  # answers each input with [its length, 1]
        def post(self, url, json=None, headers=None, timeout=None):
            self.reply = _http_reply(200, orjson.dumps({"data": [
                {"index": index, "embedding": [len(text), 1]}
                for index, text in reversed(list(enumerate(json["input"])))]}))
            return super().post(url, json, headers, timeout)

    session = Embeddings(payload={})
    backend = LiveEmbeddingBackend("http://backend.test/v1", "embed-model", session=session)
    texts = ["a", "bb", "ccc", "dddd", "eeeee"]
    assert [vector.tolist() for vector in backend.embed_texts(texts)] == [
        [float(len(text)), 1.0] for text in texts]
    assert [sent["json"]["input"] for sent in session.requests] == [["a", "bb"],
                                                                   ["ccc", "dddd"], ["eeeee"]]


def _chat(session) -> None:
    request = OracleRequest(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
    LiveBackend("http://backend.test/v1", "demo-model", session=session).complete(request)


def _embed(session) -> None:
    backend = LiveEmbeddingBackend("http://backend.test/v1", "embed-model", session=session)
    backend.embed_texts(["x"])


@pytest.mark.parametrize("call", [_chat, _embed], ids=["chat", "embeddings"])
@pytest.mark.parametrize("reply, error", [
    # The endpoint gave no usable reply: nothing a retried request could fix.
    (_http_reply(200, b"<html>proxy login</html>"), OracleTransportError),
    (_http_reply(200, b'{"object": "error"}'), OracleTransportError),
    (requests.ConnectionError("down"), OracleTransportError),
    (_http_reply(500, b'{"error": "overloaded"}'), OracleTransportError),
], ids=["non_json_body", "malformed_envelope", "connection_error", "http_500"])
def test_live_backends_map_failures(call, reply, error):
    with pytest.raises(error):
        call(_FakeSession(reply=reply))


@pytest.mark.parametrize("content", [None, 3, ["x"]], ids=["null", "number", "list"])
def test_live_message_content_that_is_not_a_string_is_a_transport_error(content):
    # The endpoint gave no reply text: not invalid JSON that a retry could fix.
    session = _FakeSession(payload={"choices": [{"message": {"content": content}}]})
    client = make_client(LiveBackend("http://backend.test/v1", "demo-model", session=session))
    with pytest.raises(OracleTransportError, match="message.content must be str"):
        client.call(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
    assert [e["outcome"] for e in client.audit.entries] == ["transport_error"]
    assert len(session.requests) == 1


def test_live_proxy_page_fails_classification_instead_of_degrading_it():
    # A fallback that catches protocol errors would turn every page auxiliary.
    session = _FakeSession(reply=_http_reply(200, b"<html>proxy login</html>"))
    client = make_client(LiveBackend("http://backend.test/v1", "demo-model", session=session))
    profile = GuidelineProfile(metadata={"title": "t"}, scope_context="scope")
    pages = [PageRecord(1, "flowchart"), PageRecord(2, "references")]
    with pytest.raises(OracleTransportError):
        classify_pages(pages, profile, client)
    assert [e["outcome"] for e in client.audit.entries] == ["transport_error"]
    assert len(session.requests) == 1


def test_store_rejects_a_non_finite_embedding_reply():
    # `resp.json()` parses a bare NaN, whose norm passes a zero-norm check.
    session = _FakeSession(payload={"data": [{"index": 0, "embedding": [1.0, float("nan")]}]})
    store = EmbeddingStore(LiveEmbeddingBackend("http://backend.test/v1", "embed-model",
                                                session=session))
    with pytest.raises(EmbeddingError, match="non-finite"):
        store.vector("mri")


def test_audit_log_writes_ndjson(tmp_path):
    path = tmp_path / "audit.log"
    audit = AuditLog(path)
    client = make_client(make_fixtures())
    client.audit = audit
    request = OracleRequest(OracleTask.CLASSIFY_PAGE,
                            classify_page_payload(9, "references list with citations 1-42"))
    dispatch(request, make_fixtures(), audit=audit)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {"request_id": "req-000001", "task": "classify_page",
                      "payload_digest": request.digest, "outcome": "ok"}


def test_audit_lines_are_the_compact_canonical_json(tmp_path):
    records = [{"doc": doc} for doc in canonical_docs(36, 300)]
    audit = AuditLog(tmp_path / "audit.log")
    audit.commit(records[:1])
    audit.commit(records[1:])  # one write of many lines
    audit.close()
    assert (tmp_path / "audit.log").read_bytes() == b"".join(
        canonical_json(record, compact=True).encode("utf-8") + b"\n" for record in records)
    assert [record["request_id"] for record in records[:2]] == ["req-000001", "req-000002"]


def test_live_audit_log_is_byte_identical_across_runs(tmp_path):
    # A record holds no clock reading, so the same live calls leave the same file.
    for name in ("first", "second"):
        session = _FakeSession(payload={"choices": [{"message": {"content": '{"label": "core"}'}}]})
        client = OracleClient(LiveBackend("http://backend.test/v1", "demo-model", session=session),
                              audit=AuditLog(tmp_path / f"{name}.log"))
        with client.window(2):  # closes the audit file on exit
            client.call(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x"))
            client.fan_out(classify_all, range(4))
    first = (tmp_path / "first.log").read_bytes()
    assert len(first.splitlines()) == 1 + len(serial_digests(range(4)))
    assert (tmp_path / "second.log").read_bytes() == first


# ---------------------------------------------------------------------------
# Held


def test_held_calls_that_finish_out_of_order_leave_the_log_in_take_order():
    client = OracleClient(StaticBackend('{"label": "core"}'), audit=AuditLog())
    second_done = threading.Event()

    def first(child: OracleClient) -> str:
        assert second_done.wait(5), "the second call never finished"
        classify_all(child, 2)
        return "first"

    def second(child: OracleClient) -> str:
        classify_all(child, 1)
        second_done.set()
        return "second"

    with client.window(2):
        calls = [Held(client, first), Held(client, second)]
        assert [call.take() for call in calls] == ["first", "second"]
    assert [e["payload_digest"] for e in client.audit.entries] == serial_digests([2, 1])
    assert [e["request_id"] for e in client.audit.entries] == [
        f"req-{i:06d}" for i in range(1, 6)]


@pytest.mark.parametrize("threaded", [False, True])
def test_a_held_call_that_raises_is_committed_and_raises_again_at_take(threaded):
    client = OracleClient(StaticBackend('{"label": "core"}'), audit=AuditLog())
    raised = ValueError("item 4")

    def work(child: OracleClient, index: int) -> int:
        classify_all(child, index)
        raise raised

    with client.window(2 if threaded else 1):
        call = Held(client, work, 4)
        with pytest.raises(ValueError) as info:
            call.take()
    assert info.value is raised
    assert [e["payload_digest"] for e in client.audit.entries] == serial_digests([4])


def test_a_held_call_without_an_executor_runs_when_taken():
    backend = StaticBackend('{"label": "core"}')
    client = OracleClient(backend, audit=AuditLog())
    call = Held(client, classify_all, 2)
    assert backend.calls == 0 and client.audit.entries == []
    assert call.take() == 2
    assert backend.calls == len(calls_of(2))
    assert [e["payload_digest"] for e in client.audit.entries] == serial_digests([2])


@pytest.mark.parametrize("threaded", [False, True])
def test_a_taken_held_call_is_freed_by_reference_counting(threaded):
    # The child client's audit log is the `Held`, so a `Held` that kept its
    # callable after `take` would be freed only by the cycle collector.
    client = OracleClient(StaticBackend('{"label": "core"}'), audit=AuditLog())
    gc.disable()
    try:
        with client.window(2 if threaded else 1):
            call = Held(client, classify_all, 1)
            assert call.take() == 1
        freed = weakref.ref(call)
        del call
        assert freed() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# fan_out


def calls_of(index: int) -> list[dict]:
    """The payloads item `index` sends: one to three, so items differ in size."""
    return [classify_page_payload(index, f"call {call}") for call in range(index % 3 + 1)]


def classify_all(child: OracleClient, index: int) -> int:
    for payload in calls_of(index):
        child.call(OracleTask.CLASSIFY_PAGE, payload)
    return index


def serial_digests(items) -> list[str]:
    return [payload_digest(OracleTask.CLASSIFY_PAGE, payload)
            for index in items for payload in calls_of(index)]


def core_backend(seed: int) -> JitterBackend:
    return JitterBackend(StaticBackend('{"label": "core"}'), seed)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_fan_out_commits_records_in_item_order(tmp_path, parallelism):
    audit = AuditLog(tmp_path / "audit.log")
    backend = core_backend(parallelism)
    client = OracleClient(backend, audit=audit)
    committed = []
    with client.window(parallelism):
        results = client.fan_out(classify_all, range(12),
                                 on_commit=lambda item, result: committed.append(
                                     (item, result, len(audit.entries))))

    assert results == list(range(12))
    assert backend.peak == 1 if parallelism == 1 else 2 <= backend.peak <= parallelism
    digests = serial_digests(range(12))
    assert [e["payload_digest"] for e in audit.entries] == digests
    assert [e["request_id"] for e in audit.entries] == [
        f"req-{i:06d}" for i in range(1, len(digests) + 1)]
    # Each item's records are written before its on_commit runs.
    ends = list(itertools.accumulate(len(calls_of(i)) for i in range(12)))
    assert committed == [(i, i, ends[i]) for i in range(12)]
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert [json.loads(line) for line in lines] == audit.entries


@pytest.mark.parametrize("parallelism", [1, 4])
def test_fan_out_raises_the_earliest_failure_after_committing_what_ran(parallelism):
    backend = core_backend(parallelism)
    client = OracleClient(backend, audit=AuditLog())
    committed = []

    def work(child: OracleClient, index: int) -> int:
        classify_all(child, index)
        if index == 3:
            time.sleep(0.05)  # item 5 fails first in time at parallelism > 1
            raise ValueError("item 3")
        if index == 5:
            raise KeyError("item 5")
        return index

    with pytest.raises(ValueError, match="item 3"), client.window(parallelism):
        client.fan_out(work, range(40), on_commit=lambda item, result: committed.append(item))

    assert committed == [0, 1, 2]
    assert backend.peak == 1 if parallelism == 1 else 2 <= backend.peak <= parallelism
    digests = [e["payload_digest"] for e in client.audit.entries]
    assert len(digests) == backend.calls
    ran = [index for index in range(40) if serial_digests([index])[0] in digests]
    assert digests == serial_digests(ran)
    assert ran[:4] == [0, 1, 2, 3]
    if parallelism == 1:
        assert ran == [0, 1, 2, 3]
    assert len(ran) < 40  # items not started when the failure was known are skipped
    ids = [e["request_id"] for e in client.audit.entries]
    assert ids == [f"req-{i:06d}" for i in range(1, len(ids) + 1)]


def test_fan_out_on_commit_failure_stops_like_an_item_failure():
    client = OracleClient(core_backend(0), audit=AuditLog())

    def reject(item: int, result: int) -> None:
        if item == 2:
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        client.fan_out(classify_all, range(6), on_commit=reject)
    assert [e["payload_digest"] for e in client.audit.entries] == serial_digests(range(3))


def test_fan_out_under_thread_pressure_keeps_the_serial_log():
    items = range(300)
    client = OracleClient(StaticBackend('{"label": "core"}'), audit=AuditLog())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    started = time.perf_counter()
    try:
        with client.window(16):
            results = client.fan_out(classify_all, items)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - started < 60
    assert results == list(items)
    entries = client.audit.entries
    assert [e["payload_digest"] for e in entries] == serial_digests(items)
    assert [e["request_id"] for e in entries] == [
        f"req-{i:06d}" for i in range(1, len(entries) + 1)]


def test_two_fan_outs_on_one_client_share_its_window():
    backend = core_backend(2)
    client = OracleClient(backend, audit=AuditLog())
    items = {"first": range(8), "second": range(100, 108)}
    results = {}

    def fan_out(name: str) -> None:
        results[name] = client.fan_out(classify_all, items[name])

    with client.window(2):
        threads = [threading.Thread(target=fan_out, args=(name,)) for name in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    assert results == {name: list(each) for name, each in items.items()}
    assert backend.peak == 2
    # The two logs interleave, but each fan_out commits its items in order.
    digests = [e["payload_digest"] for e in client.audit.entries]
    for each in items.values():
        own = set(serial_digests(each))
        assert [digest for digest in digests if digest in own] == serial_digests(each)


def test_a_fan_out_nested_in_an_item_runs_inline_on_its_thread():
    backend = core_backend(2)
    client = OracleClient(backend, audit=AuditLog())

    def nested(child: OracleClient, index: int) -> list[int]:
        assert child.executor is None and child.parallelism == 1  # the child opens no window
        return child.fan_out(classify_all, [index, index + 10])

    done = []
    with client.window(2):
        worker = threading.Thread(target=lambda: done.append(client.fan_out(nested, range(6))),
                                  daemon=True)
        worker.start()
        worker.join(30)
        assert done, "the nested fan_out deadlocked"
    assert done[0] == [[index, index + 10] for index in range(6)]
    assert backend.peak == 2
    assert [e["payload_digest"] for e in client.audit.entries] == serial_digests(
        [item for index in range(6) for item in (index, index + 10)])


@pytest.mark.parametrize("fails", [False, True])
def test_closing_the_window_stops_its_threads(tmp_path, fails):
    client = OracleClient(core_backend(4), audit=AuditLog(tmp_path / "audit.log"))
    before = set(threading.enumerate())
    with pytest.raises(ValueError) if fails else nullcontext(), client.window(4):
        calls = [Held(client, classify_all, index) for index in range(8)]
        assert set(threading.enumerate()) > before
        if fails:  # leaves calls running and queued
            raise ValueError("stage failed")
        assert [call.take() for call in calls] == list(range(8))
    assert set(threading.enumerate()) == before
    assert client.executor is None and client.parallelism == 1
    assert client.audit._handle is None


def test_audit_log_continues_after_close(tmp_path):
    path = tmp_path / "audit.log"
    audit = AuditLog(path)
    request = OracleRequest(OracleTask.CLASSIFY_PAGE,
                            classify_page_payload(9, "references list with citations 1-42"))
    backend = make_fixtures()
    dispatch(request, backend, audit=audit)
    audit.close()
    dispatch(request, backend, audit=audit)
    assert [json.loads(line) for line in path.read_text().splitlines()] == audit.entries
    assert len(audit.entries) == 2
    assert AuditLog(path).prior_records == 2


class _HoldFirstBackend:
    """Holds the first call in `complete` until `release` is set."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, request):
        if request.payload["page"]["index"] == 1:
            self.entered.set()
            assert self.release.wait(10)
        return '{"label": "core"}'


def test_overlapping_direct_calls_leave_the_log_in_id_order(tmp_path):
    path = tmp_path / "audit.log"
    backend = _HoldFirstBackend()
    client = OracleClient(backend, audit=AuditLog(path))
    first = threading.Thread(
        target=client.call, args=(OracleTask.CLASSIFY_PAGE, classify_page_payload(1, "x")))
    first.start()
    assert backend.entered.wait(10)
    client.call(OracleTask.CLASSIFY_PAGE, classify_page_payload(2, "y"))
    backend.release.set()
    first.join(10)

    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["request_id"] for r in records] == ["req-000001", "req-000002"]
    # The call that finished first is numbered first.
    assert [r["payload_digest"] for r in records] == [
        payload_digest(OracleTask.CLASSIFY_PAGE, classify_page_payload(index, text))
        for index, text in ((2, "y"), (1, "x"))]
