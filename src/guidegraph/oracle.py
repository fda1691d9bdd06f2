"""Uniform interface to every prompted model judgment in the pipeline.

Seven task types cover the call sites of the three pipeline stages. Each
task has a response schema; free text from a backend is never interpreted
positionally. Backends are pluggable: the deterministic scripted backend is
a `FixtureSet`, which replays fixture files keyed by a content digest of
the canonicalized payload, and `live.LiveBackend` posts to an
OpenAI-compatible chat endpoint. A request is a plain object that digests
its payload once, from a `PayloadPrefix`'s hash state when its payload
opens with a field that many requests share (a chunk's context, in
`generate_children`); every dispatch leaves one record, a dict built once, in
an audit log, which numbers it in place as it writes it, so the file is in
request-id order. A record holds no clock reading, so the log is
deterministic under either backend. Every overlap of calls goes through
`Held`, which runs a call on its client's call window and keeps its
records until it is taken, so calls taken in program order leave a serial log.
"""
from __future__ import annotations

import hashlib
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Protocol, Sequence, TypeVar

import orjson

from .core import canonical_bytes, canonical_json, load_doc, normalize_label, typed
from .errors import (
    EmptyLabelError,
    FixtureMissingError,
    OracleProtocolError,
    OracleTransportError,
    UsageError,
)

FIXTURES_FORMAT = "oracle-fixtures/1"


class OracleTask(str, Enum):
    EXTRACT_PROFILE = "extract_profile"
    CLASSIFY_PAGE = "classify_page"
    PREDICT_BOUNDARY = "predict_boundary"
    BUILD_CHUNK = "build_chunk"
    REFINE_NODES = "refine_nodes"
    FIND_DUPLICATE = "find_duplicate"
    GENERATE_CHILDREN = "generate_children"


# Each task's name as digests and audit records write it, read once here
# rather than through the `Enum.value` property on every request.
_TASK_NAMES: dict[OracleTask, str] = {task: task.value for task in OracleTask}


class OracleRequest:
    """A task and its payload, with the payload digest computed once, as the
    request is made, for the fixture lookup and the audit record alike;
    `prefix`, if given, is passed on to `payload_digest`."""

    __slots__ = ("task", "payload", "digest")

    def __init__(self, task: OracleTask, payload: dict[str, Any],
                 prefix: PayloadPrefix | None = None) -> None:
        self.task, self.payload = task, payload
        self.digest = payload_digest(task, payload, prefix)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleProtocolError(message)


def _check_profile(body: dict[str, Any]) -> None:
    typed(body.get("metadata"), dict, "metadata", str)
    _require(bool(typed(body.get("scope_context"), str, "scope_context").strip()),
             "scope_context must be a non-blank string")


def _check_page_label(body: dict[str, Any]) -> None:
    _require(body.get("label") in ("core", "auxiliary"), "label must be 'core' or 'auxiliary'")


def _check_boundary(body: dict[str, Any]) -> None:
    typed(body.get("cut"), bool, "cut")


def _check_interface(body: dict[str, Any]) -> None:
    typed(body.get("entry_labels"), list, "entry_labels", str)
    typed(body.get("terminal_labels"), list, "terminal_labels", str)


def _has_text(labels: list[str]) -> bool:
    """Whether some label keeps text after `normalize_label`."""
    for label in labels:
        try:
            normalize_label(label)
        except EmptyLabelError:
            continue
        return True
    return False


def _check_chunk(body: dict[str, Any]) -> None:
    typed(body.get("description"), str, "description")
    _check_interface(body)
    typed(body.get("carry_pages"), list, "carry_pages", int)
    typed(body.get("updated_context"), str, "updated_context")
    _require(_has_text(body["entry_labels"]) and _has_text(body["terminal_labels"]),
             "entry_labels and terminal_labels must be non-empty: each needs a label "
             "with text after normalization")


def _check_matches(body: dict[str, Any]) -> None:
    typed(body.get("matches"), list, "matches", int)


def _check_children(body: dict[str, Any]) -> None:
    for child in typed(body.get("children"), list, "children", dict):
        typed([child.get("label"), child.get("edge_label")], list,
              "each child's [label, edge_label]", str)


# Each task's response schema, past the check that the reply is an object.
_RESPONSE_CHECKS: dict[OracleTask, Callable[[dict[str, Any]], None]] = {
    OracleTask.EXTRACT_PROFILE: _check_profile,
    OracleTask.CLASSIFY_PAGE: _check_page_label,
    OracleTask.PREDICT_BOUNDARY: _check_boundary,
    OracleTask.BUILD_CHUNK: _check_chunk,
    OracleTask.REFINE_NODES: _check_interface,
    OracleTask.FIND_DUPLICATE: _check_matches,
    OracleTask.GENERATE_CHILDREN: _check_children,
}


def validate_response(task: OracleTask, body: Any) -> None:
    """Check a parsed backend reply against the task's response schema;
    a reply of the wrong JSON types, as `core.typed` finds them, is an
    `OracleProtocolError` like any other invalid reply."""
    try:
        _RESPONSE_CHECKS[task](typed(body, dict, "response"))
    except TypeError as exc:
        raise OracleProtocolError(f"{_TASK_NAMES[task]}: {exc}") from exc


def payload_digest(task: OracleTask, payload: Mapping[str, Any],
                   prefix: PayloadPrefix | None = None) -> str:
    """sha256 of the compact `canonical_json` bytes of the task and payload,
    hashed as orjson writes them. A `prefix` that opens this task's blob
    for this payload saves hashing its field again; it never changes the
    digest."""
    if prefix is not None and prefix.task is task:
        digest = prefix.digest(payload)
        if digest is not None:
            return digest
    blob = orjson.dumps({"task": _TASK_NAMES[task], "payload": payload},
                        option=orjson.OPT_SORT_KEYS)
    return hashlib.sha256(blob).hexdigest()


class PayloadPrefix:
    """The opening bytes of the digest blobs of a task's payloads that share
    one string field, hashed once.

    A blob sorts its keys, so a payload whose other keys all sort after the
    shared field's name opens with `{"payload":{"<name>":<value>,`. Each
    such payload's digest copies the hash state of those bytes and hashes
    only its own tail; `generate_children` payloads share a chunk's context
    this way.
    """

    __slots__ = ("task", "name", "value", "_state", "_close")

    def __init__(self, task: OracleTask, name: str, value: str) -> None:
        self.task, self.name, self.value = task, name, value
        self._state = hashlib.sha256(b'{"payload":{' + orjson.dumps(name) + b":"
                                     + orjson.dumps(value) + b",")
        self._close = b',"task":' + orjson.dumps(_TASK_NAMES[task]) + b"}"

    def digest(self, payload: Mapping[str, Any]) -> str | None:
        """The payload's digest, or None unless its blob opens with this prefix."""
        name = self.name
        rest = {key: value for key, value in payload.items() if key != name}
        if (not rest or len(rest) == len(payload) or min(rest) < name
                or payload[name] != self.value):
            return None
        hasher = self._state.copy()
        hasher.update(orjson.dumps(rest, option=orjson.OPT_SORT_KEYS)[1:])  # past its "{"
        hasher.update(self._close)
        return hasher.hexdigest()


def _record(request: OracleRequest, outcome: str) -> dict[str, Any]:
    """A dispatch's audit record, built once; `AuditLog.commit` numbers it."""
    return {"request_id": None, "task": _TASK_NAMES[request.task],
            "payload_digest": request.digest, "outcome": outcome}


class AuditLog:
    """Append-only, internally synchronized log of oracle traffic.

    One record per dispatch call: `request_id`, `task`, `payload_digest`
    and `outcome`. The log alone numbers records: under its lock, as it
    writes a record, it gives it the next request id (`req-000001`, ...),
    so records are written in id order whatever the threads do. A record
    holds no timestamp, so the same calls leave the same bytes under either
    backend. When a path is configured, records are also written as
    line-delimited JSON through one handle that stays open until `close`.
    `prior_records` counts the records already in that file, so a stage
    that appends to the log of an earlier one numbers its records after
    them.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._handle: BinaryIO | None = None
        self._close_handle: weakref.finalize | None = None
        self.entries: list[dict[str, Any]] = []
        self.prior_records = 0
        if self._path is not None and self._path.exists():
            with self._path.open("rb") as handle:
                self.prior_records = sum(1 for line in handle if line.strip())

    def append(self, request: OracleRequest, outcome: str) -> None:
        """Write the record of one dispatch."""
        self.commit((_record(request, outcome),))

    def commit(self, records: Sequence[dict[str, Any]]) -> None:
        """Number records in place, then keep them and write them in one write."""
        with self._lock:
            first = self.prior_records + len(self.entries) + 1
            for number, record in enumerate(records, first):
                record["request_id"] = f"req-{number:06d}"
            self.entries.extend(records)
            if self._path is None or not records:
                return
            if self._handle is None:
                self._handle = self._path.open("ab")
                # Closes the handle if the owner never calls `close`.
                self._close_handle = weakref.finalize(self, self._handle.close)
            self._handle.write(b"".join([canonical_bytes(record, compact=True) + b"\n"
                                         for record in records]))
            self._handle.flush()

    def close(self) -> None:
        """Close the file handle; a later record opens it again."""
        with self._lock:
            if self._close_handle is not None:
                self._close_handle()
            self._handle = self._close_handle = None


class Backend(Protocol):
    def complete(self, request: OracleRequest) -> str:
        """Return the raw backend reply for a request."""


class FixtureSet:
    """The scripted backend: fixture replies keyed by content digest of
    (task, payload).

    Each entry is kept as the object a fixture file holds, so `load` stores
    what it reads and `save` writes what it stores. Identical payloads
    yield identical replies. A missing fixture raises `FixtureMissingError`,
    a transport error, at once: no retry of a deterministic lookup and no
    caller's fallback can stand in for the reply.
    """

    def __init__(self) -> None:
        self._entries: dict[OracleTask, dict[str, dict[str, Any]]] = {t: {} for t in OracleTask}

    def add(self, task: OracleTask, payload: Mapping[str, Any], response_body: Any,
            summary: str = "") -> None:
        digest = payload_digest(task, payload)
        self._entries[task][digest] = {"key_digest": digest, "payload_summary": summary,
                                       "response_body": response_body}

    def complete(self, request: OracleRequest) -> str:
        entry = self._entries[request.task].get(request.digest)
        if entry is None:
            raise FixtureMissingError(
                f"no fixture for {request.task.value} digest {request.digest[:12]}…")
        body = entry["response_body"]
        if isinstance(body, str):
            return body
        return canonical_json(body, compact=True)

    def count(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for task, entries in self._entries.items():
            if not entries:
                continue
            doc = {
                "format": FIXTURES_FORMAT,
                "task": task.value,
                "entries": [entry for _, entry in sorted(entries.items())],
            }
            (directory / f"{task.value}.json").write_bytes(canonical_bytes(doc))

    @staticmethod
    def _files(directory: str | Path) -> list[Path]:
        if not Path(directory).is_dir():
            raise UsageError(f"fixture directory {directory} is missing or not a directory")
        return sorted(Path(directory).glob("*.json"))

    @classmethod
    def content_digest(cls, directory: str | Path) -> str:
        """sha256 over the names and bytes of the files `load` reads, in
        sorted order: it names a fixture set by content, not by location."""
        digest = hashlib.sha256()
        for path in cls._files(directory):
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise UsageError(f"cannot read fixture file {path}: {exc.strerror or exc}") from exc
            digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
        return digest.hexdigest()

    @classmethod
    def load(cls, directory: str | Path) -> "FixtureSet":
        """Read every `*.json` fixture file of a directory, each by
        `core.load_doc`: its `entries` are objects, each with a string
        `key_digest` and a `response_body`. A missing directory, or a file
        that is unreadable, malformed or not a fixture file, is a usage
        error that names it."""
        fixtures = cls()

        def add_file(doc: dict[str, Any]) -> None:
            if doc.get("format") != FIXTURES_FORMAT:
                raise ValueError(f"unsupported fixture format {doc.get('format')!r}")
            task = OracleTask(doc["task"])
            for entry in typed(doc["entries"], list, "entries", dict):
                if "response_body" not in entry:
                    raise KeyError("response_body")
                fixtures._entries[task][typed(entry["key_digest"], str, "key_digest")] = entry

        for path in cls._files(directory):
            load_doc(path, add_file)
        return fixtures


def dispatch(request: OracleRequest, backend: Backend, *, audit: AuditLog | Held,
             retry_limit: int = 3) -> dict[str, Any]:
    """Send a request and return the validated reply body, retrying
    malformed output.

    This is the pipeline's only retry: up to `retry_limit` attempts in all.
    Replies are parsed with orjson, the codec that writes payload digests,
    so whatever is accepted can be digested later: a string holding a lone
    surrogate is invalid JSON here and is retried. Each retry re-sends the
    payload with the accumulated validation errors attached, so a live
    model can correct itself. Exactly one audit record is written per
    dispatch call, whatever the outcome.

    Raises:
        OracleTransportError: the backend could not be reached or gave no
            usable reply, or the scripted backend has no fixture for the
            request.
        OracleProtocolError: no schema-valid reply within the retry limit.
    """
    errors: list[str] = []
    try:
        for _ in range(max(1, retry_limit)):
            attempt = request
            if errors:
                payload = dict(request.payload)
                payload["validation_errors"] = list(errors)
                attempt = OracleRequest(request.task, payload)
            raw = backend.complete(attempt)
            try:
                body = orjson.loads(raw)
            except orjson.JSONDecodeError as exc:
                errors.append(f"reply is not valid JSON: {exc}")
                continue
            try:
                validate_response(request.task, body)
            except OracleProtocolError as exc:
                errors.append(str(exc))
                continue
            audit.append(request, "ok")
            return body
        raise OracleProtocolError(
            f"{request.task.value}: no schema-valid reply after {retry_limit} attempts: {errors}"
        )
    except OracleTransportError:
        audit.append(request, "transport_error")
        raise
    except OracleProtocolError:
        audit.append(request, "protocol_error")
        raise


Item = TypeVar("Item")
Result = TypeVar("Result")


class Held:
    """One call, `fn(child, *args)`, on a child client whose audit log is
    this object. It starts at once on its parent's window executor, or,
    with none, runs when taken. `take` waits for it, commits its records
    to the parent's log in one write and returns its result or raises what
    it raised, so calls taken in program order leave a serial run's log."""

    def __init__(self, parent: OracleClient, fn: Callable[..., Any], *args: Any) -> None:
        self.parent = parent
        self.records: list[dict[str, Any]] = []
        child = OracleClient(parent.backend, audit=self, retry_limit=parent.retry_limit)
        run = partial(fn, child, *args)
        # What `take` calls: the future's `result`, or the call itself.
        self._result = parent.executor.submit(run).result if parent.executor else run

    def append(self, request: OracleRequest, outcome: str) -> None:
        self.records.append(_record(request, outcome))

    def commit(self, records: Sequence[dict[str, Any]]) -> None:
        self.records.extend(records)  # those of a `Held` nested in this one, when taken

    def take(self) -> Any:
        """The call's result, once its records are committed; take once."""
        # Dropping `_result` breaks the cycle Held -> child client -> Held.
        result, self._result = self._result, None
        try:
            return result()
        finally:
            self.parent.audit.commit(self.records)


class OracleClient:
    """Bundles a backend with audit logging and retries.

    The audit log numbers the records it writes, after those already in its
    file, so runs against the scripted backend are fully reproducible,
    whether run whole or stage by stage, at any parallelism. Safe for
    concurrent use.
    """

    def __init__(self, backend: Backend, *, audit: AuditLog | Held,
                 retry_limit: int = 3) -> None:
        self.backend = backend
        self.audit = audit
        self.retry_limit = retry_limit
        self.parallelism = 1
        self.executor: ThreadPoolExecutor | None = None

    @contextmanager
    def window(self, parallelism: int) -> Iterator[None]:
        """The session's one call window: `parallelism` threads, none at 1, run
        every `Held` of this client; on exit they stop and the audit file closes."""
        self.parallelism = parallelism
        self.executor = ThreadPoolExecutor(parallelism) if parallelism > 1 else None
        try:
            yield
        finally:
            if self.executor is not None:
                self.executor.shutdown(cancel_futures=True)
            self.parallelism, self.executor = 1, None
            self.audit.close()

    def call(self, task: OracleTask, payload: dict[str, Any],
             prefix: PayloadPrefix | None = None) -> dict[str, Any]:
        return dispatch(OracleRequest(task, payload, prefix), self.backend,
                        retry_limit=self.retry_limit, audit=self.audit)

    def fan_out(self, fn: Callable[["OracleClient", Item], Result], items: Sequence[Item],
                on_commit: Callable[[Item, Result], None] | None = None) -> list[Result]:
        """Run `fn(client, item)` for every item, on the client's window,
        and leave what a loop over the items would leave.

        Each item is one `Held` call, and items are taken strictly in item
        order: the audit log numbers the item's records and writes them in
        one write, then `on_commit(item, result)` runs. Results come back
        in item order.

        If an item (or its `on_commit`) raises, items after it that have not
        started are skipped, every item that ran is still committed in
        order, and the exception of the earliest failing item is raised,
        as a serial run would raise it.
        """
        items = list(items)
        first_failure = len(items)
        failure_lock = threading.Lock()

        def fail(index: int) -> None:
            nonlocal first_failure
            with failure_lock:
                first_failure = min(first_failure, index)

        def run(child: OracleClient, index: int, item: Item) -> Result | None:
            if index > first_failure:
                return None
            try:
                return fn(child, item)
            except Exception:  # raised again, in item order, by its `take`
                fail(index)
                raise

        results: list[Result] = []
        error: Exception | None = None
        calls = [Held(self, run, index, item) for index, item in enumerate(items)]
        for index, (item, call) in enumerate(zip(items, calls)):
            try:
                result = call.take()
                if error is None:  # else it ran past the failure, or was skipped
                    if on_commit is not None:
                        on_commit(item, result)
                    results.append(result)
            except Exception as exc:
                if error is None:
                    error = exc
                    fail(index)
        if error is not None:
            raise error
        return results
