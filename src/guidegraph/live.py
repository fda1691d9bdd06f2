"""Backends of a live session: an OpenAI-compatible chat-completions oracle
and embeddings endpoint.

This is the only module that imports `requests`. `cli.make_session`
imports it for a live session only, so a scripted run, a stage command,
`eval` and `export` never load the HTTP stack. Both backends post through
one `_Endpoint`, which sends the headers and the timeout and maps every
failure to an `OracleTransportError`: no reply, an error status, a body that
is not JSON (a proxy login page, say), or a JSON envelope without what the
backend reads from it. Only message content that fails the task schema is a
protocol error, which `oracle.dispatch` retries.

The embedding store hands the embeddings backend a batch of labels at a
time, one BFS level of a chunk in the build loop, and the backend posts it
as one `input` list (split at `MAX_INPUTS`), reading each vector back by its
`index`. A reply with the wrong number of vectors, or a repeated or missing
index, is a transport error too, so a failing embedder fails at the batch,
before the build loop reaches the batch's later labels.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence, TypeVar

import numpy as np
import requests

from .core import canonical_json, typed
from .errors import OracleTransportError
from .oracle import OracleRequest, OracleTask

Reply = TypeVar("Reply")

MAX_INPUTS = 2048  # the most texts OpenAI's embeddings endpoint takes in one request

_SYSTEM_PROMPTS: dict[OracleTask, str] = {
    OracleTask.EXTRACT_PROFILE: (
        "You extract a guideline profile from document header pages. Reply with a JSON "
        "object {\"metadata\": {string: string}, \"scope_context\": string} where "
        "scope_context summarizes the covered population and clinical focus."
    ),
    OracleTask.CLASSIFY_PAGE: (
        "You classify one guideline page. Core pages carry actionable decision content "
        "(algorithms, criteria, recommendations, flowcharts); auxiliary pages carry "
        "references, author lists, or administrative text. Reply with a JSON object "
        "{\"label\": \"core\"|\"auxiliary\"}."
    ),
    OracleTask.PREDICT_BOUNDARY: (
        "You decide whether the current page should end the chunk being buffered, "
        "respecting the soft length budget and never splitting multi-page tables or "
        "figures (use the lookahead page). Reply with {\"cut\": true|false}."
    ),
    OracleTask.BUILD_CHUNK: (
        "You summarize a buffered run of guideline pages into a chunk. Reply with "
        "{\"description\": string, \"entry_labels\": [string], \"terminal_labels\": "
        "[string], \"carry_pages\": [int], \"updated_context\": string}."
    ),
    OracleTask.REFINE_NODES: (
        "You refine chunk interface labels: keep only labels supported by the page "
        "text, verbatim or as a faithful paraphrase. Reply with {\"entry_labels\": "
        "[string], \"terminal_labels\": [string]}."
    ),
    OracleTask.FIND_DUPLICATE: (
        "You judge whether the candidate clinical state is semantically equivalent "
        "to any listed existing node, given its ancestor context. Reply with "
        "{\"matches\": [int]} listing the indices of equivalent candidates (empty "
        "list if none)."
    ),
    OracleTask.GENERATE_CHILDREN: (
        "You generate the clinically valid successor states of a node from the chunk "
        "context. Reply with {\"children\": [{\"label\": string, \"edge_label\": "
        "string}]} where edge_label is the transition condition (empty list if the "
        "node has no successors)."
    ),
}


class _Endpoint:
    """One POST route of an OpenAI-compatible API, over a keep-alive session."""

    def __init__(self, base_url: str, route: str, auth_token: str | None,
                 timeout: float, session: requests.Session | None) -> None:
        self.url = base_url.rstrip("/") + route
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        self._timeout = timeout
        self._session = session or requests.Session()

    def post(self, body: dict[str, Any], read: Callable[[Any], Reply]) -> Reply:
        """Post `body` and return `read` of the parsed reply.

        Raises:
            OracleTransportError: no reply, an error status, a body that is
                not JSON, or a JSON envelope without what `read` reads: the
                endpoint gave no usable reply.
        """
        try:
            reply = self._session.post(self.url, json=body, headers=self._headers,
                                       timeout=self._timeout)
            reply.raise_for_status()
            return read(reply.json())
        except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
            raise OracleTransportError(f"POST {self.url} gave no usable reply: {exc!r}") from exc


def _message_content(reply: Any) -> str:
    return typed(reply["choices"][0]["message"]["content"], str, "message.content")


def _embeddings(count: int, reply: Any) -> list[np.ndarray]:
    """The `count` vectors of a reply, each put in place by its `index`."""
    data = typed(reply["data"], list, "data", dict)
    if len(data) != count:
        raise ValueError(f"{len(data)} embeddings for {count} inputs")
    vectors: list[np.ndarray | None] = [None] * count
    for item in data:
        index = typed(item["index"], int, "index")
        if not 0 <= index < count or vectors[index] is not None:
            raise ValueError(f"embedding index {index} is repeated or not below {count}")
        vector = np.asarray(typed(item["embedding"], list, "embedding"), dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(f"embedding has shape {vector.shape}, not one axis")
        vectors[index] = vector
    return vectors


class LiveBackend:
    """OpenAI-compatible chat-completions backend with JSON-object forcing."""

    def __init__(self, base_url: str, model: str, auth_token: str | None = None,
                 timeout: float = 60.0, session: requests.Session | None = None) -> None:
        self._model = model
        self._endpoint = _Endpoint(base_url, "/chat/completions", auth_token, timeout, session)

    def complete(self, request: OracleRequest) -> str:
        return self._endpoint.post({
            "model": self._model,
            "temperature": 0,
            "response_format": {"type": "json_object"},
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPTS[request.task]},
                {"role": "user", "content": canonical_json(request.payload, compact=True)},
            ],
        }, _message_content)


class LiveEmbeddingBackend:
    """Embeddings endpoint sharing the OpenAI-compatible API surface: one
    POST per batch, its texts as the `input` list."""

    def __init__(self, base_url: str, model: str, auth_token: str | None = None,
                 timeout: float = 60.0, session: requests.Session | None = None) -> None:
        self._model = model
        self._endpoint = _Endpoint(base_url, "/embeddings", auth_token, timeout, session)

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), MAX_INPUTS):
            batch = list(texts[start : start + MAX_INPUTS])
            vectors += self._endpoint.post({"model": self._model, "input": batch},
                                           partial(_embeddings, len(batch)))
        return vectors
