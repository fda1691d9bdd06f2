"""Embedding store and top-k cosine candidate retrieval for duplicate detection.

Retrieval is exact, like a flat inner-product index: the store keeps every
vector as one row of a growing matrix with its norm beside it, and a query
scores the whole pool with one matrix-vector product. Callers look up exact
label matches in the graph's label index first and rank only on a miss.
The scripted embedding backend is a seeded character-n-gram feature
hasher: deterministic, whitespace-insensitive after label normalization,
and good enough to put near-identical labels first. Its vectors are
integer-valued, so every dot product and norm is exact in float64.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

import numpy as np
import requests

from .core import normalize_label
from .errors import EmbeddingError, OracleTransportError

DEFAULT_DIM = 256
DEFAULT_SEED = 13
INITIAL_ROWS = 64


class EmbeddingBackend(Protocol):
    name: str

    def embed_text(self, text: str) -> np.ndarray: ...


class HashingEmbeddingBackend:
    """Deterministic feature-hashing embedder over character trigrams."""

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED, ngram: int = 3) -> None:
        if dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        self.name = f"hashing-v1:dim={dim}:seed={seed}:n={ngram}"
        self._dim = dim
        self._seed = seed
        self._ngram = ngram

    def embed_text(self, text: str) -> np.ndarray:
        padded = f" {text} "
        vector = np.zeros(self._dim, dtype=np.float64)
        for i in range(max(1, len(padded) - self._ngram + 1)):
            gram = padded[i : i + self._ngram]
            digest = hashlib.blake2b(
                f"{self._seed}:{gram}".encode("utf-8"), digest_size=8
            ).digest()
            value = int.from_bytes(digest, "big")
            sign = 1.0 if value & 1 else -1.0
            vector[(value >> 1) % self._dim] += sign
        return vector


class LiveEmbeddingBackend:
    """Embeddings endpoint sharing the OpenAI-compatible API surface."""

    def __init__(self, base_url: str, model: str, auth_token: str | None = None,
                 timeout: float = 60.0, session: requests.Session | None = None) -> None:
        self.name = f"live:{model}"
        self._url = base_url.rstrip("/") + "/embeddings"
        self._model = model
        self._token = auth_token
        self._timeout = timeout
        self._session = session or requests.Session()

    def embed_text(self, text: str) -> np.ndarray:
        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        try:
            resp = self._session.post(
                self._url,
                json={"model": self._model, "input": [text]},
                headers=headers,
                timeout=self._timeout,
            )
            resp.raise_for_status()
            data = resp.json()
            return np.asarray(data["data"][0]["embedding"], dtype=np.float64)
        except requests.RequestException as exc:
            raise OracleTransportError(f"embedding request failed: {exc}") from exc


class EmbeddingStore:
    """Cache of label embeddings keyed by normalized label text.

    Each vector is stored once, as a row of one float64 matrix, with its
    norm in an array beside it. A label resolves to its row by one dict hit;
    only a label the store has not seen is normalized. Dimensionality is
    fixed by the first vector; zero vectors are rejected at ingest. Reads
    and inserts are internally synchronized. Growing the matrix replaces
    the array and rows are written once, so a snapshot taken under the lock
    stays valid.
    """

    def __init__(self, backend: EmbeddingBackend) -> None:
        self.backend = backend
        self._rows: dict[str, int] = {}  # normalized key or label as given -> row
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._count = 0
        self._lock = threading.Lock()

    def _ingest(self, key: str, vector) -> int:
        vector = np.asarray(vector, dtype=np.float64)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            raise EmbeddingError(f"zero embedding vector for {key!r}")
        if self._matrix is None:
            self._matrix = np.empty((INITIAL_ROWS, vector.size))
            self._norms = np.empty(INITIAL_ROWS)
        elif vector.size != self._matrix.shape[1]:
            raise EmbeddingError(
                f"dimension mismatch for {key!r}: {vector.size} != {self._matrix.shape[1]}"
            )
        elif self._count == len(self._matrix):
            self._matrix = np.concatenate([self._matrix, np.empty_like(self._matrix)])
            self._norms = np.concatenate([self._norms, np.empty_like(self._norms)])
        row = self._count
        self._matrix[row] = vector
        self._norms[row] = norm
        self._rows[key] = row
        self._count += 1
        return row

    def _row(self, label: str) -> int:
        """Row of a label, embedding it on first sight. Call with the lock held."""
        row = self._rows.get(label)
        if row is None:
            key = normalize_label(label)
            row = self._rows.get(key)
            if row is None:
                row = self._ingest(key, self.backend.embed_text(key))
            self._rows[label] = row
        return row

    def rows(self, labels: Iterable[str]) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Row of each label, plus the matrix and norms those rows index."""
        labels = list(labels)
        with self._lock:
            rows = list(map(self._rows.get, labels))
            if None in rows:
                rows = [self._row(label) if row is None else row
                        for label, row in zip(labels, rows)]
            count = self._count
            return rows, self._matrix[:count], self._norms[:count]

    def vector(self, label: str) -> np.ndarray:
        """The label's embedding, as a read-only view of its row."""
        with self._lock:
            row = self._row(label)  # may grow the matrix, so index it afterwards
            view = self._matrix[row]
        view.flags.writeable = False
        return view

    def put(self, label: str, vector) -> None:
        """Install a vector directly (used by tests with hand-placed vectors).

        A label's vector is fixed once stored, so a label already present is
        rejected.
        """
        key = normalize_label(label)
        with self._lock:
            if key in self._rows:
                raise EmbeddingError(f"{key!r} already has a vector")
            self._ingest(key, vector)

    def cosine(self, label_a: str, label_b: str) -> float:
        (a, b), matrix, norms = self.rows((label_a, label_b))
        return float(np.dot(matrix[a], matrix[b]) / (norms[a] * norms[b]))


@dataclass(frozen=True)
class CandidateSet:
    """Top-k pool members by cosine similarity, ties broken by ascending id."""

    entries: tuple[tuple[str, float], ...]
    k: int


def cosine_candidates(query: str, pool: Mapping[str, str], k: int,
                      store: EmbeddingStore) -> CandidateSet:
    """Rank pool members (node_id -> label) by cosine similarity to the query.

    The query may be a node id present in the pool (which is then excluded
    from its own candidates) or a raw label. An empty pool yields an empty
    candidate set. Similarities are dot products over the product of norms,
    the same arithmetic as one `np.dot` per member; every member at or above
    the k-th similarity is sorted, so a tie group cut by k goes to its
    lowest ids.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if query in pool:
        query_label = pool[query]
        members = [(nid, label) for nid, label in pool.items() if nid != query]
    else:
        query_label = query
        members = list(pool.items())
    if not members:
        return CandidateSet(entries=(), k=k)
    rows, matrix, norms = store.rows([query_label] + [label for _, label in members])
    q_row, rows = rows[0], np.asarray(rows[1:])
    sims = (matrix @ matrix[q_row])[rows] / (norms[q_row] * norms[rows])
    cut = len(members) - k
    if cut > 0:
        keep = np.flatnonzero(sims >= np.partition(sims, cut)[cut]).tolist()
    else:
        keep = range(len(members))
    values = sims.tolist()
    scored = [(members[i][0], values[i]) for i in keep]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return CandidateSet(entries=tuple(scored[:k]), k=k)
