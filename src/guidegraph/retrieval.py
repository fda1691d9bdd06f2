"""Embedding store and top-k cosine candidate retrieval for duplicate detection.

Retrieval is exact, like a flat inner-product index. The store keeps every
vector once, as one row of a growing matrix with its norm beside it. A
`RankingPool` is kept beside a graph by its owner, which adds and discards
members as nodes are created and merged away; it copies each member's
vector and norm from the store the first time a ranking needs them. A query
then scores the pool with one matrix-vector product, partitions at the k-th
similarity and sorts only what is kept: no per-member dict or list work.
Callers look up exact label matches in the graph's label index first and
rank only on a miss.
The scripted embedding backend is a seeded character-n-gram feature
hasher: deterministic, whitespace-insensitive after label normalization,
and good enough to put near-identical labels first. Its vectors are
integer-valued, so every dot product and norm is exact in float64.
"""
from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Iterable, Iterator, Mapping, Protocol

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
        # trigram -> (index, sign), each trigram hashed once. `EmbeddingStore.rows` embeds
        # outside its lock, so threads may race to fill it: benign, as a trigram's entry is fixed.
        self._grams: dict[str, tuple[int, float]] = {}

    def embed_text(self, text: str) -> np.ndarray:
        padded = f" {text} "
        grams = [padded[i : i + self._ngram] for i in range(max(1, len(padded) - self._ngram + 1))]
        index, sign = zip(*[self._grams.get(gram) or self._hash(gram) for gram in grams])
        return np.bincount(index, weights=sign, minlength=self._dim)

    def _hash(self, gram: str) -> tuple[int, float]:
        digest = hashlib.blake2b(f"{self._seed}:{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        entry = self._grams[gram] = ((value >> 1) % self._dim, 1.0 if value & 1 else -1.0)
        return entry


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

    def _ingest(self, key: str, vector) -> None:
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

    def rows(self, labels: Iterable[str]) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Row of each label, plus the matrix and norms those rows index.

        Labels the store has not seen are embedded outside the lock, so
        threads wait for each other's embedding round-trips only to store
        the results. When two threads embed the same key, the first to
        store it wins.
        """
        labels = list(labels)
        with self._lock:
            rows = list(map(self._rows.get, labels))
            if None not in rows:
                return rows, self._matrix[: self._count], self._norms[: self._count]
            keys = {label: normalize_label(label)
                    for label, row in zip(labels, rows) if row is None}
            new = [key for key in dict.fromkeys(keys.values()) if key not in self._rows]
        vectors = [self.backend.embed_text(key) for key in new]
        with self._lock:
            for key, vector in zip(new, vectors):
                if key not in self._rows:
                    self._ingest(key, vector)
            for label, key in keys.items():
                self._rows[label] = self._rows[key]
            rows = [self._rows[label] for label in labels]
            return rows, self._matrix[: self._count], self._norms[: self._count]

    def vector(self, label: str) -> np.ndarray:
        """The label's embedding, as a read-only view of its row."""
        (row,), matrix, _ = self.rows((label,))
        view = matrix[row]
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


class _Members:
    """The arrays a `RankingPool` and its views share, indexed by slot.

    Live members fill slots 0..n-1: a discarded member's slot is refilled
    by the last member, so the arrays hold no dead rows. A member's vector
    and norm are filled in by the first ranking that sees the member; until
    then its slot is pending and its norm is 1.0.
    """

    def __init__(self) -> None:
        self.slots: dict[str, int] = {}  # member id -> slot
        self.ids: list[str] = []
        self.labels: list[str] = []
        self.group_sizes: Counter[int] = Counter()  # group -> members
        self.groups = np.empty(INITIAL_ROWS, dtype=np.int64)
        self.norms = np.empty(INITIAL_ROWS)
        self.vectors: np.ndarray | None = None  # allocated by the first ranking
        self.pending: set[int] = set()  # slots whose vector is not filled in
        self.store: EmbeddingStore | None = None  # the store the vectors came from

    def add(self, node_id: str, label: str, group: int) -> None:
        if node_id in self.slots:
            raise ValueError(f"{node_id!r} is already in the pool")
        slot = len(self.ids)
        if slot == len(self.groups):
            self.groups = np.concatenate([self.groups, np.empty_like(self.groups)])
            self.norms = np.concatenate([self.norms, np.empty_like(self.norms)])
            if self.vectors is not None:
                self.vectors = np.concatenate([self.vectors, np.zeros_like(self.vectors)])
        self.slots[node_id] = slot
        self.ids.append(node_id)
        self.labels.append(label)
        self.group_sizes[group] += 1
        self.groups[slot] = group
        self.norms[slot] = 1.0
        self.pending.add(slot)

    def discard(self, node_id: str) -> None:
        slot = self.slots.pop(node_id, None)
        if slot is None:
            return
        self.group_sizes[int(self.groups[slot])] -= 1
        self.pending.discard(slot)
        last = len(self.ids) - 1
        moved_id, moved_label = self.ids.pop(), self.labels.pop()
        if slot == last:
            return
        self.slots[moved_id] = slot
        self.ids[slot], self.labels[slot] = moved_id, moved_label
        self.groups[slot], self.norms[slot] = self.groups[last], self.norms[last]
        if self.vectors is not None:
            self.vectors[slot] = self.vectors[last]
        if last in self.pending:
            self.pending.remove(last)
            self.pending.add(slot)

    def resolve(self, query_label: str, excluded: int | None,
                store: EmbeddingStore) -> tuple[np.ndarray, float]:
        """The query's vector and norm, after filling in the pending members
        outside the excluded group, all from one `store.rows` call."""
        if store is not self.store:
            self.store, self.vectors = store, None
            self.pending = set(range(len(self.ids)))
        missing = sorted(slot for slot in self.pending
                         if excluded is None or self.groups[slot] != excluded)
        rows, matrix, norms = store.rows([query_label, *map(self.labels.__getitem__, missing)])
        if self.vectors is None:
            self.vectors = np.zeros((len(self.groups), matrix.shape[1]))
        if missing:
            self.vectors[missing] = matrix[rows[1:]]
            self.norms[missing] = norms[rows[1:]]
            self.pending.difference_update(missing)
        return matrix[rows[0]], float(norms[rows[0]])


class RankingPool(Mapping[str, str]):
    """The members a query is ranked against (node id -> label), with each
    member's embedding kept beside it.

    The owner adds a member when it creates a node and discards it when a
    merge absorbs the node, so the pool follows the graph. Each member
    belongs to a group (the aggregator's origin chunk). `excluding(group)`
    is a view of the members outside one group; it shares the pool's
    arrays, and its `len`, `in` and lookups see only those members. A
    member's vector is copied in from the store by the first ranking that
    sees the member, in one batched `EmbeddingStore.rows` call, so a label
    is embedded no earlier than a ranking asks for it. Single-writer, like
    the graph.
    """

    def __init__(self, members: Mapping[str, str] | None = None) -> None:
        self._members = _Members()
        self._excluded: int | None = None
        for node_id, label in (members or {}).items():
            self.add(node_id, label)

    def add(self, node_id: str, label: str, group: int = 0) -> None:
        self._members.add(node_id, label, group)

    def discard(self, node_id: str) -> None:
        """Drop a member; an absent id is a no-op."""
        self._members.discard(node_id)

    def excluding(self, group: int) -> RankingPool:
        """The members outside `group`, as a view that follows the pool."""
        view = RankingPool.__new__(RankingPool)
        view._members, view._excluded = self._members, group
        return view

    def _slot(self, node_id: object) -> int | None:
        """The member's slot, or None if it is absent or excluded."""
        slot = self._members.slots.get(node_id)
        if slot is None or (self._excluded is not None
                            and self._members.groups[slot] == self._excluded):
            return None
        return slot

    def __getitem__(self, node_id: str) -> str:
        slot = self._slot(node_id)
        if slot is None:
            raise KeyError(node_id)
        return self._members.labels[slot]

    def __contains__(self, node_id: object) -> bool:
        return self._slot(node_id) is not None

    def __iter__(self) -> Iterator[str]:
        return (node_id for node_id in self._members.slots if node_id in self)

    def __len__(self) -> int:
        return len(self._members.slots) - self._members.group_sizes.get(self._excluded, 0)


def cosine_candidates(query: str, pool: Mapping[str, str], k: int,
                      store: EmbeddingStore) -> tuple[tuple[str, float], ...]:
    """The top-k pool members (node_id -> label) by cosine similarity to the
    query, as (node_id, similarity) pairs, ties broken by ascending id.

    The query may be a node id present in the pool (which is then excluded
    from its own candidates) or a raw label. An empty pool yields no
    candidates. A plain mapping is ranked as a fresh `RankingPool`.
    Similarities are dot products over the product of norms, the same
    arithmetic as one `np.dot` per member; every member at or above the
    k-th similarity is sorted, so a tie group cut by k goes to its lowest
    ids. The whole pool is scored in one matrix-vector product; members
    the query may not match score -inf, which no kept similarity equals.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not isinstance(pool, RankingPool):
        pool = RankingPool(pool)
    data = pool._members
    eligible = len(pool)
    query_slot = pool._slot(query)
    if query_slot is None:
        query_label = query
    else:
        query_label = data.labels[query_slot]
        eligible -= 1
    if not eligible:
        return ()
    vector, norm = data.resolve(query_label, pool._excluded, store)
    count = len(data.ids)
    sims = data.vectors[:count] @ vector / (norm * data.norms[:count])
    if pool._excluded is not None:
        sims[data.groups[:count] == pool._excluded] = -np.inf
    if query_slot is not None:
        sims[query_slot] = -np.inf
    cut = count - min(k, eligible)
    keep = np.flatnonzero(sims >= np.partition(sims, cut)[cut])
    scored = sorted(zip(map(data.ids.__getitem__, keep.tolist()), sims[keep].tolist()),
                    key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])
