"""Embedding store and top-k cosine candidate retrieval for duplicate detection.

Retrieval is exact, like a flat inner-product index. The store maps each
label to one read-only vector and its norm, keyed by the normalized label
it is given: callers normalize a label once, where it enters the system.
Every vector enters through the store's backend, so a test that places
vectors by hand passes a backend that returns them. A `RankingPool` is
bound to a store and kept beside a graph by its owner, which adds and
discards members as nodes are created and merged away; adding a member
writes its vector, norm and group (the node's origin chunk) into its row
of the pool's arrays. A query names the group it excludes, if any. It
scores the pool with one matrix-vector product, masks the excluded
group's members when the group has any, partitions at the k-th eligible
similarity and sorts only what is kept: no per-member dict or list work.

Only `builder.duplicate_query` ranks, after an exact-match miss (a hit
looks nothing up): once per dequeued build candidate and once per
aggregation plan (at `parallelism` 1, per turn). A miss looks its label
up once, and the builder hands that (vector, norm) to the node's row.

A backend embeds a batch of labels per request (`embed_texts`, one row
per label), and the store sends each batch's missing labels in one
request: `EmbeddingStore.embed` does it for the labels a caller names,
and `lookup` for those it looks up. The builder names a chunk's interface
and then one BFS level at a time, so a chunk costs one request per level.
The scripted embedding backend is a seeded character-trigram feature
hasher of fixed dimension: deterministic, whitespace-insensitive after
label normalization, and good enough to put near-identical labels first.
Each trigram is hashed once a process to an int code that holds its
dimension and sign, and a batch is embedded by one `np.bincount` of its
rows' codes. The store keeps a batch as one read-only array, a row per
label.
Its vectors are integer-valued, so every dot product and norm is exact in
float64, and a label's vector does not depend on the batch it is in. The
live embedder, `live.LiveEmbeddingBackend`, posts a batch to an
OpenAI-compatible embeddings endpoint as one `input` list.
"""
from __future__ import annotations

import hashlib
import math
import threading
from collections import Counter
from typing import Iterable, Protocol, Sequence

import numpy as np

# `normalize_label` is not called here: perfbench/layers.py rebinds it
# through NORMALIZE_BINDINGS.
from .core import normalize_label
from .errors import EmbeddingError

DIM = 256
SEED = 13
NGRAM = 3
INITIAL_ROWS = 64

Entry = tuple[np.ndarray, float]  # a label's read-only vector and its norm


class EmbeddingBackend(Protocol):
    def embed_texts(self, texts: Sequence[str]) -> Sequence[Sequence[float]]:
        """One vector per text, in order, from one request."""


class HashingEmbeddingBackend:
    """Deterministic feature-hashing embedder over character trigrams, into
    `DIM` dimensions under hash seed `SEED`.

    Each trigram is hashed once a process, to the code 2 * index + sign bit
    (1 for a -1 sign), in a table that every instance shares. A label's
    vector is one count of its trigram codes: each index's +1 occurrences
    minus its -1 occurrences, as float64. A batch offsets each row's codes
    by the row's start and counts them all at once.
    """

    def embed_text(self, text: str) -> np.ndarray:
        return self.embed_texts((text,))[0]

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        codes, width, flat = _CODES, 2 * DIM, []
        for start, text in zip(range(0, width * len(texts), width), texts):
            padded = f" {text} "
            flat += [start + codes[padded[i : i + NGRAM]]
                     for i in range(max(1, len(padded) - NGRAM + 1))]
        counts = np.bincount(flat, minlength=width * len(texts)).reshape(len(texts), width)
        return (counts[:, 0::2] - counts[:, 1::2]).astype(np.float64)


class _TrigramCodes(dict):
    """trigram -> 2 * index + sign bit, hashed on first use: the blake2b
    digest of `f"{SEED}:{gram}"`, continued from the hashed seed prefix."""

    _seeded = hashlib.blake2b(f"{SEED}:".encode("utf-8"), digest_size=8)  # only copied

    def __missing__(self, gram: str) -> int:
        hasher = self._seeded.copy()
        hasher.update(gram.encode("utf-8"))
        value = int.from_bytes(hasher.digest(), "big")
        code = self[gram] = 2 * ((value >> 1) % DIM) + (~value & 1)
        return code


# A trigram's code depends on nothing but the trigram under the fixed `SEED`
# and `DIM`, so every hashing backend of the process shares one table. Stores
# embed outside their locks, so threads may race to fill it: benign, as two
# racers write the same code.
_CODES = _TrigramCodes()


class EmbeddingStore:
    """Cache of label embeddings keyed by the normalized label it is given.

    Each label maps to a read-only (vector, norm) entry by one dict hit,
    keyed as given: callers pass labels normalized where they entered.
    Dimensionality is fixed by the first vector; vectors without exactly
    one axis, zero and non-finite vectors are rejected at ingest. A stored
    entry never changes, so a hit takes no lock. A miss claims its keys
    under the lock and embeds them in one backend request, and each key is
    embedded once, however many threads miss it together.
    """

    def __init__(self, backend: EmbeddingBackend) -> None:
        self.backend = backend
        self._entries: dict[str, Entry] = {}  # normalized label -> (vector, norm)
        self._embedding: set[str] = set()  # keys a thread is embedding now
        self._dim: int | None = None
        self._lock = threading.Lock()
        self._embedded = threading.Condition(self._lock)  # notified as keys leave `_embedding`

    def __contains__(self, label: object) -> bool:  # whether the label's entry is stored
        return label in self._entries

    def _ingest(self, keys: list[str], vectors: Sequence) -> None:
        """Store a batch as one read-only float64 array, each key's vector a
        row of it. Raises EmbeddingError, storing none of the batch, unless
        every vector has one axis, a finite non-zero norm and the store's
        dimension."""
        if len(vectors) != len(keys):
            raise EmbeddingError(f"{len(vectors)} embeddings for {len(keys)} labels")
        try:
            batch = np.array(vectors, dtype=np.float64)
        except ValueError:  # rows of different shapes, or not numbers
            self._check_shapes(keys, vectors)
            raise
        if batch.ndim != 2:
            self._check_shapes(keys, vectors)
        dim = batch.shape[1]
        if self._dim is not None and dim != self._dim:
            raise EmbeddingError(f"dimension mismatch for {keys[0]!r}: {dim} != {self._dim}")
        norms = [math.sqrt(row @ row) for row in batch]  # the arithmetic of `np.linalg.norm`
        for key, norm in zip(keys, norms):
            if not math.isfinite(norm):
                raise EmbeddingError(f"non-finite embedding vector for {key!r}")
            if norm == 0.0:
                raise EmbeddingError(f"zero embedding vector for {key!r}")
        self._dim = dim
        batch.flags.writeable = False  # and so is every row view
        self._entries.update(zip(keys, zip(batch, norms)))

    def _check_shapes(self, keys: list[str], vectors: Sequence) -> None:
        """Raise the EmbeddingError of the first vector that has not one axis,
        or not the dimension of the store or of the batch's first vector."""
        dim = self._dim
        for key, vector in zip(keys, vectors):
            shape = np.shape(vector)
            if len(shape) != 1:
                raise EmbeddingError(f"embedding for {key!r} has shape {shape}, not one axis")
            if dim is None:
                dim = shape[0]
            elif shape[0] != dim:
                raise EmbeddingError(f"dimension mismatch for {key!r}: {shape[0]} != {dim}")

    def entry(self, label: str) -> Entry:
        """The label's entry; a missing key is embedded by `embed`."""
        entry = self._entries.get(label)
        if entry is None:
            self.embed((label,))
            entry = self._entries[label]
        return entry

    def lookup(self, labels: Iterable[str]) -> list[Entry]:
        """Each label's `entry`, the missing keys embedded by one `embed`."""
        labels = list(labels)
        entries = list(map(self._entries.get, labels))
        if None in entries:
            self.embed(labels)
            entries = list(map(self._entries.__getitem__, labels))
        return entries

    def embed(self, labels: Iterable[str]) -> None:
        """Store each label's entry: the missing keys, each once and in order
        of first appearance, go to the backend in one request, except those
        another thread is embedding, which it waits for.

        A thread claims the missing keys nobody is embedding and embeds them
        outside the lock, so distinct batches embed concurrently; it waits
        for keys another thread claimed. If a claimed batch raises, its keys
        are unclaimed, so a waiter embeds them itself, or raises.
        """
        entries = self._entries
        missing = list(dict.fromkeys([label for label in labels if label not in entries]))
        if not missing:
            return
        with self._lock:
            while missing := [key for key in missing if key not in entries]:
                claimed = [key for key in missing if key not in self._embedding]
                if claimed:
                    self._embedding.update(claimed)
                    self._lock.release()
                    try:
                        vectors = self.backend.embed_texts(claimed)
                    finally:
                        self._lock.acquire()
                        self._embedding.difference_update(claimed)
                        self._embedded.notify_all()
                    self._ingest(claimed, vectors)
                else:
                    self._embedded.wait()

    def vector(self, label: str) -> np.ndarray:
        """The label's embedding, read-only."""
        return self.entry(label)[0]

    def cosine(self, label_a: str, label_b: str) -> float:
        (a, norm_a), (b, norm_b) = self.lookup((label_a, label_b))
        return float(np.dot(a, b) / (norm_a * norm_b))


class RankingPool:
    """The members a query is ranked against, each a node id with its label,
    embedding and group (the node's origin chunk).

    The owner adds a member when it creates a node and discards it when a
    merge absorbs the node, so the pool follows the graph. Live members
    fill slots 0..n-1: a discarded member's slot is refilled by the last
    member, so the arrays hold no dead rows. `_write` alone writes a new
    member's row. `add` gives it the label's store entry, the one a miss's
    query hands over or else looked up; `extend` looks a batch up at once.
    So a label is embedded once: when a pool adds it, a query names it or
    its owner embeds it ahead of both, as the builder does a BFS level.
    The arrays start at `INITIAL_ROWS` rows, or at the size of a larger
    first batch, and double when full. Single-writer, like the graph.
    """

    def __init__(self, store: EmbeddingStore) -> None:
        self.store = store
        self.slots: dict[str, int] = {}  # member id -> slot
        self.ids: list[str] = []
        self.labels: list[str] = []
        self.group_sizes: Counter[int] = Counter()  # group -> members
        self.groups = np.empty(0, dtype=np.int64)
        self.norms = np.empty(0)
        self.vectors = np.empty((0, 0))  # its width is set by the first add

    def add(self, node_id: str, label: str, group: int, entry: Entry | None = None) -> None:
        """Add a member; `entry` is the label's store entry, looked up if None.
        Raises ValueError, leaving the pool unchanged, if the id is in it."""
        if node_id in self.slots:
            raise ValueError(f"{node_id!r} is already in the pool")
        self._write(node_id, label, group, entry or self.store.entry(label))

    def extend(self, members: Sequence[tuple[str, str, int]]) -> None:
        """Add (node id, label, group) members in order, as a loop of `add`
        would, with one store lookup and at most one growth. Raises
        ValueError, leaving the pool unchanged, if an id is in it or repeats."""
        seen = set(self.slots)
        for node_id, _, _ in members:
            if node_id in seen:
                raise ValueError(f"{node_id!r} is already in the pool")
            seen.add(node_id)
        entries = self.store.lookup([label for _, label, _ in members])
        if len(self.ids) + len(members) > len(self.norms):
            self._grow(len(self.ids) + len(members), entries[0][0].size)
        for (node_id, label, group), entry in zip(members, entries):
            self._write(node_id, label, group, entry)

    def _write(self, node_id: str, label: str, group: int, entry: Entry) -> None:
        slot = len(self.ids)
        if slot == len(self.norms):
            self._grow(slot + 1, entry[0].size)
        self.slots[node_id] = slot
        self.ids.append(node_id)
        self.labels.append(label)
        self.group_sizes[group] += 1
        self.groups[slot] = group
        self.vectors[slot], self.norms[slot] = entry

    def _grow(self, rows: int, width: int) -> None:
        rows, count = max(INITIAL_ROWS, 2 * len(self.norms), rows), len(self.ids)
        grown = (np.empty(rows, dtype=np.int64), np.empty(rows), np.empty((rows, width)))
        if count:
            for new, old in zip(grown, (self.groups, self.norms, self.vectors)):
                new[:count] = old[:count]
        self.groups, self.norms, self.vectors = grown

    def discard(self, node_id: str) -> None:
        """Drop a member; an absent id is a no-op."""
        slot = self.slots.pop(node_id, None)
        if slot is None:
            return
        self.group_sizes[int(self.groups[slot])] -= 1
        last = len(self.ids) - 1
        moved_id, moved_label = self.ids.pop(), self.labels.pop()
        if slot == last:
            return
        self.slots[moved_id] = slot
        self.ids[slot], self.labels[slot] = moved_id, moved_label
        self.groups[slot], self.norms[slot] = self.groups[last], self.norms[last]
        self.vectors[slot] = self.vectors[last]

    # Only the benchmark's pool hook (perfbench/layers.py) reads `in`.
    def __contains__(self, node_id: object) -> bool:
        return node_id in self.slots

    def __len__(self) -> int:
        return len(self.ids)

    def eligible(self, exclude: int | None) -> int:  # members outside group `exclude`
        return len(self.ids) - self.group_sizes.get(exclude, 0)


def cosine_candidates(query_label: str, pool: RankingPool, k: int, exclude: int | None = None,
                      entry: Entry | None = None) -> tuple[tuple[str, str, float], ...]:
    """The top-k pool members outside group `exclude` by cosine similarity to
    the query label, as (node_id, label, similarity) triples, ties broken by
    ascending id. `entry` is the label's store entry, looked up if None.

    The query is always a label, even one that equals a member's id; a
    caller keeps a node out of its own candidates by excluding its group.
    No eligible member yields no candidates and embeds nothing.
    Similarities are dot products over the product of norms, the same
    arithmetic as one `np.dot` per member; every member at or above the
    k-th similarity is sorted, so a tie group cut by k goes to its lowest
    ids. The whole pool is scored in one matrix-vector product; members of
    the excluded group, when it has any, score -inf, which no kept
    similarity equals.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count = len(pool.ids)
    eligible = pool.eligible(exclude)
    if not eligible:
        return ()
    vector, norm = entry or pool.store.entry(query_label)
    sims = pool.vectors[:count] @ vector
    sims /= norm * pool.norms[:count]
    if eligible < count:
        sims[pool.groups[:count] == exclude] = -np.inf
    cut = count - min(k, eligible)
    slots = (sims >= np.partition(sims, cut)[cut]).nonzero()[0].tolist()
    ids, similarity = pool.ids, sims.item
    scored = sorted([(-similarity(slot), ids[slot], slot) for slot in slots])
    return tuple([(node_id, pool.labels[slot], -negated)
                  for negated, node_id, slot in scored[:k]])
