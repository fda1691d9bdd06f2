from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from guidegraph.oracle import AuditLog, OracleClient
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend, RankingPool


@pytest.fixture()
def hashing_store() -> EmbeddingStore:
    return EmbeddingStore(HashingEmbeddingBackend())


def make_client(backend) -> OracleClient:
    return OracleClient(backend, audit=AuditLog())


class PlacedVectors:
    """An embedding backend of hand-placed vectors: each label's vector is
    the one `vectors` maps it to, read when the store first looks it up."""

    def __init__(self, vectors: dict[str, Sequence[float]]) -> None:
        self.vectors = vectors

    def embed_texts(self, texts: Sequence[str]) -> list[Sequence[float]]:
        return [self.vectors[text] for text in texts]


def placed_store(vectors: dict[str, Sequence[float]]) -> EmbeddingStore:
    """A store whose labels embed as `vectors` places them."""
    return EmbeddingStore(PlacedVectors(vectors))


def ranking_pool(store: EmbeddingStore, members: dict[str, str],
                 groups: dict[str, int] | None = None) -> RankingPool:
    """A pool over `store` holding the members (node id -> label), in order,
    each in its group from `groups` (default 0)."""
    pool = RankingPool(store)
    for node_id, label in members.items():
        pool.add(node_id, label, (groups or {}).get(node_id, 0))
    return pool
