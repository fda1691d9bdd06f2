from __future__ import annotations

import math
import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from conftest import placed_store, ranking_pool
from oracles import exhaustive_top_k, loop_cosine_candidates, reference_embed_text
from synth import FIXTURE_DIR, SYNTHETIC_DIR, synthetic_config

from guidegraph import cli, retrieval
from guidegraph.errors import EmbeddingError
from guidegraph.retrieval import (
    EmbeddingStore,
    HashingEmbeddingBackend,
    RankingPool,
    cosine_candidates,
)


def test_embed_twice_returns_identical_vectors(hashing_store):
    first = hashing_store.vector("radical prostatectomy")
    second = hashing_store.vector("radical prostatectomy")
    assert np.array_equal(first, second)


def test_lookups_key_labels_as_given_without_normalizing(monkeypatch):
    def refuse(label: str) -> str:
        raise AssertionError(f"a lookup normalized {label!r}")

    monkeypatch.setattr(retrieval, "normalize_label", refuse)
    store = EmbeddingStore(HashingEmbeddingBackend())
    pool = ranking_pool(store, {"a1": "radiation therapy", "a2": "radical prostatectomy"})
    assert [node_id for node_id, _, _ in
            cosine_candidates("radical prostatectomy", pool, 2)] == ["a2", "a1"]
    assert store.cosine("radical prostatectomy", "radiation therapy") == pytest.approx(
        0.16692446522239712, abs=1e-12)


def test_self_similarity_is_one(hashing_store):
    assert hashing_store.cosine("radical prostatectomy", "radical prostatectomy") == pytest.approx(1.0)


def test_derived_cosine_matches_stored_value(hashing_store):
    # Frozen from an independent pure-python cosine over the hashing
    # embedder's raw outputs.
    value = hashing_store.cosine("radical prostatectomy", "radiation therapy")
    assert value == pytest.approx(0.16692446522239712, abs=1e-12)


def test_trigram_table_embeds_like_the_hashing_loop():
    rng = random.Random(8)
    alphabet = "ab c.é中😀-"
    labels = ["", "a", "ab", "é", "😀", "中文", "aaaaaaa", "abcabcabc", "a a a a", "😀😀😀😀"] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(300)]
    seen: Counter[str] = Counter()
    backend = HashingEmbeddingBackend()
    for label in labels + labels:  # the second pass reads a filled table
        vector = backend.embed_text(label)
        assert vector.dtype == np.float64 and vector.shape == (retrieval.DIM,)
        reference = reference_embed_text(label, retrieval.DIM, retrieval.SEED, retrieval.NGRAM)
        assert vector.tobytes() == reference.tobytes()  # bit for bit, so no -0.0 for 0.0
        padded = f" {label} "
        grams = [padded[i : i + retrieval.NGRAM] for i in range(len(padded) - 2)]
        seen["repeated trigram"] += len(set(grams)) < len(grams)
        seen["non-ASCII"] += not label.isascii()
        seen["one or two characters"] += len(label) in (1, 2)
    assert min(seen[case] for case in ("repeated trigram", "non-ASCII",
                                       "one or two characters")) > 10


def unseen_labels(seed: int, count: int, first_code: int) -> list[str]:
    """Labels of the 64 Linear B characters from `first_code` on and a CJK
    extension character, whose trigrams no other test embeds, so the
    process's trigram table holds none of them."""
    rng = random.Random(seed)
    alphabet = [chr(code) for code in range(first_code, first_code + 64)] + ["\U00020000", " "]
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(count)]


def test_backends_share_one_trigram_table(monkeypatch):
    hashed: Counter[str] = Counter()
    missing = retrieval._TrigramCodes.__missing__

    def counting(table, gram):
        hashed[gram] += 1
        return missing(table, gram)

    monkeypatch.setattr(retrieval._TrigramCodes, "__missing__", counting)
    labels = unseen_labels(35, 200, 0x10000)
    first = HashingEmbeddingBackend().embed_texts(labels)
    assert hashed and max(hashed.values()) == 1  # each new trigram hashed once
    first_hashed = dict(hashed)
    second = HashingEmbeddingBackend().embed_texts(labels[::-1])
    assert hashed == first_hashed  # the second backend hashed nothing again
    assert first.tobytes() == second[::-1].tobytes()
    for label, vector in zip(labels, first):
        reference = reference_embed_text(label, retrieval.DIM, retrieval.SEED, retrieval.NGRAM)
        assert vector.tobytes() == reference.tobytes()


def test_threads_filling_two_stores_embed_bit_identical_vectors():
    labels = unseen_labels(36, 240, 0x10080)
    stores = [EmbeddingStore(HashingEmbeddingBackend()) for _ in range(2)]
    start = threading.Barrier(8)

    def fill(worker: int) -> None:
        start.wait()
        for first in range(worker * 10, len(labels), 40):  # batches that overlap
            stores[worker % 2].embed(labels[first : first + 30])

    threads = [threading.Thread(target=fill, args=(worker,)) for worker in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside a batch's trigram loop
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for label in labels:
        reference = reference_embed_text(label, retrieval.DIM, retrieval.SEED, retrieval.NGRAM)
        for store in stores:
            vector, norm = store.entry(label)
            assert vector.tobytes() == reference.tobytes()
            assert norm == math.sqrt(reference @ reference)


def test_a_batch_is_stored_as_one_read_only_array(hashing_store):
    labels = ["radical prostatectomy", "radiation therapy", "active surveillance"]
    hashing_store.embed(labels)
    vectors = [hashing_store.vector(label) for label in labels]
    base = vectors[0].base
    assert base is not None and base.shape == (3, retrieval.DIM)
    assert all(vector.base is base for vector in vectors) and not base.flags.writeable
    assert np.array_equal(base, HashingEmbeddingBackend().embed_texts(labels))


def test_hand_placed_vectors_rank_as_computed():
    store = placed_store({"first": [1.0, 0.0], "second": [0.0, 1.0], "third": [0.9, 0.1]})
    result = cosine_candidates("first", ranking_pool(store, {"n2": "second", "n3": "third"}), 2)
    assert [(node_id, label) for node_id, label, _ in result] == [("n3", "third"),
                                                                  ("n2", "second")]
    sims = {node_id: similarity for node_id, _, similarity in result}
    assert sims["n3"] == pytest.approx(0.9 / (0.81 + 0.01) ** 0.5, abs=1e-9)
    assert sims["n2"] == pytest.approx(0.0, abs=1e-12)


def test_query_excluded_from_its_own_pool(hashing_store):
    # A node is kept out of its own candidates by its group, not by its id.
    pool = RankingPool(hashing_store)
    pool.add("n1", "only label", 1)
    assert cosine_candidates("only label", pool, 3, exclude=1) == ()


def test_k_larger_than_pool_saturates(hashing_store):
    pool = ranking_pool(hashing_store, {"a": "active surveillance", "b": "radiation therapy",
                                        "c": "prostate biopsy"})
    result = cosine_candidates("active surveillance protocol", pool, 99)
    assert len(result) == 3
    sims = [s for _, _, s in result]
    assert sims == sorted(sims, reverse=True)


def test_vector_is_a_read_only_view(hashing_store):
    vector = hashing_store.vector("active surveillance")
    with pytest.raises(ValueError):
        vector[0] = 1.0


def test_zero_vector_rejected():
    store = placed_store({"zero": [0.0, 0.0, 0.0, 0.0]})
    with pytest.raises(EmbeddingError, match="zero"):
        store.lookup(["zero"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_vector_rejected(value):
    vectors = {"bad": [1.0, value, 0.0, 0.0]}
    store = placed_store(vectors)
    with pytest.raises(EmbeddingError, match="non-finite"):
        store.lookup(["bad"])
    vectors["bad"] = [1.0, 0.0, 0.0, 0.0]  # the rejected vector was not stored
    assert store.vector("bad").tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("reply", [[[1.0, 0.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], 3.0],
                         ids=["1-by-n", "n-by-n", "0-d"])
def test_embedding_without_one_axis_rejected(reply):
    vectors = {"bad": reply}
    store = placed_store(vectors)
    with pytest.raises(EmbeddingError, match=r"'bad' has shape .*, not one axis"):
        store.lookup(["bad"])
    vectors["bad"] = [0.0, 2.0]  # the rejected reply was not stored
    assert store.vector("bad").tolist() == [0.0, 2.0]


def test_dimension_mismatch_rejected():
    store = placed_store({"a": [1.0, 0.0, 0.0, 0.0], "b": [1.0, 0.0]})
    store.lookup(["a"])
    with pytest.raises(EmbeddingError, match="dimension mismatch"):
        store.lookup(["b"])


def test_rejects_k_below_one(hashing_store):
    with pytest.raises(ValueError):
        cosine_candidates("x", ranking_pool(hashing_store, {"a": "b"}), 0)


def _random_vector(rng: random.Random) -> list[float]:
    vec = [rng.uniform(-1, 1) for _ in range(6)]
    while all(abs(x) < 1e-9 for x in vec):
        vec = [rng.uniform(-1, 1) for _ in range(6)]
    return vec


def test_matches_exhaustive_sort_on_random_pools():
    rng = random.Random(2024)
    for _ in range(300):
        size = rng.randint(1, 8)
        placed, pool, vectors = {}, {}, {}
        for i in range(size):
            node_id, label = f"n{i:02d}", f"label {rng.randrange(10_000)} {i}"
            placed[label] = vectors[node_id] = _random_vector(rng)
            pool[node_id] = label
        placed["query label"] = query_vec = _random_vector(rng)
        k = rng.randint(1, 8)
        result = cosine_candidates("query label", ranking_pool(placed_store(placed), pool), k)
        expected = exhaustive_top_k(query_vec, vectors, k)
        assert [(nid, label) for nid, label, _ in result] == [
            (nid, pool[nid]) for nid, _ in expected]
        for (_, _, got), (_, want) in zip(result, expected):
            assert got == pytest.approx(want, abs=1e-9)
            assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9


def test_tie_break_is_insertion_order_independent():
    store = placed_store({"la": [1, 0, 0], "lb": [1, 0, 0], "lc": [0, 1, 0]})
    pool_fwd = {"n1": "la", "n2": "lb", "n3": "lc"}
    pool_rev = dict(reversed(list(pool_fwd.items())))
    fwd = cosine_candidates("la", ranking_pool(store, pool_fwd), 3)
    rev = cosine_candidates("la", ranking_pool(store, pool_rev), 3)
    assert fwd == rev
    assert [nid for nid, _, _ in fwd] == ["n1", "n2", "n3"]


VOCABULARY = ("active surveillance", "radiation therapy", "prostate biopsy",
              "psa elevated", "watchful waiting", "radical prostatectomy",
              "repeat biopsy", "mri")


def test_matrix_ranking_equals_per_member_loop_on_hashing_embeddings(hashing_store):
    # Hashing vectors are integer-valued, so the matrix form must give
    # exactly the loop's floats, not merely close ones. A query that equals
    # a member's id is still ranked as a label.
    fixed = [
        # duplicate labels under shuffled ids; k = 2 cuts the "mri" tie group
        ("mri scan", {"n07": "mri", "n03": "mri", "n05": "mri", "n01": "repeat biopsy"}, 2),
        ("n05", {"n07": "mri", "n03": "mri", "n05": "mri", "n01": "repeat biopsy"}, 1),
        ("mri", {"n09": "watchful waiting"}, 1),  # a pool of one member
        ("biopsy", {"n02": "prostate biopsy", "n01": "repeat biopsy"}, 9),  # k > pool
    ]
    rng = random.Random(5)
    tie_cuts = 0
    cases = list(fixed)
    for _ in range(400):
        size = rng.randint(1, 14)
        ids = [f"n{i:02d}" for i in rng.sample(range(60), size)]
        pool = {node_id: rng.choice(VOCABULARY) for node_id in ids}
        query = rng.choice([rng.choice(ids), rng.choice(VOCABULARY), "psa elevated again"])
        cases.append((query, pool, rng.randint(1, size + 2)))
    for query, pool, k in cases:
        expected = loop_cosine_candidates(query, pool, k, hashing_store)
        assert cosine_candidates(query, ranking_pool(hashing_store, pool), k) == expected
        full = loop_cosine_candidates(query, pool, len(pool), hashing_store)
        if len(full) > k and full[k - 1][2] == full[k][2]:
            tie_cuts += 1
    query, pool, k = fixed[0]
    result = cosine_candidates(query, ranking_pool(hashing_store, pool), k)
    assert [nid for nid, _, _ in result] == ["n03", "n05"]
    assert tie_cuts > 20


def test_ranking_pool_under_adds_and_discards_equals_the_loop_over_a_rebuilt_dict():
    # The aggregator's use: members grouped by chunk, discarded when merged
    # away, ranked with their own chunk excluded. Ids run past 999, where
    # c01n1000 sorts before c01n999, so id order is not insertion order.
    rng = random.Random(31)
    seen: Counter[str] = Counter()
    for _ in range(120):
        store = EmbeddingStore(HashingEmbeddingBackend())
        pool = RankingPool(store)
        members: dict[str, tuple[str, int]] = {}  # the rebuilt-dict reference
        next_seq = {group: rng.choice([1, 995]) for group in (1, 2, 3)}
        for _ in range(rng.randint(1, 30)):
            if not members or rng.random() < 0.5:
                group = rng.randint(1, 3)
                node_id = f"c{group:02d}n{next_seq[group]:03d}"
                next_seq[group] += 1
                label = rng.choice(VOCABULARY)
                pool.add(node_id, label, group)
                members[node_id] = (label, group)
                continue
            if rng.random() < 0.3:
                gone = rng.choice(sorted(members))
                pool.discard(gone)
                del members[gone]
            excluded = rng.choice([None, 1, 2, 3])
            expected = {nid: label for nid, (label, group) in members.items()
                        if group != excluded}
            query = (rng.choice(sorted(members)) if members and rng.random() < 0.5
                     else rng.choice(VOCABULARY))
            k = rng.randint(1, len(expected) + 2)
            assert len(pool) == len(members) and (query in pool) == (query in members)
            result = cosine_candidates(query, pool, k, excluded)
            assert result == loop_cosine_candidates(query, expected, k, store)
            full = loop_cosine_candidates(query, expected, len(expected), store)
            assert cosine_candidates(query, pool, max(len(expected), 1), excluded) == full
            seen["past 999"] += any(len(nid) > 7 for nid, _, _ in result)
            seen["tie cut by k"] += len(full) > k and full[k - 1][2] == full[k][2]
            seen["one member"] += len(expected) == 1
            seen["empty after exclusion"] += bool(members) and not expected
            seen["query equals a member id"] += query in expected
            present = len(expected) < len(members)  # the excluded group has members
            seen["all eligible kept, some excluded"] += bool(expected) and (
                len(expected) <= k and present)
            seen["all eligible kept, none excluded"] += bool(expected) and (
                len(expected) <= k and not present)
            seen["excluded group absent"] += excluded is not None and not present
            seen["partition with exclusion"] += len(expected) > k and present
    cases = ("past 999", "tie cut by k", "one member", "empty after exclusion",
             "query equals a member id", "all eligible kept, some excluded",
             "all eligible kept, none excluded", "excluded group absent",
             "partition with exclusion")
    assert min(seen[case] for case in cases) > 10, seen


def test_pool_lookups_see_every_member_and_follow_discards(hashing_store):
    pool = RankingPool(hashing_store)
    pool.add("a1", "mri", 1)
    pool.add("b1", "repeat biopsy", 2)
    assert "a1" in pool and "b1" in pool and "mri" not in pool
    assert len(pool) == 2
    pool.add("b2", "mri", 2)
    pool.discard("b1")
    pool.discard("b1")  # absent: a no-op
    assert "b1" not in pool and "b2" in pool and len(pool) == 2
    assert [nid for nid, _, _ in cosine_candidates("mri", pool, 2, exclude=1)] == ["b2"]
    with pytest.raises(ValueError):
        pool.add("a1", "again", 3)


def pool_state(pool: RankingPool) -> tuple:
    """A pool's members, slots, group sizes and live array rows."""
    count = len(pool.ids)
    return (list(pool.ids), dict(pool.slots), list(pool.labels), Counter(pool.group_sizes),
            pool.groups[:count].tolist(), pool.norms[:count].tolist(),
            pool.vectors[:count].tolist())


def test_add_and_extend_write_the_same_rows(hashing_store):
    members = [(f"a{i}", f"{VOCABULARY[i % len(VOCABULARY)]} {i}", i % 3)
               for i in range(retrieval.INITIAL_ROWS + 1)]
    added, extended = RankingPool(hashing_store), RankingPool(hashing_store)
    for member in members:
        added.add(*member)
        extended.extend([member])
    assert pool_state(added) == pool_state(extended)
    assert len(added.norms) == len(extended.norms) == 2 * retrieval.INITIAL_ROWS
    before = pool_state(added)
    with pytest.raises(ValueError, match="already in the pool"):
        added.add("a1", "mri", 1)
    assert pool_state(added) == before


def test_extend_equals_a_loop_of_add():
    rng = random.Random(2024)
    seen: Counter[str] = Counter()
    for _ in range(30):
        store = EmbeddingStore(HashingEmbeddingBackend())
        looped, extended = RankingPool(store), RankingPool(store)
        serial = 0
        for _ in range(rng.randint(1, 4)):
            groups = rng.choices((1, 2, 3), k=rng.choice((0, 1, 7, 70, 150)))
            batch = [(f"c{group}n{serial + i:04d}", f"{rng.choice(VOCABULARY)} {rng.randint(0, 40)}",
                      group) for i, group in enumerate(groups)]
            seen["extend after discards"] += bool(batch) and len(looped) < serial
            serial += len(batch)
            for member in batch:
                looped.add(*member)
            extended.extend(batch)
            seen["past INITIAL_ROWS"] += len(extended) > retrieval.INITIAL_ROWS
            for gone in rng.sample(sorted(looped.slots), min(len(looped), rng.randint(0, 30))):
                looped.discard(gone)
                extended.discard(gone)
            assert pool_state(extended) == pool_state(looped)
            for query in rng.sample(VOCABULARY, 3):
                for exclude in (None, 1, 2):
                    k = rng.randint(1, 12)
                    assert (cosine_candidates(query, extended, k, exclude)
                            == cosine_candidates(query, looped, k, exclude))
    assert seen["extend after discards"] > 10 and seen["past INITIAL_ROWS"] > 10


@pytest.mark.parametrize("batch", [
    [("b1", "watchful waiting", 1), ("b2", "mri", 2), ("b1", "psa elevated", 3)],
    [("b1", "watchful waiting", 1), ("a2", "psa elevated", 3)],
    [(f"b{i}", f"label {i}", 1) for i in range(100)] + [("a1", "mri", 1)],
], ids=["within-the-batch", "already-in-the-pool", "after-a-batch-that-would-grow-it"])
def test_extend_with_a_duplicate_id_raises_and_leaves_the_pool_unchanged(batch):
    backend = CountingBackend()
    pool = RankingPool(EmbeddingStore(backend))
    pool.extend([("a1", "mri", 1), ("a2", "repeat biopsy", 2)])
    before, capacity = pool_state(pool), len(pool.norms)
    with pytest.raises(ValueError, match="already in the pool"):
        pool.extend(batch)
    assert pool_state(pool) == before and len(pool.norms) == capacity
    assert backend.texts == ["mri", "repeat biopsy"]  # nothing of the batch was embedded


class CountingBackend(HashingEmbeddingBackend):
    def __init__(self) -> None:
        super().__init__()
        self.texts: list[str] = []
        self.requests: list[list[str]] = []

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        self.texts += texts
        self.requests.append(list(texts))
        return super().embed_texts(texts)


def test_a_label_is_embedded_once_when_a_pool_adds_it_or_a_query_names_it():
    backend = CountingBackend()
    store = EmbeddingStore(backend)
    pool = RankingPool(store)
    assert cosine_candidates("psa elevated", pool, 1) == ()  # an empty pool embeds nothing
    assert backend.texts == []
    for node_id, label, group in [("a1", "mri", 1), ("b1", "repeat biopsy", 2),
                                  ("b2", "mri", 2)]:
        pool.add(node_id, label, group)
    assert backend.texts == ["mri", "repeat biopsy"]
    cosine_candidates("prostate biopsy", pool, 1, exclude=1)
    cosine_candidates("repeat biopsy", pool, 1, exclude=2)
    assert backend.texts[2:] == ["prostate biopsy"]
    other = RankingPool(store)
    other.add("c1", "prostate biopsy", 3)
    other.add("c2", "watchful waiting", 3)
    assert backend.texts[3:] == ["watchful waiting"]


def test_golden_run_embeds_each_label_once(tmp_path, monkeypatch):
    # The builder embeds a chunk's interface, terminals first, in one
    # request, then each BFS level in one more; no label is embedded twice.
    requests: list[list[str]] = []
    embed = HashingEmbeddingBackend.embed_texts
    monkeypatch.setattr(HashingEmbeddingBackend, "embed_texts",
                        lambda self, batch: requests.append(list(batch)) or embed(self, batch))
    cli.run_pipeline(SYNTHETIC_DIR / "manifest.json", synthetic_config(FIXTURE_DIR),
                     tmp_path / "run")
    assert requests == [
        ["low-risk group", "high-risk group", "suspected prostate cancer"], ["prostate biopsy"],
        ["risk assessment"], ["active surveillance", "radiation therapy"],
        ["radical prostatectomy"], ["biochemical recurrence workup"],
        ["psa monitoring every 6 months"],
        ["repeat prostate biopsy", "active surveillance protocol"],
    ]


def test_ranking_is_independent_of_store_insertion_order():
    # Concurrent chunk builds fill a shared store in thread-timing order.
    labels = list(VOCABULARY) + [f"{a} then {b}" for a in VOCABULARY[:4] for b in VOCABULARY[4:]]
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randint(1, 16)
        pool = {f"n{i:02d}": rng.choice(labels) for i in rng.sample(range(60), size)}
        query = rng.choice([rng.choice(list(pool)), rng.choice(labels)])
        k = rng.randint(1, size + 1)
        results = []
        for _ in range(3):
            store = EmbeddingStore(HashingEmbeddingBackend())
            for label in rng.sample(labels, len(labels)):
                store.vector(label)
            results.append(cosine_candidates(query, ranking_pool(store, pool), k))
        assert results[0] == results[1] == results[2]


def test_concurrent_lookups_store_each_key_once():
    backend = HashingEmbeddingBackend()
    store = EmbeddingStore(backend)
    # Overlapping windows over 200 keys, looked up in batches of 6, so
    # threads race to embed and to store the same key.
    keys = [f"label {i}" for i in range(200)]
    label_sets = [[keys[(t * 25 + j) % 200] for j in range(120)] for t in range(8)]
    seen: list[dict[str, np.ndarray]] = [{} for _ in label_sets]
    errors: list[BaseException] = []

    def work(labels: list[str], out: dict[str, np.ndarray]) -> None:
        try:
            for start in range(0, len(labels), 6):
                batch = labels[start : start + 6]
                out.update(zip(batch, (vector for vector, _ in store.lookup(batch))))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(labels, out))
               for labels, out in zip(label_sets, seen)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    labels = sorted({label for labels in label_sets for label in labels})
    stored: dict[str, np.ndarray] = {}  # key -> the one vector stored for it
    for label, (vector, norm) in zip(labels, store.lookup(labels)):
        stored[label] = vector
        assert np.array_equal(vector, backend.embed_text(label))
        assert norm == np.linalg.norm(vector)
    assert len({id(vector) for vector in stored.values()}) == len(stored) == 200
    for out in seen:
        for label, vector in out.items():
            assert vector is stored[label]


class SlowEmbeddingBackend(HashingEmbeddingBackend):
    """Hashing embeddings that take 5 ms a request, like a round-trip to a server."""

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        time.sleep(0.005)
        return super().embed_texts(texts)


def test_threads_embed_new_labels_concurrently():
    def wall_time(threads: int) -> float:
        store = EmbeddingStore(SlowEmbeddingBackend())
        labels = [[f"label {t} {i}" for i in range(40)] for t in range(threads)]
        workers = [threading.Thread(target=lambda own=own: [store.lookup((x,)) for x in own])
                   for own in labels]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        elapsed = time.perf_counter() - started
        assert not any(worker.is_alive() for worker in workers)
        entries = store.lookup(label for own in labels for label in own)
        assert len({id(vector) for vector, _ in entries}) == 40 * threads
        return elapsed

    serial = wall_time(1)
    # A store that embedded under its lock would take about 4x as long.
    assert wall_time(4) < 2 * serial


class CountingEmbeddingBackend(HashingEmbeddingBackend):
    """Hashing embeddings that take `delay` seconds a request and count each
    text and request; a request raises instead if it is one of the first
    `failures[text]` to hold one of its texts. `started` is set as the
    first request starts."""

    def __init__(self, failures: dict[str, int] | None = None, delay: float = 0.02) -> None:
        super().__init__()
        self.calls: Counter[str] = Counter()
        self.requests: list[list[str]] = []
        self.started = threading.Event()
        self._failures = failures or {}
        self._delay = delay
        self._lock = threading.Lock()

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        with self._lock:
            self.calls.update(texts)
            self.requests.append(list(texts))
            fail = any(self.calls[text] <= self._failures.get(text, 0) for text in texts)
        self.started.set()
        time.sleep(self._delay)
        if fail:
            raise RuntimeError(f"embedding {texts!r} failed")
        return super().embed_texts(texts)


def _look_up_together(store: EmbeddingStore, label_lists: list[list[str]]) -> list:
    """Each list looked up by its own thread, all starting at once; each
    thread's vectors or the exception it raised."""
    start = threading.Barrier(len(label_lists))
    outcomes: list = [None] * len(label_lists)

    def work(index: int, labels: list[str]) -> None:
        start.wait(timeout=10)
        try:
            outcomes[index] = [vector for vector, _ in store.lookup(labels)]
        except Exception as exc:  # checked by the caller
            outcomes[index] = exc

    threads = [threading.Thread(target=work, args=item) for item in enumerate(label_lists)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


def test_threads_that_miss_the_same_key_embed_it_once():
    backend = CountingEmbeddingBackend()
    store = EmbeddingStore(backend)
    keys = [f"shared label {i}" for i in range(8)]
    label_lists = [[keys[(5 * t + 3 * j) % 8] for j in range(6)] for t in range(4)]
    outcomes = _look_up_together(store, label_lists)
    assert backend.calls == Counter({label: 1 for labels in label_lists for label in labels})
    for labels, vectors in zip(label_lists, outcomes):
        for label, vector in zip(labels, vectors):
            assert vector is store.vector(label)


def test_a_failed_embed_leaves_the_key_to_the_thread_waiting_for_it():
    backend = CountingEmbeddingBackend({"flaky label": 1})
    store = EmbeddingStore(backend)
    outcomes = _look_up_together(store, [["flaky label"], ["flaky label"]])
    # One thread's embed raised; the other embedded the key itself.
    assert sorted(type(outcome).__name__ for outcome in outcomes) == ["RuntimeError", "list"]
    assert backend.calls == Counter({"flaky label": 2})
    vector, = next(outcome for outcome in outcomes if isinstance(outcome, list))
    assert vector is store.vector("flaky label")


def test_a_batch_is_one_request_of_the_missing_keys_each_once_in_order():
    backend = CountingBackend()
    store = EmbeddingStore(backend)
    store.embed(["mri", "psa elevated"])
    entries = store.lookup(["repeat biopsy", "mri", "watchful waiting", "repeat biopsy",
                            "psa elevated", "active surveillance", "watchful waiting"])
    store.embed(["watchful waiting", "prostate biopsy", "mri", "prostate biopsy"])
    store.embed(["mri", "prostate biopsy"])  # all stored: no request
    assert store.lookup(["mri"]) == [store.entry("mri")]
    assert backend.requests == [["mri", "psa elevated"],
                                ["repeat biopsy", "watchful waiting", "active surveillance"],
                                ["prostate biopsy"]]
    assert entries == [store.entry(label) for label in (
        "repeat biopsy", "mri", "watchful waiting", "repeat biopsy", "psa elevated",
        "active surveillance", "watchful waiting")]


def test_batched_vectors_and_norms_equal_the_reference_bit_for_bit():
    rng = random.Random(34)
    alphabet = "ab c.é中😀-"
    labels = ["", "a", "😀", "abcabcabc"] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in range(300)]
    labels = list(dict.fromkeys(label for label in labels if label.strip()))
    store = EmbeddingStore(HashingEmbeddingBackend())
    for start in range(0, len(labels), 37):  # batches of several sizes, then one of all
        store.embed(labels[start : start + rng.randint(1, 37)])
    for label, (vector, norm) in zip(labels, store.lookup(labels)):
        reference = reference_embed_text(label, retrieval.DIM, retrieval.SEED, retrieval.NGRAM)
        assert vector.tobytes() == reference.tobytes()
        assert norm == math.sqrt(reference @ reference)
    batch = HashingEmbeddingBackend().embed_texts(labels)
    assert batch.dtype == np.float64 and batch.shape == (len(labels), retrieval.DIM)
    assert batch.tobytes() == np.array([reference_embed_text(
        label, retrieval.DIM, retrieval.SEED, retrieval.NGRAM) for label in labels]).tobytes()


def test_eight_threads_filling_overlapping_batches_embed_each_key_once():
    backend = CountingEmbeddingBackend(delay=0.001)
    store = EmbeddingStore(backend)
    keys = [f"label {i}" for i in range(200)]
    rng = random.Random(8)
    label_lists = [[rng.choice(keys) for _ in range(400)] for _ in range(8)]
    start = threading.Barrier(8)
    errors: list[BaseException] = []

    def work(labels: list[str]) -> None:
        try:
            start.wait(timeout=10)
            for first in range(0, len(labels), 25):
                store.embed(labels[first : first + 25])
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(labels,)) for labels in label_lists]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    embedded = {label for labels in label_lists for label in labels}
    assert backend.calls == Counter(dict.fromkeys(embedded, 1))
    assert all(len(set(request)) == len(request) for request in backend.requests)
    assert all(label in store for label in embedded)


@pytest.mark.parametrize("waiter_fails", [False, True], ids=["embeds", "raises"])
def test_a_batch_that_raises_unclaims_its_keys_for_a_waiter(waiter_fails):
    backend = CountingEmbeddingBackend({"flaky label": 1, "shared label": 1 + waiter_fails})
    store = EmbeddingStore(backend)
    outcomes: dict[str, object] = {}

    def look_up(name: str, labels: list[str]) -> None:
        try:
            outcomes[name] = store.lookup(labels)
        except RuntimeError as exc:
            outcomes[name] = exc

    first = threading.Thread(target=look_up, args=("first", ["flaky label", "shared label"]))
    first.start()
    assert backend.started.wait(10)  # the first batch holds both keys now
    second = threading.Thread(target=look_up, args=("second", ["shared label"]))
    second.start()
    for thread in (first, second):
        thread.join(timeout=30)
    # The first batch raised; the second thread, which waited for its key,
    # then embedded that key itself, and raised if that request raised.
    assert backend.requests == [["flaky label", "shared label"], ["shared label"]]
    assert isinstance(outcomes["first"], RuntimeError)
    if waiter_fails:
        assert isinstance(outcomes["second"], RuntimeError)
        assert "shared label" not in store
    else:
        assert outcomes["second"] == [store.entry("shared label")]
    assert "flaky label" not in store

