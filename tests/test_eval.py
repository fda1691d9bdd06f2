from __future__ import annotations

import itertools
import random
from decimal import ROUND_HALF_UP, Decimal

import pytest

from conftest import make_client, placed_store
from oracles import loop_match_nodes, loop_score
from synth import SyntheticRuleBackend

from guidegraph import aggregator, builder, chunker, core, evaluation, oracle, retrieval
from guidegraph.core import DecisionGraph, DecisionNode, NodeKind, graph_from_doc, graph_to_doc
from guidegraph.errors import UsageError
from guidegraph.evaluation import (
    EvalReport,
    MatchMode,
    MatchPolicy,
    MetricCount,
    index_graph,
    match_nodes,
    percent_value,
    render_table,
    score,
)
from guidegraph.oracle import OracleTask
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend

EXACT = MatchPolicy(MatchMode.EXACT_NORMALIZED)
ORACLE = MatchPolicy(MatchMode.ORACLE_VERIFIED)


def match(predicted: DecisionGraph, reference: DecisionGraph, policy: MatchPolicy,
          store: EmbeddingStore | None = None, client=None) -> dict[str, str]:
    """`match_nodes` over the indexes of the two graphs."""
    return match_nodes(index_graph(predicted), index_graph(reference), policy, store, client)


def embedding(threshold: float) -> MatchPolicy:
    return MatchPolicy(MatchMode.EMBEDDING_THRESHOLD, threshold=threshold)


def graph_of(labels: list[str], edges: list[tuple[int, str, int]] = (),
             prefix: str = "n") -> DecisionGraph:
    graph = DecisionGraph()
    for i, label in enumerate(labels, start=1):
        graph.add_node(DecisionNode(f"{prefix}{i:02d}", label, NodeKind.INTERMEDIATE, 0))
    for source, label, target in edges:
        graph.add_edge(f"{prefix}{source:02d}", label, f"{prefix}{target:02d}")
    return graph


def loaded(graph: DecisionGraph) -> DecisionGraph:
    """`graph` as its graph file loads: every label normalized."""
    return graph_from_doc(graph_to_doc(graph))


# ---------------------------------------------------------------------------
# percent arithmetic


def test_percent_examples_from_published_results():
    assert percent_value(49, 71) == 69.0
    assert percent_value(30, 32) == 93.8
    assert percent_value(9, 46) == 19.6
    assert percent_value(9, 56) == 16.1
    assert percent_value(49, 56) == 87.5
    assert percent_value(14, 51) == 27.5


def test_percent_half_up_on_exact_halves():
    assert percent_value(14, 32) == 43.8   # 43.75
    assert percent_value(25, 32) == 78.1   # 78.125 rounds down
    assert percent_value(1, 8) == 12.5


def test_percent_equals_the_decimal_half_up_formula():
    tenth = Decimal("0.1")
    for total in range(1, 1201):
        for supported in range(total + 1):
            exact = Decimal(supported * 100) / Decimal(total)
            expected = float(exact.quantize(tenth, rounding=ROUND_HALF_UP))
            assert percent_value(supported, total) == expected, (supported, total)


def test_percent_undefined_for_zero_total():
    assert percent_value(0, 0) is None
    assert MetricCount(0, 0).percent is None


# One row per (unit, method): six (percent, supported, total) cells in the
# order nodeP, nodeR, edgeP, edgeR, tripletP, tripletR.
PUBLISHED_TABLE = [
    ("1", "Doc2KG", [(23.5, 4, 17), (80.0, 4, 5), (10.3, 3, 29), (75.0, 3, 4), (10.3, 3, 29), (75.0, 3, 4)]),
    ("1", "AutoKG", [(50.0, 5, 10), (100.0, 5, 5), (11.1, 1, 9), (25.0, 1, 4), (11.1, 1, 9), (25.0, 1, 4)]),
    ("1", "Ours", [(80.0, 4, 5), (80.0, 4, 5), (100.0, 3, 3), (75.0, 3, 4), (100.0, 3, 3), (75.0, 3, 4)]),
    ("2", "Doc2KG", [(27.3, 3, 11), (30.0, 3, 10), (0.0, 0, 17), (0.0, 0, 13), (0.0, 0, 17), (0.0, 0, 13)]),
    ("2", "AutoKG", [(41.7, 10, 24), (100.0, 10, 10), (9.5, 2, 21), (15.4, 2, 13), (9.5, 2, 21), (15.4, 2, 13)]),
    ("2", "Ours", [(83.3, 10, 12), (100.0, 10, 10), (73.3, 11, 15), (84.6, 11, 13), (66.7, 10, 15), (76.9, 10, 13)]),
    ("3", "Doc2KG", [(12.5, 1, 8), (10.0, 1, 10), (0.0, 0, 12), (0.0, 0, 14), (0.0, 0, 12), (0.0, 0, 14)]),
    ("3", "AutoKG", [(45.5, 10, 22), (100.0, 10, 10), (28.6, 6, 21), (42.9, 6, 14), (19.0, 4, 21), (28.6, 4, 14)]),
    ("3", "Ours", [(75.0, 9, 12), (90.0, 9, 10), (100.0, 14, 14), (100.0, 14, 14), (92.9, 13, 14), (92.9, 13, 14)]),
    ("4", "Doc2KG", [(11.1, 1, 9), (12.5, 1, 8), (0.0, 0, 13), (0.0, 0, 12), (0.0, 0, 13), (0.0, 0, 12)]),
    ("4", "AutoKG", [(36.8, 7, 19), (87.5, 7, 8), (0.0, 0, 18), (0.0, 0, 12), (0.0, 0, 18), (0.0, 0, 12)]),
    ("4", "Ours", [(53.3, 8, 15), (100.0, 8, 8), (66.7, 10, 15), (83.3, 10, 12), (40.0, 6, 15), (50.0, 6, 12)]),
    ("5", "Doc2KG", [(16.7, 1, 6), (9.1, 1, 11), (0.0, 0, 9), (0.0, 0, 13), (0.0, 0, 9), (0.0, 0, 13)]),
    ("5", "AutoKG", [(47.6, 10, 21), (90.9, 10, 11), (19.0, 4, 21), (30.8, 4, 13), (14.3, 3, 21), (23.1, 3, 13)]),
    ("5", "Ours", [(55.0, 11, 20), (100.0, 11, 11), (50.0, 12, 24), (92.3, 12, 13), (45.8, 11, 24), (84.6, 11, 13)]),
    ("complete", "Doc2KG", [(27.5, 14, 51), (43.8, 14, 32), (1.1, 1, 88), (1.8, 1, 56), (1.1, 1, 88), (1.8, 1, 56)]),
    ("complete", "AutoKG", [(56.8, 25, 44), (78.1, 25, 32), (19.6, 9, 46), (16.1, 9, 56), (19.6, 9, 46), (16.1, 9, 56)]),
    ("complete", "Ours", [(57.7, 30, 52), (93.8, 30, 32), (69.0, 49, 71), (87.5, 49, 56), (69.0, 49, 71), (87.5, 49, 56)]),
]


def test_every_published_cell_reproduces_exactly():
    checked = 0
    for unit, method, cells in PUBLISHED_TABLE:
        for printed, supported, total in cells:
            assert percent_value(supported, total) == printed, (unit, method, supported, total)
            checked += 1
    assert checked == 108


# ---------------------------------------------------------------------------
# match_nodes


def test_identical_graphs_identity_mapping():
    graph = graph_of(["a", "b", "c"], [(1, "x", 2), (2, "y", 3)])
    mapping = match(graph, graph, EXACT)
    assert mapping == {"n01": "n01", "n02": "n02", "n03": "n03"}


def test_exact_matching_normalizes_labels():
    predicted = loaded(graph_of(["Radical Prostatectomy."]))
    reference = loaded(graph_of(["radical prostatectomy"], prefix="r"))
    assert match(predicted, reference, EXACT) == {"n01": "r01"}


def test_mapping_is_injective_with_duplicate_labels():
    predicted = graph_of(["state", "state"])
    reference = graph_of(["state"], prefix="r")
    mapping = match(predicted, reference, EXACT)
    assert len(mapping) == 1


def _optimal_assignment_size(pred_labels, ref_labels, sims, threshold):
    best = 0
    indices = range(len(ref_labels))
    for count in range(min(len(pred_labels), len(ref_labels)), 0, -1):
        for pred_subset in itertools.permutations(range(len(pred_labels)), count):
            for ref_subset in itertools.permutations(indices, count):
                if all(sims[(p, r)] >= threshold
                       for p, r in zip(pred_subset, ref_subset)):
                    best = max(best, count)
                    if best == count:
                        return best
    return best


def test_embedding_threshold_matches_optimal_assignment_on_five_node_pair():
    pred_labels = ["active surveillance protocol", "radical prostatectomy",
                   "psa monitoring", "radiation therapy", "unrelated thing"]
    ref_labels = ["active surveillance protocols", "radical prostatectomy surgery",
                  "psa monitoring schedule", "watchful waiting", "bone scan"]
    predicted = graph_of(pred_labels)
    reference = graph_of(ref_labels, prefix="r")
    store = EmbeddingStore(HashingEmbeddingBackend())
    policy = MatchPolicy(MatchMode.EMBEDDING_THRESHOLD, threshold=0.8)
    mapping = match(predicted, reference, policy, store=store)
    assert len(mapping) == 2
    assert mapping["n01"] == "r01"
    assert mapping["n02"] == "r02"

    sims = {(p, r): store.cosine(pl, rl)
            for p, pl in enumerate(pred_labels)
            for r, rl in enumerate(ref_labels)}
    assert _optimal_assignment_size(pred_labels, ref_labels, sims, 0.8) == 2


def test_embedding_policy_requires_threshold():
    with pytest.raises(UsageError):
        MatchPolicy(MatchMode.EMBEDDING_THRESHOLD)


def test_oracle_verified_matching():
    class Verifier(SyntheticRuleBackend):
        def body_for(self, task, payload):
            assert task is OracleTask.FIND_DUPLICATE
            pairs = {("as protocol", "active surveillance")}
            return {"matches": [i for i, label in enumerate(payload["candidates"])
                                if (payload["candidate"], label) in pairs]}

    predicted = graph_of(["as protocol", "bone scan"])
    reference = graph_of(["active surveillance", "radiation therapy"], prefix="r")
    mapping = match(predicted, reference, MatchPolicy(MatchMode.ORACLE_VERIFIED),
                    client=make_client(Verifier()))
    assert mapping == {"n01": "r01"}


def test_oracle_policy_without_client_errors():
    graph = graph_of(["a"])
    other = graph_of(["b"], prefix="r")
    with pytest.raises(UsageError):
        match(graph, other, MatchPolicy(MatchMode.ORACLE_VERIFIED))


# ---------------------------------------------------------------------------
# score


def test_identical_graphs_score_100_everywhere():
    graph = graph_of(["a", "b", "c"], [(1, "x", 2), (2, "y", 3), (1, "z", 3)])
    report = score(graph, graph, EXACT)
    for metric in (report.node_precision, report.node_recall, report.edge_precision,
                   report.edge_recall, report.triplet_precision, report.triplet_recall):
        assert metric.percent == 100.0
        assert metric.supported == metric.total


def test_symmetry_on_random_graphs():
    rng = random.Random(5150)
    for _ in range(25):
        count = rng.randint(1, 8)
        labels = [f"state {i}" for i in range(count)]
        edges = [(s + 1, rng.choice("abc"), t + 1)
                 for s in range(count) for t in range(count)
                 if s != t and rng.random() < 0.3]
        graph = graph_of(labels, edges)
        report = score(graph, graph, EXACT)
        assert report.node_precision.percent == 100.0
        assert report.edge_recall.percent in (100.0, None)
        assert report.triplet_precision.percent in (100.0, None)


def test_edge_supported_structurally_but_triplet_needs_label():
    predicted = graph_of(["a", "b"], [(1, "if psa rising", 2)])
    reference = graph_of(["a", "b"], [(1, "different condition", 2)], prefix="r")
    report = score(predicted, reference, EXACT)
    assert report.edge_precision == MetricCount(1, 1)
    assert report.triplet_precision == MetricCount(0, 1)
    assert report.edge_recall == MetricCount(1, 1)
    assert report.triplet_recall == MetricCount(0, 1)


def test_triplet_supported_never_exceeds_edge_supported():
    rng = random.Random(808)
    for _ in range(30):
        n = rng.randint(2, 6)
        labels = [f"s{i}" for i in range(n)]
        def rand_graph(prefix):
            edges = [(s + 1, rng.choice("ab"), t + 1)
                     for s in range(n) for t in range(n)
                     if s != t and rng.random() < 0.4]
            return graph_of(labels, edges, prefix=prefix)
        report = score(rand_graph("n"), rand_graph("r"), EXACT)
        assert report.triplet_precision.supported <= report.edge_precision.supported
        assert report.triplet_recall.supported <= report.edge_recall.supported


def test_deleting_a_predicted_edge_is_monotone():
    rng = random.Random(4242)
    labels = [f"s{i}" for i in range(5)]
    edges = [(1, "a", 2), (2, "b", 3), (3, "c", 4), (4, "d", 5), (1, "e", 3)]
    predicted = graph_of(labels, edges)
    reference = graph_of(labels, edges[:4], prefix="r")
    base = score(predicted, reference, EXACT)
    for removed in list(predicted.edges):
        smaller = graph_of(labels, edges)
        smaller.remove_edge(*removed)
        after = score(smaller, reference, EXACT)
        assert after.edge_recall.supported <= base.edge_recall.supported
        assert after.triplet_recall.supported <= base.triplet_recall.supported
        assert after.edge_precision.total == base.edge_precision.total - 1


def test_empty_reference_recall_is_undefined():
    predicted = graph_of(["a"], [])
    reference = DecisionGraph()
    report = score(predicted, reference, EXACT)
    assert report.node_recall.percent is None
    assert report.edge_recall.percent is None
    assert report.node_precision.percent == 0.0


def test_report_doc_and_table_rendering():
    graph = graph_of(["a", "b"], [(1, "x", 2)])
    report = score(graph, graph, EXACT, unit_name="complete")
    doc = report.to_doc()
    assert doc["format"] == "eval-report/1"
    assert doc["nodes"]["precision"] == {"supported": 2, "total": 2, "percent": 100.0}
    table = render_table([report])
    assert "complete" in table
    assert "2/2" in table
    assert "100.0" in table


def test_render_table_shows_undefined_cells():
    report = EvalReport("empty", MetricCount(0, 0), MetricCount(0, 0),
                        MetricCount(0, 0), MetricCount(0, 0),
                        MetricCount(0, 0), MetricCount(0, 0))
    assert "undef" in render_table([report])


# ---------------------------------------------------------------------------
# agreement with the pair-loop reference

WORDS = ("active", "surveillance", "radical", "prostatectomy", "psa",
         "monitoring", "bone", "scan", "radiation", "therapy")
EDGE_TEXTS = ("if psa rising", "if psa rises", "otherwise", "if bone scan positive")


def _paraphrase(rng: random.Random, text: str) -> str:
    """Drop a word, add a word or pluralize one."""
    words = text.split()
    op = rng.randrange(3)
    if op == 0 and len(words) > 1:
        del words[rng.randrange(len(words))]
    elif op == 1:
        words.insert(rng.randrange(len(words) + 1), rng.choice(WORDS))
    else:
        words[-1] += "s"
    return " ".join(words)


def _spelling(rng: random.Random, text: str) -> str:
    """A raw spelling of `text`: random casing, whitespace and trailing punctuation."""
    words = [rng.choice((word, word.upper(), word.capitalize())) for word in text.split()]
    return (rng.choice(("", " ", "\t")) + rng.choice((" ", "  ", " \n ")).join(words)
            + rng.choice(("", "", ".", " ;", ":")))


def random_eval_pair(rng: random.Random) -> tuple[DecisionGraph, DecisionGraph]:
    """Two graphs, in raw spellings, whose labels are drawn from a few
    shared texts, so labels repeat, and half of them paraphrased, so
    similarities spread across the thresholds. Up to three parallel edges
    join a node pair, each with its own text, so no two of them load as
    one."""
    texts = [" ".join(rng.sample(WORDS, rng.randint(1, 3))) for _ in range(rng.randint(2, 6))]

    def graph(prefix: str) -> DecisionGraph:
        count = rng.randint(1, 8)
        labels = [_spelling(rng, _paraphrase(rng, text) if rng.random() < 0.5 else text)
                  for text in rng.choices(texts, k=count)]
        edges = [(s + 1, _spelling(rng, text), t + 1)
                 for s in range(count) for t in range(count) if s != t and rng.random() < 0.3
                 for text in rng.sample(EDGE_TEXTS, rng.choice((1, 1, 2, 3)))]
        return graph_of(labels, edges, prefix=prefix)

    return graph("n"), graph("r")


class FirstWordVerifier(SyntheticRuleBackend):
    """Confirms the candidates whose first word is the candidate's, after
    one out-of-range index."""

    def body_for(self, task, payload):
        first = payload["candidate"].split()[0]
        return {"matches": [len(payload["candidates"])] + [
            i for i, label in enumerate(payload["candidates"]) if label.split()[0] == first]}


@pytest.mark.parametrize("policy", [EXACT, embedding(0.3), embedding(0.5), embedding(0.7),
                                    embedding(0.9), ORACLE],
                         ids=lambda policy: f"{policy.mode.value}-{policy.threshold}")
def test_matching_and_scores_equal_the_pair_loops(policy):
    # The loops normalize raw labels themselves, so the graphs as loaded
    # must score as the raw ones do. Loading sorts the edges, and so the
    # order of the verifier's calls; those are compared on the loaded graphs.
    rng = random.Random(1313)
    beyond_exact = 0
    for _ in range(60):
        raw = random_eval_pair(rng)
        predicted, reference = map(loaded, raw)
        store = EmbeddingStore(HashingEmbeddingBackend())
        client, loop_client = make_client(FirstWordVerifier()), make_client(FirstWordVerifier())
        mapping = match(predicted, reference, policy, store, client)
        assert mapping == loop_match_nodes(*raw, policy, store, make_client(FirstWordVerifier()))
        assert mapping == loop_match_nodes(predicted, reference, policy, store, loop_client)
        beyond_exact += len(mapping) > len(match(predicted, reference, EXACT))
        report = score(predicted, reference, policy, store=store, client=client)
        assert report == loop_score(*raw, policy, store=store,
                                    client=make_client(FirstWordVerifier()))
        assert report == loop_score(predicted, reference, policy, store=store, client=loop_client)
        assert ([e["payload_digest"] for e in client.audit.entries]
                == [e["payload_digest"] for e in loop_client.audit.entries])
    # Both sides of the threshold are exercised: some similarity judgments
    # match, and (but at 0.3) fewer than all of them.
    if policy.mode is not MatchMode.EXACT_NORMALIZED:
        assert 0 < beyond_exact < 60


@pytest.mark.parametrize("policy", [EXACT, embedding(0.5), ORACLE],
                         ids=lambda policy: f"{policy.mode.value}-{policy.threshold}")
def test_a_score_keeps_nothing_for_the_next(policy):
    rng = random.Random(2718)
    pairs = [tuple(map(loaded, random_eval_pair(rng))) for _ in range(8)]

    def alone(pair):
        return score(*pair, policy, client=make_client(FirstWordVerifier()))

    reports = [alone(pair) for pair in pairs]
    assert len(set(reports)) > 1
    for (i, first), (j, second) in itertools.permutations(enumerate(pairs), 2):
        client = make_client(FirstWordVerifier())
        assert score(*first, policy, client=client) == reports[i]
        assert score(*second, policy, client=client) == reports[j]


def test_embedding_threshold_is_inclusive():
    store = placed_store({"alpha": [1.0, 0.0],
                          "beta": [3.0, 4.0]})  # cosine 3/5, exactly the double 0.6
    predicted, reference = graph_of(["alpha"]), graph_of(["beta"], prefix="r")
    assert match(predicted, reference, embedding(0.6), store) == {"n01": "r01"}
    assert match(predicted, reference, embedding(0.6000001), store) == {}


def test_score_normalizes_no_label(monkeypatch):
    # Graphs hold their labels normalized, so a score reads them as stored,
    # under every binding a module has of `normalize_label`.
    predicted = graph_of(["psa monitoring", "bone scan", "bone scans"],
                         [(1, "if rising", 2), (2, "if rising", 3), (1, "otherwise", 3)])
    reference = graph_of(["psa monitoring", "bone scan", "radiation"],
                         [(1, "if rising", 2), (2, "otherwise", 3)], prefix="r")
    calls: list[str] = []
    for module in (aggregator, builder, chunker, core, evaluation, oracle, retrieval):
        monkeypatch.setattr(module, "normalize_label", calls.append)
    for policy in (EXACT, embedding(0.5), ORACLE):
        score(predicted, reference, policy, client=make_client(FirstWordVerifier()))
    assert calls == []


# ---------------------------------------------------------------------------
# parallel labels


class ConfirmAllVerifier(SyntheticRuleBackend):
    def __init__(self) -> None:
        self.payloads: list[dict] = []

    def body_for(self, task, payload):
        self.payloads.append(payload)
        return {"matches": list(range(len(payload["candidates"])))}


def test_oracle_policy_settles_an_equal_parallel_label_without_the_verifier():
    # The predicted "if b" has an equal reference label beside "if a", so only
    # the reference "if a", which has no equal, goes to the verifier.
    predicted = loaded(graph_of(["a", "b"], [(1, "If B.", 2)]))
    reference = loaded(graph_of(["a", "b"], [(1, "if a", 2), (1, "if b", 2)], prefix="r"))
    expected = [{"candidate": "if a", "ancestors": [], "candidates": ["if b"]}]
    for scorer in (score, loop_score):
        verifier = ConfirmAllVerifier()
        report = scorer(predicted, reference, ORACLE, client=make_client(verifier))
        assert report.triplet_precision == MetricCount(1, 1)
        assert report.triplet_recall == MetricCount(2, 2)
        assert verifier.payloads == expected
