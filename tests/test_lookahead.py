"""The aggregation look-ahead: which verifier calls go early, that a turn
takes its surviving plan's query unranked, and that a run leaves a serial
run's files at any parallelism, on the failure paths too, with no more calls
in flight than its parallelism."""
from __future__ import annotations

import json
import sys
import threading
from collections import deque
from pathlib import Path

import pytest

from conftest import make_client, placed_store
from synth import ClassVerifierBackend, JitterBackend, StaticBackend

from guidegraph import aggregator, builder, cli
from guidegraph.aggregator import _LookAhead, aggregate, merge_log_doc
from guidegraph.core import Chunk, DecisionGraph, DecisionNode, NodeKind
from guidegraph.errors import OracleTransportError
from guidegraph.oracle import AuditLog, OracleClient, OracleRequest
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend, RankingPool

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from generator import GeneratorBackend, Shape, make_document, write_manifest  # noqa: E402

from test_aggregator import config  # noqa: E402

# The benchmark's three workload shapes, scaled down to 112-187 calls. At
# seed 1 each sends at least four verifier calls early at parallelism 2.
SHAPES = {
    "expand_dense": Shape(pages=15, chunk_pages=3, width=3, depth=2, fanout=3, interface=2),
    "merge_chain": Shape(pages=4, chunk_pages=1, width=2, depth=1, fanout=2, interface=6,
                         paraphrase_every=2),
    "roundtrip": Shape(pages=24, chunk_pages=2, width=2, depth=1, fanout=2, interface=2,
                       aux_every=6),
}
ARTIFACTS = ("merged.json", "merge_log.json", "provenance.json", "expansion_trace.json",
             "audit.log")


class ThreadedJitter(JitterBackend):
    """A `JitterBackend` that also records the threads its calls come from."""

    def __init__(self, inner, seed: int) -> None:
        super().__init__(inner, seed)
        self.threads: set[int] = set()

    def complete(self, request: OracleRequest) -> str:
        self.threads.add(threading.get_ident())
        return super().complete(request)


@pytest.mark.parametrize("shape", SHAPES)
def test_generator_shapes_leave_the_same_files_at_any_parallelism(tmp_path, monkeypatch, shape):
    document = make_document(SHAPES[shape], seed=1)
    manifest = write_manifest(document, tmp_path / "in")
    backends: dict[int, ThreadedJitter] = {}

    def session(settings, out_dir):
        backend = backends[settings.parallelism] = ThreadedJitter(
            GeneratorBackend(document), seed=settings.parallelism)
        return (OracleClient(backend, audit=AuditLog(out_dir / "audit.log")),
                EmbeddingStore(HashingEmbeddingBackend()))

    stage_aggregate = cli.stage_aggregate
    peaks_before_aggregation: dict[int, int] = {}

    def watched_aggregate(chunks, graphs, settings, client, store, out_dir):
        # Chunk builds have all returned: from here on the backend sees only
        # the aggregation's verifier calls.
        peaks_before_aggregation[settings.parallelism] = client.backend.peak
        client.backend.peak = 0
        client.backend.threads.clear()
        return stage_aggregate(chunks, graphs, settings, client, store, out_dir)

    plans = []
    plan = _LookAhead._plan
    monkeypatch.setattr(_LookAhead, "_plan", lambda self, item: plans.append(item)
                        or plan(self, item))
    monkeypatch.setattr(cli, "make_session", session)
    monkeypatch.setattr(cli, "stage_aggregate", watched_aggregate)

    files = {}
    for parallelism in (1, 2, 4, 8):
        settings = cli.PipelineConfig(expansion_cap=400, parallelism=parallelism)
        plans.clear()
        run_dir = cli.run_pipeline(manifest, settings, tmp_path / f"p{parallelism}")
        files[parallelism] = {name: (run_dir / name).read_bytes() for name in ARTIFACTS}
        backend = backends[parallelism]
        # `parallelism` bounds the calls in flight over the whole run, any
        # overlap nested in a fanned-out item included.
        assert max(peaks_before_aggregation[parallelism], backend.peak) <= parallelism
        if parallelism == 1:
            # Width 0: nothing planned, one call at a time, each made by the loop.
            assert plans == []
            assert backend.peak == 1
            assert backend.threads == {threading.get_ident()}
        else:
            assert backend.peak >= 2
    assert all(files[parallelism] == files[1] for parallelism in (2, 4, 8))
    assert files[1]["merge_log.json"].count(b'"how"') > 0


def run_shape(tmp_path, monkeypatch, shape: str, parallelisms: tuple[int, ...]) -> list[Path]:
    """Run directories of the generator shape at each parallelism (seed 1)."""
    document = make_document(SHAPES[shape], seed=1)
    manifest = write_manifest(document, tmp_path / "in")
    monkeypatch.setattr(cli, "make_session", lambda settings, out_dir: (
        OracleClient(GeneratorBackend(document), audit=AuditLog(out_dir / "audit.log")),
        EmbeddingStore(HashingEmbeddingBackend())))
    return [cli.run_pipeline(manifest, cli.PipelineConfig(expansion_cap=400,
                                                          parallelism=parallelism),
                             tmp_path / f"p{parallelism}")
            for parallelism in parallelisms]


@pytest.mark.parametrize("shape", SHAPES)
def test_a_surviving_plan_is_the_query_its_turn_would_work_out(tmp_path, monkeypatch, shape):
    taken, stale = [], []
    reach = _LookAhead.reach

    def checked(self, item):
        survived = item in self.plans
        query = reach(self, item)
        if survived:
            taken.append(item)
            if query != self._query(item):  # worked out again from the live graph and pool
                stale.append(item)
        return query

    monkeypatch.setattr(_LookAhead, "reach", checked)
    for parallelism in (2, 4, 8):
        taken.clear()
        run_shape(tmp_path / f"p{parallelism}", monkeypatch, shape, (parallelism,))
        assert taken, f"no plan survived to its turn at parallelism {parallelism}"
        assert stale == []


@pytest.mark.parametrize("shape", SHAPES)
def test_a_turn_does_not_rank_an_item_whose_plan_survived(tmp_path, monkeypatch, shape):
    turns: list[list] = []  # [item, whether its plan survived, rankings outside a scan]
    scanning = [False]
    for module in (builder, aggregator):
        def counted(*args, rank=vars(module)["cosine_candidates"]):
            if turns and not scanning[0]:
                turns[-1][2] += 1
            return rank(*args)
        monkeypatch.setattr(module, "cosine_candidates", counted)
    reach, scan = _LookAhead.reach, _LookAhead._scan

    def reached(self, item):
        turns.append([item, item in self.plans, 0])
        return reach(self, item)

    def scanned(self):
        scanning[0] = True
        try:
            scan(self)
        finally:
            scanning[0] = False

    monkeypatch.setattr(_LookAhead, "reach", reached)
    monkeypatch.setattr(_LookAhead, "_scan", scanned)
    run_shape(tmp_path, monkeypatch, shape, (2,))
    assert any(survived for _, survived, _ in turns)
    assert [item for item, survived, ranked in turns if survived and ranked] == []


@pytest.mark.parametrize("shape", SHAPES)
def test_an_exact_aggregation_hit_builds_no_ancestor_context(tmp_path, monkeypatch, shape):
    built, exact = [], []
    capped = aggregator._capped_ancestors

    def checked(graph, node_id, store):
        node = graph.nodes[node_id]
        missed = graph.lowest_label_id(node.label, node.origin_chunk) is None
        (built if missed else exact).append(node_id)
        return capped(graph, node_id, store)

    monkeypatch.setattr(aggregator, "_capped_ancestors", checked)
    run_dirs = run_shape(tmp_path, monkeypatch, shape, (1, 4))
    assert built
    assert all(b'"how": "exact"' in (run_dir / "merge_log.json").read_bytes()
               for run_dir in run_dirs)
    assert exact == []


# ---------------------------------------------------------------------------
# The rule, on hand-built graphs. A node's label is its id unless `labels`
# names another, and its vector is the axis it is placed on, so with k = 1
# each item ranks first the node placed on its axis, ties going to the
# lower id.

AXES = ("a", "b", "c", "d")


def axis(name: str) -> list[float]:
    return [float(name == each) for each in AXES]


def union(nodes: dict[str, tuple[int, str]], labels: dict[str, str],
          edges: tuple[tuple[str, str], ...]) -> tuple[DecisionGraph, EmbeddingStore]:
    """The graph of `nodes` (id -> (chunk, axis)) and a store placing them."""
    graph = DecisionGraph()
    for node_id, (chunk, _) in nodes.items():
        graph.add_node(DecisionNode(node_id, labels.get(node_id, node_id),
                                    NodeKind.INTERMEDIATE, chunk))
    for source, target in edges:
        graph.add_edge(source, "go", target)
    store = placed_store({labels.get(node_id, node_id): axis(near)
                          for node_id, (_, near) in nodes.items()})
    return graph, store


def early_calls(nodes: dict[str, tuple[int, str]], current: str, queue: list[str],
                edges: tuple[tuple[str, str], ...] = (),
                labels: dict[str, str] | None = None) -> list[str]:
    """The items whose verifier calls one scan sends early, at parallelism
    8, while `current` is deciding."""
    graph, store = union(nodes, labels or {}, edges)
    pool = RankingPool(store)
    pool.extend([(nid, node.label, node.origin_chunk) for nid, node in graph.nodes.items()])
    client = make_client(StaticBackend('{"matches": []}'))
    with client.window(8):
        lookahead = _LookAhead(client, graph, pool, deque(queue), store,
                               config(candidate_count=1))
        lookahead.reach(current)
        lookahead._scan()
        sent = [plan.query.label for plan in lookahead.early]
        assert lookahead.close() == len(sent)
    return sent


def test_an_independent_item_gets_its_early_call():
    # x ranks a first and y ranks b first: neither decision can touch the other.
    nodes = {"x": (1, "a"), "y": (2, "b"), "a": (3, "a"), "b": (3, "b")}
    assert early_calls(nodes, "x", ["y"]) == ["y"]


def test_a_shared_in_edge_source_does_not_block():
    # Siblings under one parent: a merge of x joins x and a, never the parent.
    nodes = {"p": (1, "d"), "x": (1, "a"), "y": (1, "b"), "a": (3, "a"), "b": (3, "b")}
    assert early_calls(nodes, "x", ["y"], edges=(("p", "x"), ("p", "y"))) == ["y"]


def test_an_item_that_is_a_candidate_of_the_current_item_waits():
    nodes = {"x": (1, "a"), "y": (2, "a"), "b": (3, "b")}
    assert early_calls(nodes, "x", ["y"]) == []


def test_an_item_that_shares_a_candidate_with_the_current_item_waits():
    # x and y both rank a first (a ties with x for y, and wins on id).
    nodes = {"x": (1, "a"), "y": (2, "a"), "a": (3, "a")}
    assert early_calls(nodes, "x", ["y"]) == []


def test_an_item_with_an_in_edge_from_a_node_the_current_item_may_join_waits():
    # x ranks s first; a merge of x with s would rewire the edge into y.
    nodes = {"x": (1, "a"), "s": (2, "a"), "y": (2, "b"), "b": (3, "b")}
    assert early_calls(nodes, "x", ["y"], edges=(("s", "y"),)) == []
    assert early_calls(nodes, "x", ["y"]) == ["y"]


def test_an_exact_merge_in_between_blocks_an_item_that_reads_its_partner():
    # z makes no call: its label equals b's, so it merges with b, y's top candidate.
    nodes = {"x": (1, "a"), "z": (4, "b"), "y": (2, "b"), "a": (3, "a"), "b": (3, "b"),
             "c": (3, "c")}
    assert early_calls(nodes, "x", ["z", "y"], labels={"z": "b"}) == []
    # Labelled like c, z merges with c instead, which y does not read.
    nodes["z"] = (4, "c")
    assert early_calls(nodes, "x", ["z", "y"], labels={"z": "c"}) == ["y"]


def test_the_scan_stops_at_the_first_item_that_waits():
    nodes = {"x": (1, "a"), "y": (2, "a"), "w": (4, "b"), "b": (3, "b")}
    assert early_calls(nodes, "x", ["w"]) == ["w"]
    assert early_calls(nodes, "x", ["y", "w"]) == []


# ---------------------------------------------------------------------------
# Through `aggregate`: each chunk's first node is its one interface node, so
# the queue holds those nodes in chunk order.


def one_interface_node_chunks(nodes: dict[str, tuple[int, str]]
                              ) -> tuple[list[Chunk], list[DecisionGraph]]:
    chunks, graphs = [], []
    for chunk_id in sorted({chunk for chunk, _ in nodes.values()}):
        ids = [nid for nid, (chunk, _) in nodes.items() if chunk == chunk_id]
        graph = DecisionGraph()
        for nid in ids:
            interface = [nid, f"{nid} out"] if nid == ids[0] else []
            graph.add_node(DecisionNode(nid, nid, NodeKind.INTERMEDIATE, chunk_id,
                                        interface_labels=interface))
        graphs.append(graph)
        chunks.append(Chunk(chunk_id, "ctx", (ids[0],), (f"{ids[0]} out",), "d", (),
                            (chunk_id,)))
    return chunks, graphs


def test_a_merge_plans_again_the_items_whose_footprint_it_touches(monkeypatch):
    # x and y both rank m first, so y waits while x decides. x merges m away,
    # and y now ranks x. At v's turn y's call goes early, with the payload
    # that names x, as y's turn does.
    nodes = {"x": (1, "a"), "v": (2, "c"), "y": (3, "a"), "z": (4, "d"), "m": (4, "a"),
             "n": (4, "c")}
    verifier = ClassVerifierBackend({"x": 1, "m": 1, "y": 1})
    _, store = union(nodes, {}, ())
    sent_early: set[str] = set()
    scan = _LookAhead._scan
    monkeypatch.setattr(_LookAhead, "_scan", lambda self: scan(self) or sent_early.update(
        plan.query.label for plan in self.early))
    logs, early = [], []
    for parallelism in (1, 4):
        chunks, graphs = one_interface_node_chunks(nodes)
        client = make_client(verifier)
        sent_early.clear()
        with client.window(parallelism):
            result = aggregate(chunks, graphs, client, store, config(candidate_count=1))
        logs.append(merge_log_doc(result))
        early.append(set(sent_early))
    assert early[0] == set() and "y" in early[1]  # width 0 at parallelism 1
    assert logs[0] == logs[1]
    assert [(d["primary"], d["secondary"]) for d in logs[0]["decisions"]] == [
        ("x", "m"), ("x", "y")]


# Failure paths. The queue is x, y, w: x ranks a first, y ranks b first (so
# y's call can go early), and w ties at 0 with x and y and ranks x.

FAILURE_NODES = {"x": (1, "a"), "y": (2, "b"), "w": (3, "c"), "a": (3, "a"), "b": (3, "b")}


class HoldFirstReply:
    """Verifier that answers from `replies` (candidate -> raw reply or
    exception; no match by default). With `hold`, x's reply waits until y's
    call arrives, so y is answered only if its call went early, and y's
    waits until x has its reply, so y is in flight when x's turn ends."""

    def __init__(self, replies: dict[str, str | Exception], hold: bool) -> None:
        self.replies = replies
        self.hold = hold
        self.y_arrived = threading.Event()
        self.x_answered = threading.Event()
        self.seen: list[str] = []  # the candidate of each call, as it arrives

    def complete(self, request: OracleRequest) -> str:
        candidate = request.payload["candidate"]
        self.seen.append(candidate)
        if self.hold and candidate == "y":
            self.y_arrived.set()
            assert self.x_answered.wait(5), "x was never answered"
        reply = self.replies.get(candidate, '{"matches": []}')
        if self.hold and candidate == "x":
            assert self.y_arrived.wait(5), "y's call was not sent early"
            self.x_answered.set()
        if isinstance(reply, Exception):
            raise reply
        return reply


def run_aggregate(tmp_path, parallelism: int, replies):
    """Aggregate the failure graph; returns (backend, audit records, error)."""
    backend = HoldFirstReply(replies, hold=parallelism > 1)
    audit_path = tmp_path / f"audit-p{parallelism}.log"
    client = OracleClient(backend, audit=AuditLog(audit_path))
    chunks, graphs = one_interface_node_chunks(FAILURE_NODES)
    _, store = union(FAILURE_NODES, {}, ())
    error = None
    try:
        with client.window(parallelism):  # closes the audit file on exit
            aggregate(chunks, graphs, client, store, config(candidate_count=1))
    except OracleTransportError as exc:
        error = exc
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    return backend, records, error


def test_transport_error_with_an_early_call_in_flight_raises_the_serial_error(tmp_path):
    down = {"x": OracleTransportError("verifier down")}
    threads = set(threading.enumerate())
    _, serial, serial_error = run_aggregate(tmp_path, 1, down)
    backend, records, error = run_aggregate(tmp_path, 2, down)

    assert type(error) is type(serial_error) and str(error) == str(serial_error)
    assert [r["outcome"] for r in serial] == ["transport_error"]
    # y's early call was made, so it is audited, after x, as its turn would.
    assert len(records) == len(backend.seen) == 2
    assert records[0] == serial[0]
    assert [r["request_id"] for r in records] == ["req-000001", "req-000002"]
    assert records[1]["outcome"] == "ok"
    assert set(threading.enumerate()) <= threads


def test_protocol_error_on_an_early_call_degrades_as_in_a_serial_run(tmp_path, monkeypatch):
    hows: list[tuple[str, str]] = []
    find_duplicate = aggregator.find_duplicate

    def recorded(query, *args, **kwargs):
        result = find_duplicate(query, *args, **kwargs)
        hows.append((query.label, result[2]))
        return result

    monkeypatch.setattr(aggregator, "find_duplicate", recorded)
    bad = {"y": '{"matches": "none"}'}
    _, serial, _ = run_aggregate(tmp_path, 1, bad)
    serial_hows = list(hows)
    hows.clear()
    _, records, error = run_aggregate(tmp_path, 2, bad)

    assert error is None
    assert ("y", "error-degraded") in hows
    assert hows == serial_hows
    assert records == serial
    assert [r["outcome"] for r in records] == ["ok", "protocol_error", "ok"]
