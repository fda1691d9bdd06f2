"""Tests of the benchmark itself: generator, reference graph, tracer, stats."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the program's src/ on sys.path)
import layers  # noqa: E402
from generator import Shape, make_document  # noqa: E402
from stats import high_percentile, percentile  # noqa: E402
from tracer import Tracer, inclusive_without, self_times  # noqa: E402

from guidegraph import cli  # noqa: E402

SMALL = {
    "expand_dense": run.Workload(Shape(pages=6, chunk_pages=3, width=4, depth=3, fanout=3,
                                       interface=2)),
    "roundtrip": run.Workload(Shape(pages=12, chunk_pages=4, width=2, depth=2, fanout=2,
                                    interface=2, aux_every=5),
                              latency_s=0.0005, parallelism=2),
}


def pipeline(workload: run.Workload, seed: int, directory: Path, monkeypatch):
    bench = run.set_up(workload, seed, directory / "doc")
    sessions = run.Sessions(bench.backend)
    monkeypatch.setattr(cli, "make_session", sessions)
    return bench, sessions


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_scores_100_on_every_quality_metric(name, tmp_path, monkeypatch):
    bench, sessions = pipeline(SMALL[name], 7, tmp_path, monkeypatch)
    tally = run.Tally()
    assert run.run_once(bench, sessions, tmp_path / "run", tally)
    assert tally.dispatch_errors == 0
    assert run.quality(bench, tmp_path / "run") == {name: 100.0 for name in run.QUALITY}


def test_seeds_change_labels_but_not_shape():
    shape = Shape(pages=10, chunk_pages=2, width=3, depth=2, fanout=2, interface=4,
                  aux_every=4, paraphrase_every=2)
    one, two = make_document(shape, 1), make_document(shape, 2)
    assert set(one.concept_of).isdisjoint(two.concept_of)
    assert one.page_kinds == two.page_kinds
    assert [c.pages for c in one.chunks] == [c.pages for c in two.chunks]
    assert ({i: len(t) for i, t in one.page_texts.items()}
            == {i: len(t) for i, t in two.page_texts.items()})
    for a, b in zip(one.chunks, two.chunks):
        assert [len(x) for x in a.entry_labels + a.terminal_labels] == \
               [len(x) for x in b.entry_labels + b.terminal_labels]
    ends = [[(e["source"], e["target"]) for e in doc.reference["edges"]] for doc in (one, two)]
    assert ends[0] == ends[1]
    assert ([n["kind"] for n in one.reference["nodes"]]
            == [n["kind"] for n in two.reference["nodes"]])


def test_chunk_k_terminals_are_chunk_k_plus_1_entries():
    shape = Shape(pages=4, chunk_pages=1, width=2, depth=1, fanout=2, interface=4,
                  paraphrase_every=2)
    doc = make_document(shape, 3)
    for left, right in zip(doc.chunks, doc.chunks[1:]):
        assert ([doc.concept_of[x] for x in left.terminal_labels]
                == [doc.concept_of[x] for x in right.entry_labels])
        assert left.terminal_labels != right.entry_labels  # some are paraphrased


def test_high_percentile_needs_ten_samples_beyond_it():
    assert high_percentile(list(range(19))) is None
    assert high_percentile(list(range(20)))[0] == 50.0
    assert high_percentile(list(range(39)))[0] == 50.0
    assert high_percentile(list(range(40)))[0] == 75.0
    assert high_percentile(list(range(99)))[0] == 75.0
    assert high_percentile(list(range(100)))[0] == 90.0
    assert high_percentile(list(range(1000)))[0] == 99.0
    assert high_percentile(list(range(10000)))[0] == 99.9
    assert high_percentile(list(range(1, 101))) == (90.0, 90)
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["child", 1.0, 5.0, 0],
        ["child", 3.0, 6.0, 0],
        ["write", 7.0, 8.0, 0],
    ]
    assert self_times(spans) == {"parent": 4.0, "child": 7.0, "write": 1.0}
    assert inclusive_without(spans, "parent", "write") == 9.0


def test_traced_run_restores_bindings_and_matches_untraced_digest(tmp_path, monkeypatch):
    bench, sessions = pipeline(SMALL["expand_dense"], 5, tmp_path, monkeypatch)
    tally = run.Tally()
    assert run.run_once(bench, sessions, tmp_path / "run", tally)
    modules = (cli, layers.builder, layers.aggregator, layers.chunker, layers.core,
               layers.oracle, layers.retrieval, layers.evaluation)
    before = [dict(vars(m)) for m in modules]
    classes = (layers.oracle.AuditLog, layers.retrieval.EmbeddingStore,
               layers.retrieval.HashingEmbeddingBackend, run.GeneratorBackend)
    class_before = [dict(vars(c)) for c in classes]
    tracer = Tracer()
    tracer.next_run()
    layers.instrument_pipeline(tracer)
    layers.instrument_evaluation(tracer)
    try:
        assert run.run_once(bench, sessions, tmp_path / "run", tally)
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == class_before
    assert len(tally.digests) == 1
    metrics = layers.run_metrics(tracer.runs[0], tracer.counts, sessions.client.audit.entries)
    assert metrics["builder.dequeues"] > metrics["builder.dedup_exact"] > 0
    assert metrics["oracle.retries"] == 0
    assert metrics["trace.unattributed_s"] < 0.05 * tally.run_s[-1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == layers.PER_LAYER)
    record = json.loads(run.RECORD.read_text(encoding="utf-8"))
    assert set(record["workloads"]) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_exactly_the_declared_metrics(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "expand_dense", SMALL["expand_dense"])
    original = vars(cli)["make_session"]
    result = run.measure("expand_dense", 3, 0.1, trace)
    declared = [name for name, _, _ in layers.PER_LAYER] if trace else \
        [name for name, _ in run.END_TO_END]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert sorted(result["metrics"]) == sorted(declared)
    assert vars(cli)["make_session"] is original
