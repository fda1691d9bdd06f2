"""Where the traced run wraps the program, and the per-layer metrics it reports.

Spans are recorded from the benchmark's side, at the module bindings the
program calls through: `builder.cosine_candidates` and
`aggregator.cosine_candidates` are wrapped separately, as are the two
bindings of `find_duplicate`. Hot helpers (`normalize_label`,
`register_node`, embedding lookups) are only counted.

Time metrics of the `cli` layer are a stage's wall time without its
artifact writes, so that they and `cli.write_s` split `run_s`. Every other
`*_s` metric is span self time: the span's duration minus what its child
spans cover.
"""
from __future__ import annotations

import statistics
from collections import Counter
from typing import Any

from guidegraph import aggregator, builder, chunker, cli, core, evaluation, oracle, retrieval
from guidegraph.oracle import OracleTask

from generator import GeneratorBackend
from stats import percentile
from tracer import Span, Tracer, durations, inclusive_without, self_times

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.ingest_s", "s", "lower"),
    ("cli.stage_chunk_s", "s", "lower"),
    ("cli.stage_build_s", "s", "lower"),
    ("cli.stage_aggregate_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("chunker.run_chunking_s", "s", "lower"),
    ("chunker.classify_pages_s", "s", "lower"),
    ("chunker.predict_boundary_calls", "count", "lower"),
    ("builder.build_graph_s", "s", "lower"),
    ("builder.build_graph_ms_p50", "ms", "lower"),
    ("builder.build_graph_ms_p90", "ms", "lower"),
    ("builder.generate_children_s", "s", "lower"),
    ("builder.dequeues", "count", "lower"),
    ("builder.registered_nodes", "count", "lower"),
    ("builder.dedup_exact", "count", "higher"),
    ("builder.dedup_verifier_match", "count", "higher"),
    ("builder.dedup_verifier_nomatch", "count", "lower"),
    ("builder.dedup_empty_pool", "count", "lower"),
    ("builder.exact_hit_ratio", "ratio", "higher"),
    ("retrieval.cosine_candidates_s", "s", "lower"),
    ("retrieval.cosine_candidates_builder_s", "s", "lower"),
    ("retrieval.cosine_candidates_aggregator_s", "s", "lower"),
    ("retrieval.cosine_candidates_calls", "count", "lower"),
    ("retrieval.pool_members_scored", "count", "lower"),
    ("retrieval.verifier_reach_ratio", "ratio", "higher"),
    ("retrieval.embed_calls", "count", "lower"),
    ("retrieval.embed_cache_hit_ratio", "ratio", "higher"),
    ("aggregator.aggregate_s", "s", "lower"),
    ("aggregator.find_duplicate_s", "s", "lower"),
    ("aggregator.queue_pops", "count", "lower"),
    ("aggregator.merges", "count", "higher"),
    ("aggregator.merges_exact", "count", "higher"),
    ("aggregator.merges_verifier", "count", "higher"),
    ("aggregator.requeues", "count", "lower"),
    ("aggregator.merge_ratio", "ratio", "higher"),
    ("core.merge_nodes_s", "s", "lower"),
    ("core.merge_nodes_edges_scanned", "count", "lower"),
    ("core.normalize_label_calls", "count", "lower"),
    ("core.register_node_calls", "count", "lower"),
    *[(f"oracle.calls.{task.value}", "count", "lower") for task in OracleTask],
    ("oracle.call_ms_p50", "ms", "lower"),
    ("oracle.call_ms_p99", "ms", "lower"),
    ("oracle.backend_s", "s", "lower"),
    ("oracle.overhead_s", "s", "lower"),
    ("oracle.audit_append_s", "s", "lower"),
    ("oracle.retries", "count", "lower"),
    ("evaluation.match_nodes_s", "s", "lower"),
    ("evaluation.cosine_pairs", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
]

# Modules that bind `normalize_label` and call it through that binding.
NORMALIZE_BINDINGS = (core, chunker, builder, aggregator, retrieval, evaluation)


def instrument_pipeline(tracer: Tracer) -> None:
    """Wrap the pipeline's layers; undo with `tracer.restore()`."""
    counts = tracer.counts

    def dedup(side: str):
        def after(args, kwargs, result):
            match_id, _, how = result
            if how in ("verifier", "error-degraded"):
                counts["retrieval.verifier_reached"] += 1
            if side == "builder":
                if how == "verifier":
                    how = "verifier_match" if match_id is not None else "verifier_nomatch"
                counts[f"builder.dedup_{how.replace('-', '_')}"] += 1
        return after

    def pool_scored(args, kwargs):
        query, pool = args[0], args[1]
        counts["retrieval.pool_members_scored"] += len(pool) - (query in pool)

    def built(args, kwargs, result):
        counts["builder.registered_nodes"] += sum(e["event"] == "register" for e in result.trace)

    def seeded(args, kwargs, result):
        counts["aggregator.queue_seeded"] += len(result)

    def aggregated(args, kwargs, result):
        counts["aggregator.merges"] += len(result.decisions)
        counts["aggregator.requeues"] += sum(d.requeued_primary for d in result.decisions)
        for decision in result.decisions:
            counts[f"aggregator.merges_{decision.how}"] += 1

    def edges_scanned(args, kwargs):
        counts["core.merge_nodes_edges_scanned"] += len(args[0].edges)

    for name in ("run_pipeline", "ingest", "make_session", "stage_chunk", "stage_build",
                 "stage_aggregate", "_write"):
        tracer.span(cli, name, f"cli.{name}")
    for name in ("run_chunking", "classify_pages", "predict_boundary"):
        tracer.span(chunker, name, f"chunker.{name}")
    tracer.span(builder, "build_graph", "builder.build_graph", after=built)
    tracer.span(builder, "generate_children", "builder.generate_children")
    tracer.span(builder, "find_duplicate", "builder.find_duplicate", after=dedup("builder"))
    tracer.span(builder, "cosine_candidates", "builder.cosine_candidates", before=pool_scored)
    tracer.span(aggregator, "aggregate", "aggregator.aggregate", after=aggregated)
    tracer.span(aggregator, "seed_interface_queue", "aggregator.seed_interface_queue",
                after=seeded)
    tracer.span(aggregator, "find_duplicate", "aggregator.find_duplicate",
                after=dedup("aggregator"))
    tracer.span(aggregator, "cosine_candidates", "aggregator.cosine_candidates",
                before=pool_scored)
    tracer.span(aggregator, "merge_nodes", "core.merge_nodes", before=edges_scanned)
    tracer.span(oracle, "dispatch", "oracle.dispatch")
    tracer.span(oracle.AuditLog, "append", "oracle.audit_append")
    tracer.span(GeneratorBackend, "complete", "oracle.backend")
    for module in NORMALIZE_BINDINGS:
        tracer.count(module, "normalize_label", "core.normalize_label_calls")
    tracer.count(builder, "register_node", "core.register_node_calls")
    tracer.count(retrieval.EmbeddingStore, "vector", "retrieval.vector_lookups")
    tracer.count(retrieval.HashingEmbeddingBackend, "embed_text", "retrieval.embed_calls")


def instrument_evaluation(tracer: Tracer) -> None:
    tracer.span(evaluation, "match_nodes", "evaluation.match_nodes")
    tracer.count(retrieval.EmbeddingStore, "cosine", "evaluation.cosine_pairs")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_metrics(spans: list[Span], counts: Counter,
                audit_entries: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    st = self_times(spans)

    def calls(name: str) -> int:
        return len(durations(spans, name))

    def total(name: str) -> float:
        return sum(durations(spans, name))

    dequeues = calls("builder.find_duplicate")
    ranked = calls("builder.cosine_candidates") + calls("aggregator.cosine_candidates")
    merges = counts["aggregator.merges"]
    tasks = Counter(entry["task"] for entry in audit_entries)
    metrics = {
        "cli.ingest_s": total("cli.ingest"),
        "cli.write_s": total("cli._write"),
        "chunker.run_chunking_s": st["chunker.run_chunking"],
        "chunker.classify_pages_s": st["chunker.classify_pages"],
        "chunker.predict_boundary_calls": calls("chunker.predict_boundary"),
        "builder.build_graph_s": st["builder.build_graph"],
        "builder.generate_children_s": st["builder.generate_children"],
        "builder.dequeues": dequeues,
        "builder.registered_nodes": counts["builder.registered_nodes"],
        "builder.dedup_exact": counts["builder.dedup_exact"],
        "builder.dedup_verifier_match": counts["builder.dedup_verifier_match"],
        "builder.dedup_verifier_nomatch": counts["builder.dedup_verifier_nomatch"],
        "builder.dedup_empty_pool": counts["builder.dedup_empty_pool"],
        "builder.exact_hit_ratio": _ratio(counts["builder.dedup_exact"], dequeues),
        "retrieval.cosine_candidates_builder_s": st["builder.cosine_candidates"],
        "retrieval.cosine_candidates_aggregator_s": st["aggregator.cosine_candidates"],
        "retrieval.cosine_candidates_s": st["builder.cosine_candidates"]
        + st["aggregator.cosine_candidates"],
        "retrieval.cosine_candidates_calls": ranked,
        "retrieval.pool_members_scored": counts["retrieval.pool_members_scored"],
        "retrieval.verifier_reach_ratio": _ratio(counts["retrieval.verifier_reached"], ranked),
        "retrieval.embed_calls": counts["retrieval.embed_calls"],
        "retrieval.embed_cache_hit_ratio": 1.0 - _ratio(counts["retrieval.embed_calls"],
                                                        counts["retrieval.vector_lookups"]),
        "aggregator.aggregate_s": st["aggregator.aggregate"],
        "aggregator.find_duplicate_s": st["aggregator.find_duplicate"],
        "aggregator.queue_pops": counts["aggregator.queue_seeded"] + counts["aggregator.requeues"],
        "aggregator.merges": merges,
        "aggregator.merges_exact": counts["aggregator.merges_exact"],
        "aggregator.merges_verifier": counts["aggregator.merges_verifier"],
        "aggregator.requeues": counts["aggregator.requeues"],
        "aggregator.merge_ratio": _ratio(merges, calls("aggregator.find_duplicate")),
        "core.merge_nodes_s": st["core.merge_nodes"],
        "core.merge_nodes_edges_scanned": counts["core.merge_nodes_edges_scanned"],
        "core.normalize_label_calls": counts["core.normalize_label_calls"],
        "core.register_node_calls": counts["core.register_node_calls"],
        **{f"oracle.calls.{task.value}": tasks[task.value] for task in OracleTask},
        "oracle.backend_s": total("oracle.backend"),
        "oracle.overhead_s": total("oracle.dispatch") - total("oracle.backend"),
        "oracle.audit_append_s": total("oracle.audit_append"),
        "oracle.retries": calls("oracle.backend") - calls("oracle.dispatch"),
    }
    for stage in ("stage_chunk", "stage_build", "stage_aggregate"):
        metrics[f"cli.{stage}_s"] = inclusive_without(spans, f"cli.{stage}", "cli._write")
    metrics["trace.unattributed_s"] = st["cli.run_pipeline"]
    return metrics


def summarize(per_run: list[dict[str, float]], tracer: Tracer) -> dict[str, float]:
    """Median of each per-run metric, plus percentiles pooled over all runs."""
    summary = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    builds = [d * 1000.0 for spans in tracer.runs for d in durations(spans, "builder.build_graph")]
    calls = [d * 1000.0 for spans in tracer.runs for d in durations(spans, "oracle.dispatch")]
    summary["builder.build_graph_ms_p50"] = percentile(builds, 50)
    summary["builder.build_graph_ms_p90"] = percentile(builds, 90)
    summary["oracle.call_ms_p50"] = percentile(calls, 50)
    summary["oracle.call_ms_p99"] = percentile(calls, 99)
    return summary
