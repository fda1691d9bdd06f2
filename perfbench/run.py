"""Benchmark of the guidegraph pipeline against a seeded generator oracle.

    python3 perfbench/run.py --workload expand_dense --seed 1 --seconds 30 --trace 0

Each run drives the shipped path, `cli.run_pipeline` (manifest to
merged.json, merge_log.json, provenance.json and audit.log), on a document
generated from the seed. The one substitution is `cli.make_session`, where
the benchmark supplies its generator backend. The program receives only the
manifest, the page files and the oracle replies.

With `--trace 0` the run is measured with tracing off and the end-to-end
metrics are reported; with `--trace 1` traced and untraced runs alternate
and the per-layer metrics are reported. Either way the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The run is incorrect when an oracle dispatch fails or a run
raises, when merged.json, merge_log.json or provenance.json differ between
runs of the seed (traced runs included), when quality falls below the floor
in record.json, or when the traced stages leave more than 5% of the traced
run time unattributed. audit.log is not compared: its request-id order at
parallelism > 1 depends on thread timing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RECORD = HERE / "record.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from guidegraph import cli, core, evaluation, oracle, retrieval  # noqa: E402

from generator import GeneratorBackend, Shape, make_document, write_manifest  # noqa: E402
from layers import PER_LAYER, instrument_evaluation, instrument_pipeline, run_metrics, summarize  # noqa: E402
from stats import high_percentile  # noqa: E402
from tracer import Tracer, durations, self_times  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
IMPORT_EVERY = 4  # pipeline runs per timed import of the program
PROBE_ITERATIONS = 40_000
# Median `speed_probe` time on the 2-vCPU Xeon VM the recorded numbers come
# from; timings are reported at the machine speed where the probe takes this.
PROBE_REFERENCE_S = 0.02
EVAL_REPEATS = 15
EVAL_THRESHOLD = 0.7
DIGESTED = ("merged.json", "merge_log.json", "provenance.json")
QUALITY = ("node_precision_pct", "node_recall_pct", "triplet_precision_pct",
           "triplet_recall_pct")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import guidegraph.cli; "
                "print(time.perf_counter() - t)")

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("oracle_calls", "count"),
    ("peak_rss_mb", "MB"),
    ("node_precision_pct", "%"),
    ("node_recall_pct", "%"),
    ("triplet_precision_pct", "%"),
    ("triplet_recall_pct", "%"),
    ("eval_s", "s"),
]


@dataclass(frozen=True)
class Workload:
    shape: Shape
    latency_s: float = 0.0
    parallelism: int = 1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "expand_dense": Workload(Shape(pages=15, chunk_pages=3, width=10, depth=10, fanout=3,
                                   interface=2)),
    "merge_chain": Workload(Shape(pages=20, chunk_pages=1, width=4, depth=3, fanout=2,
                                  interface=6, paraphrase_every=2)),
    "roundtrip": Workload(Shape(pages=60, chunk_pages=4, width=3, depth=2, fanout=2,
                                interface=2, aux_every=10),
                          latency_s=0.002, parallelism=NPROC),
}


class Sessions:
    """Stands in for `cli.make_session`: generator backend, hashing embeddings.

    Keeps the last client it made so the benchmark can read its audit records.
    """

    def __init__(self, backend: GeneratorBackend) -> None:
        self.backend = backend
        self.client: oracle.OracleClient | None = None

    def __call__(self, config: cli.PipelineConfig, out_dir: Path | None):
        audit = oracle.AuditLog(out_dir / "audit.log" if out_dir is not None else None)
        self.client = oracle.OracleClient(self.backend, audit=audit,
                                          retry_limit=config.retry_limit)
        return self.client, retrieval.EmbeddingStore(retrieval.HashingEmbeddingBackend())


@dataclass
class Bench:
    manifest: Path
    backend: GeneratorBackend
    reference: core.DecisionGraph
    config: cli.PipelineConfig


def set_up(workload: Workload, seed: int, directory: Path) -> Bench:
    """Generate the document, write its pages and manifest, build the oracle."""
    document = make_document(workload.shape, seed)
    manifest = write_manifest(document, directory)
    return Bench(
        manifest=manifest,
        backend=GeneratorBackend(document, workload.latency_s),
        reference=core.graph_from_doc(document.reference),
        config=cli.PipelineConfig(
            expansion_cap=400,
            parallelism=workload.parallelism,
            backend=cli.BackendConfig(kind="live", chat_model=GeneratorBackend.name),
        ),
    )


def import_seconds() -> float:
    """Time to import the program, measured in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip())


@dataclass
class Tally:
    run_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    calls: list[int] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    dispatched: int = 0
    dispatch_errors: int = 0
    runs: int = 0
    raised: int = 0


def run_once(bench: Bench, sessions: Sessions, out_dir: Path, tally: Tally,
             timed: bool = True) -> bool:
    """One `cli.run_pipeline`; False when it raised."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sessions.client = None
    gc.collect()  # start each run without the previous run's garbage, as a fresh process would
    tally.runs += 1
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        cli.run_pipeline(bench.manifest, bench.config, out_dir)
    except Exception:  # a failed run is counted and reported, not fatal
        traceback.print_exc()
        tally.raised += 1
        return False
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    entries = sessions.client.audit.entries
    tally.dispatched += len(entries)
    tally.dispatch_errors += sum(entry["outcome"] != "ok" for entry in entries)
    digest = hashlib.sha256()
    for name in DIGESTED:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    tally.digests.add(digest.hexdigest())
    if timed:
        tally.run_s.append(wall)
        tally.cpu_s.append(cpu)
        tally.calls.append(len(entries))
    return True


def quality(bench: Bench, out_dir: Path) -> dict[str, float]:
    predicted = core.load_graph(out_dir / "merged.json")
    report = evaluation.score(predicted, bench.reference, evaluation.MatchPolicy())
    return {
        "node_precision_pct": report.node_precision.percent,
        "node_recall_pct": report.node_recall.percent,
        "triplet_precision_pct": report.triplet_precision.percent,
        "triplet_recall_pct": report.triplet_recall.percent,
    }


def embedding_policy() -> evaluation.MatchPolicy:
    return evaluation.MatchPolicy(evaluation.MatchMode.EMBEDDING_THRESHOLD, EVAL_THRESHOLD)


def speed_probe() -> float:
    """Seconds for a fixed mix of the interpreter work the pipeline does.

    Dict and string operations, hashing, small numpy products and JSON, as
    in the pipeline but in none of its code, so a change to the program
    cannot change the probe.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    vector = np.arange(256, dtype=np.float64)
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        key = f"probe label {i % 997}"
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            hashlib.blake2b(key.encode(), digest_size=8).digest()
            total += float(np.dot(vector, vector))
    json.dumps(counts, sort_keys=True)
    return time.perf_counter() - started


def timed_runs(workload: Workload, seed: int, bench: Bench, sessions: Sessions,
               work: Path, tally: Tally, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    Set-up, import and evaluation are timed between the pipeline runs, so all
    samples see the same machine load. The speed of a shared machine drifts
    by up to 2x over minutes, so a speed probe runs before every iteration
    and after the last one, and each sample's CPU time is rescaled to the
    reference speed by PROBE_REFERENCE_S over the mean of the probes around
    it. Waiting (wall time minus CPU time) is kept as measured, and so is
    the import, which runs in a child interpreter that the probe does not
    track (rescaling it doubled its spread).
    """
    out_dir = work / "run"
    predicted = core.load_graph(out_dir / "merged.json")
    setup_times: list[float] = []
    import_times: list[float] = []
    eval_times: list[float] = []
    probes = [speed_probe()]
    deadline = time.perf_counter() + seconds
    while tally.raised == 0 and (not tally.run_s or time.perf_counter() < deadline):
        if len(tally.run_s) % IMPORT_EVERY == 0:
            import_times.append(import_seconds())
        shutil.rmtree(work / "setup", ignore_errors=True)
        started = time.perf_counter()
        set_up(workload, seed, work / "setup")
        setup_times.append(time.perf_counter() - started)
        run_once(bench, sessions, out_dir, tally)
        gc.collect()
        started = time.perf_counter()
        evaluation.score(predicted, bench.reference, embedding_policy())
        eval_times.append(time.perf_counter() - started)
        probes.append(speed_probe())
    if tally.raised:
        return {}
    scale = [2.0 * PROBE_REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
    run_s = [max(0.0, wall - cpu) + cpu * k for wall, cpu, k in zip(tally.run_s, tally.cpu_s, scale)]
    high = high_percentile(run_s)
    print(f"run_s: median {statistics.median(run_s):.4f} s over {len(run_s)} runs; "
          + (f"p{high[0]:g} {high[1]:.4f} s" if high else
             "no percentile above the median has 10 samples beyond it"))
    print(f"as measured, before rescaling: run_s {statistics.median(tally.run_s):.4f} s, "
          f"cpu_s {statistics.median(tally.cpu_s):.4f} s, eval_s "
          f"{statistics.median(eval_times):.4f} s; median speed scale {statistics.median(scale):.4f}")
    return {
        "setup_s": statistics.median(import_times)
        + statistics.median(t * k for t, k in zip(setup_times, scale)),
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(cpu * k for cpu, k in zip(tally.cpu_s, scale)),
        "oracle_calls": statistics.median(tally.calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_s": statistics.median(t * k for t, k in zip(eval_times, scale)),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    workload = WORKLOADS[workload_name]
    floors = json.loads(RECORD.read_text(encoding="utf-8"))["workloads"][workload_name][
        "quality_floor"]
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = set_up(workload, seed, work / "doc")
    sessions = Sessions(bench.backend)
    tally = Tally()
    original_make_session = vars(cli)["make_session"]
    cli.make_session = sessions
    problems: list[str] = []
    try:
        if run_once(bench, sessions, work / "run", tally, timed=False):  # warm-up
            if trace:
                metrics = traced_runs(bench, sessions, work / "run", tally, seconds, problems,
                                      WORK / f"spans-{workload_name}.tsv")
            else:
                metrics = timed_runs(workload, seed, bench, sessions, work, tally, seconds)
    finally:
        cli.make_session = original_make_session

    if tally.raised:
        metrics = {}
        problems.append(f"{tally.raised} of {tally.runs} runs raised")
    else:
        scores = quality(bench, work / "run")
        for name in QUALITY:
            if scores[name] is None or scores[name] < floors[name]:
                problems.append(f"{name} {scores[name]} below the recorded {floors[name]}")
        if not trace:
            metrics.update(scores)
    if tally.dispatch_errors:
        problems.append(f"{tally.dispatch_errors} oracle dispatches did not end ok")
    if len(tally.digests) > 1:
        problems.append(f"{len(tally.digests)} different digests of {', '.join(DIGESTED)}")
    shutil.rmtree(work, ignore_errors=True)

    attempted = tally.dispatched + tally.runs
    failed = tally.dispatch_errors + tally.raised
    units = {name: unit for name, unit, _ in PER_LAYER} if trace else dict(END_TO_END)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:<42} {metrics[name]:>14.6g} {unit}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    return {
        "correct": not problems and set(units) <= set(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def traced_runs(bench: Bench, sessions: Sessions, out_dir: Path, tally: Tally,
                seconds: float, problems: list[str], spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced runs; per-layer metrics of the traced ones."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_run: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while tally.raised == 0 and (not per_run or time.perf_counter() < deadline):
        if not run_once(bench, sessions, out_dir, tally):
            break
        untraced.append(tally.run_s[-1])
        tracer.next_run()
        instrument_pipeline(tracer)
        try:
            ok = run_once(bench, sessions, out_dir, tally)
        finally:
            tracer.restore()
        if not ok:
            break
        traced.append(tally.run_s[-1])
        metrics = run_metrics(tracer.runs[-1], tracer.counts, sessions.client.audit.entries)
        metrics["trace.unattributed_pct"] = 100.0 * metrics.pop("trace.unattributed_s") / traced[-1]
        per_run.append(metrics)
    if not per_run:
        return {}
    tracer.write(spans_path)

    summary = summarize(per_run, tracer)
    summary["trace.run_s"] = statistics.median(traced)
    summary["trace.overhead_s"] = summary["trace.run_s"] - statistics.median(untraced)
    if summary["trace.unattributed_pct"] > 5.0:
        problems.append(f"stage spans leave {summary['trace.unattributed_pct']:.1f}% "
                        "of the traced run_s unattributed")

    predicted = core.load_graph(out_dir / "merged.json")
    eval_tracer = Tracer()
    pairs = []
    instrument_evaluation(eval_tracer)
    try:
        for _ in range(EVAL_REPEATS):
            eval_tracer.next_run()
            evaluation.score(predicted, bench.reference, embedding_policy())
            pairs.append(eval_tracer.counts["evaluation.cosine_pairs"])
    finally:
        eval_tracer.restore()
    summary["evaluation.match_nodes_s"] = statistics.median(
        self_times(spans)["evaluation.match_nodes"] for spans in eval_tracer.runs)
    summary["evaluation.cosine_pairs"] = statistics.median(pairs)
    print(f"tracing overhead: {summary['trace.overhead_s']:.4f} s per run "
          f"({len(per_run)} traced and {len(untraced)} untraced runs); percentiles pooled over "
          f"{sum(len(durations(s, 'builder.build_graph')) for s in tracer.runs)} build_graph "
          f"and {sum(len(durations(s, 'oracle.dispatch')) for s in tracer.runs)} dispatch spans")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"guidegraph was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
