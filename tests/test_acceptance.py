"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.
"""
from __future__ import annotations

import json
import random
import time

import pytest

from conftest import make_client, placed_store, ranking_pool
from oracles import (
    assert_edge_preservation,
    closure_quotient,
    exhaustive_top_k,
    impl_class_edges,
    impl_partition,
    random_universe,
    scan_runs,
)
from synth import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    SYNTHETIC_DIR,
    ClassVerifierBackend,
    EndlessChildrenBackend,
    NeverCutBackend,
    SyntheticRuleBackend,
    synthetic_config,
)
from test_chunker import PROFILE
from test_eval import PUBLISHED_TABLE

from guidegraph import cli
from guidegraph.aggregator import aggregate, merge_log_doc, union_graphs
from guidegraph.builder import build_graph
from guidegraph.chunker import extract_profile, run_chunking
from guidegraph.core import (
    Chunk,
    PageRecord,
    canonical_json,
    chunks_from_doc,
    chunks_to_doc,
    graph_from_doc,
    graph_to_doc,
    load_graph,
)
from guidegraph.errors import ExpansionBudgetExceeded
from guidegraph.evaluation import MatchMode, MatchPolicy, percent_value, score
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend, cosine_candidates


def config(**overrides):
    cfg = synthetic_config(FIXTURE_DIR)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def store():
    return EmbeddingStore(HashingEmbeddingBackend())


def test_acceptance_table_arithmetic():
    started = time.perf_counter()
    cells = 0
    for unit, method, row in PUBLISHED_TABLE:
        for printed, supported, total in row:
            assert percent_value(supported, total) == printed, (unit, method)
            cells += 1
    elapsed = time.perf_counter() - started
    assert cells >= 72
    assert elapsed < 1.0
    print(f"\nPASS table-arithmetic: {cells} S/T cells reproduce printed "
          f"percentages exactly ({elapsed:.3f}s)")


def test_acceptance_golden_pipeline(tmp_path):
    started = time.perf_counter()
    run_dir = cli.run_pipeline(SYNTHETIC_DIR / "manifest.json", config(),
                               tmp_path / "run")

    golden_files = sorted(p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*")
                          if p.is_file() and p.suffix != ".dot"
                          and p.name != "eval_report.json")
    run_files = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file())
    assert run_files == golden_files
    for name in golden_files:
        assert (run_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    merged = load_graph(run_dir / "merged.json")
    reference = graph_from_doc(json.loads(
        (SYNTHETIC_DIR / "reference_graph.json").read_text()))
    report = score(merged, reference, MatchPolicy(MatchMode.EXACT_NORMALIZED),
                   unit_name="complete")
    for metric in (report.node_precision, report.node_recall, report.edge_precision,
                   report.edge_recall, report.triplet_precision, report.triplet_recall):
        assert metric.percent == 100.0
    assert canonical_json(report.to_doc()) == (GOLDEN_DIR / "eval_report.json").read_text()
    assert cli.export_dot(merged) == (GOLDEN_DIR / "merged.dot").read_text()

    chunks = chunks_from_doc(json.loads((run_dir / "chunks.json").read_text()))
    spans = [list(c.page_span) for c in chunks]
    assert len(chunks) >= 3
    assert spans == [[2, 3], [3, 4], [6, 7]]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS golden-pipeline: byte-identical artifacts and 100% P/R at all "
          f"levels ({elapsed:.3f}s)")


def test_acceptance_aggregation_quotient_oracle():
    started = time.perf_counter()
    merges = 0
    for seed in range(200):
        chunks, graphs, label_class = random_universe(seed, max_nodes=12)
        union = union_graphs(graphs)
        result = aggregate(chunks, graphs,
                           make_client(ClassVerifierBackend(label_class)), store(),
                           config(candidate_count=12))

        def equivalent(a, b):
            return label_class.get(a.label) == label_class.get(b.label)

        oracle_classes, oracle_edges = closure_quotient(union, equivalent)
        assert impl_partition(union, result) == oracle_classes, f"seed {seed}"
        assert impl_class_edges(union, result) == oracle_edges, f"seed {seed}"
        assert_edge_preservation(union, result)
        merges += len(result.decisions)
    elapsed = time.perf_counter() - started
    assert merges > 100, "universes barely exercised merging"
    assert elapsed < 60.0
    print(f"PASS quotient-oracle: 200 seeds match the transitive-closure "
          f"construction ({merges} merges, {elapsed:.3f}s)")


def test_acceptance_merge_map_edge_preservation():
    checked = 0
    for seed in range(200, 260):
        chunks, graphs, label_class = random_universe(seed, max_nodes=12)
        union = union_graphs(graphs)
        result = aggregate(chunks, graphs,
                           make_client(ClassVerifierBackend(label_class)), store(),
                           config(candidate_count=12))
        assert_edge_preservation(union, result)
        checked += 1
    chunks = chunks_from_doc(json.loads((GOLDEN_DIR / "chunks.json").read_text()))
    graphs = [build_graph(c, make_client(SyntheticRuleBackend()), store(), config()).graph
              for c in chunks]
    union = union_graphs(graphs)
    result = aggregate(chunks, graphs, make_client(SyntheticRuleBackend()), store(),
                       config())
    assert_edge_preservation(union, result)
    print(f"PASS edge-preservation: union edges equal output plus logged "
          f"self-loops on {checked + 1} aggregation runs")


def test_acceptance_termination():
    cap = 17
    chunk = Chunk(1, "ctx", ("start here",), ("never reached",), "d", (), (1,))
    client = make_client(EndlessChildrenBackend())
    with pytest.raises(ExpansionBudgetExceeded):
        build_graph(chunk, client, store(), config(expansion_cap=cap))
    # the cap admits the terminal and cap - 1 nodes that each asked for children
    assert [e["task"] for e in client.audit.entries].count("generate_children") == cap - 1

    budget = 90
    docs = [PageRecord(index=i, text=f"entry p{i} terminal p{i} " + "word " * 10)
            for i in range(1, 13)]
    chunks = run_chunking(docs, PROFILE, config(chunk_budget=budget),
                          make_client(NeverCutBackend()))
    assert len(chunks) > 1
    by_index = {p.index: p for p in docs}
    for chunk_out in chunks:
        assert len("\n".join(by_index[i].text for i in chunk_out.page_span)) <= 2 * budget
    print(f"PASS termination: cap stops expansion at exactly {cap} nodes and "
          f"never-cut chunking respects the 2L override")


def test_acceptance_determinism(tmp_path):
    combos = 0
    manifest = SYNTHETIC_DIR / "manifest.json"
    pages = cli.ingest(manifest)
    fixtures_cfg = config()

    def scripted():
        client, _ = cli.make_session(fixtures_cfg, None)
        return client

    # 1. profile and chunking stages
    header = pages[: fixtures_cfg.header_pages]
    profile = extract_profile(header, scripted())
    assert extract_profile(header, scripted()) == profile
    first = run_chunking(pages, profile, fixtures_cfg, scripted())
    second = run_chunking(pages, profile, fixtures_cfg, scripted())
    assert canonical_json(chunks_to_doc(first)) == canonical_json(chunks_to_doc(second))
    combos += 1

    # 2. per-chunk build stage (every chunk)
    for chunk in first:
        a = build_graph(chunk, scripted(), store(), fixtures_cfg).graph
        b = build_graph(chunk, scripted(), store(), fixtures_cfg).graph
        assert canonical_json(graph_to_doc(a)) == canonical_json(graph_to_doc(b))
    combos += 1

    # 3. aggregation stage
    graphs = [build_graph(c, scripted(), store(), fixtures_cfg).graph
              for c in first]
    agg_a = aggregate(first, graphs, scripted(), store(), fixtures_cfg)
    agg_b = aggregate(first, graphs, scripted(), store(), fixtures_cfg)
    assert canonical_json(graph_to_doc(agg_a.graph)) == canonical_json(
        graph_to_doc(agg_b.graph))
    assert canonical_json(merge_log_doc(agg_a)) == canonical_json(merge_log_doc(agg_b))
    combos += 1

    # 4. full pipeline through the CLI, whole directory
    first_dir = cli.run_pipeline(manifest, config(), tmp_path / "a")
    second_dir = cli.run_pipeline(manifest, config(), tmp_path / "b")
    names = sorted(p.relative_to(first_dir) for p in first_dir.rglob("*") if p.is_file())
    for name in names:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
    combos += 1

    # 5. evaluation
    merged = load_graph(first_dir / "merged.json")
    reference = graph_from_doc(json.loads(
        (SYNTHETIC_DIR / "reference_graph.json").read_text()))
    report_a = score(merged, reference, MatchPolicy(MatchMode.EXACT_NORMALIZED))
    report_b = score(merged, reference, MatchPolicy(MatchMode.EXACT_NORMALIZED))
    assert canonical_json(report_a.to_doc()) == canonical_json(report_b.to_doc())
    combos += 1

    # 6. export
    assert cli.export_dot(merged) == cli.export_dot(load_graph(second_dir / "merged.json"))
    combos += 1
    print(f"PASS determinism: {combos} stage/fixture combinations byte-identical")


def test_acceptance_retrieval_oracle():
    started = time.perf_counter()
    rng = random.Random(11)
    cases = 0
    for _ in range(1000):
        size = rng.randint(1, 8)
        placed = {}
        pool = {}
        vectors = {}
        for i in range(size):
            node_id = f"n{i:02d}"
            label = f"pool label {i}"
            vec = [rng.uniform(-1, 1) for _ in range(5)]
            while all(abs(x) < 1e-9 for x in vec):
                vec = [rng.uniform(-1, 1) for _ in range(5)]
            placed[label] = vec
            pool[node_id] = label
            vectors[node_id] = vec
        query_vec = [rng.uniform(-1, 1) for _ in range(5)]
        while all(abs(x) < 1e-9 for x in query_vec):
            query_vec = [rng.uniform(-1, 1) for _ in range(5)]
        placed["the query"] = query_vec
        vector_store = placed_store(placed)
        k = rng.randint(1, 8)

        result = cosine_candidates("the query", ranking_pool(vector_store, pool), k)
        expected = exhaustive_top_k(query_vec, vectors, k)
        assert [(n, label) for n, label, _ in result] == [(n, pool[n]) for n, _ in expected]
        for (_, _, got), (_, want) in zip(result, expected):
            assert abs(got - want) < 1e-9
            assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9

        shuffled_items = list(pool.items())
        rng.shuffle(shuffled_items)
        again = cosine_candidates("the query", ranking_pool(vector_store, dict(shuffled_items)), k)
        assert again == result
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 1000
    print(f"PASS retrieval-oracle: {cases} random pools match exhaustive sort "
          f"with stable tie-breaks ({elapsed:.3f}s)")


def test_acceptance_chunking_structure():
    from test_chunker import ProceduralBackend

    from guidegraph.chunker import contiguous_runs

    rng = random.Random(77)
    runs_checked = 0
    for _ in range(120):
        indices = sorted(rng.sample(range(1, 50), rng.randint(0, 25)))
        assert [list(run) for run in contiguous_runs(indices)] == scan_runs(indices)
        runs_checked += 1

    docs_checked = 0
    for _ in range(100):
        count = rng.randint(1, 12)
        docs = [PageRecord(index=i, text=f"entry p{i} terminal p{i} body {i}")
                for i in range(1, count + 1)]
        classes = {i: rng.choice(["core", "auxiliary"]) for i in range(1, count + 1)}
        cuts = {i: rng.random() < 0.4 for i in range(1, count + 1)}
        carry_last = {i: rng.random() < 0.5 for i in range(1, count + 1)}
        chunks = run_chunking(docs, PROFILE, config(),
                              make_client(ProceduralBackend(classes, cuts, carry_last)))
        core_pages = {i for i, label in classes.items() if label == "core"}
        runs = [set(r) for r in scan_runs(sorted(core_pages))]
        covered = set()
        for chunk in chunks:
            span = set(chunk.page_span)
            covered |= span
            assert span <= core_pages
            assert any(span <= run for run in runs)
        assert covered == core_pages
        by_run: dict[int, list] = {}
        for chunk in chunks:
            run_idx = next(i for i, run in enumerate(runs) if set(chunk.page_span) <= run)
            by_run.setdefault(run_idx, []).append(chunk)
        for siblings in by_run.values():
            for earlier, later in zip(siblings, siblings[1:]):
                assert set(earlier.page_span) & set(later.page_span) == set(
                    earlier.carried_pages)
        docs_checked += 1
    print(f"PASS chunking-structure: {runs_checked} run partitions match the scan "
          f"oracle and {docs_checked} random documents satisfy coverage, "
          f"confinement, and carry containment")
