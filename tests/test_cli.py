from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import pytest

from synth import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    SYNTHETIC_DIR,
    JitterBackend,
    SyntheticRuleBackend,
    synthetic_config,
    write_synthetic_document,
)

from guidegraph import chunker, cli
from guidegraph.core import (
    DecisionGraph,
    DecisionNode,
    NodeKind,
    canonical_json,
    load_graph,
)
from guidegraph.errors import ExpansionBudgetExceeded, ManifestError, UsageError
from guidegraph.oracle import (
    AuditLog,
    FixtureSet,
    OracleClient,
    OracleTask,
    ScriptedBackend,
    payload_digest,
)
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend


def write_manifest(tmp_path: Path, pages: list[dict], fmt: str = "page-manifest/1") -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": fmt, "pages": pages}), encoding="utf-8")
    return path


def write_page(tmp_path: Path, name: str, text: str) -> str:
    (tmp_path / name).write_text(text, encoding="utf-8")
    return name


# ---------------------------------------------------------------------------
# ingest


def test_ingest_loads_pages_in_index_order(tmp_path):
    entries = []
    for i in (1, 2, 3, 4, 5, 6, 7):
        entries.append({"index": i, "text_path": write_page(tmp_path, f"p{i}.txt", f"text {i}")})
    records = cli.ingest(write_manifest(tmp_path, entries))
    assert [r.index for r in records] == [1, 2, 3, 4, 5, 6, 7]
    assert records[2].text == "text 3"


def test_ingest_rejects_image_only_page(tmp_path):
    entries = [{"index": 1, "image_path": "scan1.png"}]
    with pytest.raises(ManifestError, match="page 1"):
        cli.ingest(write_manifest(tmp_path, entries))


def test_ingest_sorts_out_of_order_indices_with_warning(tmp_path, caplog):
    entries = [
        {"index": 2, "text_path": write_page(tmp_path, "b.txt", "second")},
        {"index": 1, "text_path": write_page(tmp_path, "a.txt", "first")},
    ]
    with caplog.at_level("WARNING"):
        records = cli.ingest(write_manifest(tmp_path, entries))
    assert [r.index for r in records] == [1, 2]
    assert any("out of order" in message for message in caplog.messages)


def test_ingest_rejects_missing_text_file(tmp_path):
    entries = [{"index": 1, "text_path": "missing.txt"}]
    with pytest.raises(ManifestError, match="page 1"):
        cli.ingest(write_manifest(tmp_path, entries))


def test_ingest_rejects_empty_text_without_image(tmp_path):
    entries = [{"index": 1, "text_path": write_page(tmp_path, "p1.txt", "   \n")}]
    with pytest.raises(ManifestError, match="empty text"):
        cli.ingest(write_manifest(tmp_path, entries))


def test_ingest_accepts_empty_text_with_image(tmp_path):
    (tmp_path / "scan.png").write_bytes(b"\x89PNG")
    entries = [{"index": 1, "text_path": write_page(tmp_path, "p1.txt", ""),
                "image_path": "scan.png"}]
    records = cli.ingest(write_manifest(tmp_path, entries))
    assert records[0].image_ref.endswith("scan.png")


def test_ingest_rejects_unreadable_image(tmp_path):
    entries = [{"index": 1, "text_path": write_page(tmp_path, "p1.txt", "text"),
                "image_path": "missing.png"}]
    with pytest.raises(ManifestError, match="page 1: cannot read image file missing.png"):
        cli.ingest(write_manifest(tmp_path, entries))


def test_image_page_payload_digest_is_location_free(tmp_path, monkeypatch):
    doc = tmp_path / "doc"
    doc.mkdir()
    (doc / "scan.png").write_bytes(b"\x89PNG first")
    manifest = write_manifest(doc, [{"index": 1, "text_path": write_page(doc, "p1.txt", ""),
                                     "image_path": "scan.png"}])

    def digest(manifest_path: Path) -> str:
        payload = chunker.profile_payload(cli.ingest(manifest_path))
        assert payload["pages"][0]["image_ref"] == "scan.png"
        return payload_digest(OracleTask.EXTRACT_PROFILE, payload)

    absolute = digest(manifest.resolve())
    monkeypatch.chdir(tmp_path)
    assert digest(Path("doc") / "manifest.json") == absolute
    (doc / "scan.png").write_bytes(b"\x89PNG second")
    assert digest(Path("doc") / "manifest.json") != absolute


def test_ingest_rejects_duplicate_and_noncontiguous_indices(tmp_path):
    text = write_page(tmp_path, "p.txt", "t")
    with pytest.raises(ManifestError, match="duplicate"):
        cli.ingest(write_manifest(tmp_path, [{"index": 1, "text_path": text},
                                             {"index": 1, "text_path": text}]))
    with pytest.raises(ManifestError, match="contiguous"):
        cli.ingest(write_manifest(tmp_path, [{"index": 1, "text_path": text},
                                             {"index": 3, "text_path": text}]))


def test_ingest_rejects_bad_format_and_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="format"):
        cli.ingest(write_manifest(tmp_path, [], fmt="nope/9"))
    with pytest.raises(ManifestError, match="not found"):
        cli.ingest(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# export


def test_export_dot_minimal_graph():
    graph = DecisionGraph()
    graph.add_node(DecisionNode("a", "start", NodeKind.ENTRY, 1))
    graph.add_node(DecisionNode("b", "stop", NodeKind.TERMINAL, 1))
    graph.add_edge("a", "go", "b")
    dot = cli.export_dot(graph)
    assert dot.startswith("digraph decision_graph {")
    assert '"a" [label="start", shape=ellipse];' in dot
    assert '"b" [label="stop", shape=doubleoctagon];' in dot
    assert '"a" -> "b" [label="go"];' in dot


def test_export_dot_empty_graph_is_valid():
    dot = cli.export_dot(DecisionGraph())
    assert dot == "digraph decision_graph {\n  rankdir=LR;\n}\n"


def test_export_dot_escapes_quotes():
    graph = DecisionGraph()
    graph.add_node(DecisionNode("a", 'psa "high"', NodeKind.INTERMEDIATE, 1))
    assert '\\"high\\"' in cli.export_dot(graph)


def test_export_golden_merged_dot_matches():
    merged = load_graph(GOLDEN_DIR / "merged.json")
    assert cli.export_dot(merged) == (GOLDEN_DIR / "merged.dot").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# config


def test_config_validation_catches_bad_values():
    config = synthetic_config(FIXTURE_DIR)
    config.header_pages = 0
    with pytest.raises(UsageError):
        config.validate()
    with pytest.raises(UsageError):
        cli.make_session(synthetic_config(""), None)


def test_eval_needs_no_backend_under_exact_policy(tmp_path, capsys):
    code = run_cli("eval",
                   "--predicted", str(GOLDEN_DIR / "merged.json"),
                   "--reference", str(SYNTHETIC_DIR / "reference_graph.json"))
    assert code == cli.EXIT_OK
    assert "100.0" in capsys.readouterr().out


def test_config_doc_round_trip():
    config = synthetic_config(FIXTURE_DIR)
    restored = cli.PipelineConfig.from_doc(config.to_doc())
    assert restored.to_doc() == config.to_doc()


def test_config_file_plus_flag_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(canonical_json(synthetic_config(FIXTURE_DIR).to_doc()),
                           encoding="utf-8")
    parser = cli.build_parser()
    args = parser.parse_args([
        "chunk", "--manifest", "m", "--out", "o",
        "--config", str(config_path), "--chunk-budget", "123",
    ])
    config = cli._load_config(args)
    assert config.chunk_budget == 123
    assert config.backend.fixture_dir == str(FIXTURE_DIR)


# ---------------------------------------------------------------------------
# commands end to end


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def scripted_flags() -> list[str]:
    return ["--backend", "scripted", "--fixtures", str(FIXTURE_DIR)]


def test_run_command_produces_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(out), *scripted_flags(), "--expansion-cap", "50")
    assert code == cli.EXIT_OK
    for name in ("config.json", "profile.json", "chunks.json", "merged.json",
                 "merge_log.json", "provenance.json", "audit.log",
                 "expansion_trace.json"):
        assert (out / name).exists(), name
    assert sorted(p.name for p in (out / "graphs").iterdir()) == [
        "chunk_01.json", "chunk_02.json", "chunk_03.json",
    ]
    config_doc = json.loads((out / "config.json").read_text())
    assert config_doc["expansion_cap"] == 50
    assert config_doc["backend"]["kind"] == "scripted"


def test_staged_commands_equal_full_run(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    flags = scripted_flags() + ["--expansion-cap", "50"]
    assert run_cli("run", "--manifest", manifest, "--out", str(full), *flags) == 0
    assert run_cli("chunk", "--manifest", manifest, "--out", str(staged), *flags) == 0
    assert run_cli("build", "--out", str(staged), *flags) == 0
    assert run_cli("aggregate", "--out", str(staged), *flags) == 0

    compare = ["config.json", "profile.json", "chunks.json", "expansion_trace.json",
               "graphs/chunk_01.json", "graphs/chunk_02.json", "graphs/chunk_03.json",
               "merged.json", "merge_log.json", "provenance.json", "audit.log"]
    for name in compare:
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


def test_rerun_is_byte_identical(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    flags = scripted_flags() + ["--expansion-cap", "50"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("run", "--manifest", manifest, "--out", str(first), *flags) == 0
    assert run_cli("run", "--manifest", manifest, "--out", str(second), *flags) == 0
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def golden_run_files() -> list[Path]:
    """Golden files a run writes (eval_report.json and merged.dot come from eval/export)."""
    return sorted(p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*")
                  if p.is_file() and p.suffix != ".dot" and p.name != "eval_report.json")


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_relocated_fixtures_reproduce_golden_run(tmp_path, monkeypatch, relative):
    checkout = tmp_path / "elsewhere"
    shutil.copytree(FIXTURE_DIR, checkout / "fixtures")
    shutil.copytree(SYNTHETIC_DIR, checkout / "synthetic")
    root = checkout
    if relative:
        monkeypatch.chdir(checkout)
        root = Path()
    run_dir = cli.run_pipeline(root / "synthetic" / "manifest.json",
                               synthetic_config(root / "fixtures"), tmp_path / "run")

    golden_files = golden_run_files()
    assert sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file()) \
        == golden_files
    for name in golden_files:
        assert (run_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
    backend = json.loads((run_dir / "config.json").read_text())["backend"]
    assert "fixture_dir" not in backend
    assert backend["fixture_digest"] == FixtureSet.content_digest(FIXTURE_DIR)


def jitter_scripted_backend(monkeypatch, seed: int) -> None:
    """Make the scripted backend of `make_session` sleep 0-4 ms per call."""
    monkeypatch.setattr(cli, "ScriptedBackend",
                        lambda fixtures: JitterBackend(ScriptedBackend(fixtures), seed))


def run_files(run_dir: Path) -> list[Path]:
    return sorted(p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file())


@pytest.mark.parametrize("parallelism", [1, 4, 16])
def test_run_matches_golden_at_any_parallelism(tmp_path, monkeypatch, parallelism):
    jitter_scripted_backend(monkeypatch, seed=parallelism)
    config = synthetic_config(FIXTURE_DIR)
    config.parallelism = parallelism
    run_dir = cli.run_pipeline(SYNTHETIC_DIR / "manifest.json", config, tmp_path / "run")

    assert run_files(run_dir) == golden_run_files()
    for name in golden_run_files():
        if name == Path("config.json"):
            doc = json.loads((run_dir / name).read_text())
            assert doc["parallelism"] == parallelism
            doc["parallelism"] = 1
            assert canonical_json(doc) == (GOLDEN_DIR / name).read_text()
        else:
            assert (run_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_staged_commands_equal_full_run_at_parallelism_4(tmp_path, monkeypatch):
    jitter_scripted_backend(monkeypatch, seed=7)
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    flags = scripted_flags() + ["--expansion-cap", "50", "--parallelism", "4"]
    assert run_cli("run", "--manifest", manifest, "--out", str(full), *flags) == 0
    assert run_cli("chunk", "--manifest", manifest, "--out", str(staged), *flags) == 0
    assert run_cli("build", "--out", str(staged), *flags) == 0
    assert run_cli("aggregate", "--out", str(staged), *flags) == 0

    assert run_files(staged) == run_files(full)
    for name in run_files(full):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


class EndlessInChunks2And3(SyntheticRuleBackend):
    """Expansion never ends in chunk 2 (pages 3-4, whose calls are slowed)
    nor in chunk 3 (pages 6-7), so at parallelism > 1 chunk 3 trips the cap
    first in time while a serial run stops at chunk 2."""

    def complete(self, request):
        if (request.task is OracleTask.GENERATE_CHILDREN
                and "[page 4]" in request.payload["context"]):
            time.sleep(0.005)
        return super().complete(request)

    def body_for(self, task, payload):
        if task is OracleTask.GENERATE_CHILDREN and any(
                marker in payload["context"] for marker in ("[page 4]", "[page 6]")):
            return {"children": [{"label": payload["node"] + " x", "edge_label": "go"}]}
        return super().body_for(task, payload)


def test_build_failure_raises_what_a_serial_run_raises(tmp_path, monkeypatch):
    failures = {}
    logs = {}
    for parallelism in (1, 4):
        backend = JitterBackend(EndlessInChunks2And3(), seed=parallelism)

        def session(config, out_dir):
            audit = AuditLog(out_dir / "audit.log", clock=cli._StepClock())
            return (OracleClient(backend, audit=audit),
                    EmbeddingStore(HashingEmbeddingBackend()))

        monkeypatch.setattr(cli, "make_session", session)
        config = synthetic_config(FIXTURE_DIR)
        config.expansion_cap = 20
        config.parallelism = parallelism
        out = tmp_path / f"p{parallelism}"
        with pytest.raises(ExpansionBudgetExceeded) as exc_info:
            cli.run_pipeline(SYNTHETIC_DIR / "manifest.json", config, out)
        failures[parallelism] = (type(exc_info.value), str(exc_info.value))

        golden_chunk_1 = (GOLDEN_DIR / "graphs" / "chunk_01.json").read_bytes()
        assert (out / "graphs" / "chunk_01.json").read_bytes() == golden_chunk_1
        assert not (out / "graphs" / "chunk_02.json").exists()
        assert not (out / "expansion_trace.json").exists()
        logs[parallelism] = (out / "audit.log").read_text().splitlines()
        ids = [json.loads(line)["request_id"] for line in logs[parallelism]]
        assert len(ids) == backend.calls
        assert ids == [f"req-{i:06d}" for i in range(1, len(ids) + 1)]

    assert failures[1] == failures[4] == (ExpansionBudgetExceeded,
                                          "chunk 2: expansion cap 20 reached")
    # Chunk 3 ran at parallelism 4 and its records follow the serial ones.
    assert len(logs[4]) > len(logs[1])
    assert logs[4][:len(logs[1])] == logs[1]


def test_fixture_digest_tracks_fixture_content(tmp_path):
    copy = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, copy)
    assert FixtureSet.content_digest(copy) == FixtureSet.content_digest(FIXTURE_DIR)
    (copy / "classify_page.json").write_text(
        (copy / "classify_page.json").read_text() + "\n", encoding="utf-8")
    assert FixtureSet.content_digest(copy) != FixtureSet.content_digest(FIXTURE_DIR)


def test_replay_from_echoed_config(tmp_path):
    out = tmp_path / "replay"
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(out), "--config", str(GOLDEN_DIR / "config.json"),
                   "--fixtures", str(FIXTURE_DIR))
    assert code == cli.EXIT_OK
    for name in golden_run_files():
        assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_profile_command(tmp_path):
    out = tmp_path / "out"
    code = run_cli("profile", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(out), *scripted_flags())
    assert code == cli.EXIT_OK
    doc = json.loads((out / "profile.json").read_text())
    assert doc["metadata"]["title"] == "Synthetic Prostate Pathway"


def test_eval_command_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli("eval",
                   "--predicted", str(GOLDEN_DIR / "merged.json"),
                   "--reference", str(SYNTHETIC_DIR / "reference_graph.json"),
                   "--unit", "complete", "--out", str(report_path),
                   *scripted_flags())
    assert code == cli.EXIT_OK
    doc = json.loads(report_path.read_text())
    assert doc["nodes"]["recall"]["percent"] == 100.0
    assert "complete" in capsys.readouterr().out


def test_export_command_round_trip(tmp_path):
    out = tmp_path / "graph.dot"
    code = run_cli("export", "--graph", str(GOLDEN_DIR / "merged.json"),
                   "--format", "dot", "--out", str(out))
    assert code == cli.EXIT_OK
    assert out.read_text(encoding="utf-8") == (GOLDEN_DIR / "merged.dot").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_for_unknown_export_format(tmp_path):
    code = run_cli("export", "--graph", str(GOLDEN_DIR / "merged.json"),
                   "--format", "svg", "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_USAGE


def test_exit_code_for_missing_manifest(tmp_path):
    code = run_cli("run", "--manifest", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out"), *scripted_flags())
    assert code == cli.EXIT_MANIFEST


def test_exit_code_for_missing_fixture(tmp_path):
    manifest = write_synthetic_document(tmp_path / "doc")
    empty_fixtures = tmp_path / "fixtures"
    empty_fixtures.mkdir()
    code = run_cli("run", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                   "--backend", "scripted", "--fixtures", str(empty_fixtures))
    assert code == cli.EXIT_PROTOCOL


def test_exit_code_for_budget_error(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    code = run_cli("run", "--manifest", manifest, "--out", str(tmp_path / "out"),
                   *scripted_flags(), "--expansion-cap", "3")
    assert code in (cli.EXIT_BUDGET, cli.EXIT_USAGE)


def test_exit_code_for_scripted_without_fixtures(tmp_path):
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), "--backend", "scripted",
                   "--fixtures", "")
    assert code == cli.EXIT_USAGE


def test_partial_artifacts_preserved_on_failure(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", manifest, "--out", str(out),
                   *scripted_flags(), "--expansion-cap", "4")
    assert code == cli.EXIT_BUDGET
    assert (out / "chunks.json").exists()
    assert (out / "audit.log").exists()


def test_unreachable_live_backend_exits_with_transport_code(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(out), "--backend", "live",
                   "--base-url", "http://127.0.0.1:9/v1", "--chat-model", "m",
                   "--embed-model", "e", "--retry-limit", "1")
    assert code == cli.EXIT_TRANSPORT
    assert (out / "config.json").exists()
    audit_lines = (out / "audit.log").read_text().splitlines()
    assert json.loads(audit_lines[-1])["outcome"] == "transport_error"


# ---------------------------------------------------------------------------
# atomic artifact writes


def _fail_serialization(monkeypatch):
    return {"unserializable": object()}


def _fail_encoding(monkeypatch):
    return {"label": "x" * 100_000 + "\ud800"}  # a lone surrogate has no UTF-8 form


def _fail_rename(monkeypatch):
    def refuse(src, dst):
        assert Path(src).read_text(encoding="utf-8")  # the temp file was fully written
        raise OSError("rename refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    return {"new": True}


@pytest.mark.parametrize("failure", [_fail_serialization, _fail_encoding, _fail_rename])
def test_failed_write_keeps_previous_artifact_and_leaves_no_temp_file(tmp_path, monkeypatch,
                                                                      failure):
    path = tmp_path / "run" / "merged.json"
    cli._write(path, {"old": True})
    before = path.read_bytes()
    doc = failure(monkeypatch)
    with pytest.raises((TypeError, UnicodeEncodeError, OSError)):
        cli._write(path, doc)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == ["merged.json"]


def test_write_replaces_artifact_with_canonical_json(tmp_path):
    path = tmp_path / "a" / "b.json"
    cli._write(path, {"b": 1, "a": [2]})
    cli._write(path, {"z": 0})
    assert path.read_text(encoding="utf-8") == canonical_json({"z": 0})
    assert sorted(p.name for p in path.parent.iterdir()) == ["b.json"]
