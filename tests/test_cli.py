from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from synth import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    SYNTHETIC_DIR,
    JitterBackend,
    SyntheticRuleBackend,
    canonical_docs,
    synthetic_config,
    write_synthetic_document,
)

import guidegraph
from guidegraph import chunker, cli, evaluation, oracle
from guidegraph.core import (
    DecisionGraph,
    DecisionNode,
    NodeKind,
    canonical_json,
    graph_to_doc,
    load_graph,
)
from guidegraph.errors import ExpansionBudgetExceeded, ManifestError, UsageError
from guidegraph.oracle import (
    AuditLog,
    FixtureSet,
    OracleClient,
    OracleTask,
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


@pytest.mark.parametrize("case", ["top_level_list", "entry_not_object", "index_is_bool",
                                  "text_path_not_string", "image_path_not_string",
                                  "image_path_false", "image_path_zero", "image_path_list",
                                  "text_not_utf8", "manifest_not_utf8"])
def test_malformed_manifest_exits_with_manifest_code(tmp_path, capsys, case):
    text = write_page(tmp_path, "p1.txt", "text")
    page = {"index": 1, "text_path": text}
    if case == "index_is_bool":
        page["index"] = True
    elif case == "text_path_not_string":
        page["text_path"] = ["p1.txt"]
    elif case.startswith("image_path_"):
        page["image_path"] = {"image_path_not_string": 7, "image_path_false": False,
                              "image_path_zero": 0, "image_path_list": []}[case]
    elif case == "text_not_utf8":
        (tmp_path / "p1.txt").write_bytes(b"\xff\xfe page")
    elif case == "entry_not_object":
        page = text
    manifest = write_manifest(tmp_path, [page])
    if case == "top_level_list":
        manifest.write_text(json.dumps([page]), encoding="utf-8")
    elif case == "manifest_not_utf8":
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
    code = run_cli("chunk", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                   *scripted_flags())
    assert code == cli.EXIT_MANIFEST
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("flags", [["--match-mode", "exact"],
                                   ["--match-mode", "embedding", "--match-threshold", "0.5"]])
def test_eval_matches_no_label_without_text(tmp_path, capsys, flags):
    paths = []
    for name, labels in (("predicted", ["psa monitoring", ".", "bone scan"]),
                         ("reference", ["PSA monitoring", "...", "bone scan"])):
        graph = DecisionGraph()
        for i, label in enumerate(labels):
            graph.add_node(DecisionNode(f"n{i}", label, NodeKind.INTERMEDIATE, 0))
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(canonical_json(graph_to_doc(graph)), encoding="utf-8")
    code = run_cli("eval", "--predicted", str(paths[0]), "--reference", str(paths[1]),
                   "--out", str(tmp_path / "report.json"), *flags)
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["nodes"]["precision"] == {"supported": 2, "total": 3, "percent": 66.7}
    assert "2/3" in capsys.readouterr().out


@pytest.mark.parametrize("doc, outcome", [
    ({"chunk_budget": 0, "parallelism": -1}, None),
    ({"retry_limit": 0}, "retry_limit must be >= 1"),
    ({"backend": {"kind": "bogus"}}, "unknown backend kind 'bogus'"),
    ({"backend": {"timeout": -1}}, "backend.timeout must be finite and > 0"),
], ids=["count-settings", "retry-limit", "backend-kind", "backend-timeout"])
def test_eval_checks_only_the_settings_its_session_reads(tmp_path, capsys, doc, outcome):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = run_cli("eval", "--predicted", str(GOLDEN_DIR / "merged.json"),
                   "--reference", str(GOLDEN_DIR / "merged.json"), "--config", str(config_path))
    if outcome is None:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_USAGE
        assert outcome in capsys.readouterr().err


def test_config_doc_round_trip():
    config = synthetic_config(FIXTURE_DIR)
    restored = cli.PipelineConfig.from_doc(config.to_doc())
    assert restored.to_doc() == config.to_doc()


def test_config_from_doc_takes_exact_types_and_keeps_defaults():
    config = cli.PipelineConfig.from_doc({
        "format": "pipeline-config/1", "chunk_budget": 123,
        "backend": {"kind": "live", "timeout": 60, "fixture_digest": "ab12"},
    })
    expected = cli.PipelineConfig(chunk_budget=123,
                                  backend=cli.BackendConfig(kind="live", timeout=60.0))
    assert config == expected
    assert type(config.backend.timeout) is float
    assert cli.PipelineConfig.from_doc({}) == cli.PipelineConfig()
    # A key that names no field, such as a match setting, is ignored.
    old_echo = {"match_mode": "embedding", "match_threshold": 0.5}
    assert cli.PipelineConfig.from_doc(old_echo) == cli.PipelineConfig()
    # A number is read only as the JSON type of its field: no string, float or
    # boolean is an int, and no string or boolean is a float.
    for doc, name in (({"chunk_budget": "123"}, "chunk_budget"),
                      ({"header_pages": 2.0}, "header_pages"),
                      ({"retry_limit": True}, "retry_limit"),
                      ({"backend": {"timeout": "5"}}, "backend.timeout"),
                      ({"backend": {"timeout": True}}, "backend.timeout")):
        with pytest.raises(TypeError, match=f"^{name} must be "):
            cli.PipelineConfig.from_doc(doc)


@pytest.mark.parametrize("doc", ["[]", '{"backend": null}', '{"chunk_budget": null}', "{"])
def test_malformed_config_file_exits_with_usage_code(tmp_path, capsys, doc):
    config_path = tmp_path / "config.json"
    config_path.write_text(doc, encoding="utf-8")
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), "--config", str(config_path))
    assert code == cli.EXIT_USAGE
    assert str(config_path) in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [
    ("manifest-directory", cli.EXIT_MANIFEST),
    ("config-directory", cli.EXIT_USAGE),
    ("run-out-file", cli.EXIT_USAGE),
    ("export-out-directory", cli.EXIT_USAGE),
    ("eval-out-directory", cli.EXIT_USAGE),
])
def test_unusable_path_exits_with_its_code_naming_it(tmp_path, capsys, case, code):
    directory = tmp_path / "directory"
    directory.mkdir()
    file = tmp_path / "file"
    file.write_text("taken", encoding="utf-8")
    manifest, out = str(SYNTHETIC_DIR / "manifest.json"), str(tmp_path / "out")
    graph = str(GOLDEN_DIR / "merged.json")
    argv, named = {
        "manifest-directory": (["run", "--manifest", str(directory), "--out", out,
                                *scripted_flags()], directory),
        "config-directory": (["run", "--manifest", manifest, "--out", out,
                              "--config", str(directory)], directory),
        "run-out-file": (["run", "--manifest", manifest, "--out", str(file),
                          *scripted_flags()], file),
        "export-out-directory": (["export", "--graph", graph, "--out", str(directory)],
                                 directory),
        "eval-out-directory": (["eval", "--predicted", graph, "--reference", graph,
                                "--out", str(directory)], directory),
    }[case]
    assert run_cli(*argv) == code
    assert str(named) in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ('{"header_pages": 2.5}', "header_pages"),
    ('{"header_pages": true}', "header_pages"),
    ('{"expansion_cap": "many"}', "expansion_cap"),
    ('{"parallelism": Infinity}', "parallelism"),
    ('{"backend": {"timeout": "soon"}}', "timeout"),
    ('{"backend": {"timeout": true}}', "timeout"),
    ('{"backend": {"fixture_dir": 5}}', "fixture_dir"),
    ('{"backend": {"base_url": 5}}', "base_url"),
    ('{"backend": {"auth_env": 5}}', "auth_env"),
])
def test_bad_config_value_exits_with_usage_code_naming_the_field(tmp_path, capsys, doc, field):
    config_path = tmp_path / "config.json"
    config_path.write_text(doc, encoding="utf-8")
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), *scripted_flags(),
                   "--config", str(config_path))
    assert code == cli.EXIT_USAGE
    # `Infinity` is not JSON: the file is malformed, and the message names it.
    assert (str(config_path) if "Infinity" in doc else field) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_count_setting_past_64_bits_exits_with_usage_code_naming_the_field(tmp_path, capsys,
                                                                           source):
    # orjson reads the file's integer as a float, which `from_doc` turns back into it.
    config_path = tmp_path / "config.json"
    config_path.write_text('{"expansion_cap": 123456789012345678901234567890}',
                           encoding="utf-8")
    setting = (["--expansion-cap", str(2**64)] if source == "flag"
               else ["--config", str(config_path)])
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), *scripted_flags(), *setting)
    assert code == cli.EXIT_USAGE
    assert "expansion_cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1.5"])
def test_match_threshold_outside_unit_interval_exits_with_usage_code(tmp_path, capsys, value):
    graph = str(GOLDEN_DIR / "merged.json")
    for mode in evaluation.MatchMode:
        code = run_cli("eval", "--predicted", graph, "--reference", graph,
                       "--out", str(tmp_path / "report.json"), *scripted_flags(),
                       "--match-mode", mode.value, f"--match-threshold={value}")
        assert code == cli.EXIT_USAGE, mode
        assert "match_threshold" in capsys.readouterr().err, mode
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag", [["--match-mode", "fuzzy"], ["--match-threshold", "high"]],
                         ids=["mode", "threshold"])
def test_malformed_match_flag_exits_with_usage_code_naming_it(tmp_path, capsys, flag):
    graph = str(GOLDEN_DIR / "merged.json")
    assert run_cli("eval", "--predicted", graph, "--reference", graph, *flag) == cli.EXIT_USAGE
    assert f"argument {flag[0]}: invalid" in capsys.readouterr().err


PIPELINE_ARGV = {
    "profile": ["--manifest", "manifest.json"],
    "chunk": ["--manifest", "manifest.json"],
    "build": [],
    "aggregate": [],
    "run": ["--manifest", "manifest.json"],
}


@pytest.mark.parametrize("command, flag", [
    *[(command, flag) for command in PIPELINE_ARGV
      for flag in (["--match-mode", "exact"], ["--match-threshold", "0.5"])],
    *[("eval", [flag, "2"]) for flag in ("--header-pages", "--chunk-budget",
                                         "--candidate-count", "--expansion-cap",
                                         "--parallelism")],
], ids=lambda value: value if isinstance(value, str) else value[0].lstrip("-"))
def test_a_flag_the_command_does_not_read_exits_with_usage_code(tmp_path, capsys, command,
                                                                 flag):
    # Match settings shape only `eval`; `eval` neither chunks nor fans out.
    out = tmp_path / "out"
    graph = str(GOLDEN_DIR / "merged.json")
    argv = ([*PIPELINE_ARGV[command], "--out", str(out)] if command in PIPELINE_ARGV
            else ["--predicted", graph, "--reference", graph, "--out", str(out)])
    assert run_cli(command, *argv, *scripted_flags(), *flag) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("timeout", ["Infinity", "-Infinity", "NaN", "0", "-1"])
def test_bad_backend_timeout_exits_with_usage_code(tmp_path, capsys, timeout):
    config_path = tmp_path / "config.json"
    config_path.write_text(f'{{"backend": {{"timeout": {timeout}}}}}', encoding="utf-8")
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), *scripted_flags(),
                   "--config", str(config_path))
    assert code == cli.EXIT_USAGE
    # `NaN` and `Infinity` are not JSON: the file is malformed, and the message names it.
    named = str(config_path) if timeout.endswith(("Infinity", "NaN")) else "backend.timeout"
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("timeout", [math.inf, -math.inf, math.nan])
def test_non_finite_backend_timeout_fails_validation(timeout):
    config = cli.PipelineConfig(backend=cli.BackendConfig(timeout=timeout))
    with pytest.raises(UsageError, match="backend.timeout"):
        config.validate()


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


def test_stage_appends_after_an_audit_log_line_that_is_not_utf8(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    out = tmp_path / "out"
    assert run_cli("chunk", "--manifest", manifest, "--out", str(out), *scripted_flags()) == 0
    prior = len((out / "audit.log").read_bytes().splitlines())
    with (out / "audit.log").open("ab") as handle:
        handle.write(b"\xff\xfe damaged\n")
    assert run_cli("build", "--out", str(out), *scripted_flags()) == cli.EXIT_OK
    records = (out / "audit.log").read_bytes().splitlines()[prior + 1:]
    assert records and json.loads(records[0])["request_id"] == f"req-{prior + 2:06d}"


def test_build_from_raw_spelled_chunks_equals_build_from_normalized(tmp_path):
    # A loaded chunks.json is normalized as it loads, so a hand-written file
    # with raw spellings builds the same graphs and trace as the normalized one.
    doc = json.loads((GOLDEN_DIR / "chunks.json").read_text(encoding="utf-8"))
    for chunk in doc["chunks"]:
        chunk["entry_labels"] = [f"  {label.title()}. " for label in chunk["entry_labels"]]
        chunk["terminal_labels"] = [label.upper().replace(" ", "\t ") + ";"
                                    for label in chunk["terminal_labels"]]
    runs = {"normalized": tmp_path / "normalized", "raw": tmp_path / "raw"}
    for run_dir in runs.values():
        run_dir.mkdir()
    shutil.copy(GOLDEN_DIR / "chunks.json", runs["normalized"])
    (runs["raw"] / "chunks.json").write_text(json.dumps(doc), encoding="utf-8")
    for run_dir in runs.values():
        assert run_cli("build", "--out", str(run_dir), *scripted_flags()) == cli.EXIT_OK
    names = ["expansion_trace.json", "graphs/chunk_01.json", "graphs/chunk_02.json",
             "graphs/chunk_03.json"]
    for name in names:
        assert (runs["raw"] / name).read_bytes() == (runs["normalized"] / name).read_bytes(), name
    assert (runs["raw"] / "graphs/chunk_01.json").read_bytes() == (
        GOLDEN_DIR / "graphs/chunk_01.json").read_bytes()


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


def test_golden_run_digests_each_payload_once(tmp_path, monkeypatch):
    calls = []
    digest = oracle.payload_digest
    monkeypatch.setattr(oracle, "payload_digest", lambda task, payload, prefix=None:
                        calls.append(task) or digest(task, payload, prefix))
    run_dir = cli.run_pipeline(SYNTHETIC_DIR / "manifest.json",
                               synthetic_config(FIXTURE_DIR), tmp_path / "run")
    records = (run_dir / "audit.log").read_text().splitlines()
    assert len(calls) == len(records) == 42


def jitter_scripted_backend(monkeypatch, seed: int) -> None:
    """Make the scripted backend of `make_session` sleep 0-4 ms per call."""
    load = FixtureSet.load
    monkeypatch.setattr(FixtureSet, "load",
                        staticmethod(lambda directory: JitterBackend(load(directory), seed)))


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
            audit = AuditLog(out_dir / "audit.log")
            return (OracleClient(backend, audit=audit),
                    EmbeddingStore(HashingEmbeddingBackend()))

        monkeypatch.setattr(cli, "make_session", session)
        config = synthetic_config(FIXTURE_DIR)
        config.expansion_cap = 20
        config.parallelism = parallelism
        out = tmp_path / f"p{parallelism}"
        threads = set(threading.enumerate())
        with pytest.raises(ExpansionBudgetExceeded) as exc_info:
            cli.run_pipeline(SYNTHETIC_DIR / "manifest.json", config, out)
        failures[parallelism] = (type(exc_info.value), str(exc_info.value))
        assert set(threading.enumerate()) == threads  # the window stopped its threads

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


def _python(*args: str, **environ: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package under test.

    The child sees `OPENBLAS_NUM_THREADS` only when `environ` sets it.
    """
    package_root = Path(guidegraph.__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=str(package_root))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=env)


# Prints the BLAS thread setting, the process's OS thread count (None off
# Linux) and which modules a start-up has no use for got loaded.
COLD_START_PROBE = """
import json, os, sys
import guidegraph.cli
unused = {'requests', 'urllib3', 'charset_normalizer', 'guidegraph.live', 'decimal'}
threads = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None
print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads, sorted(unused & set(sys.modules))]))
"""


@pytest.mark.parametrize("prelude, environ, blas", [
    ("", {}, "1"),
    ("", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ("import numpy\n", {}, None),
], ids=["default", "user-setting", "numpy-first"])
def test_a_cold_start_runs_one_thread_and_loads_no_unused_module(prelude, environ, blas):
    done = _python("-c", prelude + COLD_START_PROBE, **environ)
    assert done.returncode == 0, done.stderr
    setting, threads, unused = json.loads(done.stdout)
    assert setting == blas
    assert unused == []
    if blas == "1" and threads is not None:
        assert threads == 1


def test_scripted_run_eval_and_export_need_no_requests(tmp_path):
    commands = [
        ["run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"), "--out", str(tmp_path / "run"),
         *scripted_flags(), "--expansion-cap", "50"],
        ["eval", "--predicted", str(tmp_path / "run" / "merged.json"),
         "--reference", str(SYNTHETIC_DIR / "reference_graph.json"), "--unit", "complete",
         "--out", str(tmp_path / "report.json")],
        ["export", "--graph", str(tmp_path / "run" / "merged.json"), "--out",
         str(tmp_path / "merged.dot")],
    ]
    done = _python("-c", "import json, sys\n"
                         "sys.modules['requests'] = None  # an import of requests raises\n"
                         "from guidegraph import cli\n"
                         "for argv in json.loads(sys.argv[1]):\n"
                         "    if cli.main(argv):\n"
                         "        sys.exit(f'{argv[0]} failed')\n",
                   json.dumps(commands))
    assert done.returncode == 0, done.stderr
    for name, golden in (("run/merged.json", "merged.json"), ("report.json", "eval_report.json"),
                         ("merged.dot", "merged.dot")):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / golden).read_bytes(), name


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
    assert code == cli.EXIT_TRANSPORT


def test_fixture_set_missing_one_entry_exits_with_transport_code(tmp_path):
    # A missing reply is never degraded into a fallback (here: an auxiliary page).
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, fixtures)
    path = fixtures / "classify_page.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["entries"][0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"), "--out", str(out),
                   "--backend", "scripted", "--fixtures", str(fixtures))
    assert code == cli.EXIT_TRANSPORT
    assert not (out / "merged.json").exists()
    audit = (out / "audit.log").read_text(encoding="utf-8")
    outcomes = [json.loads(line)["outcome"] for line in audit.splitlines()]
    assert outcomes.count("transport_error") == 1
    assert "protocol_error" not in outcomes


@pytest.mark.parametrize("command", ["chunk", "run"])
def test_chunking_failure_leaves_the_profile_the_profile_stage_wrote(tmp_path, command):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, fixtures)
    (fixtures / "classify_page.json").unlink()
    out = tmp_path / "out"
    code = run_cli(command, "--manifest", str(SYNTHETIC_DIR / "manifest.json"), "--out", str(out),
                   "--backend", "scripted", "--fixtures", str(fixtures))
    assert code == cli.EXIT_TRANSPORT
    assert (out / "profile.json").read_bytes() == (GOLDEN_DIR / "profile.json").read_bytes()
    assert not (out / "chunks.json").exists()


def _fixture_doc(task: str = "generate_children", entry: dict | None = None,
                 fmt: str = "oracle-fixtures/1") -> str:
    entry = {"key_digest": "0" * 64, "response_body": {"children": []}} if entry is None else entry
    return json.dumps({"format": fmt, "task": task, "entries": [entry]})


@pytest.mark.parametrize("content", [
    "{not json",
    "[]",
    _fixture_doc(task="summon_dragon"),
    _fixture_doc(entry={"response_body": {"children": []}}),
    _fixture_doc(entry={"key_digest": "0" * 64}),
    _fixture_doc(fmt="oracle-fixtures/999"),
    "directory",
    None,
], ids=["not-json", "list", "unknown-task", "no-key-digest", "no-response-body", "format",
        "directory", "missing-directory"])
def test_malformed_fixture_directory_exits_with_usage_code_naming_it(tmp_path, capsys,
                                                                     content):
    fixtures = tmp_path / "fixtures"
    if content is None:
        named = fixtures
    else:
        shutil.copytree(FIXTURE_DIR, fixtures)
        named = fixtures / "generate_children.json"
        if content == "directory":
            named.unlink()
            named.mkdir()
        else:
            named.write_text(content, encoding="utf-8")
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), "--backend", "scripted",
                   "--fixtures", str(fixtures))
    assert code == cli.EXIT_USAGE
    assert str(named) in capsys.readouterr().err


def test_export_takes_no_pipeline_flags(tmp_path):
    code = run_cli("export", "--graph", str(GOLDEN_DIR / "merged.json"),
                   "--out", str(tmp_path / "x.dot"), "--chunk-budget", "5")
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "x.dot").exists()


def test_exit_code_for_budget_error(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    code = run_cli("run", "--manifest", manifest, "--out", str(tmp_path / "out"),
                   *scripted_flags(), "--expansion-cap", "3")
    assert code in (cli.EXIT_BUDGET, cli.EXIT_USAGE)


def test_embedding_without_one_axis_exits_with_structural_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(HashingEmbeddingBackend, "embed_texts",
                        lambda self, texts: [[[1.0, 0.0, 0.0, 0.0]]] * len(texts))
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), *scripted_flags())
    assert code == cli.EXIT_STRUCTURAL
    assert "has shape (1, 4), not one axis" in capsys.readouterr().err


def test_exit_code_for_scripted_without_fixtures(tmp_path):
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"),
                   "--out", str(tmp_path / "out"), "--backend", "scripted",
                   "--fixtures", "")
    assert code == cli.EXIT_USAGE


def _golden_chunks_with_interface(entry: list[str], terminal: list[str]) -> str:
    """The golden chunks.json with chunk 1's interface replaced."""
    doc = json.loads((GOLDEN_DIR / "chunks.json").read_text(encoding="utf-8"))
    doc["chunks"][0].update(entry_labels=entry, terminal_labels=terminal)
    return json.dumps(doc)


def _golden_chunks_with_ids(ids: list[int]) -> str:
    """The golden chunks.json with its chunks renumbered."""
    doc = json.loads((GOLDEN_DIR / "chunks.json").read_text(encoding="utf-8"))
    for chunk, chunk_id in zip(doc["chunks"], ids, strict=True):
        chunk["chunk_id"] = chunk_id
    return json.dumps(doc)


def _golden_with(name: str, entries: str, key: str, value, directory: Path = GOLDEN_DIR) -> str:
    """The golden file `name` with `key` of its first chunk, node or fixture
    entry set to `value`."""
    doc = json.loads((directory / name).read_text(encoding="utf-8"))
    doc[entries][0][key] = value
    return json.dumps(doc)


def _golden_merged_ref_origin(value) -> str:
    """The golden merged.json with the first merged-from reference's
    `origin_chunk` set to `value`."""
    doc = json.loads((GOLDEN_DIR / "merged.json").read_text(encoding="utf-8"))
    next(node for node in doc["nodes"] if node["merged_from"])["merged_from"][0][
        "origin_chunk"] = value
    return json.dumps(doc)


GRAPH_WITH_DANGLING_EDGE = json.dumps({"format": "decision-graph/1", "nodes": [], "edges": [
    {"source": "a", "label": "go", "target": "b"}]})


@pytest.mark.parametrize("command, artifact, content", [
    ("build", "chunks.json", '{"format": "chunk-list/999", "chunks": []}'),
    ("build", "chunks.json", None),
    ("build", "chunks.json", _golden_chunks_with_interface(
        ["suspected prostate cancer"], ["Repeat Biopsy", "repeat biopsy."])),
    ("build", "chunks.json", _golden_chunks_with_interface(["MRI"], ["mri."])),
    ("build", "chunks.json", _golden_chunks_with_interface(["suspected prostate cancer"], ["..."])),
    ("build", "chunks.json", _golden_chunks_with_ids([1, 1, 3])),
    # A string where a list belongs would read as a list of its characters.
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "entry_labels", "mri")),
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "carried_pages", "23")),
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "context", 7)),
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "description", None)),
    # An integer field takes no fraction, numeric string or boolean.
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "page_span", [2.2, 3.9])),
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "carried_pages", ["3"])),
    ("build", "chunks.json", _golden_with("chunks.json", "chunks", "chunk_id", True)),
    # A fixture digest that is not a string would match no request.
    ("build", "fixtures/extract_profile.json",
     _golden_with("extract_profile.json", "entries", "key_digest", 12345, FIXTURE_DIR)),
    ("aggregate", "graphs/chunk_02.json", "{not json"),
    ("aggregate", "graphs/chunk_03.json", None),
    ("aggregate", "graphs/chunk_01.json",
     _golden_with("graphs/chunk_01.json", "nodes", "provenance_pages", "23")),
    ("aggregate", "graphs/chunk_01.json",
     _golden_with("graphs/chunk_01.json", "nodes", "interface_labels", "low-risk group")),
    ("aggregate", "graphs/chunk_01.json",
     _golden_with("graphs/chunk_01.json", "nodes", "provenance_pages", [2.5])),
    ("aggregate", "graphs/chunk_01.json",
     _golden_with("graphs/chunk_01.json", "nodes", "origin_chunk", "1")),
    ("eval", "predicted.json", GRAPH_WITH_DANGLING_EDGE),
    ("eval", "reference.json", '{"format": "decision-graph/1", "nodes": []}'),
    ("eval", "predicted.json", _golden_with("merged.json", "nodes", "label", 7)),
    ("eval", "reference.json", _golden_merged_ref_origin(1.5)),
    ("export", "graph.json", "[]"),
    ("export", "graph.json", None),
    ("export", "graph.json", _golden_with("merged.json", "nodes", "label", 7)),
    ("export", "graph.json", _golden_with("merged.json", "nodes", "origin_chunk", True)),
], ids=["build-format", "build-missing", "build-duplicate-terminals",
        "build-entry-terminal-overlap", "build-empty-label", "build-repeated-chunk-id",
        "build-string-labels", "build-string-pages", "build-numeric-context",
        "build-null-description", "build-fractional-pages", "build-string-page",
        "build-boolean-chunk-id", "build-integer-key-digest", "aggregate-json",
        "aggregate-missing", "aggregate-string-pages", "aggregate-string-interface",
        "aggregate-fractional-page", "aggregate-string-origin", "eval-predicted",
        "eval-reference", "eval-numeric-label", "eval-fractional-merged-origin",
        "export-shape", "export-missing", "export-numeric-label", "export-boolean-origin"])
def test_bad_artifact_exits_with_usage_code_naming_it(tmp_path, capsys, command, artifact,
                                                      content):
    out = tmp_path / "run"
    shutil.copytree(GOLDEN_DIR / "graphs", out / "graphs")
    shutil.copytree(FIXTURE_DIR, out / "fixtures")
    shutil.copy(GOLDEN_DIR / "chunks.json", out)
    for name in ("predicted.json", "reference.json", "graph.json"):
        shutil.copy(GOLDEN_DIR / "merged.json", out / name)
    bad = out / artifact
    if content is None:
        bad.unlink()
    else:
        bad.write_text(content, encoding="utf-8")
    fixtures = ["--backend", "scripted", "--fixtures", str(out / "fixtures")]
    argv = {
        "build": ["build", "--out", str(out), *fixtures],
        "aggregate": ["aggregate", "--out", str(out), *fixtures],
        "eval": ["eval", "--predicted", str(out / "predicted.json"),
                 "--reference", str(out / "reference.json")],
        "export": ["export", "--graph", str(bad), "--out", str(tmp_path / "graph.dot")],
    }[command]
    assert run_cli(*argv) == cli.EXIT_USAGE
    assert str(bad) in capsys.readouterr().err
    assert not (out / "audit.log").exists()  # no stage ran


def _with_unpaired_surrogate(path: Path, edit) -> None:
    """Rewrite a JSON file with `edit` applied to its doc; `json.dumps`
    escapes the lone surrogate the edit adds as `\\ud800`."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _add_surrogate_to_label(doc: dict) -> None:
    doc["nodes"][0]["label"] += "\ud800"


@pytest.mark.parametrize("case", ["manifest", "config", "build-chunks", "aggregate-graph",
                                  "eval-predicted", "export-graph", "fixture"])
def test_unpaired_surrogate_in_any_input_exits_naming_the_file(tmp_path, capsys, case):
    # orjson, which writes every artifact and digest, cannot hold `\ud800`:
    # each input that holds one is malformed before any stage runs.
    out = tmp_path / "run"
    shutil.copytree(GOLDEN_DIR / "graphs", out / "graphs")
    shutil.copy(GOLDEN_DIR / "chunks.json", out)
    graph = out / "graph.json"
    shutil.copy(GOLDEN_DIR / "merged.json", graph)
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, fixtures)
    manifest = tmp_path / "manifest.json"
    shutil.copy(SYNTHETIC_DIR / "manifest.json", manifest)
    config = tmp_path / "config.json"
    config.write_text('{"backend": {"chat_model": "m"}}', encoding="utf-8")
    flags = ["--out", str(out), "--backend", "scripted", "--fixtures", str(fixtures)]
    run = ["run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"), *flags]
    argv, bad, edit = {
        "manifest": (["chunk", "--manifest", str(manifest), *flags], manifest,
                     lambda doc: doc["pages"][0].update(text_path="p\ud800.txt")),
        "config": ([*run, "--config", str(config)], config,
                   lambda doc: doc["backend"].update(chat_model="m\ud800")),
        "build-chunks": (["build", "--out", str(out), *scripted_flags()], out / "chunks.json",
                         lambda doc: doc["chunks"][0].update(context="ctx \ud800")),
        "aggregate-graph": (["aggregate", "--out", str(out), *scripted_flags()],
                            out / "graphs" / "chunk_02.json", _add_surrogate_to_label),
        "eval-predicted": (["eval", "--predicted", str(graph),
                            "--reference", str(GOLDEN_DIR / "merged.json")],
                           graph, _add_surrogate_to_label),
        "export-graph": (["export", "--graph", str(graph), "--out", str(tmp_path / "g.dot")],
                         graph, _add_surrogate_to_label),
        "fixture": (run, fixtures / "extract_profile.json",
                    lambda doc: doc["entries"][0]["response_body"].update(
                        scope_context="scope \ud800")),
    }[case]
    _with_unpaired_surrogate(bad, edit)
    expected = cli.EXIT_MANIFEST if case == "manifest" else cli.EXIT_USAGE
    assert run_cli(*argv) == expected
    assert str(bad) in capsys.readouterr().err
    assert not (out / "audit.log").exists()  # no stage ran


def test_profile_reply_that_never_validates_exits_with_protocol_code(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, fixtures)
    path = fixtures / "extract_profile.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["entries"][0]["response_body"] = {"metadata": "broken"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    # One attempt: a retry would send a new payload, which has no fixture.
    code = run_cli("run", "--manifest", str(SYNTHETIC_DIR / "manifest.json"), "--out", str(out),
                   "--backend", "scripted", "--fixtures", str(fixtures), "--retry-limit", "1")
    assert code == cli.EXIT_PROTOCOL
    outcomes = [json.loads(line)["outcome"]
                for line in (out / "audit.log").read_text(encoding="utf-8").splitlines()]
    assert outcomes == ["protocol_error"]


def test_partial_artifacts_preserved_on_failure(tmp_path):
    manifest = str(SYNTHETIC_DIR / "manifest.json")
    out = tmp_path / "out"
    code = run_cli("run", "--manifest", manifest, "--out", str(out),
                   *scripted_flags(), "--expansion-cap", "4")
    assert code == cli.EXIT_BUDGET
    assert (out / "chunks.json").exists()
    assert (out / "audit.log").exists()


@pytest.mark.parametrize("case, code", [("missing-manifest", cli.EXIT_MANIFEST),
                                        ("missing-fixtures", cli.EXIT_USAGE)])
def test_command_that_cannot_start_keeps_the_config_echo_of_a_finished_run(tmp_path, case,
                                                                          code):
    out = tmp_path / "run"
    shutil.copytree(GOLDEN_DIR, out)
    manifest, fixtures = SYNTHETIC_DIR / "manifest.json", FIXTURE_DIR
    if case == "missing-manifest":
        manifest = tmp_path / "missing.json"
    else:
        fixtures = tmp_path / "missing"
    assert run_cli("run", "--manifest", str(manifest), "--out", str(out),
                   "--backend", "scripted", "--fixtures", str(fixtures),
                   "--chunk-budget", "5") == code
    assert (out / "config.json").read_bytes() == (GOLDEN_DIR / "config.json").read_bytes()


def test_build_without_chunks_makes_no_run_directory(tmp_path):
    out = tmp_path / "run"
    assert run_cli("build", "--out", str(out), *scripted_flags()) == cli.EXIT_USAGE
    assert not out.exists()


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


def test_write_writes_the_canonical_json_bytes(tmp_path):
    for number, doc in enumerate(canonical_docs(35, 300)):
        path = tmp_path / f"{number}.json"
        cli._write(path, doc)
        assert path.read_bytes() == canonical_json(doc).encode("utf-8")


def test_write_replaces_artifact_with_canonical_json(tmp_path):
    path = tmp_path / "a" / "b.json"
    cli._write(path, {"b": 1, "a": [2]})
    cli._write(path, {"z": 0})
    assert path.read_text(encoding="utf-8") == canonical_json({"z": 0})
    assert sorted(p.name for p in path.parent.iterdir()) == ["b.json"]
