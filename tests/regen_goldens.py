"""Regenerate the stored synthetic-guideline fixtures and golden artifacts.

Run from the repository root after an intentional behavior change:

    python3 tests/regen_goldens.py

Step 1 records oracle fixtures by running the shipped walk,
`cli.run_pipeline`, with a session whose backend records every reply of
the rule-table backend; step 2 replays the pipeline through the CLI entry
points against those fixture files and freezes the resulting run directory
as golden; step 3 replays it again at parallelism 4 and exits with an
error unless that run leaves the same files (the `parallelism` that
config.json echoes aside). Tests never call this module; they compare
against the committed files.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from synth import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    REFERENCE_GRAPH_DOC,
    SYNTHETIC_DIR,
    RecordingBackend,
    SyntheticRuleBackend,
    synthetic_config,
    write_synthetic_document,
)

from guidegraph import cli, core, evaluation
from guidegraph.oracle import AuditLog, FixtureSet, OracleClient
from guidegraph.retrieval import EmbeddingStore, HashingEmbeddingBackend


def record_fixtures(manifest_path: Path, config) -> FixtureSet:
    """The fixtures of one `cli.run_pipeline` with `cli.make_session`
    swapped for a recording session. The config names a live backend, so the
    config echo needs no fixture directory; the session never opens one."""
    fixtures = FixtureSet()
    backend = RecordingBackend(SyntheticRuleBackend(), fixtures)

    def recording_session(config, out_dir):
        return (OracleClient(backend, audit=AuditLog(), retry_limit=config.retry_limit),
                EmbeddingStore(HashingEmbeddingBackend()))

    live = dataclasses.replace(config, backend=dataclasses.replace(config.backend, kind="live"))
    original = vars(cli)["make_session"]
    cli.make_session = recording_session
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli.run_pipeline(manifest_path, live, Path(tmp) / "run")
    finally:
        cli.make_session = original
    return fixtures


def check_parallel_replay(manifest_path: Path, config, parallelism: int = 4) -> None:
    """Exit with an error unless a run at `parallelism` leaves the golden files."""
    replay = dataclasses.replace(config, parallelism=parallelism)
    frozen = {p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = cli.run_pipeline(manifest_path, replay, Path(tmp) / "run")
        written = {p.relative_to(run_dir) for p in run_dir.rglob("*") if p.is_file()}
        differ = sorted(written ^ (frozen - {Path("eval_report.json"), Path("merged.dot")}))
        for name in sorted(written & frozen):
            data = (run_dir / name).read_bytes()
            if name == Path("config.json"):
                doc = json.loads(data)
                doc["parallelism"] = config.parallelism
                data = core.canonical_json(doc).encode("utf-8")
            if data != (GOLDEN_DIR / name).read_bytes():
                differ.append(name)
    if differ:
        sys.exit(f"a run at parallelism {parallelism} differs from the goldens in "
                 f"{[str(name) for name in differ]}")
    print(f"a run at parallelism {parallelism} leaves the same files")


def main() -> None:
    shutil.rmtree(SYNTHETIC_DIR, ignore_errors=True)
    shutil.rmtree(FIXTURE_DIR, ignore_errors=True)
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    SYNTHETIC_DIR.mkdir(parents=True)

    manifest_path = write_synthetic_document(SYNTHETIC_DIR)
    (SYNTHETIC_DIR / "reference_graph.json").write_text(
        core.canonical_json(REFERENCE_GRAPH_DOC), encoding="utf-8"
    )

    config = synthetic_config(FIXTURE_DIR)
    fixtures = record_fixtures(manifest_path, config)
    fixtures.save(FIXTURE_DIR)
    print(f"recorded {len(list(FIXTURE_DIR.glob('*.json')))} fixture files into {FIXTURE_DIR}")

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = cli.run_pipeline(manifest_path, config, Path(tmp) / "run")
        merged = core.load_graph(run_dir / "merged.json")
        reference = core.graph_from_doc(REFERENCE_GRAPH_DOC)
        report = evaluation.score(
            merged, reference,
            evaluation.MatchPolicy(evaluation.MatchMode.EXACT_NORMALIZED),
            unit_name="complete",
        )
        (run_dir / "eval_report.json").write_text(
            core.canonical_json(report.to_doc()), encoding="utf-8"
        )
        (run_dir / "merged.dot").write_text(cli.export_dot(merged), encoding="utf-8")
        shutil.copytree(run_dir, GOLDEN_DIR)

    files = sorted(p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.rglob("*") if p.is_file())
    print(f"froze {len(files)} golden files into {GOLDEN_DIR}:")
    for path in files:
        print(f"  {path}")
    doc = json.loads((GOLDEN_DIR / "eval_report.json").read_text())
    print("eval:", {k: doc[k] for k in ("unit_name",)},
          doc["nodes"], doc["edges"], doc["triplets"])
    check_parallel_replay(manifest_path, config)


if __name__ == "__main__":
    main()
