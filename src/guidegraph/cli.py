"""Operator surface: configuration, manifest ingestion, stage commands, the
full-pipeline command, and exporters.

The canonical JSON serialization is the single interchange format between
stages, so each stage command can resume from the previous stage's files
and a full run equals the stages run one by one. Under the scripted
backend the audit clock and request ids are deterministic, making whole
run directories byte-comparable at any parallelism.

Exit codes: 0 success, 2 usage, 3 manifest, 4 oracle transport,
5 oracle protocol, 6 structural, 7 expansion budget.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import aggregator, builder, chunker, core, evaluation
from .core import DecisionGraph, NodeKind, PageRecord, canonical_json
from .errors import (
    ChunkInterfaceError,
    ExpansionBudgetExceeded,
    GraphIntegrityError,
    GuidegraphError,
    IdCollisionError,
    InterfaceResolutionError,
    ManifestError,
    OracleProtocolError,
    OracleTransportError,
    ProfileError,
    UsageError,
)
from .oracle import AuditLog, FixtureSet, LiveBackend, OracleClient, ScriptedBackend
from .retrieval import EmbeddingStore, HashingEmbeddingBackend, LiveEmbeddingBackend

logger = logging.getLogger(__name__)

MANIFEST_FORMAT = "page-manifest/1"
CONFIG_FORMAT = "pipeline-config/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MANIFEST = 3
EXIT_TRANSPORT = 4
EXIT_PROTOCOL = 5
EXIT_STRUCTURAL = 6
EXIT_BUDGET = 7


@dataclass
class BackendConfig:
    kind: str = "scripted"  # scripted | live
    base_url: str = ""
    chat_model: str = ""
    embed_model: str = ""
    auth_env: str = "GUIDEGRAPH_API_KEY"
    fixture_dir: str = ""
    timeout: float = 60.0


@dataclass
class PipelineConfig:
    header_pages: int = 3
    chunk_budget: int = 8000
    candidate_count: int = 5
    expansion_cap: int = 200
    retry_limit: int = 3
    parallelism: int = 1
    backend: BackendConfig = field(default_factory=BackendConfig)
    match_mode: str = "exact"
    match_threshold: float | None = None

    def validate(self) -> None:
        if self.header_pages < 1:
            raise UsageError("header_pages must be >= 1")
        if self.chunk_budget < 1:
            raise UsageError("chunk_budget must be >= 1")
        if self.candidate_count < 1:
            raise UsageError("candidate_count must be >= 1")
        if self.expansion_cap < 1:
            raise UsageError("expansion_cap must be >= 1")
        if self.retry_limit < 1:
            raise UsageError("retry_limit must be >= 1")
        if self.parallelism < 1:
            raise UsageError("parallelism must be >= 1")
        if self.backend.kind not in ("scripted", "live"):
            raise UsageError(f"unknown backend kind {self.backend.kind!r}")

    def to_doc(self) -> dict[str, Any]:
        return {
            "format": CONFIG_FORMAT,
            "header_pages": self.header_pages,
            "chunk_budget": self.chunk_budget,
            "candidate_count": self.candidate_count,
            "expansion_cap": self.expansion_cap,
            "retry_limit": self.retry_limit,
            "parallelism": self.parallelism,
            "backend": {
                "kind": self.backend.kind,
                "base_url": self.backend.base_url,
                "chat_model": self.backend.chat_model,
                "embed_model": self.backend.embed_model,
                "auth_env": self.backend.auth_env,
                "fixture_dir": self.backend.fixture_dir,
                "timeout": self.backend.timeout,
            },
            "match_mode": self.match_mode,
            "match_threshold": self.match_threshold,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "PipelineConfig":
        backend_doc = doc.get("backend", {})
        return cls(
            header_pages=int(doc.get("header_pages", 3)),
            chunk_budget=int(doc.get("chunk_budget", 8000)),
            candidate_count=int(doc.get("candidate_count", 5)),
            expansion_cap=int(doc.get("expansion_cap", 200)),
            retry_limit=int(doc.get("retry_limit", 3)),
            parallelism=int(doc.get("parallelism", 1)),
            backend=BackendConfig(
                kind=backend_doc.get("kind", "scripted"),
                base_url=backend_doc.get("base_url", ""),
                chat_model=backend_doc.get("chat_model", ""),
                embed_model=backend_doc.get("embed_model", ""),
                auth_env=backend_doc.get("auth_env", "GUIDEGRAPH_API_KEY"),
                fixture_dir=backend_doc.get("fixture_dir", ""),
                timeout=float(backend_doc.get("timeout", 60.0)),
            ),
            match_mode=doc.get("match_mode", "exact"),
            match_threshold=doc.get("match_threshold"),
        )


def ingest(manifest_path: str | Path) -> list[PageRecord]:
    """Load a page manifest into ordered, contiguity-checked PageRecords.

    Every page needs a text_path (OCR happens upstream); a page with empty
    text is usable only when it carries an image reference. An image is
    kept as its path exactly as the manifest gives it plus a sha256 of its
    bytes, so neither depends on how the manifest path was spelled.
    """
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {manifest_path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if doc.get("format") != MANIFEST_FORMAT:
        raise ManifestError(f"unsupported manifest format {doc.get('format')!r}")
    entries = doc.get("pages")
    if not isinstance(entries, list):
        raise ManifestError("manifest field 'pages' must be a list")

    base = manifest_path.parent
    records: list[PageRecord] = []
    seen: set[int] = set()
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("index"), int):
            raise ManifestError(f"pages[{position}]: each entry needs an integer 'index'")
        index = entry["index"]
        if index < 1:
            raise ManifestError(f"page {index}: index must be >= 1")
        if index in seen:
            raise ManifestError(f"page {index}: duplicate index")
        seen.add(index)
        text_path = entry.get("text_path")
        if not text_path:
            raise ManifestError(
                f"page {index}: text_path is required (run OCR upstream for scanned pages)"
            )
        try:
            text = (base / text_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ManifestError(f"page {index}: cannot read text file {text_path}: {exc}") from exc
        image_path = entry.get("image_path") or None
        image_digest = None
        if image_path is not None:
            try:
                image_digest = hashlib.sha256((base / image_path).read_bytes()).hexdigest()
            except OSError as exc:
                raise ManifestError(
                    f"page {index}: cannot read image file {image_path}: {exc}") from exc
        if not text.strip() and image_path is None:
            raise ManifestError(f"page {index}: empty text and no image reference")
        records.append(PageRecord(index=index, text=text, image_ref=image_path,
                                  image_digest=image_digest))

    ordered = sorted(records, key=lambda r: r.index)
    if [r.index for r in records] != [r.index for r in ordered]:
        logger.warning("manifest pages were out of order; sorted by index")
    expected = list(range(1, len(ordered) + 1))
    if [r.index for r in ordered] != expected:
        raise ManifestError(
            f"page indices must form a contiguous range 1..{len(ordered)}, "
            f"got {[r.index for r in ordered]}"
        )
    return ordered


class _StepClock:
    """Deterministic audit clock for scripted runs: one second per record,
    counted from `start`."""

    def __init__(self, start: int = 0) -> None:
        self._count = start

    def __call__(self) -> str:
        ts = datetime.fromtimestamp(self._count, tz=timezone.utc)
        self._count += 1
        return ts.isoformat()


def make_session(config: PipelineConfig, out_dir: Path | None) -> tuple[OracleClient, EmbeddingStore]:
    """Build the oracle client and embedding store for a run."""
    audit = AuditLog(out_dir / "audit.log" if out_dir is not None else None)
    if config.backend.kind == "scripted":
        if not config.backend.fixture_dir:
            raise UsageError("scripted backend needs --fixtures")
        fixtures = FixtureSet.load(config.backend.fixture_dir)
        backend = ScriptedBackend(fixtures)
        audit.clock = _StepClock(audit.prior_records)
        store = EmbeddingStore(HashingEmbeddingBackend())
    else:
        if not config.backend.base_url:
            raise UsageError("live backend needs a base_url")
        token = os.environ.get(config.backend.auth_env)
        backend = LiveBackend(config.backend.base_url, config.backend.chat_model,
                              auth_token=token, timeout=config.backend.timeout)
        store = EmbeddingStore(LiveEmbeddingBackend(
            config.backend.base_url, config.backend.embed_model,
            auth_token=token, timeout=config.backend.timeout,
        ))
    client = OracleClient(backend, audit=audit, retry_limit=config.retry_limit)
    return client, store


@contextmanager
def _session(config: PipelineConfig,
             out_dir: Path) -> Iterator[tuple[OracleClient, EmbeddingStore]]:
    """`make_session` for one command; closes the audit file when it ends."""
    client, store = make_session(config, out_dir)
    try:
        yield client, store
    finally:
        client.audit.close()


def make_match_policy(config: PipelineConfig) -> evaluation.MatchPolicy:
    mode = evaluation.MatchMode(config.match_mode)
    return evaluation.MatchPolicy(mode=mode, threshold=config.match_threshold)


def export_dot(graph: DecisionGraph) -> str:
    """Deterministic DOT rendering: label text, kind-based shapes."""
    shapes = {
        NodeKind.ENTRY: "ellipse",
        NodeKind.INTERMEDIATE: "box",
        NodeKind.TERMINAL: "doubleoctagon",
    }

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph decision_graph {", "  rankdir=LR;"]
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        lines.append(
            f"  {quote(node_id)} [label={quote(node.label)}, shape={shapes[node.kind]}];"
        )
    for edge in sorted(graph.edges, key=lambda e: e.as_triple()):
        lines.append(
            f"  {quote(edge.source)} -> {quote(edge.target)} [label={quote(edge.label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path: Path, doc: Any) -> None:
    """Write a JSON artifact in canonical form, atomically."""
    _write_text(path, canonical_json(doc))


def _write_text(path: Path, text: str) -> None:
    """Write a file atomically: a temp file beside it, then `os.replace`.

    An interrupted or failing write leaves the previous file, if any, as it
    was, and removes its temp file. (Atomic against the process stopping,
    not against power loss: nothing is fsynced.)
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _chunk_graph_path(out_dir: Path, chunk_id: int) -> Path:
    return out_dir / "graphs" / f"chunk_{chunk_id:02d}.json"


def stage_chunk(pages: Sequence[PageRecord], config: PipelineConfig,
                client: OracleClient, out_dir: Path) -> chunker.ChunkingResult:
    result = chunker.run_chunking(pages, config, client)
    _write(out_dir / "profile.json", core.profile_to_doc(result.profile))
    _write(out_dir / "chunks.json", core.chunks_to_doc(result.chunks))
    return result


def stage_build(chunks, config: PipelineConfig, client: OracleClient,
                store: EmbeddingStore, out_dir: Path) -> list[DecisionGraph]:
    """Build the chunk graphs, fanned out over the client; each graph file is
    written as its chunk commits, in chunk order."""

    def build(child: OracleClient, chunk: core.Chunk) -> builder.BuildResult:
        return builder.build_graph(chunk, child, store, config)

    def write(chunk: core.Chunk, result: builder.BuildResult) -> None:
        _write(_chunk_graph_path(out_dir, chunk.chunk_id), core.graph_to_doc(result.graph))

    results = client.fan_out(build, chunks, config.parallelism, on_commit=write)
    _write(out_dir / "expansion_trace.json",
           {"format": "expansion-trace/1",
            "events": [event for result in results for event in result.trace]})
    return [result.graph for result in results]


def stage_aggregate(chunks, graphs, config: PipelineConfig, client: OracleClient,
                    store: EmbeddingStore, out_dir: Path) -> aggregator.AggregationResult:
    result = aggregator.aggregate(chunks, graphs, client, store, config)
    _write(out_dir / "merged.json", core.graph_to_doc(result.graph))
    _write(out_dir / "merge_log.json", aggregator.merge_log_doc(result))
    _write(out_dir / "provenance.json", aggregator.provenance_doc(result))
    return result


def _echo_config(config: PipelineConfig, out_dir: Path) -> None:
    """Write the resolved config into the run directory.

    A scripted fixture set is recorded by `fixture_digest`, its content
    digest, in place of `fixture_dir`, so the echo holds no path of the
    machine it ran on. `from_doc` ignores the digest: a replay names the
    fixtures again with `--fixtures DIR`.
    """
    doc = config.to_doc()
    if config.backend.kind == "scripted" and config.backend.fixture_dir:
        backend = doc["backend"]
        del backend["fixture_dir"]
        backend["fixture_digest"] = FixtureSet.content_digest(config.backend.fixture_dir)
    _write(out_dir / "config.json", doc)


def run_pipeline(manifest_path: str | Path, config: PipelineConfig,
                 out_dir: str | Path) -> Path:
    """All three stages, writing the full artifact set into the run directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    pages = ingest(manifest_path)
    with _session(config, out_dir) as (client, store):
        chunking = stage_chunk(pages, config, client, out_dir)
        graphs = stage_build(chunking.chunks, config, client, store, out_dir)
        stage_aggregate(chunking.chunks, graphs, config, client, store, out_dir)
    return out_dir


# ---------------------------------------------------------------------------
# Command handlers


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            config = PipelineConfig.from_doc(json.loads(path.read_text(encoding="utf-8")))
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, ValueError) as exc:
            raise UsageError(f"config file invalid: {exc}") from exc
    else:
        config = PipelineConfig()
    for name in ("header_pages", "chunk_budget", "candidate_count", "expansion_cap",
                 "retry_limit", "parallelism", "match_mode", "match_threshold"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    if getattr(args, "backend", None):
        config.backend.kind = args.backend
    if getattr(args, "fixtures", None):
        config.backend.fixture_dir = args.fixtures
    if getattr(args, "base_url", None):
        config.backend.base_url = args.base_url
    if getattr(args, "chat_model", None):
        config.backend.chat_model = args.chat_model
    if getattr(args, "embed_model", None):
        config.backend.embed_model = args.embed_model
    config.validate()
    return config


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    pages = ingest(args.manifest)
    with _session(config, out_dir) as (client, _):
        profile = chunker.extract_profile(pages[: config.header_pages], client)
    _write(out_dir / "profile.json", core.profile_to_doc(profile))
    print(f"profile written to {out_dir / 'profile.json'}")
    return EXIT_OK


def _cmd_chunk(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    pages = ingest(args.manifest)
    with _session(config, out_dir) as (client, _):
        result = stage_chunk(pages, config, client, out_dir)
    print(f"{len(result.chunks)} chunks written to {out_dir / 'chunks.json'}")
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    _echo_config(config, out_dir)
    chunks = core.chunks_from_doc(
        json.loads((out_dir / "chunks.json").read_text(encoding="utf-8"))
    )
    with _session(config, out_dir) as (client, store):
        graphs = stage_build(chunks, config, client, store, out_dir)
    print(f"{len(graphs)} chunk graphs written to {out_dir / 'graphs'}")
    return EXIT_OK


def _cmd_aggregate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    _echo_config(config, out_dir)
    chunks = core.chunks_from_doc(
        json.loads((out_dir / "chunks.json").read_text(encoding="utf-8"))
    )
    graphs = [core.load_graph(_chunk_graph_path(out_dir, c.chunk_id)) for c in chunks]
    with _session(config, out_dir) as (client, store):
        result = stage_aggregate(chunks, graphs, config, client, store, out_dir)
    print(f"merged graph with {len(result.graph.nodes)} nodes written to "
          f"{out_dir / 'merged.json'}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = run_pipeline(args.manifest, config, args.out)
    print(f"run artifacts written to {out_dir}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    predicted = core.load_graph(args.predicted)
    reference = core.load_graph(args.reference)
    policy = make_match_policy(config)
    client = store = None
    if policy.mode is evaluation.MatchMode.ORACLE_VERIFIED:
        client, store = make_session(config, None)
    elif policy.mode is evaluation.MatchMode.EMBEDDING_THRESHOLD:
        store = EmbeddingStore(HashingEmbeddingBackend())
    report = evaluation.score(predicted, reference, policy, unit_name=args.unit,
                              store=store, client=client)
    if args.out:
        _write(Path(args.out), report.to_doc())
    print(evaluation.render_table([report]))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    if args.format not in ("dot", "canonical"):
        raise UsageError(f"unknown export format {args.format!r}")
    graph = core.load_graph(args.graph)
    if args.format == "dot":
        content = export_dot(graph)
    else:
        content = canonical_json(core.graph_to_doc(graph))
    _write_text(Path(args.out), content)
    print(f"{args.format} export written to {args.out}")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--header-pages", dest="header_pages", type=int)
    parser.add_argument("--chunk-budget", dest="chunk_budget", type=int)
    parser.add_argument("--candidate-count", dest="candidate_count", type=int)
    parser.add_argument("--expansion-cap", dest="expansion_cap", type=int)
    parser.add_argument("--retry-limit", dest="retry_limit", type=int)
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--backend", choices=["scripted", "live"])
    parser.add_argument("--fixtures", help="fixture directory for the scripted backend")
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--chat-model", dest="chat_model")
    parser.add_argument("--embed-model", dest="embed_model")
    parser.add_argument("--match-mode", dest="match_mode",
                        choices=["exact", "embedding", "oracle"])
    parser.add_argument("--match-threshold", dest="match_threshold", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidegraph",
        description="Convert a guideline page manifest into a consolidated decision graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="extract the guideline profile")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("chunk", help="run the chunking stage")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_chunk)

    p = sub.add_parser("build", help="build per-chunk graphs from chunks.json")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("aggregate", help="merge chunk graphs into one graph")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_aggregate)

    p = sub.add_parser("run", help="full pipeline: chunk, build, aggregate")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("eval", help="score a predicted graph against a reference")
    p.add_argument("--predicted", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--unit", default="unit")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("export", help="export a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", default="dot")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_export)

    return parser


_ERROR_CODES: list[tuple[type, int]] = [
    (UsageError, EXIT_USAGE),
    (ManifestError, EXIT_MANIFEST),
    (OracleTransportError, EXIT_TRANSPORT),
    (OracleProtocolError, EXIT_PROTOCOL),
    (ExpansionBudgetExceeded, EXIT_BUDGET),
    (ProfileError, EXIT_STRUCTURAL),
    (ChunkInterfaceError, EXIT_STRUCTURAL),
    (GraphIntegrityError, EXIT_STRUCTURAL),
    (IdCollisionError, EXIT_STRUCTURAL),
    (InterfaceResolutionError, EXIT_STRUCTURAL),
    (GuidegraphError, EXIT_STRUCTURAL),
]


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except GuidegraphError as exc:
        for error_type, code in _ERROR_CODES:
            if isinstance(exc, error_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
