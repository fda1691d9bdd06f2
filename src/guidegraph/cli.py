"""Operator surface: configuration, manifest ingestion, the stage commands
and the full-pipeline command, and exporters.

Every stage command and `run` is one walk of `_run_stages` over the stages
`COMMANDS` lists for it. `chunk` and `run` begin with the profile stage,
which writes `profile.json` and hands the profile to the chunk stage, so
the profile is extracted and written in one place. The canonical JSON
serialization is the single interchange format between stages, so each
stage command can resume from the previous stage's files and a full run
equals the stages run one by one. A run directory records only what shaped
the run: `config.json` echoes the pipeline settings, once the command's
inputs have loaded, and `audit.log` holds no clock reading, so whole run
directories are byte-comparable at any parallelism. The match settings are
flags of `eval` alone, and `eval` checks only the settings its session
reads.

Exit codes: 0 success, 2 usage, 3 manifest, 4 oracle transport,
5 oracle protocol, 6 structural, 7 expansion budget. Every JSON input
(manifest, config, fixture files and the artifacts a stage resumes from)
is read by `core.load_doc` and its values type-checked by `core.typed`,
so a path that cannot be read, parsed or written, or that holds a value
of the wrong JSON type, exits 2, or 3 for the manifest, with a message
that names it.
"""
from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Sequence, get_type_hints

from . import aggregator, builder, chunker, core, evaluation
from .core import DecisionGraph, NodeKind, PageRecord, canonical_bytes, load_doc, typed
from .errors import (
    ExpansionBudgetExceeded,
    GuidegraphError,
    ManifestError,
    OracleProtocolError,
    OracleTransportError,
    UsageError,
)
from .oracle import AuditLog, FixtureSet, OracleClient
from .retrieval import EmbeddingStore, HashingEmbeddingBackend

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

    def validate(self) -> None:
        """Check every setting."""
        _check_counts(self, [name for name, kind in get_type_hints(type(self)).items()
                             if kind is int and name != "retry_limit"])
        self.validate_session()

    def validate_session(self) -> None:
        """Check what opening a session reads: `retry_limit` and the backend.
        These are all the settings `eval` reads."""
        _check_counts(self, ["retry_limit"])
        if self.backend.kind not in ("scripted", "live"):
            raise UsageError(f"unknown backend kind {self.backend.kind!r}")
        if not 0 < self.backend.timeout < math.inf:
            raise UsageError("backend.timeout must be finite and > 0")

    def to_doc(self) -> dict[str, Any]:
        return {"format": CONFIG_FORMAT, **asdict(self)}

    @classmethod
    def from_doc(cls, doc: Any) -> "PipelineConfig":
        """The config a doc describes. A missing key keeps its field's default,
        a present one must hold its field's type by `core.typed` (so an int
        field takes no `2.0`, `"3"` or `true`, and `timeout` takes any JSON
        number but no string or boolean), and keys that name no field
        (`format`, `fixture_digest`) are ignored. A value of another type
        raises a TypeError that names its field."""
        return _from_doc(cls, typed(doc, dict, "config"))


def _check_counts(config: PipelineConfig, names: Sequence[str]) -> None:
    for name in names:
        if not 1 <= getattr(config, name) < 2**63:  # orjson writes the echo in 64 bits
            raise UsageError(f"{name} must be >= 1 and < 2**63")


def _from_doc(cls: type, doc: dict[str, Any], where: str = "") -> Any:
    """The dataclass `cls` from a JSON object, each field it names checked
    against the field's type hint; a dataclass field is read from its own
    object. `where` leads each field's name in a TypeError."""
    return cls(**{
        name: (_from_doc(kind, typed(doc[name], dict, where + name), f"{where}{name}.")
               if is_dataclass(kind) else typed(doc[name], kind, where + name))
        for name, kind in get_type_hints(cls).items() if name in doc})


def _manifest_entries(doc: Any) -> list[dict[str, Any]]:
    """A page manifest's entries, once `core.typed` has checked each value
    `ingest` reads: an int `index`, and a string or null `text_path` and
    `image_path`."""
    if typed(doc, dict, "manifest").get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported manifest format {doc.get('format')!r}")
    entries = typed(doc.get("pages"), list, "pages", dict)
    for position, entry in enumerate(entries):
        typed(entry.get("index"), int, f"pages[{position}].index")
        for name in ("text_path", "image_path"):
            if entry.get(name) is not None:
                typed(entry[name], str, f"pages[{position}].{name}")
    return entries


def ingest(manifest_path: str | Path) -> list[PageRecord]:
    """Load a page manifest into ordered, contiguity-checked PageRecords.

    Every page needs a text_path (OCR happens upstream); a page with empty
    text is usable only when it carries an image reference. An image is
    kept as its path exactly as the manifest gives it plus a sha256 of its
    bytes, so neither depends on how the manifest path was spelled. A
    manifest of the wrong format or types is a `ManifestError` naming it.
    """
    manifest_path = Path(manifest_path)
    entries = load_doc(manifest_path, _manifest_entries, error=ManifestError)

    base = manifest_path.parent
    records: list[PageRecord] = []
    seen: set[int] = set()
    for entry in entries:
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
        image_path = entry.get("image_path") or None  # an empty string names no image
        try:
            text = (base / text_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ManifestError(f"page {index}: cannot read text file {text_path}: {exc}") from exc
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


def make_session(config: PipelineConfig, out_dir: Path | None) -> tuple[OracleClient, EmbeddingStore]:
    """Build the oracle client and embedding store for a run."""
    audit = AuditLog(out_dir / "audit.log" if out_dir is not None else None)
    if config.backend.kind == "scripted":
        if not config.backend.fixture_dir:
            raise UsageError("scripted backend needs --fixtures")
        backend = FixtureSet.load(config.backend.fixture_dir)
        store = EmbeddingStore(HashingEmbeddingBackend())
    else:
        if not config.backend.base_url:
            raise UsageError("live backend needs a base_url")
        from . import live  # the HTTP stack, which only a live session loads

        token = os.environ.get(config.backend.auth_env)
        backend = live.LiveBackend(config.backend.base_url, config.backend.chat_model,
                                   auth_token=token, timeout=config.backend.timeout)
        store = EmbeddingStore(live.LiveEmbeddingBackend(
            config.backend.base_url, config.backend.embed_model,
            auth_token=token, timeout=config.backend.timeout,
        ))
    client = OracleClient(backend, audit=audit, retry_limit=config.retry_limit)
    return client, store


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
    for edge in sorted(graph.edges):
        lines.append(
            f"  {quote(edge.source)} -> {quote(edge.target)} [label={quote(edge.label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path: Path, doc: Any) -> None:
    """Write a JSON artifact in canonical form, atomically."""
    _write_bytes(path, canonical_bytes(doc))


def _write_bytes(path: Path, data: bytes) -> None:
    """Write a file atomically: a temp file beside it, then `os.replace`.

    An interrupted or failing write leaves the previous file, if any, as it
    was, and removes its temp file. (Atomic against the process stopping,
    not against power loss: nothing is fsynced.)
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _chunk_graph_path(out_dir: Path, chunk_id: int) -> Path:
    return out_dir / "graphs" / f"chunk_{chunk_id:02d}.json"


def stage_profile(pages: Sequence[PageRecord], config: PipelineConfig,
                  client: OracleClient, out_dir: Path) -> core.GuidelineProfile:
    profile = chunker.extract_profile(pages[: config.header_pages], client)
    _write(out_dir / "profile.json", core.profile_to_doc(profile))
    return profile


def stage_chunk(pages: Sequence[PageRecord], profile: core.GuidelineProfile,
                config: PipelineConfig, client: OracleClient, out_dir: Path) -> list[core.Chunk]:
    chunks = chunker.run_chunking(pages, profile, config, client)
    _write(out_dir / "chunks.json", core.chunks_to_doc(chunks))
    return chunks


def stage_build(chunks, config: PipelineConfig, client: OracleClient,
                store: EmbeddingStore, out_dir: Path) -> list[DecisionGraph]:
    """Build the chunk graphs, fanned out over the client; each graph file is
    written as its chunk commits, in chunk order."""

    def build(child: OracleClient, chunk: core.Chunk) -> builder.BuildResult:
        return builder.build_graph(chunk, child, store, config)

    def write(chunk: core.Chunk, result: builder.BuildResult) -> None:
        _write(_chunk_graph_path(out_dir, chunk.chunk_id), core.graph_to_doc(result.graph))

    results = client.fan_out(build, chunks, on_commit=write)
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


# command -> (help text, the stages it runs, in order)
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "profile": ("extract the guideline profile", ("profile",)),
    "chunk": ("extract the profile, then run the chunking stage", ("profile", "chunk")),
    "build": ("build per-chunk graphs from chunks.json", ("build",)),
    "aggregate": ("merge chunk graphs into one graph", ("aggregate",)),
    "run": ("full pipeline: profile, chunk, build, aggregate",
            ("profile", "chunk", "build", "aggregate")),
}


def _run_stages(stages: Sequence[str], config: PipelineConfig, out_dir: Path,
                manifest: str | Path | None = None) -> None:
    """Run the named stages in order in one session, inside its call window.

    The walk's inputs are loaded first: the manifest's pages when one is
    given, else `chunks.json` and, for `aggregate`, the chunk graphs. Then
    the session opens, and only then is the config echoed, as the first
    write, which makes the run directory. So a command that cannot load
    its inputs or open its session leaves a run directory as it was. Each
    stage writes its artifacts as it finishes; later stages take the
    profile, chunks and graphs in memory.
    """
    pages = profile = chunks = graphs = None
    if manifest is not None:
        pages = ingest(manifest)
    else:
        chunks = load_doc(out_dir / "chunks.json", core.chunks_from_doc)
        if stages[0] == "aggregate":
            graphs = [load_doc(_chunk_graph_path(out_dir, chunk.chunk_id), core.graph_from_doc)
                      for chunk in chunks]
    client, store = make_session(config, out_dir)
    _echo_config(config, out_dir)
    # The stage functions are called by their global names, so rebinding one
    # (as a tracer does) reaches every command.
    with client.window(config.parallelism):
        if "profile" in stages:
            profile = stage_profile(pages, config, client, out_dir)
        if "chunk" in stages:
            chunks = stage_chunk(pages, profile, config, client, out_dir)
        if "build" in stages:
            graphs = stage_build(chunks, config, client, store, out_dir)
        if "aggregate" in stages:
            stage_aggregate(chunks, graphs, config, client, store, out_dir)


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
    """Every stage, writing the full artifact set into the run directory."""
    out_dir = Path(out_dir)
    _run_stages(COMMANDS["run"][1], config, out_dir, manifest_path)
    return out_dir


# ---------------------------------------------------------------------------
# Command handlers


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The config `--config` describes, each field overridden by the flag of
    its name, if given; an empty string keeps the field's value. Not yet
    validated."""
    if getattr(args, "config", None):
        config = load_doc(args.config, PipelineConfig.from_doc)
    else:
        config = PipelineConfig()
    for target in (config, config.backend):
        for name in get_type_hints(type(target)):
            value = getattr(args, name, None)
            if value is not None and value != "":
                setattr(target, name, value)
    return config


def _cmd_stages(args: argparse.Namespace) -> int:
    config = _load_config(args)
    config.validate()
    _run_stages(args.stages, config, Path(args.out), getattr(args, "manifest", None))
    print(f"{args.command} artifacts written to {args.out}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    policy = evaluation.MatchPolicy(evaluation.MatchMode(args.match_mode), args.match_threshold)
    config = _load_config(args)
    config.validate_session()
    predicted = load_doc(args.predicted, core.graph_from_doc)
    reference = load_doc(args.reference, core.graph_from_doc)
    client = store = None
    if policy.mode is evaluation.MatchMode.ORACLE_VERIFIED:
        client, store = make_session(config, None)
    report = evaluation.score(predicted, reference, policy, unit_name=args.unit,
                              store=store, client=client)
    if args.out:
        _write(Path(args.out), report.to_doc())
    print(evaluation.render_table([report]))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    graph = load_doc(args.graph, core.graph_from_doc)
    if args.format == "dot":
        content = export_dot(graph).encode("utf-8")
    else:
        content = canonical_bytes(core.graph_to_doc(graph))
    _write_bytes(Path(args.out), content)
    print(f"{args.format} export written to {args.out}")
    return EXIT_OK


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every command that may open an oracle session."""
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--retry-limit", dest="retry_limit", type=int)
    parser.add_argument("--backend", dest="kind", choices=["scripted", "live"])
    parser.add_argument("--fixtures", dest="fixture_dir",
                        help="fixture directory for the scripted backend")
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--chat-model", dest="chat_model")
    parser.add_argument("--embed-model", dest="embed_model")


def _add_count_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that size a pipeline run; `eval` neither chunks nor fans out."""
    parser.add_argument("--header-pages", dest="header_pages", type=int)
    parser.add_argument("--chunk-budget", dest="chunk_budget", type=int)
    parser.add_argument("--candidate-count", dest="candidate_count", type=int)
    parser.add_argument("--expansion-cap", dest="expansion_cap", type=int)
    parser.add_argument("--parallelism", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidegraph",
        description="Convert a guideline page manifest into a consolidated decision graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, stages) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if stages[0] == "profile":
            p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        _add_session_flags(p)
        _add_count_flags(p)
        p.set_defaults(handler=_cmd_stages, stages=stages)

    p = sub.add_parser("eval", help="score a predicted graph against a reference")
    p.add_argument("--predicted", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--unit", default="unit")
    p.add_argument("--out")
    p.add_argument("--match-mode", dest="match_mode", default="exact",
                   choices=[mode.value for mode in evaluation.MatchMode])
    p.add_argument("--match-threshold", dest="match_threshold", type=float)
    _add_session_flags(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("export", help="export a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["dot", "canonical"], default="dot")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


# The exit code of the first entry an error is an instance of.
_ERROR_CODES: list[tuple[type, int]] = [
    (UsageError, EXIT_USAGE),
    (ManifestError, EXIT_MANIFEST),
    (OracleTransportError, EXIT_TRANSPORT),
    (OracleProtocolError, EXIT_PROTOCOL),
    (ExpansionBudgetExceeded, EXIT_BUDGET),
    (GuidegraphError, EXIT_STRUCTURAL),  # any other
    (OSError, EXIT_USAGE),
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
    except (GuidegraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error_type, code in _ERROR_CODES if isinstance(exc, error_type))


if __name__ == "__main__":
    sys.exit(main())
