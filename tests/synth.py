"""Synthetic test guideline, rule-driven oracle backends, and fixture recording.

The synthetic document is seven pages of invented prostate-pathway prose
covering every structural case the pipeline must handle: an auxiliary
header and references page, two core runs, one mid-run cut with a carried
page, a two-page table that must not be split, an intra-chunk exact
duplicate, an intra-chunk paraphrase duplicate, and three cross-chunk
interface duplicates.
"""
from __future__ import annotations

import json
import math
import random
import threading
import time
from pathlib import Path
from typing import Any

from guidegraph.cli import BackendConfig, PipelineConfig
from guidegraph.core import NodeKind, canonical_json
from guidegraph.oracle import FixtureSet, OracleRequest, OracleTask

DATA_DIR = Path(__file__).parent / "data"
SYNTHETIC_DIR = DATA_DIR / "synthetic"
FIXTURE_DIR = DATA_DIR / "fixtures"
GOLDEN_DIR = DATA_DIR / "golden"

# Characters the two encoders must escape or keep alike: quotes, backslash,
# every control character, DEL, the JS line separators, non-ASCII and astral.
JSON_ALPHABET = ['"', "\\", "/", " ", "a", "Z", "0", "\x7f", "\u2028", "\u2029", "é", "中",
                 "\U0001f600", "\U0001d11e"] + [chr(c) for c in range(0x20)]


def random_json_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return "".join(rng.choice(JSON_ALPHABET) for _ in range(rng.randint(0, 8)))
    if kind == 1:
        return rng.choice([0, 1, -1, 2**63 - 1, 2**63, -2**63,
                           rng.randint(-2**63, 2**63), rng.randint(-999, 999)])
    if kind == 2:
        if rng.random() < 0.2:
            return rng.choice([0.0, -0.0, 1e-4, math.nextafter(1e16, 0)])
        magnitude = 10 ** rng.uniform(-4, 16)
        if rng.random() < 0.3:
            magnitude = round(magnitude, rng.randint(0, 6))  # as similarities are rounded
        if not 1e-4 <= magnitude < 1e16:
            magnitude = 1e-4
        return rng.choice([1.0, -1.0]) * magnitude
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice(list(NodeKind))
    if kind == 5:
        return rng.choice([[], {}, ()])
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {"".join(rng.choice(JSON_ALPHABET) for _ in range(rng.randint(0, 4))): item
            for item in items}




def canonical_docs(seed: int, count: int) -> list[Any]:
    """The golden run's JSON documents, then `count` random documents, each
    with a float outside [1e-4, 1e16), whose canonical form is its shortest
    one, and text with non-ASCII, line-separator and astral characters."""
    docs = [json.loads(path.read_bytes()) for path in sorted(GOLDEN_DIR.rglob("*.json"))]
    rng = random.Random(seed)
    for _ in range(count):
        text = "".join(rng.choice(JSON_ALPHABET) for _ in range(rng.randint(0, 6)))
        docs.append({"doc": random_json_value(rng), "text": f"é\u2028{text}\U0001f600",
                     "float": rng.choice([1e-05, -2.5e-7, 5e-324, 1e16, -3e17, 1e300])})
    return docs


PAGE_TEXTS: dict[int, str] = {
    1: (
        "Synthetic Prostate Pathway\n"
        "Guideline code: SPP-1. Version 1.0.\n"
        "Scope: adult prostate cancer staging and treatment.\n"
        "Issued by an invented consortium for pipeline testing only.\n"
    ),
    2: (
        "Section 1. Initial evaluation.\n"
        "Patients with suspected prostate cancer undergo PSA testing and digital\n"
        "rectal examination. If PSA elevated, proceed to prostate biopsy.\n"
        "If biopsy positive, perform risk assessment combining PSA, Gleason score,\n"
        "and clinical stage. If insufficient cores, repeat the prostate biopsy.\n"
    ),
    3: (
        "Section 2. Risk stratification.\n"
        "Risk assessment assigns each patient to a risk group.\n"
        "If PSA < 10 ng/mL and Gleason 6, assign to the low-risk group.\n"
        "If PSA >= 10 ng/mL or Gleason >= 7, assign to the high-risk group.\n"
        "Management options for each risk group are set out in section 3.\n"
    ),
    4: (
        "Section 3. Initial management.\n"
        "Low-risk group: active surveillance or radical prostatectomy, according\n"
        "to patient preference.\n"
        "High-risk group: radical prostatectomy for surgical candidates;\n"
        "radiation therapy for poor surgical candidates.\n"
        "After radical prostatectomy with positive margins, offer radiation therapy.\n"
    ),
    5: (
        "References.\n"
        "1. Invented citation one. 2. Invented citation two.\n"
        "Author list, disclosures, and administrative notes.\n"
    ),
    6: (
        "Section 4. Surveillance schedule (table, part 1 of 2).\n"
        "Active surveillance protocol: PSA monitoring every 6 months; review\n"
        "imaging annually. The surveillance table continues on the next page.\n"
    ),
    7: (
        "Section 4 continued. Surveillance schedule (table, part 2 of 2).\n"
        "If PSA rising, perform repeat prostate biopsy.\n"
        "If PSA stable, continue the active surveillance protocol.\n"
        "If progression confirmed, proceed to biochemical recurrence workup.\n"
    ),
}

PROFILE_BODY = {
    "metadata": {"title": "Synthetic Prostate Pathway", "code": "SPP-1"},
    "scope_context": "adult prostate cancer staging and treatment",
}

PAGE_CLASSES = {1: "auxiliary", 2: "core", 3: "core", 4: "core",
                5: "auxiliary", 6: "core", 7: "core"}

# Cut after page 3 (splitting section 2 from section 3 with page 3 carried);
# never cut inside the two-page table on pages 6-7.
BOUNDARY_CUTS = {2: False, 3: True, 4: False, 6: False, 7: False}

BUILD_TABLE: dict[tuple[int, ...], dict[str, Any]] = {
    (2, 3): {
        "description": "initial risk stratification",
        "entry_labels": ["suspected prostate cancer"],
        "terminal_labels": ["low-risk group", "high-risk group"],
        "carry_pages": [3],
        "updated_context": "risk groups assigned; management options follow",
    },
    (3, 4): {
        "description": "risk-adapted initial management",
        "entry_labels": ["low-risk group", "high-risk group"],
        "terminal_labels": ["active surveillance", "radiation therapy"],
        "carry_pages": [],
        "updated_context": "initial management selected; surveillance follows",
    },
    (6, 7): {
        "description": "surveillance and recurrence management",
        "entry_labels": ["active surveillance"],
        "terminal_labels": ["biochemical recurrence workup"],
        "carry_pages": [],
        "updated_context": "surveillance pathway complete",
    },
}

CHILDREN_TABLE: dict[str, list[tuple[str, str]]] = {
    "suspected prostate cancer": [("prostate biopsy", "psa elevated")],
    "prostate biopsy": [("risk assessment", "biopsy positive")],
    "risk assessment": [
        ("low-risk group", "psa < 10 ng/ml and gleason 6"),
        ("high-risk group", "psa >= 10 ng/ml or gleason >= 7"),
        ("prostate biopsy", "insufficient cores"),
    ],
    "low-risk group": [
        ("active surveillance", "patient preference"),
        ("radical prostatectomy", "patient preference"),
    ],
    "high-risk group": [
        ("radical prostatectomy", "surgical candidate"),
        ("radiation therapy", "poor surgical candidate"),
    ],
    "radical prostatectomy": [("radiation therapy", "positive margins")],
    "active surveillance": [("psa monitoring every 6 months", "scheduled follow-up")],
    "psa monitoring every 6 months": [
        ("repeat prostate biopsy", "psa rising"),
        ("active surveillance protocol", "psa stable"),
    ],
    "repeat prostate biopsy": [("biochemical recurrence workup", "progression confirmed")],
}

PARAPHRASES = {"active surveillance protocol": "active surveillance"}


class SyntheticRuleBackend:
    """Deterministic oracle implementing the synthetic guideline by table lookup."""

    def body_for(self, task: OracleTask, payload: dict[str, Any]) -> dict[str, Any]:
        if task is OracleTask.EXTRACT_PROFILE:
            return dict(PROFILE_BODY)
        if task is OracleTask.CLASSIFY_PAGE:
            return {"label": PAGE_CLASSES[payload["page"]["index"]]}
        if task is OracleTask.PREDICT_BOUNDARY:
            return {"cut": BOUNDARY_CUTS[payload["current"]["index"]]}
        if task is OracleTask.BUILD_CHUNK:
            key = tuple(p["index"] for p in payload["pages"])
            return dict(BUILD_TABLE[key])
        if task is OracleTask.REFINE_NODES:
            return {"entry_labels": list(payload["entry_labels"]),
                    "terminal_labels": list(payload["terminal_labels"])}
        if task is OracleTask.FIND_DUPLICATE:
            target = PARAPHRASES.get(payload["candidate"])
            matches = [
                i for i, label in enumerate(payload["candidates"])
                if label == payload["candidate"] or (target is not None and label == target)
            ]
            return {"matches": matches}
        if task is OracleTask.GENERATE_CHILDREN:
            pairs = CHILDREN_TABLE.get(payload["node"], [])
            return {"children": [{"label": l, "edge_label": e} for l, e in pairs]}
        raise AssertionError(f"unhandled task {task}")

    def complete(self, request: OracleRequest) -> str:
        body = self.body_for(request.task, request.payload)
        return json.dumps(body, sort_keys=True, ensure_ascii=False)


class ClassVerifierBackend:
    """Duplicate verifier for random universes: equivalent iff same class."""

    def __init__(self, label_class: dict[str, int]) -> None:
        self._classes = label_class

    def complete(self, request: OracleRequest) -> str:
        assert request.task is OracleTask.FIND_DUPLICATE
        candidate_class = self._classes.get(request.payload["candidate"])
        matches = [
            i for i, label in enumerate(request.payload["candidates"])
            if candidate_class is not None and self._classes.get(label) == candidate_class
        ]
        return json.dumps({"matches": matches}, sort_keys=True)


class RecordingBackend:
    """Wraps a backend and captures every (payload, body) pair as a fixture."""

    def __init__(self, inner, fixtures: FixtureSet) -> None:
        self._inner = inner
        self.fixtures = fixtures

    def complete(self, request: OracleRequest) -> str:
        raw = self._inner.complete(request)
        self.fixtures.add(request.task, request.payload, json.loads(raw),
                          summary=_summarize(request))
        return raw


def _summarize(request: OracleRequest) -> str:
    payload = request.payload
    task = request.task
    if task is OracleTask.EXTRACT_PROFILE:
        return f"header pages {[p['index'] for p in payload['pages']]}"
    if task is OracleTask.CLASSIFY_PAGE:
        return f"page {payload['page']['index']}"
    if task is OracleTask.PREDICT_BOUNDARY:
        return f"current page {payload['current']['index']}"
    if task is OracleTask.BUILD_CHUNK:
        return f"buffer pages {[p['index'] for p in payload['pages']]}"
    if task is OracleTask.REFINE_NODES:
        return f"interface {payload['entry_labels']} / {payload['terminal_labels']}"
    if task is OracleTask.FIND_DUPLICATE:
        return f"candidate {payload['candidate']!r}"
    return f"node {payload['node']!r}"


class StaticBackend:
    """Always returns the same raw string; for schema-rejection tests."""

    def __init__(self, raw: str) -> None:
        self.raw = raw
        self.calls = 0

    def complete(self, request: OracleRequest) -> str:
        self.calls += 1
        return self.raw


class FlakyBackend:
    """Fails validation N times, then delegates; for retry tests."""

    def __init__(self, inner, bad_attempts: int, bad_raw: str = "not json {") -> None:
        self._inner = inner
        self._remaining = bad_attempts
        self._bad_raw = bad_raw
        self.seen_payloads: list[dict[str, Any]] = []

    def complete(self, request: OracleRequest) -> str:
        self.seen_payloads.append(dict(request.payload))
        if self._remaining > 0:
            self._remaining -= 1
            return self._bad_raw
        return self._inner.complete(request)


class JitterBackend:
    """Delegates after sleeping a seeded random 0-4 ms, so concurrent calls
    finish out of order; counts the calls it received and records `peak`,
    the most it held at once since the owner last reset it."""

    def __init__(self, inner, seed: int) -> None:
        self._inner = inner
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak = 0

    def complete(self, request: OracleRequest) -> str:
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            delay = self._rng.uniform(0.0, 0.004)
        try:
            time.sleep(delay)
            return self._inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


class EndlessChildrenBackend(SyntheticRuleBackend):
    """Adversarial: every node spawns a fresh child, so expansion never ends."""

    def body_for(self, task: OracleTask, payload: dict[str, Any]) -> dict[str, Any]:
        if task is OracleTask.FIND_DUPLICATE:
            return {"matches": []}
        if task is OracleTask.GENERATE_CHILDREN:
            return {"children": [{"label": payload["node"] + " x", "edge_label": "go"}]}
        return super().body_for(task, payload)


class NeverCutBackend(SyntheticRuleBackend):
    """Adversarial: boundary oracle never cuts; everything is core."""

    def body_for(self, task: OracleTask, payload: dict[str, Any]) -> dict[str, Any]:
        if task is OracleTask.PREDICT_BOUNDARY:
            return {"cut": False}
        if task is OracleTask.CLASSIFY_PAGE:
            return {"label": "core"}
        if task is OracleTask.EXTRACT_PROFILE:
            return {"metadata": {"title": "adversarial"}, "scope_context": "stress test"}
        if task is OracleTask.BUILD_CHUNK:
            first = payload["pages"][0]["index"]
            return {
                "description": f"segment from page {first}",
                "entry_labels": [f"entry p{first}"],
                "terminal_labels": [f"terminal p{first}"],
                "carry_pages": [],
                "updated_context": f"after page {payload['pages'][-1]['index']}",
            }
        if task is OracleTask.REFINE_NODES:
            return {"entry_labels": list(payload["entry_labels"]),
                    "terminal_labels": list(payload["terminal_labels"])}
        return super().body_for(task, payload)


def write_synthetic_document(directory: Path) -> Path:
    """Write the synthetic page files and manifest; returns the manifest path."""
    pages_dir = directory / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for index in sorted(PAGE_TEXTS):
        name = f"page{index}.txt"
        (pages_dir / name).write_text(PAGE_TEXTS[index], encoding="utf-8")
        entries.append({"index": index, "text_path": f"pages/{name}"})
    manifest = {"format": "page-manifest/1", "pages": entries}
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(canonical_json(manifest), encoding="utf-8")
    return manifest_path


def synthetic_config(fixture_dir: Path | str) -> PipelineConfig:
    return PipelineConfig(
        header_pages=3,
        chunk_budget=8000,
        candidate_count=5,
        expansion_cap=50,
        retry_limit=3,
        parallelism=1,
        backend=BackendConfig(kind="scripted", fixture_dir=str(fixture_dir)),
    )


REFERENCE_GRAPH_DOC: dict[str, Any] = {
    "format": "decision-graph/1",
    "nodes": [
        {"id": f"r{i:02d}", "label": label, "kind": kind, "origin_chunk": 0,
         "merged_from": [], "provenance_pages": [], "interface_labels": []}
        for i, (label, kind) in enumerate(
            [
                ("suspected prostate cancer", "entry"),
                ("prostate biopsy", "intermediate"),
                ("risk assessment", "intermediate"),
                ("low-risk group", "intermediate"),
                ("high-risk group", "intermediate"),
                ("radical prostatectomy", "intermediate"),
                ("radiation therapy", "terminal"),
                ("active surveillance", "intermediate"),
                ("psa monitoring every 6 months", "intermediate"),
                ("repeat prostate biopsy", "intermediate"),
                ("biochemical recurrence workup", "terminal"),
            ],
            start=1,
        )
    ],
    "edges": [
        {"source": "r01", "label": "psa elevated", "target": "r02"},
        {"source": "r02", "label": "biopsy positive", "target": "r03"},
        {"source": "r03", "label": "psa < 10 ng/ml and gleason 6", "target": "r04"},
        {"source": "r03", "label": "psa >= 10 ng/ml or gleason >= 7", "target": "r05"},
        {"source": "r03", "label": "insufficient cores", "target": "r02"},
        {"source": "r04", "label": "patient preference", "target": "r08"},
        {"source": "r04", "label": "patient preference", "target": "r06"},
        {"source": "r05", "label": "surgical candidate", "target": "r06"},
        {"source": "r05", "label": "poor surgical candidate", "target": "r07"},
        {"source": "r06", "label": "positive margins", "target": "r07"},
        {"source": "r08", "label": "scheduled follow-up", "target": "r09"},
        {"source": "r09", "label": "psa rising", "target": "r10"},
        {"source": "r09", "label": "psa stable", "target": "r08"},
        {"source": "r10", "label": "progression confirmed", "target": "r11"},
    ],
}
