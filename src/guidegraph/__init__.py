"""guidegraph: long guideline documents to consolidated decision graphs."""

from .core import (
    Chunk,
    DecisionEdge,
    DecisionGraph,
    DecisionNode,
    GuidelineProfile,
    NodeKind,
    PageLabel,
    PageRecord,
    normalize_label,
)

__version__ = "0.1.0"

__all__ = [
    "Chunk",
    "DecisionEdge",
    "DecisionGraph",
    "DecisionNode",
    "GuidelineProfile",
    "NodeKind",
    "PageLabel",
    "PageRecord",
    "normalize_label",
    "__version__",
]
