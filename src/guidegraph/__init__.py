"""guidegraph: long guideline documents to consolidated decision graphs.

Importing the package caps numpy's OpenBLAS at one thread, unless
``OPENBLAS_NUM_THREADS`` is already set or numpy is already loaded.
``parallelism`` is guidegraph's one concurrency bound; its only BLAS work
is products of matrices of a few hundred rows by 256 columns, and
starting OpenBLAS's thread pool would cost every process about 50 ms.
"""

import os
import sys

# Before any submodule imports numpy: OpenBLAS reads the variable once, when
# numpy loads it. An explicit setting wins, and a host process that loaded
# numpy first keeps its BLAS as it was.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
