"""Exception types shared across the pipeline.

An error carries only its message; `cli.main` maps its type to an exit
code.
"""
from __future__ import annotations


class GuidegraphError(Exception):
    """Base class for all pipeline errors."""


class EmptyLabelError(GuidegraphError):
    """A label normalized to the empty string."""


class MissingNodeError(GuidegraphError):
    """An operation referenced a node id that is not in the graph."""


class InvalidMergeError(GuidegraphError):
    """merge_nodes was asked to merge a node with itself."""


class GraphIntegrityError(GuidegraphError):
    """A graph violated referential integrity or the no-self-loop rule."""


class IdCollisionError(GuidegraphError):
    """Two input graphs shared a node id during union."""


class InterfaceResolutionError(GuidegraphError):
    """A chunk interface label could not be resolved to a node in the union."""


class OracleTransportError(GuidegraphError):
    """The backend could not be reached or gave no usable reply."""


class OracleProtocolError(GuidegraphError):
    """The backend reply never validated against the task schema."""


class FixtureMissingError(OracleTransportError):
    """No fixture for the request digest: no retry or fallback can make a reply."""


class EmbeddingError(GuidegraphError):
    """An embedding was rejected (not one axis, non-finite, zero norm or
    dimension mismatch)."""


class ProfileError(GuidegraphError):
    """Profile extraction had no header pages (an invalid reply is a protocol error)."""


class ChunkInterfaceError(GuidegraphError):
    """A chunk's entry/terminal interface ended up empty or overlapping."""


class ExpansionBudgetExceeded(GuidegraphError):
    """Chunk expansion hit the node cap."""


class ManifestError(GuidegraphError):
    """The page manifest was malformed or referenced unusable pages."""


class UsageError(GuidegraphError):
    """Invalid configuration or command usage."""
