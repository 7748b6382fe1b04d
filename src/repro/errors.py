"""Exception hierarchy for the SDUR reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class ClockError(SimulationError):
    """An event was scheduled in the past or the clock went backwards."""


class TransportError(ReproError):
    """A message could not be encoded, routed, or delivered."""


class CodecError(TransportError):
    """A message could not be serialized or deserialized."""


class UnknownNodeError(TransportError):
    """A message was addressed to a node the transport does not know."""


class ConsensusError(ReproError):
    """The atomic broadcast layer was misused or reached a bad state."""


class StorageError(ReproError):
    """The storage layer was misused or reached a bad state."""


class SnapshotTooOldError(StorageError):
    """A read requested a version older than the retained history."""


class ProtocolError(ReproError):
    """The SDUR protocol layer was misused or reached a bad state."""


class ConfigurationError(ReproError):
    """A cluster or experiment configuration is inconsistent."""
