"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ArcsError(Exception):
    """Base class for all package errors. One raised in a run's rounds holds in
    ``run_log`` the log of the rounds that run finished."""

    run_log = None


class ConfigError(ArcsError):
    """Invalid or inconsistent configuration; maps to CLI exit code 2."""


class IngestError(ArcsError):
    """An input path could not be read during ingestion."""


class EmptyCorpusError(ArcsError):
    """Ingestion produced zero corpus items."""


class SnapshotCorruptionError(ArcsError):
    """A persisted snapshot failed its integrity check on load."""


class EmbedderMismatchError(ArcsError):
    """Query-time embedder does not match the snapshot's embedder."""


class DimensionMismatchError(ArcsError):
    """Vectors of different dimensions were combined."""


class ContextExhaustedError(ArcsError):
    """Prompt still over budget after maximal truncation."""


class TransportError(ArcsError):
    """A remote adapter request failed; retriable."""


class ModelProposalError(ArcsError):
    """The proposal model failed hard for one call (after retries)."""


class SandboxSetupError(ArcsError):
    """The executor could not prepare an isolated workspace."""


class NoCandidateError(ArcsError):
    """Every round produced an empty candidate; nothing to return.

    Carries the run log of the aborted run in ``run_log``.
    """

    def __init__(self, message: str, run_log):
        super().__init__(message)
        self.run_log = run_log


class ReplayAssetError(ArcsError):
    """Replay is impossible because a referenced asset diverged or is missing."""
