"""Exception hierarchy for the repro (A-Store) library.

All library-raised exceptions derive from :class:`AStoreError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class AStoreError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(AStoreError):
    """A table, column, or reference definition is invalid or missing."""


class StorageError(AStoreError):
    """Invalid physical-storage operation (bad slot, capacity, dtype...)."""


class ParseError(AStoreError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindError(AStoreError):
    """A query referenced a name that cannot be resolved in the catalog."""


class PlanError(AStoreError):
    """The query is outside the supported SPJGA class or cannot be planned."""


class ExecutionError(AStoreError):
    """A runtime failure while executing a physical plan."""


class ShardExecutionError(ExecutionError):
    """A shard backend lost workers mid-query (a pool process died) —
    the plan itself is fine and the engine may
    degrade to the serial backend instead of surfacing a hang or a raw
    ``BrokenProcessPool``."""


class UpdateError(AStoreError):
    """Invalid transactional update (bad snapshot, conflicting write...)."""
