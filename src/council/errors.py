"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed direct inputs (bad temperature,
unknown segment id, negative spread). The classes below mark conditions a
caller may want to branch on: transient provider trouble, an expert that
cannot act right now, misconfiguration, and operations applied to a state
that does not admit them.
"""

from __future__ import annotations


class ProviderError(RuntimeError):
    """A completion provider failed transiently.

    Retriable: the same call may succeed on a later attempt.
    """


class ExpertUnavailableError(RuntimeError):
    """An expert could not produce output after the retry budget was spent."""


class BackendConfigError(RuntimeError):
    """A completion backend is misconfigured (bad credential, bad endpoint).

    Not retriable; retrying the identical request cannot help.
    """


class ConfigKeyError(ValueError):
    """A run configuration value is missing, malformed or out of range.
    ``key`` is its dotted path, as in ``planner.budget.iterations``."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class ScoreParseError(ValueError):
    """No usable numeric score could be extracted from an evaluation reply."""


class InvalidStateError(RuntimeError):
    """An operation was applied to a state that does not permit it,
    for example replaying an action past a terminal outcome."""
