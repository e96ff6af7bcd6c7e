"""Exception hierarchy shared across the package.

Two families matter to callers: configuration problems (bad matrices, bad
schedule parameters, bad axes) and runtime failures (a non-finite spectral
solve, internal cross-check violations). The CLI maps the first family to
exit code 2 and the second to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "GossipError",
    "ConfigError",
    "RuntimeFailure",
    "NotStochasticError",
    "NegativeEntryError",
    "NonzeroDiagonalError",
    "MatrixTooSmallError",
    "BadParameterError",
    "DisconnectedAfterRetriesError",
    "EigenFailureError",
    "BadHorizonError",
    "UnsupportedScheduleError",
    "InternalInconsistencyError",
    "BadAxisError",
]


class GossipError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GossipError, ValueError):
    """Invalid input or configuration. CLI exit code 2."""


class RuntimeFailure(GossipError, RuntimeError):
    """Failure while computing with a valid configuration. CLI exit code 3."""


# -- selection matrix / graph ------------------------------------------------

class NotStochasticError(ConfigError):
    """A row of the selection matrix does not sum to one."""


class NegativeEntryError(ConfigError):
    """The selection matrix contains a negative weight."""


class NonzeroDiagonalError(ConfigError):
    """The selection matrix lets a node pick itself."""


class MatrixTooSmallError(ConfigError):
    """Fewer than three nodes."""


class BadParameterError(ConfigError):
    """A generator or schedule parameter is out of range."""


class DisconnectedAfterRetriesError(ConfigError):
    """A random topology generator failed to produce a connected graph."""


class EigenFailureError(RuntimeFailure):
    """The spectral solve met a non-finite Lanczos coefficient or result,
    or did not converge."""


# -- theory ------------------------------------------------------------------

class BadHorizonError(ConfigError):
    """Analysis horizon too short for the requested check."""


class UnsupportedScheduleError(ConfigError):
    """An operation requires a constant schedule and got a time-varying one."""


class InternalInconsistencyError(RuntimeFailure):
    """Two evaluated conditions reached contradictory verdicts."""


# -- montecarlo --------------------------------------------------------------

class BadAxisError(ConfigError):
    """A sweep axis path does not address a numeric scalar in the config."""
