"""Exception types and process exit codes shared across the package."""

from __future__ import annotations

EXIT_INVALID_CONFIG = 2
EXIT_INGEST_FAILURE = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_ORACLE_CAP = 5
EXIT_NUMERICAL = 6


class MixtureError(Exception):
    """Base class for errors raised by this package."""


class IngestError(MixtureError):
    """Input data could not be parsed or failed validation."""


class ResourceLimitError(MixtureError):
    """The lattice exceeded its configured entry budget.

    `step` is the observation count at which it ran out, and `growth` the
    entry counts from the fold's start up to and including that step. The
    budget covers every observation: `build` starts at the n=0 lattice, 1 entry.
    """

    def __init__(self, message: str, entry_count: int, step: int, growth: tuple[int, ...]):
        super().__init__(message)
        self.entry_count = entry_count
        self.step = step
        self.growth = growth


class OracleCapError(MixtureError):
    """The brute-force allocation count k**n exceeded the configured cap."""


class UnsupportedFamilyError(MixtureError):
    """The requested operation is not defined for this family."""


class LatticeFormatError(MixtureError, ValueError):
    """A lattice dump is malformed or violates a lattice invariant."""


class NumericalError(MixtureError, ArithmeticError):
    """A result came out non-finite or a numerical construction failed."""
