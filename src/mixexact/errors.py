"""Exception types shared across the package, each with its process exit code."""

from __future__ import annotations


class MixtureError(Exception):
    """Base class for errors raised by this package.

    `exit_code` is the command line's exit status for the error: 2, an
    invalid configuration or unsupported request, unless a subclass says
    otherwise.
    """

    exit_code = 2


class IngestError(MixtureError):
    """Input data could not be parsed or failed validation."""

    exit_code = 3


class ResourceLimitError(MixtureError):
    """The lattice exceeded its configured entry budget.

    `step` is the observation count at which it ran out, and `growth` the
    entry counts from the fold's start up to and including that step. The
    budget covers every observation: `build` starts at the n=0 lattice, 1 entry.
    """

    exit_code = 4

    def __init__(self, message: str, entry_count: int, step: int, growth: tuple[int, ...]):
        super().__init__(message)
        self.entry_count = entry_count
        self.step = step
        self.growth = growth


class OracleCapError(MixtureError):
    """The brute-force allocation count k**n exceeded the configured cap."""

    exit_code = 5


class UnsupportedFamilyError(MixtureError):
    """The requested operation is not defined for this family."""


class LatticeFormatError(MixtureError, ValueError):
    """A lattice dump is malformed or violates a lattice invariant."""


class NumericalError(MixtureError, ArithmeticError):
    """A result came out non-finite or a numerical construction failed."""

    exit_code = 6
