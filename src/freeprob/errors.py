"""Exception taxonomy and the exit-code table used by the command line.

Each error class maps to one documented process exit code.  No command
raises WordSpecError (10, raised only by the word API), and
InternalInconsistencyError (70) marks a defect, so the tests check those
entries on the table, not through a command.  Code 2 is reserved for
argparse usage errors and 1 for a failed verify run; code 5 is unused.
"""

from __future__ import annotations


class FreeprobError(Exception):
    """Base class for all errors raised by this package."""


class MeasureFormatError(FreeprobError):
    """A measure or matrix file violates its documented format or invariants."""


class DomainError(FreeprobError):
    """An argument lies outside the mathematical domain of the operation."""


class DiracInputError(FreeprobError):
    """The radial recipe needs a non-Dirac distribution; a point mass is
    always refused."""


class EigensolveError(FreeprobError):
    """The nonsymmetric eigensolver failed to converge."""


class SentinelError(FreeprobError):
    """A Laplacian stencil touched a flagged singular grid node."""


class DimensionMismatchError(FreeprobError):
    """Operands do not share the required shape."""


class WordSpecError(FreeprobError):
    """A trace-word specification failed to parse or names an unknown factor."""


class InternalInconsistencyError(FreeprobError):
    """Two independent routes to the same answer disagreed; this falsifies
    the implementation rather than the input."""


EXIT_CODES: dict[type[FreeprobError], int] = {
    MeasureFormatError: 3,
    DomainError: 4,
    DiracInputError: 6,
    EigensolveError: 7,
    SentinelError: 8,
    DimensionMismatchError: 9,
    WordSpecError: 10,
    InternalInconsistencyError: 70,
}


def exit_code_for(exc: BaseException) -> int:
    """Exit code for an exception instance; unknown FreeprobError maps to 64."""
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]  # type: ignore[index]
    return 64
