"""Exception types raised across the toolkit.

Grouped loosely by origin: script/data parsing problems, degenerate
numerical inputs, and pipeline-level failures. All inherit from
:class:`CeselError` so callers can catch everything from this package
with one handler. Each class states how the command line reports it:
``exit_code`` is the process's exit status and ``prefix`` starts the one
line it prints to stderr.
"""


class CeselError(Exception):
    """Base class for all toolkit errors."""

    exit_code, prefix = 3, "error"


# --- modeling-language / graph errors -------------------------------------

class UnknownSymbol(CeselError):
    """A script token is not a keyword and not present in the symbol table."""

    exit_code, prefix = 2, "data error"

    def __init__(self, symbol: str, position: int = -1):
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown symbol {symbol!r} at token {position}")


class StructureError(CeselError):
    """Script violates the begin/end frame or block nesting rules."""

    exit_code, prefix = 2, "data error"

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"structure error at token {position}: {reason}")


class EmptyGraph(CeselError):
    """A graph carries no symbols at all, so it has no comparable cells."""

    exit_code, prefix = 2, "data error"


class EmptyCell(CeselError):
    """A cell handed to the dependence comparison was empty."""


# --- independency errors ---------------------------------------------------

class DuplicateAlgorithmId(CeselError):
    """Two graph arrays with the same algorithm ID in one matrix."""

    exit_code, prefix = 2, "data error"


class UnknownAlgorithm(CeselError):
    """An algorithm ID is missing from the independency matrix."""


class DimensionMismatch(CeselError):
    """Basic-parameter matrices with incompatible shapes or IDs."""


class CommitteeTooSmall(CeselError):
    """Fewer than two usable committee entries."""

    prefix = "pipeline failure"


# --- data / clustering errors ----------------------------------------------

class ParseError(CeselError):
    """A CSV cell could not be interpreted; message names row and column."""

    exit_code, prefix = 2, "data error"


class DataFileError(CeselError):
    """A data file named in the configuration is missing or cannot be read."""

    exit_code, prefix = 2, "data error"


class AllMissingColumn(CeselError):
    """A feature column has no observed values, so it cannot be imputed."""

    exit_code, prefix = 2, "data error"


class ColumnOverflow(CeselError):
    """A feature column's mean or variance overflows float64."""

    exit_code, prefix = 2, "data error"


class DegenerateSpectrum(CeselError):
    """The spectral embedding is undefined: an isolated vertex or non-finite eigenvectors."""


class EmptyCommittee(CeselError):
    """An operation that needs at least one committee member got none."""


class WeightMismatch(CeselError):
    """Weight vector length does not match the committee, or a weight is negative, NaN or infinite."""


class InvalidK(CeselError, ValueError):
    """Requested cluster count is outside [1, n]."""

    exit_code, prefix = 1, "usage error"


class LengthMismatch(CeselError):
    """Two per-sample arrays have different lengths."""
