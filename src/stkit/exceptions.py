"""Exception taxonomy shared across the toolkit.

Every error raised on purpose derives from :class:`StkitError` so callers can
catch toolkit failures with a single except clause. Parse-time errors carry
enough location detail (table, row, column) to point at the offending cell.
Each class carries the command line's exit code for it: 3 for a
configuration or input problem, 4 for a :class:`RunFailure` and 2 for
:class:`ValidationFailed`.
"""

from __future__ import annotations

__all__ = [
    "StkitError",
    "RunFailure",
    "ParseError",
    "MissingColumn",
    "RaggedRow",
    "BadTimestamp",
    "BadCoordinate",
    "BadFieldValue",
    "DuplicateId",
    "BadFeatureValue",
    "BadEncoding",
    "MissingManifest",
    "BadManifest",
    "ValidationFailed",
    "UnmappedMandatoryColumn",
    "EmptyTable",
    "NonAlignedTimestamp",
    "DuplicateCell",
    "UnknownEntity",
    "TensorTooLarge",
    "NegativeWeight",
    "BadPipelineParams",
    "DegenerateScale",
    "NegativeInputForLog",
    "EmptySegment",
    "WindowTooLong",
    "EmptyTrainingData",
    "SingularDesign",
    "InsufficientLength",
    "AllMasked",
    "HorizonOutOfRange",
    "EmptyCandidateList",
    "DuplicateCandidate",
    "EmptyTrueRoute",
    "NonLineGeometry",
    "NoCandidatesAnywhere",
    "BadMatchParams",
    "BadModelParams",
    "UnknownCliKey",
    "BadConfigFile",
    "IncompatibleModelTask",
    "DatasetNotFound",
    "ContinuousDomainInGrid",
    "NoResults",
]


class StkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3


class RunFailure(StkitError):
    """Well-formed input on which the run cannot go on: no dataset, no data
    to fit, forecast, evaluate or match, or no results to rank."""

    exit_code = 4


class ParseError(StkitError):
    """A table could not be parsed; knows where the problem is.

    Attributes
    ----------
    table : str
        Kind of the table being parsed (for example ``"geo"``).
    row : int or None
        1-based data row ordinal (header not counted); None for
        header-level problems.
    column : str or None
        Column name, when the problem is tied to one cell.
    """

    def __init__(self, message, table=None, row=None, column=None):
        loc = []
        if table is not None:
            loc.append(f"table={table}")
        if row is not None:
            loc.append(f"row={row}")
        if column is not None:
            loc.append(f"column={column}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.table = table
        self.row = row
        self.column = column


class MissingColumn(ParseError):
    """Header lacks a mandatory column or has it in the wrong position."""


class RaggedRow(ParseError):
    """A data row has a different cell count than the header."""


class BadTimestamp(ParseError):
    """A time cell is not ISO-8601 UTC of the form YYYY-MM-DDTHH:MM:SSZ."""


class BadCoordinate(ParseError):
    """A coordinates cell is not valid JSON geometry or is out of range."""


class BadFieldValue(ParseError):
    """A cell value is outside the column's domain."""


class DuplicateId(ParseError):
    """Primary identifier repeated within one table."""


class BadFeatureValue(ParseError, ValueError):
    """A feature cell to tensorize is missing, is not a number, or is an
    integer too large for a float."""


class BadEncoding(ParseError):
    """A byte is not UTF-8, or csv.reader refuses the text (NUL before 3.11)."""


class MissingManifest(StkitError):
    """Dataset directory has no manifest.json."""


class BadManifest(ParseError):
    """manifest.json is not JSON, not an object, or has a key of the wrong
    type; ``column`` names the key."""


class ValidationFailed(StkitError):
    """Dataset validation found errors; carries the full report."""

    exit_code = 2

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


class UnmappedMandatoryColumn(StkitError):
    """Raw-CSV conversion spec does not map a required column."""


class EmptyTable(RunFailure):
    """Operation needs at least one record."""


class NonAlignedTimestamp(StkitError):
    """A record time does not fall on the interval grid of the time axis."""


class DuplicateCell(StkitError):
    """Two records target the same tensor cell."""


class UnknownEntity(StkitError):
    """A record references an identifier with no position in the ordering."""


class TensorTooLarge(ParseError):
    """A dense tensor would not fit in this machine's memory. The location
    names what drives its size: the row of a time span's far stamp, the
    manifest's ``grid_rows`` or ``grid_cols``, or the geo table."""


class NegativeWeight(StkitError):
    """Adjacency weight property is negative."""


class BadPipelineParams(StkitError, ValueError):
    """A scaler kind, split ratio, window or batch size, trajectory cut or
    ranking cutoff is out of its domain."""


class DegenerateScale(StkitError):
    """Scaler cannot be fit: zero spread in the training cells."""


class NegativeInputForLog(StkitError):
    """log1p scaling requires non-negative inputs."""


class EmptySegment(StkitError):
    """A chronological split ratio produced an empty segment."""


class WindowTooLong(StkitError):
    """Window length exceeds the number of available time slots."""


class EmptyTrainingData(RunFailure):
    """Model fit received no observed cells."""


class SingularDesign(RunFailure):
    """Least-squares design matrix is singular beyond repair."""


class InsufficientLength(RunFailure):
    """Series too short for the requested lag order or history."""


class AllMasked(RunFailure):
    """Metric evaluation received zero observed cells."""


class HorizonOutOfRange(StkitError):
    """Requested horizon exceeds the prediction window."""


class EmptyCandidateList(StkitError):
    """A ranking case has an empty candidate list."""


class DuplicateCandidate(StkitError):
    """A ranking candidate list contains a repeated identifier."""


class EmptyTrueRoute(StkitError):
    """Matching metrics need a non-empty ground-truth route."""


class NonLineGeometry(StkitError):
    """Road network construction requires LineString geometry."""


class NoCandidatesAnywhere(RunFailure):
    """No trajectory point has any candidate segment within the radius."""


class BadMatchParams(StkitError, ValueError):
    """A map-matching parameter is not a positive finite number.

    That covers NaN, infinities, zero, negatives, values that are not numbers,
    a fractional candidate cap and a noise or transition scale below the
    matcher's 1 mm floor.

    ``param`` names the offending :class:`~stkit.mapmatch.MatchParams` field.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class BadModelParams(StkitError, ValueError):
    """A forecasting model value is out of its domain: a period, lag order or
    dimension cap that is not positive, or that the data or the machine's
    memory cannot meet.

    ``param`` names the offending fit argument (``period``, ``order`` or
    ``max_dim``) when there is one.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class UnknownCliKey(StkitError):
    """Command line used a flag outside the supported whitelist."""


class BadConfigFile(StkitError):
    """A config, search-space, truth-routes or run-record file is missing,
    unreadable or not a JSON object, or a key or value in it is wrong."""


class IncompatibleModelTask(StkitError):
    """Selected model does not support the selected task."""


class DatasetNotFound(RunFailure):
    """Dataset directory could not be resolved."""


class ContinuousDomainInGrid(StkitError):
    """Grid search cannot enumerate a continuous domain."""


class NoResults(RunFailure):
    """Leaderboard aggregation found no usable run records."""
