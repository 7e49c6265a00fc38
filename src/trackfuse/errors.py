"""Exception hierarchy for the package.

Every error raised by trackfuse derives from :class:`TrackfuseError` so callers
can catch data problems in one clause while programming errors (TypeError etc.)
propagate normally.
"""


class TrackfuseError(Exception):
    """Base class for all trackfuse errors."""


class WrongLength(TrackfuseError):
    """A probability vector does not match the label-set size."""


class InvalidValue(TrackfuseError):
    """A field value is out of range, non-finite, or otherwise malformed."""


class DegenerateSum(TrackfuseError):
    """A raw probability vector sums to (almost) zero and cannot be normalized."""


class InvalidConfig(TrackfuseError):
    """A configuration object violates its invariants."""


class OutOfOrderFrame(TrackfuseError):
    """A tracker received a frame id at or before its cursor."""


class MissingEmbedding(TrackfuseError):
    """The appearance tracker received a detection without an embedding."""


class NumericalBreakdown(TrackfuseError):
    """A Kalman step left a track with a non-finite or non-PSD covariance (beyond
    tolerance), a non-finite mean, or a singular innovation covariance."""


class IndexOutOfRange(TrackfuseError):
    """A class index exceeds the label-set size."""


class EmptyEvaluation(TrackfuseError):
    """A metric was requested over zero evaluated detections."""


class NoEligibleTracks(TrackfuseError):
    """Flip rate requires at least one track with two or more entries."""


class ParseError(TrackfuseError):
    """A detection file line could not be parsed.

    Carries the 1-based line number in ``line``.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(TrackfuseError):
    """A record is well-formed JSON but violates the file schema."""


class EmptyFile(TrackfuseError):
    """A detection file contains no records."""
