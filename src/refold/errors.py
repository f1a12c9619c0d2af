"""Exception types shared across the package."""


class RefoldError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(RefoldError):
    """Input has the wrong dimensionality or mismatched dimensions."""


class InvalidInputError(RefoldError):
    """Input contains non-finite or otherwise unusable values."""


class InsufficientDataError(RefoldError):
    """Too few samples for the requested operation."""


class NumericError(RefoldError):
    """A computation produced non-finite intermediate values."""


class ConfigError(RefoldError):
    """Invalid parameter or configuration value."""


class EvaluationError(RefoldError):
    """Evaluation is undefined for the given inputs (e.g. empty class)."""


class SelectionError(RefoldError):
    """Threshold selection cannot run on the given training pool."""


class DataFormatError(RefoldError):
    """A dataset file does not parse or does not match its registry entry."""


class ModelFormatError(RefoldError):
    """A model file is malformed, truncated, or has an unknown version."""


class OutputError(RefoldError):
    """An output file (model, report, curve, probe table) cannot be written."""
