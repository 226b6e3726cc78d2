"""Exception types shared across the package."""


class DtclustError(Exception):
    """Base class for all package errors."""


class ConfigError(DtclustError):
    """Invalid configuration: unknown columns, bad parameter values, malformed plans."""


class DataError(DtclustError):
    """Problems with the input data itself: unreadable files, arity mismatches, empty tables."""


class InternalError(DtclustError):
    """A broken invariant of the program itself, never a fault of the input."""
