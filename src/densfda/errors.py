"""Exception types raised across the package, and the one rule for them.

Every fault of the input, whether an argument, a file or the data in
it, raises a subclass of :class:`DensfdaError`.  ``cli.main`` reports
that class, and an ``OSError`` of a file it cannot open, as exit 1;
``simulation.run_comparison`` records it as a failed replication.
Neither catches anything else: any other exception is a bug and
propagates with its traceback.  ``BadArgumentError``,
``SampleShapeError`` and ``InvalidDensityError`` also subclass
``ValueError``, so code that catches ``ValueError`` still catches them.
"""


class DensfdaError(Exception):
    """Base class for all library errors: a fault of the input."""


class BadArgumentError(DensfdaError, ValueError):
    """An argument lies outside the values the function accepts."""


class AllZeroError(DensfdaError):
    """Raw function is identically zero (or has no positive mass)."""


class NonFiniteError(DensfdaError):
    """Input contains NaN or infinite values."""


class GridMismatchError(DensfdaError):
    """Two grid functions do not share the same grid."""


class SupportMismatchError(DensfdaError):
    """Two densities do not share the same support interval."""


class NotInvertibleError(DensfdaError):
    """CDF has a flat span wider than one grid cell and cannot be inverted."""


class BadBandwidthError(DensfdaError):
    """Bandwidth outside (0, 0.5) on the unit-mapped support."""


class TooFewSamplesError(DensfdaError):
    """Fewer than two data points supplied to the density estimator."""


class OutOfSupportError(DensfdaError):
    """A sample falls outside the declared support interval."""


class SampleShapeError(DensfdaError, ValueError):
    """Draws given to the density estimator have the wrong number of axes."""


class TransformOverflowError(DensfdaError):
    """Exponentiation guard tripped while applying an inverse transform."""


class KTooLargeError(DensfdaError):
    """Requested more components than the decomposition holds."""


class EmptySampleError(DensfdaError):
    """An operation requiring n >= 1 (or >= 2) received an empty sample."""


class NoConvergenceError(DensfdaError):
    """Iterative mean computation failed to converge within max_iter."""


class DegenerateSigmaError(DensfdaError):
    """Scale parameter of a generator distribution is not positive."""


class InvalidDensityError(DensfdaError, ValueError):
    """Density values have the wrong shape, are not strictly positive or
    do not integrate to one."""


class CsvFormatError(DensfdaError):
    """An input CSV file is empty, has no data rows or has a malformed row."""


class RankDeficientWarning(UserWarning):
    """Score matrix was singular; trailing components were dropped."""
