"""Exception hierarchy shared by all gn_lens modules."""


class GnLensError(Exception):
    """Base class for all library errors."""


class ValidationError(GnLensError):
    """Input carries non-finite entries or violates a basic invariant."""


class DimensionError(GnLensError):
    """Shapes are incompatible with the requested operation."""


class SizeError(DimensionError):
    """Result would exceed the configured dense-dimension cap."""


class NumericError(GnLensError):
    """A numerical routine failed to converge or produced non-finite output."""


class PsdViolationError(GnLensError):
    """A matrix required to be PSD has an eigenvalue below the clamp threshold."""


class RankZeroError(GnLensError):
    """No eigenvalue survives the rank policy's cutoff."""


class FormatError(GnLensError):
    """A file does not conform to the expected on-disk format."""


class DegenerateDataError(GnLensError):
    """Data (or weights) are too degenerate for the operation to be defined."""


class SpecError(GnLensError):
    """An architecture specification is internally inconsistent."""


class AssumptionError(GnLensError):
    """An analytic bound's precondition is violated (bound undefined)."""


class ConfigError(GnLensError):
    """An experiment config file is malformed."""
