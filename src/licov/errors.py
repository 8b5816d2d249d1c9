"""Exception taxonomy.

One type per CLI exit code: configuration and usage problems (exit 1),
data problems (exit 2), numeric failures (exit 3). The only subclasses are
the three that code catches by name; every other fault raises its branch.
"""
import math
from contextlib import contextmanager


class LicovError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LicovError, ValueError):
    """Bad configuration, unknown keys, invalid argument values."""


class DataError(LicovError):
    """Missing or malformed input data."""


class NumericError(LicovError):
    """Numeric failure (divergence, singularity, domain violation)."""


class AngleNearPi(NumericError):
    """Rotation angle within 1e-6 of pi, where the log map is unstable."""


class NoCorrespondences(NumericError):
    """All candidate pairs rejected by the correspondence distance gate."""


class TooFewValidSamples(NumericError):
    """Fewer than two Monte-Carlo samples survived; covariance undefined."""


def require(obj, low, *names, strict=False):
    """Reject the first of obj's `names` that is non-finite or below low
    (not above it, when strict); None is an unset value and passes."""
    for name in names:
        v = getattr(obj, name)
        if v is not None and not (math.isfinite(v) and (v > low if strict else v >= low)):
            raise ConfigError(f"{name} must be {'above' if strict else 'at least'} {low}, got {v}")


@contextmanager
def at_line(path, lineno):
    """Report a ValueError inside the block as a DataError at path:lineno."""
    try:
        yield
    except ValueError as e:
        raise DataError(f"{path}:{lineno}: {e}") from None
