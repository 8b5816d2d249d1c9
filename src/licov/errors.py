"""Exception taxonomy.

Three branches matching the CLI exit-code contract: configuration and
usage problems (exit 1), data problems (exit 2), numeric failures (exit 3).
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


class MalformedScan(DataError):
    """Scan file not a whole number of 16-byte records, or non-finite data."""


class InvalidVoxelSize(ConfigError):
    """Voxel size must be strictly positive and finite."""


class TooFewPoints(DataError):
    """Not enough points for the requested neighborhood size."""


class EmptyCloud(DataError):
    """Operation requires a non-empty point cloud."""


class EmptyIndex(DataError):
    """Nearest-neighbor query against an empty index."""


class MissingPose(DataError):
    """A frame in the requested window has no pose."""


class EmptySequence(DataError):
    """Scan or pose source contains no frames."""


class NoCorrespondences(NumericError):
    """All candidate pairs rejected by the correspondence distance gate."""


class TooFewValidSamples(NumericError):
    """Fewer than two Monte-Carlo samples survived; covariance undefined."""


class NotPositiveDefinite(NumericError):
    """Matrix expected to be positive definite is not."""


class EmptyDataset(DataError):
    """Dataset file contains no records."""


class FrameMismatch(DataError):
    """Estimated and reference trajectories cover different frames."""


class LengthMismatch(DataError):
    """Paired collections differ in length."""


class EmptyEvaluation(DataError):
    """Evaluation requires at least one (prediction, label) pair."""


class EmptyTrajectory(DataError):
    """Trajectory metric requires at least one frame."""


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
