"""Exception hierarchy shared by all pipeline stages.

``ConfigError`` subclasses signal bad user input (CLI exit code 2);
``PipelineError`` subclasses signal runtime failures on valid input
(CLI exit code 1).
"""


class CsiBioError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CsiBioError):
    """Invalid configuration, arguments, or specs supplied by the caller."""


class PipelineError(CsiBioError):
    """Runtime failure while processing otherwise valid inputs."""


# --- ingest ---------------------------------------------------------------

class NoCsiFrames(PipelineError):
    """Capture contained zero accepted CSI frames."""


class BadMagic(PipelineError):
    """File magic does not identify a portable CSI file."""


class UnsupportedVersion(PipelineError):
    """Portable CSI file version is newer than this reader."""


class LengthMismatch(PipelineError):
    """Portable CSI payload shorter/longer than the header promises."""


class CorruptHeader(PipelineError):
    """Portable CSI header describes a matrix write_portable never writes."""


class NonFiniteSample(PipelineError):
    """Portable CSI payload holds a NaN or infinite sample, which write_portable refuses."""


class ManifestMismatch(PipelineError):
    """A dataset manifest is malformed or an entry disagrees with its file's header."""


# --- synth ----------------------------------------------------------------

class InvalidSpec(ConfigError):
    """Channel or scenario parameters violate their invariants."""


# --- clean ----------------------------------------------------------------

class TooFewSubcarriersRemain(PipelineError):
    """IQR filtering left fewer than two subcarriers."""


class WindowTooLarge(ConfigError):
    """Rolling window exceeds the number of time samples."""


# --- features -------------------------------------------------------------

class ZeroEnergyWindow(PipelineError):
    """Window with zero total energy; energy features undefined."""


class ZeroSpectrum(PipelineError):
    """Time-averaged magnitude spectrum sums to zero."""


class FeatureGroupError(PipelineError):
    """Wraps a failure inside one feature group with the group name."""

    def __init__(self, group: str, cause: Exception):
        super().__init__(f"feature group {group!r}: {cause}")
        self.group = group
        self.cause = cause


# --- select ---------------------------------------------------------------

class DegenerateInput(PipelineError):
    """Input unusable for mutual-information estimation."""


# --- classify -------------------------------------------------------------

class SingleClass(PipelineError):
    """Training labels contain fewer than two classes."""


class DegenerateFeature(PipelineError):
    """Feature matrix unusable for the requested model."""


class SchemaMismatch(PipelineError):
    """Prediction-time feature schema differs from training schema."""


class Diverged(PipelineError):
    """Training reached a non-finite loss or parameter."""


# --- metrics --------------------------------------------------------------

class DegenerateClass(PipelineError):
    """A class lacks genuine or impostor scores."""


class TooFewScores(PipelineError):
    """Not enough scores for a bootstrap estimate."""


# --- harness --------------------------------------------------------------

class RecordTooShort(PipelineError):
    """An acquisition is shorter than the requested window size."""


class InsufficientData(PipelineError):
    """Dataset too small for the requested protocol."""
