"""Exception types shared across the package."""


class ConfusionKitError(Exception):
    """Base class for all package errors."""


class ChannelCountError(ConfusionKitError):
    """WAV file is not mono."""


class EncodingError(ConfusionKitError):
    """WAV file is not PCM16 or float32, or is not RIFF/WAVE at all."""


class SampleRateMismatchError(ConfusionKitError):
    """Two waveforms with different sample rates were combined."""


class LengthMismatchError(ConfusionKitError):
    """Two waveforms of different lengths were compared sample-wise."""


class ZeroSignalError(ConfusionKitError):
    """An all-zero signal or vector where a nonzero one is required."""


class CorpusError(ConfusionKitError):
    """Corpus too small or structurally invalid for the requested operation."""


class DivergenceError(ConfusionKitError):
    """Training produced a non-finite loss."""
