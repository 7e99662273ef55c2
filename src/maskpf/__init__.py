"""Mask-based time-frequency post-filter for coded speech.

The pipeline estimates a real-valued gain per time-frequency bin from the
degraded signal's log-magnitude spectrum, applies it to the degraded STFT,
and resynthesizes. Subpackages cover signal processing (`dsp`), mask math
(`mask`), the trainable estimators (`nn`), a deterministic codec surrogate
(`degrade`), quality metrics (`metrics`), and the command-line front end
(`cli`).
"""

from .dsp import SAMPLE_RATE, AudioBuffer, Spectrogram, stft, istft
from .errors import ConfigError, DataError, MaskpfError, NumericError

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_RATE",
    "AudioBuffer",
    "Spectrogram",
    "stft",
    "istft",
    "MaskpfError",
    "ConfigError",
    "DataError",
    "NumericError",
    "__version__",
]
