"""Signal-domain primitives: windows, STFT/iSTFT, log-magnitude features,
real cepstrum, and the preprocessing surrogates (band limiting, active-level
normalization) applied ahead of coding and evaluation.

The analysis framing is fixed and defined here once: 16 kHz audio, 32 ms
frames (`FRAME_LEN` samples) at 50% overlap (`HOP`), a real FFT of
FRAME_LEN // 2 + 1 = 257 bins, of which the first `N_PROCESSED` = 205
(up to 6.4 kHz) carry features and mask gains.

All operations are pure: the same inputs always produce bit-identical
outputs, and nothing here keeps mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.signal import firwin, oaconvolve

from .errors import ConfigError, DataError

SAMPLE_RATE = 16000
FRAME_LEN = 512
HOP = 256
N_PROCESSED = 205
LOG_FLOOR = 1e-12


@dataclass
class AudioBuffer:
    """Mono 16 kHz audio samples, float64, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: ClassVar[int] = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError("audio must be mono (1-D sample array)")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("audio contains NaN or Inf samples")

    def __len__(self) -> int:
        return int(self.samples.shape[0])


@dataclass
class Spectrogram:
    """Complex STFT frames, shape (T, FRAME_LEN // 2 + 1)."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.complex128)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise DataError("spectrogram must be a (T, n_bins) array with T >= 1")
        if self.frames.shape[1] != FRAME_LEN // 2 + 1:
            raise DataError(
                f"expected {FRAME_LEN // 2 + 1} bins, got {self.frames.shape[1]}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise DataError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    def magnitudes(self) -> np.ndarray:
        """Magnitudes of the processed bins, shape (T, N_PROCESSED)."""
        return np.abs(self.frames[:, :N_PROCESSED])


@dataclass
class NormStats:
    """Per-bin mean and standard deviation of log-magnitude features."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ConfigError("mean/std must be 1-D arrays of equal length")
        if np.any(self.std <= 0):
            raise ConfigError("std values must be positive")


@dataclass
class FeatureMatrix:
    """Log-magnitude features over the processed bins, shape (T, N_PROCESSED)."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise DataError("feature matrix must be 2-D")


def sqrt_hann(frame_len: int) -> np.ndarray:
    """Square root of the periodic Hann window.

    Satisfies w^2[i] + w^2[i + frame_len/2] == 1, which makes the 50%
    overlap-add analysis/synthesis pair exactly reconstructing.
    """
    if frame_len < 2 or frame_len % 2 != 0:
        raise ConfigError("frame_len must be even and >= 2")
    i = np.arange(frame_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * i / frame_len))


@lru_cache(maxsize=1)
def analysis_window() -> np.ndarray:
    """The FRAME_LEN-sample `sqrt_hann` window of `stft` and `istft`,
    built once and read-only."""
    window = sqrt_hann(FRAME_LEN)
    window.setflags(write=False)
    return window


def frame_count(n_samples: int) -> int:
    """Number of full analysis frames; the trailing partial frame is dropped."""
    if n_samples < FRAME_LEN:
        return 0
    return (n_samples - FRAME_LEN) // HOP + 1


def analysis_frames(samples: np.ndarray) -> np.ndarray:
    """The raw (unwindowed) analysis frames of a signal, shape
    (T, FRAME_LEN), as a read-only strided view of `samples`.

    Frame t covers samples [t*HOP, t*HOP + FRAME_LEN); the trailing partial
    frame is dropped. Signals shorter than one frame are rejected.
    """
    if frame_count(len(samples)) < 1:
        raise DataError(
            f"signal too short for analysis: {len(samples)} < {FRAME_LEN} samples"
        )
    return np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN)[::HOP]


def stft(buf: AudioBuffer) -> Spectrogram:
    """Windowed real FFT of the `analysis_frames` of a signal."""
    frames = analysis_frames(buf.samples) * analysis_window()
    return Spectrogram(np.fft.rfft(frames, axis=1))


def istft(spec: Spectrogram) -> AudioBuffer:
    """Synthesis-windowed overlap-add inverse of `stft`.

    Output length is (T-1)*HOP + FRAME_LEN. Edge samples (the first and
    last hop) carry incomplete window overlap; interior samples reconstruct
    exactly.

    Frame t covers hop blocks t and t + 1 (FRAME_LEN is two hops). Each
    block gets the previous frame's tail first and then its own frame's
    head, the order of adding the frames one by one into zeros, so the sums
    keep every bit of that loop, signed zeros included.
    """
    frames = np.fft.irfft(spec.frames, n=FRAME_LEN, axis=1) * analysis_window()
    out = np.zeros((spec.n_frames - 1) * HOP + FRAME_LEN)
    blocks = out.reshape(spec.n_frames + 1, HOP)
    blocks[1:] += frames[:, HOP:]
    blocks[:-1] += frames[:, :HOP]
    return AudioBuffer(out)


def stft_filter(buf: AudioBuffer, modify) -> AudioBuffer:
    """Analyze, modify and resynthesize a signal, edge to edge.

    The signal is zero-padded by one frame on both sides before `stft`, so
    every real sample sits under complete window overlap, and the `istft`
    of `modify(spectrogram)` is cropped back to the input's span: a
    `modify` that returns its argument reproduces the input at every
    sample.
    """
    pad = np.zeros(FRAME_LEN)
    padded = AudioBuffer(np.concatenate([pad, buf.samples, pad]))
    out = istft(modify(stft(padded)))
    return AudioBuffer(out.samples[FRAME_LEN : FRAME_LEN + len(buf)])


def log_magnitude(spec: Spectrogram) -> FeatureMatrix:
    """Natural-log magnitudes of the processed bins, floored at LOG_FLOOR."""
    return FeatureMatrix(np.log(np.maximum(spec.magnitudes(), LOG_FLOOR)))


def compute_norm_stats(feature_list: list[FeatureMatrix]) -> NormStats:
    """Per-bin global mean/std over a training split; std floored at 1e-6."""
    if not feature_list:
        raise DataError("cannot compute normalization stats from an empty split")
    stacked = np.concatenate([f.frames for f in feature_list], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-6)
    return NormStats(mean, std)


def normalize(features: FeatureMatrix, stats: NormStats | None) -> FeatureMatrix:
    """Standardize features with the per-bin stats of the training split."""
    if stats is None:
        raise ConfigError("normalization stats are missing")
    return FeatureMatrix((features.frames - stats.mean) / stats.std)


def real_cepstrum(frame: np.ndarray, window: np.ndarray | None = None) -> np.ndarray:
    """Real cepstrum of an analysis frame, or of each row of a stack of them.

    c = real(IDFT(ln(max(|DFT(frame * window)|, LOG_FLOOR)))) along the last
    axis, same shape as the input. Pass an all-ones window to analyze the
    raw frame.

    The log magnitude of a real frame is real and even, so the transforms
    are real FFTs (`rfft`, then `irfft` of the half spectrum).
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim < 1:
        raise DataError("cepstrum input must hold at least one frame")
    n = frame.shape[-1]
    if window is None:
        window = analysis_window() if n == FRAME_LEN else sqrt_hann(n)
    if window.shape != frame.shape[-1:]:
        raise DataError("window length does not match frame length")
    spectrum = np.fft.rfft(frame * window, axis=-1)
    log_mag = np.log(np.maximum(np.abs(spectrum), LOG_FLOOR))
    return np.fft.irfft(log_mag, n=n, axis=-1)


# Band-limiting surrogate: one linear-phase FIR doing 7 kHz low-pass plus
# a low-frequency high-pass, applied with exact group-delay compensation.
_BAND_LIMIT_TAPS = 1537
_BAND_LIMIT_EDGES = (70.0, 7150.0)


@lru_cache(maxsize=1)
def _band_limit_filter() -> np.ndarray:
    h = firwin(_BAND_LIMIT_TAPS, _BAND_LIMIT_EDGES, pass_zero=False, fs=SAMPLE_RATE)
    h.setflags(write=False)
    return h


def band_limit(buf: AudioBuffer) -> AudioBuffer:
    """Speech-band filter: ~7 kHz low-pass plus low-frequency high-pass.

    Linear phase with the integer group delay removed, so the output stays
    sample-aligned with the input and keeps its length.
    """
    h = _band_limit_filter()
    delay = (len(h) - 1) // 2
    return AudioBuffer(oaconvolve(buf.samples, h)[delay : delay + len(buf)])


ACTIVE_FRAME_LEN = 256
ACTIVITY_THRESHOLD_DB = 30.0
TARGET_LEVEL_DB = -26.0


def active_rms(samples: np.ndarray) -> float:
    """RMS over ACTIVE_FRAME_LEN-sample frames whose energy is within 30 dB
    of the peak frame energy.

    The trailing partial frame is ignored.
    """
    n = len(samples) // ACTIVE_FRAME_LEN * ACTIVE_FRAME_LEN
    if n < 1:
        raise DataError("signal shorter than one activity frame")
    frames = samples[:n].reshape(-1, ACTIVE_FRAME_LEN)
    energy = np.mean(frames**2, axis=1)
    peak = energy.max()
    if peak <= 0.0:
        raise DataError("cannot measure level of an all-zero signal")
    active = energy > peak * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    return float(np.sqrt(np.mean(frames[active] ** 2)))


def level_normalize(buf: AudioBuffer) -> tuple[AudioBuffer, float]:
    """Scale so the active-frame RMS hits TARGET_LEVEL_DB (dB re full scale).

    Returns the scaled buffer and the scale factor that was applied.
    """
    scale = 10.0 ** (TARGET_LEVEL_DB / 20.0) / active_rms(buf.samples)
    return AudioBuffer(buf.samples * scale), scale
