"""Signal-domain primitives: the analysis window, STFT/iSTFT,
log-magnitude features, the real cepstrum of STFT rows, and the
preprocessing surrogates (band limiting, active-level normalization)
applied ahead of coding and evaluation.

The analysis framing is fixed and defined here once: 16 kHz audio, 32 ms
frames (`FRAME_LEN` samples) at 50% overlap (`HOP`), a real FFT of
FRAME_LEN // 2 + 1 = 257 bins, of which the first `N_PROCESSED` = 205
(up to 6.4 kHz) carry features and mask gains.

All operations are pure: the same inputs always produce bit-identical
outputs, and nothing here keeps mutable state. Everything runs on numpy;
the band-limit filter and its overlap-add convolution repeat the
arithmetic of scipy.signal's `firwin` and `oaconvolve`, so their outputs
keep the bits those gave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

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


@lru_cache(maxsize=1)
def analysis_window() -> np.ndarray:
    """The square root of the periodic FRAME_LEN-sample Hann window, the
    window of `stft` and `istft`, built once and read-only.

    Satisfies w^2[i] + w^2[i + HOP] == 1, which makes the 50% overlap-add
    analysis/synthesis pair exactly reconstructing.
    """
    i = np.arange(FRAME_LEN)
    window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * i / FRAME_LEN))
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


def log_magnitude(spec: Spectrogram) -> np.ndarray:
    """Natural-log magnitudes of the processed bins, floored at LOG_FLOOR:
    the (T, N_PROCESSED) features."""
    return np.log(np.maximum(spec.magnitudes(), LOG_FLOOR))


def compute_norm_stats(feature_list: list[np.ndarray]) -> NormStats:
    """Per-bin global mean/std over a training split's (T, K) features; std
    floored at 1e-6."""
    if not feature_list:
        raise DataError("cannot compute normalization stats from an empty split")
    stacked = np.concatenate(feature_list, axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-6)
    return NormStats(mean, std)


def normalize(features: np.ndarray, stats: NormStats | None) -> np.ndarray:
    """Standardize (T, K) features with the per-bin stats of the training
    split."""
    if stats is None:
        raise ConfigError("normalization stats are missing")
    return (features - stats.mean) / stats.std


def real_cepstrum(spectra: np.ndarray) -> np.ndarray:
    """Real cepstrum of each frame whose `stft` row is given.

    `spectra` holds STFT rows, shape (..., FRAME_LEN // 2 + 1); the result
    c = real(IDFT(ln(max(|S|, LOG_FLOOR)))) has shape (..., FRAME_LEN). The
    log magnitude of a real frame is real and even, so the inverse is a
    real FFT of the half spectrum.
    """
    spectra = np.asarray(spectra)
    if spectra.ndim < 1 or spectra.shape[-1] != FRAME_LEN // 2 + 1:
        raise DataError(
            f"cepstrum input must be STFT rows of {FRAME_LEN // 2 + 1} bins")
    log_mag = np.log(np.maximum(np.abs(spectra), LOG_FLOOR))
    return np.fft.irfft(log_mag, n=FRAME_LEN, axis=-1)


# Band-limiting surrogate: one linear-phase FIR doing 7 kHz low-pass plus
# a low-frequency high-pass, applied with exact group-delay compensation.
_BAND_LIMIT_TAPS = 1537
_BAND_LIMIT_EDGES = (70.0, 7150.0)
# The overlap-add FFT length for a 1537-tap filter, as oaconvolve picks it:
# the Lambert-W optimum of cost per block, rounded up to a 2·3·5-smooth length.
_BAND_LIMIT_BLOCK = 17640


@lru_cache(maxsize=1)
def _band_limit_filter() -> np.ndarray:
    """The band-pass between `_BAND_LIMIT_EDGES`: a Hamming-windowed
    difference of sincs, scaled to unit gain at the passband centre.

    The steps are scipy.signal.firwin's, in its order, so the taps equal
    `firwin(1537, (70, 7150), pass_zero=False, fs=16000)` bit for bit. The
    window is firwin's general cosine with coefficients 0.54 and 1 - 0.54;
    `np.hamming`'s 0.46 differs in the last bit.
    """
    lo, hi = np.array(_BAND_LIMIT_EDGES) / (0.5 * SAMPLE_RATE)
    m = np.arange(_BAND_LIMIT_TAPS, dtype=np.float64) - 0.5 * (_BAND_LIMIT_TAPS - 1)
    h = hi * np.sinc(hi * m) - lo * np.sinc(lo * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, _BAND_LIMIT_TAPS))
    h /= np.sum(h * np.cos(np.pi * m * (0.5 * (lo + hi))))
    h.setflags(write=False)
    return h


def _fft_len(n: int) -> int:
    """The smallest 2·3·5-smooth integer at least n: the real-FFT length
    that scipy.fft.next_fast_len gives."""
    best, p5 = 2 * n, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def band_limit(buf: AudioBuffer) -> AudioBuffer:
    """Speech-band filter: ~7 kHz low-pass plus low-frequency high-pass.

    Linear phase with the integer group delay removed, so the output stays
    sample-aligned with the input and keeps its length.

    The full convolution is one real FFT of the next 2·3·5-smooth length
    when the signal fits in one `_BAND_LIMIT_BLOCK`, and an overlap-add of
    such blocks otherwise, the tail zero-padded to whole steps. That is
    scipy.signal.oaconvolve's arithmetic, so the result keeps its bits for
    every signal of 172 samples or more.
    """
    h = _band_limit_filter()
    x = buf.samples
    n, taps = len(x), len(h)
    if n <= _BAND_LIMIT_BLOCK:
        size = _fft_len(n + taps - 1)
        full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)
    else:
        step = _BAND_LIMIT_BLOCK - taps + 1
        steps = -(-(n + taps - 1) // step)
        blocks = np.pad(x, (0, steps * step - n)).reshape(steps, step)
        blocks = np.fft.irfft(np.fft.rfft(blocks, _BAND_LIMIT_BLOCK)
                              * np.fft.rfft(h, _BAND_LIMIT_BLOCK), _BAND_LIMIT_BLOCK)
        blocks[1:, : taps - 1] += blocks[:-1, step:]
        full = blocks[:, :step].reshape(-1)
    delay = (taps - 1) // 2
    return AudioBuffer(full[delay : delay + n])


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
