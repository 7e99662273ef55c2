"""Signal-domain primitives: windows, STFT/iSTFT, log-magnitude features,
real cepstrum, and the preprocessing surrogates (band limiting, active-level
normalization) applied ahead of coding and evaluation.

All operations are pure: the same inputs always produce bit-identical
outputs, and nothing here keeps mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.signal import firwin, oaconvolve

from .errors import ConfigError, DataError

SAMPLE_RATE = 16000
LOG_FLOOR = 1e-12


@dataclass
class AudioBuffer:
    """Mono audio samples in [-1, 1] nominal range with pipeline metadata."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE
    label: str = "clean"

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError("audio must be mono (1-D sample array)")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("audio contains NaN or Inf samples")

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


def require_16k(buf: AudioBuffer) -> None:
    if buf.sample_rate != SAMPLE_RATE:
        raise DataError(
            f"pipeline requires {SAMPLE_RATE} Hz audio, got {buf.sample_rate} Hz"
        )


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration: 32 ms frames, 50% overlap, 257 bins of which
    the first 205 (bandwidth up to 6.4 kHz) are processed."""

    frame_len: int = 512
    hop: int = 256
    fft_len: int = 512
    n_bins: int = 257
    n_processed: int = 205

    def __post_init__(self):
        if self.frame_len < 2 or self.frame_len % 2 != 0:
            raise ConfigError("frame_len must be even and >= 2")
        if self.hop * 2 != self.frame_len:
            raise ConfigError("hop must be frame_len / 2 (50% overlap)")
        if self.fft_len != self.frame_len:
            raise ConfigError("fft_len must equal frame_len (no zero padding)")
        if self.n_bins != self.fft_len // 2 + 1:
            raise ConfigError("n_bins must be fft_len/2 + 1")
        if not 1 <= self.n_processed <= self.n_bins:
            raise ConfigError("n_processed must be in [1, n_bins]")


DEFAULT_STFT = StftConfig()


@dataclass
class Spectrogram:
    """Complex STFT frames, shape (T, n_bins)."""

    frames: np.ndarray
    config: StftConfig = DEFAULT_STFT

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.complex128)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise DataError("spectrogram must be a (T, n_bins) array with T >= 1")
        if self.frames.shape[1] != self.config.n_bins:
            raise DataError(
                f"expected {self.config.n_bins} bins, got {self.frames.shape[1]}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise DataError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    def magnitudes(self, n_bins: int | None = None) -> np.ndarray:
        mags = np.abs(self.frames)
        return mags if n_bins is None else mags[:, :n_bins]


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
    """Log-magnitude features over the processed bins, shape (T, n_processed).

    `stats` is attached once the matrix has been normalized, so the inverse
    transform can recover raw log magnitudes.
    """

    frames: np.ndarray
    stats: NormStats | None = None

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


def frame_count(n_samples: int, cfg: StftConfig = DEFAULT_STFT) -> int:
    """Number of full analysis frames; the trailing partial frame is dropped."""
    if n_samples < cfg.frame_len:
        return 0
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def stft(buf: AudioBuffer, cfg: StftConfig = DEFAULT_STFT) -> Spectrogram:
    """Windowed real FFT of 50%-overlapping frames.

    Frame t covers samples [t*hop, t*hop + frame_len). Signals shorter than
    one frame are rejected.
    """
    require_16k(buf)
    x = buf.samples
    n_frames = frame_count(len(x), cfg)
    if n_frames < 1:
        raise DataError(
            f"signal too short for analysis: {len(x)} < {cfg.frame_len} samples"
        )
    window = sqrt_hann(cfg.frame_len)
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop]
    frames = frames[:n_frames] * window
    return Spectrogram(np.fft.rfft(frames, n=cfg.fft_len, axis=1), cfg)


def istft(spec: Spectrogram, cfg: StftConfig = DEFAULT_STFT) -> AudioBuffer:
    """Synthesis-windowed overlap-add inverse of `stft`.

    Output length is (T-1)*hop + frame_len. Edge samples (the first and last
    hop) carry incomplete window overlap; interior samples reconstruct
    exactly.
    """
    if spec.config != cfg:
        raise ConfigError("spectrogram config does not match the requested config")
    window = sqrt_hann(cfg.frame_len)
    frames = np.fft.irfft(spec.frames, n=cfg.fft_len, axis=1) * window
    t_count = spec.n_frames
    out = np.zeros((t_count - 1) * cfg.hop + cfg.frame_len)
    for t in range(t_count):
        start = t * cfg.hop
        out[start : start + cfg.frame_len] += frames[t]
    return AudioBuffer(out, label="enhanced")


def stft_filter(buf: AudioBuffer, modify, cfg: StftConfig = DEFAULT_STFT,
                label: str | None = None) -> AudioBuffer:
    """Analyze, modify and resynthesize a signal, edge to edge.

    The signal is zero-padded by one frame on both sides before `stft`, so
    every real sample sits under complete window overlap, and the `istft`
    of `modify(spectrogram)` is cropped back to the input's span: a
    `modify` that returns its argument reproduces the input at every
    sample. The label defaults to the input's.
    """
    pad = np.zeros(cfg.frame_len)
    padded = AudioBuffer(np.concatenate([pad, buf.samples, pad]),
                         buf.sample_rate, buf.label)
    out = istft(modify(stft(padded, cfg)), cfg)
    y = out.samples[cfg.frame_len : cfg.frame_len + len(buf)]
    return AudioBuffer(y, buf.sample_rate, buf.label if label is None else label)


def log_magnitude(
    spec: Spectrogram, floor_eps: float = LOG_FLOOR, n_bins: int | None = None
) -> FeatureMatrix:
    """Natural-log magnitudes of the processed bins, floored at floor_eps."""
    if floor_eps <= 0:
        raise ConfigError("floor_eps must be positive")
    if n_bins is None:
        n_bins = spec.config.n_processed
    mags = spec.magnitudes(n_bins)
    return FeatureMatrix(np.log(np.maximum(mags, floor_eps)))


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
    return FeatureMatrix((features.frames - stats.mean) / stats.std, stats)


def denormalize(features: FeatureMatrix, stats: NormStats | None = None) -> FeatureMatrix:
    stats = stats if stats is not None else features.stats
    if stats is None:
        raise ConfigError("normalization stats are missing")
    return FeatureMatrix(features.frames * stats.std + stats.mean)


def real_cepstrum(
    frame: np.ndarray,
    window: np.ndarray | None = None,
    floor_eps: float = LOG_FLOOR,
) -> np.ndarray:
    """Real cepstrum of an analysis frame, or of each row of a stack of them.

    c = real(IDFT(ln(max(|DFT(frame * window)|, floor_eps)))) along the last
    axis, same shape as the input. Pass an all-ones window to analyze the
    raw frame.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim < 1:
        raise DataError("cepstrum input must hold at least one frame")
    if window is None:
        window = sqrt_hann(frame.shape[-1])
    if window.shape != frame.shape[-1:]:
        raise DataError("window length does not match frame length")
    spectrum = np.fft.fft(frame * window, axis=-1)
    log_mag = np.log(np.maximum(np.abs(spectrum), floor_eps))
    return np.fft.ifft(log_mag, axis=-1).real


# Band-limiting surrogate: one linear-phase FIR doing 7 kHz low-pass plus
# a low-frequency high-pass, applied with exact group-delay compensation.
_BAND_LIMIT_TAPS = 1537
_BAND_LIMIT_EDGES = (70.0, 7150.0)


@lru_cache(maxsize=4)
def _band_limit_filter(low_hz: float, high_hz: float, taps: int) -> np.ndarray:
    h = firwin(taps, [low_hz, high_hz], pass_zero=False, fs=SAMPLE_RATE)
    h.setflags(write=False)
    return h


def band_limit(buf: AudioBuffer, cutoff_hz: float = 7000.0) -> AudioBuffer:
    """Speech-band filter: ~7 kHz low-pass plus low-frequency high-pass.

    Linear phase with the integer group delay removed, so the output stays
    sample-aligned with the input and keeps its length.
    """
    require_16k(buf)
    if cutoff_hz != 7000.0:
        raise ConfigError("only the 7 kHz speech band is supported")
    h = _band_limit_filter(*_BAND_LIMIT_EDGES, _BAND_LIMIT_TAPS)
    delay = (len(h) - 1) // 2
    y = oaconvolve(buf.samples, h)[delay : delay + len(buf)]
    return AudioBuffer(y, label=buf.label)


ACTIVE_FRAME_LEN = 256
ACTIVITY_THRESHOLD_DB = 30.0


def active_rms(samples: np.ndarray, frame_len: int = ACTIVE_FRAME_LEN) -> float:
    """RMS over frames whose energy is within 30 dB of the peak frame energy.

    The trailing partial frame is ignored.
    """
    n_frames = len(samples) // frame_len
    if n_frames < 1:
        raise DataError("signal shorter than one activity frame")
    frames = samples[: n_frames * frame_len].reshape(n_frames, frame_len)
    energy = np.mean(frames**2, axis=1)
    peak = energy.max()
    if peak <= 0.0:
        raise DataError("cannot measure level of an all-zero signal")
    active = energy > peak * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    return float(np.sqrt(np.mean(frames[active] ** 2)))


def level_normalize(
    buf: AudioBuffer, target_db: float = -26.0
) -> tuple[AudioBuffer, float]:
    """Scale so the active-frame RMS hits the target level (dB re full scale).

    Returns the scaled buffer and the scale factor that was applied.
    """
    require_16k(buf)
    rms = active_rms(buf.samples)
    scale = 10.0 ** (target_db / 20.0) / rms
    return AudioBuffer(buf.samples * scale, label=buf.label), scale
