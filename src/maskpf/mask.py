"""Time-frequency mask math: ratio-mask targets, bounding, the modified
training target that caps unreasonable gains, mask statistics, and oracle
mask application (including the cepstral-envelope variant).

Masks are real, non-negative gains on the processed bins, shape (T, 205) by
default. Applying a mask scales STFT magnitudes and keeps the degraded
phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import DEFAULT_STFT, LOG_FLOOR, Spectrogram, StftConfig, sqrt_hann
from .errors import ConfigError, DataError

MAG_GUARD = 1e-9


@dataclass(frozen=True)
class MaskConfig:
    """Parameters of the modified ratio-mask target.

    Ratios above `threshold` are judged unreliable (the degraded bin carries
    too little energy to be boosted cleanly) and are replaced by
    `replacement`. `bound`, when finite, simply caps the raw ratio instead.
    """

    guard: float = MAG_GUARD
    threshold: float = 2.0
    replacement: float = 1.0
    bound: float = np.inf

    def __post_init__(self):
        if self.guard < 0:
            raise ConfigError("guard must be non-negative")
        if self.threshold <= 0 or self.replacement < 0:
            raise ConfigError("threshold must be > 0 and replacement >= 0")
        if self.bound <= 0:
            raise ConfigError("bound must be positive")


@dataclass
class MaskMatrix:
    """Gain per time-frequency bin, shape (T, n_processed)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("mask must be a 2-D (frames, bins) array")
        if not np.all(np.isfinite(self.values)):
            raise DataError("mask contains non-finite values")
        if np.any(self.values < 0):
            raise DataError("mask gains must be non-negative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _processed_mags(spec: Spectrogram, n_bins: int) -> np.ndarray:
    return spec.magnitudes(n_bins)


def compute_irm(
    clean: Spectrogram, coded: Spectrogram, config: MaskConfig = MaskConfig()
) -> MaskMatrix:
    """Ideal ratio mask |clean| / (|coded| + guard) over the processed bins."""
    if clean.config != coded.config:
        raise DataError("clean/coded spectrograms use different analysis configs")
    if clean.n_frames != coded.n_frames:
        raise DataError(
            f"frame count mismatch: clean has {clean.n_frames}, "
            f"coded has {coded.n_frames}"
        )
    n = clean.config.n_processed
    ratio = _processed_mags(clean, n) / (_processed_mags(coded, n) + config.guard)
    return MaskMatrix(ratio)


def bound_mask(mask: MaskMatrix, bound: float) -> MaskMatrix:
    """Cap every gain at `bound`. A bound of +inf is the identity."""
    if bound <= 0:
        raise ConfigError("bound must be positive")
    return MaskMatrix(np.minimum(mask.values, bound))


def modified_mask(mask: MaskMatrix, config: MaskConfig = MaskConfig()) -> MaskMatrix:
    """Replace gains above the reliability threshold with a fixed value.

    Gains <= threshold pass through untouched; everything else becomes
    `replacement`. This is the training target for the estimators.
    """
    values = np.where(
        mask.values <= config.threshold, mask.values, config.replacement
    )
    return MaskMatrix(values)


def modified_target_mags(mask: MaskMatrix, coded: Spectrogram) -> np.ndarray:
    """Magnitude target the loss compares against: modified mask times the
    degraded magnitudes, over the processed bins."""
    n = coded.config.n_processed
    if mask.shape != (coded.n_frames, n):
        raise DataError("mask shape does not match the spectrogram")
    return mask.values * _processed_mags(coded, n)


def apply_mask(spec: Spectrogram, mask: MaskMatrix) -> Spectrogram:
    """Scale the processed bins by the mask; bins above 6.4 kHz and the
    phase pass through unchanged."""
    n = spec.config.n_processed
    if mask.shape != (spec.n_frames, n):
        raise DataError(
            f"mask shape {mask.shape} does not match spectrogram "
            f"({spec.n_frames}, {n})"
        )
    frames = spec.frames.copy()
    frames[:, :n] *= mask.values
    return Spectrogram(frames, spec.config)


HISTOGRAM_EDGES = (1.0, 2.0, 5.0)
HISTOGRAM_LABELS = ("0..1", "1..2", "2..5", "5..inf")


@dataclass
class MaskHistogram:
    """Share of gains in the buckets [0,1], (1,2], (2,5], (5,inf)."""

    counts: np.ndarray
    total: int

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / max(self.total, 1)

    def rows(self) -> list[tuple[str, int, float]]:
        return [
            (label, int(c), float(f))
            for label, c, f in zip(HISTOGRAM_LABELS, self.counts, self.fractions)
        ]


def mask_histogram(masks: list[MaskMatrix]) -> MaskHistogram:
    """Pool gains from all matrices and bucket them by magnitude."""
    if not masks:
        raise DataError("histogram needs at least one mask matrix")
    counts = np.zeros(len(HISTOGRAM_EDGES) + 1, dtype=np.int64)
    total = 0
    for m in masks:
        v = m.values.ravel()
        counts += np.array(
            [
                np.count_nonzero(v <= 1.0),
                np.count_nonzero((v > 1.0) & (v <= 2.0)),
                np.count_nonzero((v > 2.0) & (v <= 5.0)),
                np.count_nonzero(v > 5.0),
            ]
        )
        total += v.size
    return MaskHistogram(counts, total)


CEPSTRUM_CUTOFF = 64


def oracle_cepstrum_substitute(
    clean_frame: np.ndarray,
    coded_frame: np.ndarray,
    cutoff: int = CEPSTRUM_CUTOFF,
    cfg: StftConfig = DEFAULT_STFT,
) -> np.ndarray:
    """Swap the spectral envelope of a degraded frame for the clean one.

    Both frames are time-domain analysis frames of length frame_len, or
    equal stacks (..., frame_len) of them, handled row by row. The low
    quefrencies [0, cutoff) and their mirror image of the degraded real
    cepstrum are replaced with the clean frame's, then the log spectrum is
    rebuilt. Returns the resulting 257-bin magnitude spectrum of each frame.
    """
    from .dsp import real_cepstrum

    if not 1 <= cutoff <= cfg.frame_len // 2:
        raise ConfigError("cutoff must be in [1, frame_len/2]")
    window = sqrt_hann(cfg.frame_len)
    c_clean = real_cepstrum(clean_frame, window)
    c_coded = real_cepstrum(coded_frame, window)
    merged = c_coded
    merged[..., :cutoff] = c_clean[..., :cutoff]
    mirror = cfg.frame_len - np.arange(1, cutoff)
    merged[..., mirror] = c_clean[..., mirror]
    log_spectrum = np.fft.fft(merged, axis=-1).real
    return np.exp(log_spectrum[..., : cfg.n_bins])


def envelope_mask(
    clean: Spectrogram,
    coded: Spectrogram,
    clean_frames_td: np.ndarray,
    coded_frames_td: np.ndarray,
    cutoff: int = CEPSTRUM_CUTOFF,
    guard: float = MAG_GUARD,
) -> MaskMatrix:
    """Oracle mask from cepstral envelope substitution in every frame.

    `*_frames_td` are the raw (unwindowed) time-domain analysis frames,
    shape (T, frame_len), aligned with the spectrograms. All frames go
    through `oracle_cepstrum_substitute` as one stack.
    """
    cfg = coded.config
    n = cfg.n_processed
    t_count = coded.n_frames
    expected = (t_count, cfg.frame_len)
    if clean_frames_td.shape != expected or coded_frames_td.shape != expected:
        raise DataError("time-domain frames do not match the spectrogram")
    mags = oracle_cepstrum_substitute(clean_frames_td, coded_frames_td, cutoff, cfg)
    return MaskMatrix(mags[:, :n] / (coded.magnitudes(n) + guard))


def time_domain_frames(samples: np.ndarray, cfg: StftConfig = DEFAULT_STFT) -> np.ndarray:
    """Raw overlapping analysis frames, shape (T, frame_len), no window."""
    from .dsp import frame_count

    t_count = frame_count(len(samples), cfg)
    if t_count < 1:
        raise DataError("signal too short for analysis")
    view = np.lib.stride_tricks.sliding_window_view(samples, cfg.frame_len)
    return np.ascontiguousarray(view[:: cfg.hop][:t_count])


def oracle_sweep(
    clean: Spectrogram,
    coded: Spectrogram,
    bounds: tuple[float, ...] = (1.0, 2.0, 5.0, np.inf),
    config: MaskConfig = MaskConfig(),
) -> list[tuple[float, float]]:
    """Distortion left by the bounded oracle mask, per bound.

    For each bound the ideal ratio mask is capped, applied to the degraded
    magnitudes, and compared against the clean magnitudes with the
    log-spectral distance (dB). Distance is computed directly between
    magnitude matrices: resynthesis would re-project the inconsistent
    magnitude/phase combination and blur exactly the quantity under study.
    Returns (bound, distance_db) pairs in the given order.
    """
    from .metrics import lsd_from_mags

    irm = compute_irm(clean, coded, config)
    n = coded.config.n_processed
    clean_mags = clean.magnitudes(n)
    coded_mags = coded.magnitudes(n)
    out = []
    for bound in bounds:
        masked = bound_mask(irm, bound)
        out.append((float(bound), lsd_from_mags(masked.values * coded_mags, clean_mags)))
    return out
