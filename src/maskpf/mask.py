"""Time-frequency mask math: ratio-mask targets, bounding, the modified
training target that caps unreasonable gains, mask statistics, and oracle
mask application (including the cepstral-envelope variant).

Masks are real, non-negative gains on the processed bins, shape
(T, dsp.N_PROCESSED) = (T, 205). Applying a mask scales STFT magnitudes
and keeps the degraded phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FRAME_LEN, N_PROCESSED, Spectrogram, analysis_window, real_cepstrum
from .errors import ConfigError, DataError

MAG_GUARD = 1e-9


@dataclass(frozen=True)
class MaskConfig:
    """Parameters of the modified ratio-mask target.

    Ratios above `threshold` are judged unreliable (the degraded bin carries
    too little energy to be boosted cleanly) and are replaced by
    `replacement`.
    """

    guard: float = MAG_GUARD
    threshold: float = 2.0
    replacement: float = 1.0

    def __post_init__(self):
        if self.guard < 0:
            raise ConfigError("guard must be non-negative")
        if self.threshold <= 0 or self.replacement < 0:
            raise ConfigError("threshold must be > 0 and replacement >= 0")


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


def compute_irm(
    clean: Spectrogram, coded: Spectrogram, config: MaskConfig = MaskConfig()
) -> MaskMatrix:
    """Ideal ratio mask |clean| / (|coded| + guard) over the processed bins."""
    if clean.n_frames != coded.n_frames:
        raise DataError(
            f"frame count mismatch: clean has {clean.n_frames}, "
            f"coded has {coded.n_frames}"
        )
    return MaskMatrix(clean.magnitudes() / (coded.magnitudes() + config.guard))


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


def apply_mask(spec: Spectrogram, mask: MaskMatrix) -> Spectrogram:
    """Scale the processed bins by the mask; bins above 6.4 kHz and the
    phase pass through unchanged."""
    if mask.shape != (spec.n_frames, N_PROCESSED):
        raise DataError(
            f"mask shape {mask.shape} does not match spectrogram "
            f"({spec.n_frames}, {N_PROCESSED})"
        )
    frames = spec.frames.copy()
    frames[:, :N_PROCESSED] *= mask.values
    return Spectrogram(frames)


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
    clean_frame: np.ndarray, coded_frame: np.ndarray
) -> np.ndarray:
    """Swap the spectral envelope of a degraded frame for the clean one.

    Both frames are time-domain analysis frames of length FRAME_LEN, or
    equal stacks (..., FRAME_LEN) of them, handled row by row. The low
    quefrencies [0, CEPSTRUM_CUTOFF) and their mirror image of the degraded
    real cepstrum are replaced with the clean frame's, then the log
    spectrum is rebuilt, by a real FFT since the merged cepstrum is real.
    Returns the resulting 257-bin magnitude spectrum of each frame.
    """
    window = analysis_window()
    c_clean = real_cepstrum(clean_frame, window)
    c_coded = real_cepstrum(coded_frame, window)
    merged = c_coded
    merged[..., :CEPSTRUM_CUTOFF] = c_clean[..., :CEPSTRUM_CUTOFF]
    mirror = FRAME_LEN - np.arange(1, CEPSTRUM_CUTOFF)
    merged[..., mirror] = c_clean[..., mirror]
    return np.exp(np.fft.rfft(merged, axis=-1).real)


def envelope_mask(
    clean: Spectrogram,
    coded: Spectrogram,
    clean_frames_td: np.ndarray,
    coded_frames_td: np.ndarray,
) -> MaskMatrix:
    """Oracle mask from cepstral envelope substitution in every frame.

    `*_frames_td` are the raw (unwindowed) time-domain analysis frames,
    shape (T, FRAME_LEN), aligned with the spectrograms (`dsp.analysis_frames`
    of each signal). All frames go through `oracle_cepstrum_substitute` as
    one stack. `clean` is not read.
    """
    expected = (coded.n_frames, FRAME_LEN)
    if clean_frames_td.shape != expected or coded_frames_td.shape != expected:
        raise DataError("time-domain frames do not match the spectrogram")
    mags = oracle_cepstrum_substitute(clean_frames_td, coded_frames_td)
    return MaskMatrix(mags[:, :N_PROCESSED] / (coded.magnitudes() + MAG_GUARD))


def oracle_sweep(
    clean: Spectrogram,
    coded: Spectrogram,
    bounds: tuple[float, ...] = (1.0, 2.0, 5.0, np.inf),
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

    irm = compute_irm(clean, coded)
    clean_mags = clean.magnitudes()
    coded_mags = coded.magnitudes()
    out = []
    for bound in bounds:
        masked = bound_mask(irm, bound)
        out.append((float(bound), lsd_from_mags(masked.values * coded_mags, clean_mags)))
    return out
