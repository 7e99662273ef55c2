"""Time-frequency mask math: ratio-mask targets, bounding, the modified
training target that caps unreasonable gains, mask statistics, and oracle
mask application (including the cepstral-envelope variant, which reads
the clean and degraded spectrograms and takes its cepstra from their STFT
rows).

Masks are real, non-negative gains on the processed bins, shape
(T, dsp.N_PROCESSED) = (T, 205). Applying a mask scales STFT magnitudes
and keeps the degraded phase.

The target is fixed: the ratio mask divides by the degraded magnitude
plus `MAG_GUARD`, and the modified mask replaces every ratio above
`MASK_THRESHOLD` = 2 by `MASK_REPLACEMENT` = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FRAME_LEN, N_PROCESSED, Spectrogram, real_cepstrum
from .errors import ConfigError, DataError

MAG_GUARD = 1e-9
# Ratios above the threshold are judged unreliable (the degraded bin carries
# too little energy to be boosted cleanly) and are replaced.
MASK_THRESHOLD = 2.0
MASK_REPLACEMENT = 1.0


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


def _check_aligned(clean: Spectrogram, coded: Spectrogram) -> None:
    if clean.n_frames != coded.n_frames:
        raise DataError(
            f"frame count mismatch: clean has {clean.n_frames}, "
            f"coded has {coded.n_frames}"
        )


def compute_irm(clean: Spectrogram, coded: Spectrogram) -> MaskMatrix:
    """Ideal ratio mask |clean| / (|coded| + MAG_GUARD) over the processed
    bins."""
    _check_aligned(clean, coded)
    return MaskMatrix(clean.magnitudes() / (coded.magnitudes() + MAG_GUARD))


def bound_mask(mask: MaskMatrix, bound: float) -> MaskMatrix:
    """Cap every gain at `bound`. A bound of +inf is the identity."""
    if not bound > 0:  # NaN fails too
        raise ConfigError("bound must be positive")
    return MaskMatrix(np.minimum(mask.values, bound))


def modified_mask(mask: MaskMatrix) -> MaskMatrix:
    """Replace gains above the reliability threshold with a fixed value.

    Gains <= MASK_THRESHOLD pass through untouched; everything else becomes
    MASK_REPLACEMENT. This is the training target for the estimators.
    """
    values = np.where(mask.values <= MASK_THRESHOLD, mask.values, MASK_REPLACEMENT)
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
    values = np.concatenate([m.values.ravel() for m in masks])
    counts = np.bincount(np.searchsorted(HISTOGRAM_EDGES, values),
                         minlength=len(HISTOGRAM_LABELS))
    return MaskHistogram(counts, values.size)


CEPSTRUM_CUTOFF = 64


def oracle_cepstrum_substitute(clean: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """Swap the spectral envelope of degraded frames for the clean ones.

    Both arguments are STFT rows of equal shape (..., FRAME_LEN // 2 + 1),
    handled row by row. The low quefrencies [0, CEPSTRUM_CUTOFF) and their
    mirror image of the degraded real cepstrum are replaced with the clean
    frame's, then the log spectrum is rebuilt, by a real FFT since the
    merged cepstrum is real. Returns the resulting 257-bin magnitude
    spectrum of each frame.
    """
    c_clean = real_cepstrum(clean)
    merged = real_cepstrum(coded)
    merged[..., :CEPSTRUM_CUTOFF] = c_clean[..., :CEPSTRUM_CUTOFF]
    mirror = FRAME_LEN - np.arange(1, CEPSTRUM_CUTOFF)
    merged[..., mirror] = c_clean[..., mirror]
    return np.exp(np.fft.rfft(merged, axis=-1).real)


def envelope_mask(clean: Spectrogram, coded: Spectrogram) -> MaskMatrix:
    """Oracle mask from cepstral envelope substitution in every frame.

    The cepstra come from the two spectrograms' rows, all frames as one
    stack through `oracle_cepstrum_substitute`; the substituted magnitudes
    are divided by the degraded ones over the processed bins.
    """
    _check_aligned(clean, coded)
    mags = oracle_cepstrum_substitute(clean.frames, coded.frames)
    return MaskMatrix(mags[:, :N_PROCESSED] / (coded.magnitudes() + MAG_GUARD))


def oracle_sweep(
    clean: Spectrogram,
    coded: Spectrogram,
    bounds: tuple[float, ...],
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
