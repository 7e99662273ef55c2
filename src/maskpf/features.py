"""Feature windowing and dataset assembly for the estimators.

Inputs are normalized log magnitudes of the degraded signal over the
`dsp.N_PROCESSED` = 205 processed bins, and targets are the modified
ratio masks of `mask.modified_mask`; both are plain (T, 205) arrays, and
so is the mask `infer_mask` returns. Each estimator sees a causal
context ending at the frame being predicted: the dense net a flat stack
of 4 frames, the recurrent net a 10-step sequence, the conv net a
6-frame image. Frames before the start of the utterance are filled by
repeating the first frame.

Training data holds frames, not windows: `build_dataset` hands each
utterance's normalized frames, targets and degraded magnitudes to the
`Dataset` constructor, which keeps the padded frames once, in float32,
the training dtype, with one example per frame. A training batch
gathers its windows from those rows through `window_inputs`, the builder
`Model.infer` uses. Validation, `enhance` and `eval` share one eval
path, `Model.infer`, which builds the same windows block by block, and
the conv net computes its encoder once per frame rather than once per
window: `enhance` and `eval` run it on an utterance's frames
(`infer_mask` here), validation on a dataset's stacked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (
    AudioBuffer,
    NormStats,
    Spectrogram,
    compute_norm_stats,
    log_magnitude,
    normalize,
    stft,
)
from .errors import DataError
from .mask import compute_irm, modified_mask
from .nn.train import Dataset


@dataclass
class UtterancePair:
    """Analysis products of one aligned clean/coded pair."""

    clean_spec: Spectrogram
    coded_spec: Spectrogram
    coded_logmag: np.ndarray  # log_magnitude(coded_spec)

    @property
    def n_frames(self) -> int:
        return self.coded_spec.n_frames


def analyze_pair(clean: AudioBuffer, coded: AudioBuffer) -> UtterancePair:
    if len(clean) != len(coded):
        n = min(len(clean), len(coded))
        clean = AudioBuffer(clean.samples[:n])
        coded = AudioBuffer(coded.samples[:n])
    clean_spec = stft(clean)
    coded_spec = stft(coded)
    return UtterancePair(clean_spec, coded_spec, log_magnitude(coded_spec))


def input_stats(pairs: list[UtterancePair]) -> NormStats:
    """Normalization statistics over the degraded features of a split; an
    empty split raises DataError."""
    return compute_norm_stats([p.coded_logmag for p in pairs])


def build_dataset(pairs: list[UtterancePair], kind: str, stats: NormStats) -> Dataset:
    """One example per frame across utterances, in utterance order: the
    normalized frames, their modified-mask targets, and the degraded
    magnitudes."""
    frames, targets, mags = [], [], []
    for pair in pairs:
        frames.append(normalize(pair.coded_logmag, stats))
        irm = compute_irm(pair.clean_spec, pair.coded_spec)
        targets.append(modified_mask(irm))
        mags.append(pair.coded_spec.magnitudes())
    return Dataset(kind, frames, targets, mags)


def infer_mask(model, stats: NormStats, coded_spec: Spectrogram) -> np.ndarray:
    """Run one estimator over an utterance's degraded spectrogram; returns
    its (T, 205) mask in the model's dtype.

    The normalized frames go straight to `model.infer`, which builds the
    context windows block by block, in the model's own block size. Finite
    weights from a model file can still give a non-finite gain, and such
    a mask is a DataError.
    """
    mask = model.infer(normalize(log_magnitude(coded_spec), stats))
    if not np.all(np.isfinite(mask)):
        raise DataError("mask contains non-finite values")
    return mask
