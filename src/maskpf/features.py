"""Feature windowing and dataset assembly for the estimators.

Inputs are normalized log magnitudes of the degraded signal. Each
estimator sees a causal context ending at the frame being predicted: the
dense net a flat stack of 4 frames, the recurrent net a 10-step sequence,
the conv net a 6-frame image. Frames before the start of the utterance
are filled by repeating the first frame.

Training data holds one window per frame (`model_inputs`, `build_dataset`),
in float32, the training dtype. Inference takes the frames themselves
(`infer_mask`): `Model.infer` builds the same windows block by block with
the same builder, and the conv net computes its encoder once per frame
rather than once per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (
    DEFAULT_STFT,
    AudioBuffer,
    FeatureMatrix,
    NormStats,
    Spectrogram,
    compute_norm_stats,
    log_magnitude,
    normalize,
    stft,
)
from .errors import ConfigError, DataError
from .mask import MaskConfig, MaskMatrix, compute_irm, modified_mask
from .nn.models import (
    CONTEXT_FRAMES,
    MODEL_KINDS,
    context_windows,
    pad_context,
    window_inputs,
)
from .nn.train import Dataset


def context_history(features: np.ndarray, n_frames: int) -> np.ndarray:
    """Per-frame causal history, shape (T, n_frames, K), oldest first.

    Row t holds frames [t - n_frames + 1 .. t]; indices before 0 repeat
    frame 0.
    """
    if n_frames < 1:
        raise ConfigError("context must cover at least one frame")
    return context_windows(pad_context(features, n_frames), n_frames)


def model_inputs(kind: str, features: np.ndarray) -> np.ndarray:
    """Window normalized features into the shape one estimator consumes."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown estimator kind {kind!r}")
    return window_inputs(kind, pad_context(features, CONTEXT_FRAMES[kind]))


@dataclass
class UtterancePair:
    """Analysis products of one aligned clean/coded pair."""

    clean_spec: Spectrogram
    coded_spec: Spectrogram
    coded_logmag: FeatureMatrix

    @property
    def n_frames(self) -> int:
        return self.coded_spec.n_frames


def analyze_pair(clean: AudioBuffer, coded: AudioBuffer) -> UtterancePair:
    if len(clean) != len(coded):
        n = min(len(clean), len(coded))
        clean = AudioBuffer(clean.samples[:n], label=clean.label)
        coded = AudioBuffer(coded.samples[:n], label=coded.label)
    clean_spec = stft(clean)
    coded_spec = stft(coded)
    return UtterancePair(clean_spec, coded_spec, log_magnitude(coded_spec))


def input_stats(pairs: list[UtterancePair]) -> NormStats:
    """Normalization statistics over the degraded features of a split."""
    if not pairs:
        raise DataError("cannot compute stats from an empty split")
    return compute_norm_stats([p.coded_logmag for p in pairs])


def build_dataset(
    pairs: list[UtterancePair],
    kind: str,
    stats: NormStats,
    mask_config: MaskConfig = MaskConfig(),
) -> Dataset:
    """Stack windowed inputs, modified-mask targets, and degraded
    magnitudes across utterances, preserving utterance order."""
    if not pairs:
        raise DataError("no utterances to assemble")
    inputs, targets, mags = [], [], []
    n = DEFAULT_STFT.n_processed
    for pair in pairs:
        feats = normalize(pair.coded_logmag, stats).frames
        inputs.append(model_inputs(kind, feats))
        irm = compute_irm(pair.clean_spec, pair.coded_spec, mask_config)
        targets.append(modified_mask(irm, mask_config).values)
        mags.append(pair.coded_spec.magnitudes(n))
    return Dataset(
        np.concatenate(inputs, axis=0, dtype=np.float32),
        np.concatenate(targets, axis=0, dtype=np.float32),
        np.concatenate(mags, axis=0, dtype=np.float32),
    )


def infer_mask(model, stats: NormStats, coded_spec: Spectrogram,
               batch_size: int | None = None) -> MaskMatrix:
    """Run one estimator over an utterance's degraded spectrogram.

    The normalized frames go straight to `model.infer`, which builds the
    context windows block by block; `batch_size` overrides the model's own
    block size.
    """
    feats = normalize(log_magnitude(coded_spec), stats).frames
    return MaskMatrix(model.infer(feats, batch_size=batch_size))
