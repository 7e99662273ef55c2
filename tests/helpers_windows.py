"""Per-utterance reference for the estimators' context windows."""

import numpy as np

from maskpf.errors import ConfigError
from maskpf.nn.models import CONTEXT_FRAMES, MODEL_KINDS, pad_context, window_inputs


def model_inputs(kind: str, features: np.ndarray) -> np.ndarray:
    """Every context window of one utterance's (T, K) normalized features,
    stacked at once in the shape one estimator consumes; the first windows
    repeat frame 0."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown estimator kind {kind!r}")
    return window_inputs(kind, pad_context(features, CONTEXT_FRAMES[kind]))
