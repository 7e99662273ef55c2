"""From-scratch trainable mask estimators.

Everything is numpy float64 end to end: layers, recurrent cells, the
convolutional encoder-decoder, the Adam optimizer, and the training loop.
The convolution primitives in `kernels` have one path: an im2col copy and
one BLAS matrix product per call, on channels-last memory.
"""

from .models import REFERENCE_PARAM_COUNTS, Model, build_model
from .train import TrainConfig, TrainResult, train_model

__all__ = [
    "REFERENCE_PARAM_COUNTS",
    "Model",
    "build_model",
    "TrainConfig",
    "TrainResult",
    "train_model",
]
