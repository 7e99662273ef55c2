"""From-scratch trainable mask estimators.

The layers, recurrent cells, convolutional encoder-decoder and Adam
optimizer are dtype-generic: the arrays a pass allocates follow the dtype
of the weights. Training and inference (`enhance`, `eval`) both run in
float32, and model files store float32, so a file holds exactly the
trained weights. The convolution primitives in `kernels` have one path: one
BLAS matrix product per call, after an im2col copy or before the one
col2im, on channels-last memory.
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
