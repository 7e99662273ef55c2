"""From-scratch trainable mask estimators.

The layers, recurrent cells, convolutional encoder-decoder and Adam
optimizer are dtype-generic: the arrays a pass allocates follow the dtype
of the weights. Training builds and runs models in float64; inference
(`enhance`, `eval`) runs in float32 on the float32 weights that model
files store. The convolution primitives in `kernels` have one path: an
im2col copy and one BLAS matrix product per call, on channels-last memory.
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
