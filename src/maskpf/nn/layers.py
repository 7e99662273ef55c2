"""Trainable layers with explicit forward/backward passes.

Every layer exposes `params()` and `grads()` dicts whose arrays are shared
with the optimizer and mutated in place, plus `state()` which adds the
non-trainable bookkeeping (batch-norm running stats) that model files must
carry. Stochastic layers draw from a numpy Generator that can be replaced
through `reseed`, which keeps gradient checking and reruns deterministic.

Constructors allocate every array in the layer's dtype and draw nothing:
weights start uninitialized (`np.empty`), biases and batch-norm
statistics at their fixed starting values, gradient buffers at zero
(`np.zeros`, whose pages stay untouched until a backward pass writes
them). `init_weights(rng)` draws a layer's initial weights in float64 and
writes them into its arrays; `nn.io.load_model` reads a model file's
tensors into them instead.

Shapes follow two conventions: feature tensors (N, D) and image tensors
(N, C, H, W) with H the time axis and W the frequency axis. Image layers
accept any memory layout; the conv kernels return channels-last buffers
viewed as (N, C, H, W), and batch norm and padding keep that layout, so a
chain of image layers never copies to change it.

At eval time a batch norm is an affine map per channel. `BatchNorm.fold`
merges it into the weights and bias of the conv before it; the conv
estimator's `infer` does that on every call and then runs its convs
through the kernels and `elu` directly, not through these layers. Every
eval pass, validation in training included, goes through `Model.infer`;
the fcnn's runs its layers' eval-mode `forward`s.

A backward pass writes every gradient of its layer into the grads()
arrays, over whatever they held: nothing needs zeroing between steps,
and two backward passes do not add up. It returns the gradient with
respect to the layer's input, except in a layer built with
`input_grad=False` (`Dense`, `Conv2d`, `Lstm`), which skips that work and
returns None; each estimator builds its first layer so, since nothing
reads the gradient of the network input.

A layer never writes into an array its caller passed in, except an Elu
built with `inplace=True` by a caller that owns the buffers it feeds it.
Eval-mode forwards keep nothing for a backward pass, and the backward of
every layer that needs a saved array (all but dropout and padding) raises
ConfigError unless the last forward ran in train mode.

Layers are dtype-generic: every array a pass allocates follows the dtype
of the layer's parameters and of its input, so a model built in float32
computes in float32 throughout.

The mask heads' output range (`MASK_SCALE`) and batch norm's smoothing
and variance floor (`BN_MOMENTUM`, `BN_EPS`) are constants of this module.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from . import kernels

MASK_SCALE = 2.0  # mask heads output gains in (0, MASK_SCALE)
BN_MOMENTUM = 0.99  # weight of the old running statistic per training batch
BN_EPS = 1e-3  # added to every variance before its square root


class Layer:
    """Base: stateless pass-through with no parameters."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def state(self) -> dict[str, np.ndarray]:
        return dict(self.params())

    def reseed(self, rng: np.random.Generator) -> None:
        pass

    def init_weights(self, rng: np.random.Generator) -> None:
        """Draw the initial weights from rng (in float64, then rounded to
        the layer's dtype); a layer without weights draws nothing."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError


def require_train_forward(saved: np.ndarray | None, what: str) -> None:
    """Raise ConfigError when a layer kept nothing for its backward pass:
    the last forward ran in eval mode, or none ran."""
    if saved is None:
        raise ConfigError(f"backward through {what} requires a train-mode forward")


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, into `out` when given (which may be x itself).

    The operations run in the order of 1 / (1 + exp(-x)), each rounded
    once, so both forms give the same bits. Below about -88 in float32
    (-709 in float64) exp(-x) overflows to inf, and 1 / inf is the right
    limit, 0."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform weights of `shape`: (in, out) for a matrix, and with
    the kernel axes after the two channel axes for a conv of either
    direction, so fan-in plus fan-out is the channel sum times the kernel
    size."""
    limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
    return rng.uniform(-limit, limit, size=shape)


class WeightedLayer(Layer):
    """Base of `Dense`, `Conv2d` and `Deconv2d`: a weight array `w` of
    `w_shape` with Glorot initial values, a bias `b` of `n_out` values, and
    their gradients `gw` and `gb`."""

    def __init__(self, w_shape: tuple[int, ...], n_out: int, dtype):
        self.w = np.empty(w_shape, dtype)
        self.b = np.zeros(n_out, dtype)
        self.gw = np.zeros(w_shape, dtype)
        self.gb = np.zeros(n_out, dtype)
        self._x: np.ndarray | None = None

    def init_weights(self, rng):
        self.w[...] = glorot_uniform(rng, self.w.shape)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}


class Dense(WeightedLayer):
    def __init__(self, n_in: int, n_out: int, dtype=np.float64,
                 input_grad: bool = True):
        super().__init__((n_in, n_out), n_out, dtype)
        self.input_grad = input_grad

    def forward(self, x, train=False):
        self._x = x if train else None
        y = x @ self.w
        y += self.b
        return y

    def backward(self, gy):
        require_train_forward(self._x, "a dense layer")
        np.matmul(self._x.T, gy, out=self.gw)
        np.sum(gy, axis=0, out=self.gb)
        return gy @ self.w.T if self.input_grad else None


class Relu(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x, train=False):
        mask = x > 0.0
        self._mask = mask if train else None
        return np.where(mask, x, 0.0)

    def backward(self, gy):
        require_train_forward(self._mask, "a ReLU")
        return np.where(self._mask, gy, 0.0)


def elu(x: np.ndarray, out: np.ndarray | None = None,
        scratch: np.ndarray | None = None) -> np.ndarray:
    """Exponential linear unit (alpha 1) of x, into `out` when given (which
    may be x itself). The negative part goes through `scratch`, a buffer of
    x's shape, when given, else through a fresh array."""
    neg = np.minimum(x, 0.0, out=scratch)
    np.expm1(neg, out=neg)
    y = np.maximum(x, 0.0, out=out)
    y += neg
    return y


class Elu(Layer):
    """Exponential linear unit, alpha fixed at 1.

    With `inplace` the output overwrites the input array. The backward pass
    needs only the output: the slope is 1 where it is positive and y + 1
    elsewhere, that is min(y + 1, 1).
    """

    def __init__(self, inplace: bool = False):
        self.inplace = inplace
        self._y: np.ndarray | None = None

    def forward(self, x, train=False):
        y = elu(x, out=x if self.inplace else None)
        self._y = y if train else None
        return y

    def backward(self, gy):
        require_train_forward(self._y, "an ELU")
        slope = self._y + 1.0
        np.minimum(slope, 1.0, out=slope)
        slope *= gy
        return slope


class ScaledSigmoid(Layer):
    """Sigmoid stretched to (0, MASK_SCALE); the output range of mask heads."""

    def __init__(self):
        self._sig: np.ndarray | None = None

    def forward(self, x, train=False):
        sig = sigmoid(x)
        self._sig = sig if train else None
        return MASK_SCALE * sig

    def backward(self, gy):
        require_train_forward(self._sig, "a scaled sigmoid")
        return gy * MASK_SCALE * self._sig * (1.0 - self._sig)


def dropout_mask(rng: np.random.Generator, rate: float, shape: tuple[int, ...],
                 dtype) -> np.ndarray:
    """An inverted-dropout mask of `shape`: 0 with probability `rate`, else
    1 / (1 - rate). It is drawn in float64 and cast to dtype, so every dtype
    consumes the same stream."""
    keep = 1.0 - rate
    return ((rng.random(shape) < keep) / keep).astype(dtype, copy=False)


class Dropout(Layer):
    """Inverted dropout. It holds a fixed placeholder stream until
    `reseed`; `build_model` always reseeds."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def reseed(self, rng):
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = dropout_mask(self.rng, self.rate, x.shape, x.dtype)
        return x * self._mask

    def backward(self, gy):
        return gy if self._mask is None else gy * self._mask


class BatchNorm(Layer):
    """Batch normalization over every axis except the channel axis.

    Works on (N, C) and (N, C, H, W) alike, always on the (M, C) matrix of
    channel vectors; that matrix is a view of channels-last input and a
    copy of any other. A train-mode forward normalizes over the rows it
    is given and records their count, mean and variance as `moments`; it
    does not touch the running statistics. The model that ran it makes
    one `update_running` call per batch, from the moments of every part
    the batch ran in (one for the fcnn, two halves for the ced), so the
    running statistics follow whole batches with exponential smoothing.
    They are used verbatim at eval time, travel with the model file and
    receive no gradient.

    At eval time the layer is an affine map per channel, so `fold` can
    merge it into the conv before it, as the conv estimator's `infer` does.
    The eval-mode `forward` serves the fcnn's `infer`, which validation in
    training (`train._eval_loss`) runs too.
    """

    def __init__(self, n_channels: int, dtype=np.float64):
        self.gamma = np.ones(n_channels, dtype)
        self.beta = np.zeros(n_channels, dtype)
        self.run_mean = np.zeros(n_channels, dtype)
        self.run_var = np.ones(n_channels, dtype)
        self.ggamma = np.zeros(n_channels, dtype)
        self.gbeta = np.zeros(n_channels, dtype)
        self.moments: tuple | None = None  # (rows, mean, variance)
        self._xhat: np.ndarray | None = None

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.ggamma, "beta": self.gbeta}

    def state(self):
        return {"gamma": self.gamma, "beta": self.beta,
                "run_mean": self.run_mean, "run_var": self.run_var}

    def forward(self, x, train=False):
        moved = np.moveaxis(x, 1, -1)
        rows = moved.reshape(-1, x.shape[1])
        if train:
            m = rows.shape[0]
            # einsum reduces narrow rows several times faster than .sum(axis=0)
            mean = np.einsum("mc->c", rows) / m
            xhat = rows - mean
            var = np.einsum("mc,mc->c", xhat, xhat) / m
            self.moments = (m, mean, var)
            self._inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= self._inv_std
            self._xhat = xhat
            y = xhat * self.gamma
            y += self.beta
        else:
            self._xhat = None
            scale = self._eval_scale()
            y = rows * scale
            y += self.beta - self.run_mean * scale
        return np.moveaxis(y.reshape(moved.shape), -1, 1)

    def update_running(self, parts: list[tuple]) -> None:
        """One momentum step (`BN_MOMENTUM`) of the running statistics
        toward the mean and variance of one batch, given the `moments` that
        the train-mode forwards of its consecutive parts recorded, in batch
        order. One part's moments are used as they are; more merge pairwise
        into the whole batch's (Chan, Golub & LeVeque 1979)."""
        m, mean, var = parts[0]
        for m_b, mean_b, var_b in parts[1:]:
            total = m + m_b
            delta = mean_b - mean
            mean = mean + delta * (m_b / total)
            var = (var * m + var_b * m_b + delta * delta * (m * m_b / total)) / total
            m = total
        self.run_mean[...] = BN_MOMENTUM * self.run_mean + (1 - BN_MOMENTUM) * mean
        self.run_var[...] = BN_MOMENTUM * self.run_var + (1 - BN_MOMENTUM) * var

    def _eval_scale(self) -> np.ndarray:
        return self.gamma / np.sqrt(self.run_var + BN_EPS)

    def fold(self, w: np.ndarray, b: np.ndarray,
             axis: int) -> tuple[np.ndarray, np.ndarray]:
        """The weights and bias of a linear layer followed by this layer at
        eval time: fresh copies of w scaled per output channel (w's `axis`)
        and of b shifted, from the current running statistics."""
        scale = self._eval_scale()
        shape = [1] * w.ndim
        shape[axis] = -1
        return w * scale.reshape(shape), (b - self.run_mean) * scale + self.beta

    def backward(self, gy):
        require_train_forward(self._xhat, "batch norm")
        moved = np.moveaxis(gy, 1, -1)
        rows = moved.reshape(-1, gy.shape[1])
        xhat = self._xhat
        m = rows.shape[0]
        gbeta = np.einsum("mc->c", rows, out=self.gbeta)
        ggamma = np.einsum("mc,mc->c", rows, xhat, out=self.ggamma)
        # d/dx of gamma * (x - mean) * inv_std + beta, batch statistics included
        gx = xhat * (-ggamma / m)
        gx += rows
        gx -= gbeta / m
        gx *= self.gamma * self._inv_std
        return np.moveaxis(gx.reshape(moved.shape), -1, 1)


class Conv2d(WeightedLayer):
    """Valid-padding strided 2-D convolution.

    A train-mode forward keeps the im2col matrix it multiplies, and the
    backward pass takes the weight gradient from that same matrix."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple[int, int],
                 stride: tuple[int, int], dtype=np.float64,
                 input_grad: bool = True):
        super().__init__((c_out, c_in) + tuple(kernel), c_out, dtype)
        self.stride = stride
        self.input_grad = input_grad
        self._cols: np.ndarray | None = None

    def forward(self, x, train=False):
        self._x = x if train else None
        self._cols = (kernels.im2col(x, self.w.shape[2:], self.stride)
                      if train else None)
        y = kernels.gather(x, self.w, self.stride, cols=self._cols)
        y += self.b.reshape(1, -1, 1, 1)
        return y

    def backward(self, gy):
        require_train_forward(self._x, "a convolution")
        self.gw[...] = kernels.weight_grad(
            self._x, gy, self.stride, self.w.shape[2:], cols=self._cols)
        np.einsum("nchw->c", gy, out=self.gb)
        if not self.input_grad:
            return None
        return kernels.scatter(gy, self.w, self.stride, self._x.shape[2:])


class Deconv2d(WeightedLayer):
    """Valid-padding strided transposed convolution (upsampling): input
    (N, C, H, W), output (N, F, s*(H-1)+KH, s*(W-1)+KW).

    The weight and input gradients are products with the same im2col
    matrix of the output gradient, which the backward pass builds once."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple[int, int],
                 stride: tuple[int, int], dtype=np.float64):
        super().__init__((c_in, c_out) + tuple(kernel), c_out, dtype)
        self.stride = stride

    def forward(self, x, train=False):
        self._x = x if train else None
        (sh, sw), (kh, kw) = self.stride, self.w.shape[2:]
        out_hw = (sh * (x.shape[2] - 1) + kh, sw * (x.shape[3] - 1) + kw)
        return kernels.scatter(x, self.w, self.stride, out_hw, bias=self.b)

    def backward(self, gy):
        require_train_forward(self._x, "a transposed convolution")
        k_hw = self.w.shape[2:]
        cols = kernels.im2col(gy, k_hw, self.stride)
        self.gw[...] = kernels.weight_grad(gy, self._x, self.stride, k_hw, cols)
        np.einsum("nchw->c", gy, out=self.gb)
        return kernels.gather(gy, self.w, self.stride, cols)


class PadHighFreq(Layer):
    """Zero-pad the frequency (last) axis at the high edge to a target width.

    The conv estimator no longer uses it: it pads inside its one skip
    concatenation buffer. It stays while the benchmark's tracer
    (`perfbench/tracing.py`) wraps it by name."""

    def __init__(self, target_width: int):
        self.target_width = target_width

    def forward(self, x, train=False):
        pad = self.target_width - x.shape[-1]
        if pad < 0:
            raise ConfigError(
                f"cannot pad width {x.shape[-1]} down to {self.target_width}")
        self._in_width = x.shape[-1]
        if pad == 0:
            return x
        out = np.zeros_like(x, shape=x.shape[:-1] + (self.target_width,))
        out[..., : self._in_width] = x
        return out

    def backward(self, gy):
        return gy[..., : self._in_width]


def collect(named_layers: list[tuple[str, Layer]],
            method: str) -> dict[str, np.ndarray]:
    """Merge each layer's params(), grads() or state() under "name.key"."""
    return {f"{name}.{key}": arr
            for name, layer in named_layers
            for key, arr in getattr(layer, method)().items()}
