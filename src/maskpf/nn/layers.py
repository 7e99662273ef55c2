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

A layer never writes into an array its caller passed in, except an Elu
built with `inplace=True` by a caller that owns the buffers it feeds it.
Eval-mode forwards of the conv, deconv, batch-norm, ELU and LSTM layers
keep nothing for a backward pass, and their backward raises ConfigError
unless the last forward ran in train mode.

Layers are dtype-generic: every array a pass allocates follows the dtype
of the layer's parameters and of its input, so a model cast with `astype`
to float32 computes in float32 throughout.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import kernels


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

    def astype(self, dtype) -> None:
        """Recast every floating-point array the layer holds (weights,
        gradients, statistics) to dtype."""
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                setattr(self, name, value.astype(dtype, copy=False))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
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


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, dtype=np.float64):
        self.w = np.empty((n_in, n_out), dtype)
        self.b = np.zeros(n_out, dtype)
        self.gw = np.zeros((n_in, n_out), dtype)
        self.gb = np.zeros(n_out, dtype)
        self._x: np.ndarray | None = None

    def init_weights(self, rng):
        self.w[...] = glorot_uniform(rng, self.w.shape, *self.w.shape)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x, train=False):
        self._x = x
        return x @ self.w + self.b

    def backward(self, gy):
        self.gw += self._x.T @ gy
        self.gb += gy.sum(axis=0)
        return gy @ self.w.T


class Relu(Layer):
    def forward(self, x, train=False):
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy):
        return np.where(self._mask, gy, 0.0)


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
        neg = np.minimum(x, 0.0)
        np.expm1(neg, out=neg)
        y = np.maximum(x, 0.0, out=x if self.inplace else None)
        y += neg
        self._y = y if train else None
        return y

    def backward(self, gy):
        require_train_forward(self._y, "an ELU")
        slope = self._y + 1.0
        np.minimum(slope, 1.0, out=slope)
        slope *= gy
        return slope


class ScaledSigmoid(Layer):
    """Sigmoid stretched to (0, scale); the output range of mask heads."""

    def __init__(self, scale: float = 2.0):
        if scale <= 0:
            raise ConfigError("scale must be positive")
        self.scale = scale

    def forward(self, x, train=False):
        self._sig = sigmoid(x)
        return self.scale * self._sig

    def backward(self, gy):
        return gy * self.scale * self._sig * (1.0 - self._sig)


class Dropout(Layer):
    """Inverted dropout. Without an rng it holds a fixed placeholder stream
    until `reseed`; `build_model` always reseeds."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = np.random.default_rng(0) if rng is None else rng
        self._mask: np.ndarray | None = None

    def reseed(self, rng):
        self.rng = rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # Drawn in float64 and cast, so every dtype consumes the same stream.
        self._mask = ((self.rng.random(x.shape) < keep) / keep).astype(
            x.dtype, copy=False)
        return x * self._mask

    def backward(self, gy):
        return gy if self._mask is None else gy * self._mask


class BatchNorm(Layer):
    """Batch normalization over every axis except the channel axis.

    Works on (N, C) and (N, C, H, W) alike, always on the (M, C) matrix of
    channel vectors; that matrix is a view of channels-last input and a
    copy of any other. Running statistics are updated with exponential
    smoothing during training and used verbatim at eval time; they travel
    with the model file but receive no gradient.
    """

    def __init__(self, n_channels: int, momentum: float = 0.99, eps: float = 1e-3,
                 dtype=np.float64):
        self.gamma = np.ones(n_channels, dtype)
        self.beta = np.zeros(n_channels, dtype)
        self.run_mean = np.zeros(n_channels, dtype)
        self.run_var = np.ones(n_channels, dtype)
        self.ggamma = np.zeros(n_channels, dtype)
        self.gbeta = np.zeros(n_channels, dtype)
        self.momentum = momentum
        self.eps = eps
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
            self.run_mean[...] = self.momentum * self.run_mean + (1 - self.momentum) * mean
            self.run_var[...] = self.momentum * self.run_var + (1 - self.momentum) * var
            self._inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= self._inv_std
            self._xhat = xhat
            y = xhat * self.gamma
            y += self.beta
        else:
            self._xhat = None
            scale = self.gamma / np.sqrt(self.run_var + self.eps)
            y = rows * scale
            y += self.beta - self.run_mean * scale
        return np.moveaxis(y.reshape(moved.shape), -1, 1)

    def backward(self, gy):
        require_train_forward(self._xhat, "batch norm")
        moved = np.moveaxis(gy, 1, -1)
        rows = moved.reshape(-1, gy.shape[1])
        xhat = self._xhat
        m = rows.shape[0]
        gbeta = np.einsum("mc->c", rows)
        ggamma = np.einsum("mc,mc->c", rows, xhat)
        self.ggamma += ggamma
        self.gbeta += gbeta
        # d/dx of gamma * (x - mean) * inv_std + beta, batch statistics included
        gx = xhat * (-ggamma / m)
        gx += rows
        gx -= gbeta / m
        gx *= self.gamma * self._inv_std
        return np.moveaxis(gx.reshape(moved.shape), -1, 1)


class Conv2d(Layer):
    """Valid-padding strided 2-D convolution."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple[int, int],
                 stride: tuple[int, int], dtype=np.float64):
        self.w = np.empty((c_out, c_in) + tuple(kernel), dtype)
        self.b = np.zeros(c_out, dtype)
        self.gw = np.zeros(self.w.shape, dtype)
        self.gb = np.zeros(c_out, dtype)
        self.stride = stride
        self._x: np.ndarray | None = None

    def init_weights(self, rng):
        c_out, c_in, kh, kw = self.w.shape
        self.w[...] = glorot_uniform(rng, self.w.shape, c_in * kh * kw,
                                     c_out * kh * kw)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x, train=False):
        self._x = x if train else None
        y = kernels.conv2d(x, self.w, self.stride)
        y += self.b.reshape(1, -1, 1, 1)
        return y

    def backward(self, gy):
        require_train_forward(self._x, "a convolution")
        self.gw += kernels.conv2d_grad_weights(
            self._x, gy, self.stride, self.w.shape[2:])
        self.gb += np.einsum("nchw->c", gy)
        return kernels.conv2d_grad_input(
            gy, self.w, self.stride, self._x.shape[2:])


class Deconv2d(Layer):
    """Valid-padding strided transposed convolution (upsampling)."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple[int, int],
                 stride: tuple[int, int], dtype=np.float64):
        self.w = np.empty((c_in, c_out) + tuple(kernel), dtype)
        self.b = np.zeros(c_out, dtype)
        self.gw = np.zeros(self.w.shape, dtype)
        self.gb = np.zeros(c_out, dtype)
        self.stride = stride
        self._x: np.ndarray | None = None

    def init_weights(self, rng):
        c_in, c_out, kh, kw = self.w.shape
        self.w[...] = glorot_uniform(rng, self.w.shape, c_in * kh * kw,
                                     c_out * kh * kw)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x, train=False):
        self._x = x if train else None
        y = kernels.deconv2d(x, self.w, self.stride)
        y += self.b.reshape(1, -1, 1, 1)
        return y

    def backward(self, gy):
        require_train_forward(self._x, "a transposed convolution")
        gw, gx = kernels.deconv2d_grads(self._x, gy, self.w, self.stride)
        self.gw += gw
        self.gb += np.einsum("nchw->c", gy)
        return gx


class PadHighFreq(Layer):
    """Zero-pad the frequency (last) axis at the high edge to a target width."""

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


class Sequential(Layer):
    """Plain layer chain with namespaced parameter dictionaries."""

    def __init__(self, named_layers: list[tuple[str, Layer]]):
        self.named_layers = named_layers

    def params(self):
        return collect(self.named_layers, "params")

    def grads(self):
        return collect(self.named_layers, "grads")

    def state(self):
        return collect(self.named_layers, "state")

    def reseed(self, rng):
        for _, layer in self.named_layers:
            layer.reseed(rng)

    def init_weights(self, rng):
        for _, layer in self.named_layers:
            layer.init_weights(rng)

    def forward(self, x, train=False):
        for _, layer in self.named_layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, gy):
        for _, layer in reversed(self.named_layers):
            gy = layer.backward(gy)
        return gy


def zero_grads(layers: list[Layer]) -> None:
    for layer in layers:
        for g in layer.grads().values():
            g[...] = 0.0
