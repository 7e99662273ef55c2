"""Per-layer forward semantics and analytic gradients vs central differences.

Every layer's backward is checked against (f(x+h) - f(x-h)) / 2h projected on
a random direction. The loss surrogate is a fixed random linear functional so
anything the backward pass gets wrong shows up in the inner product.
"""

import warnings

import numpy as np
import pytest

from maskpf.errors import ConfigError
from maskpf.nn.layers import (
    BN_EPS,
    BatchNorm,
    Conv2d,
    Deconv2d,
    Dense,
    Dropout,
    Elu,
    PadHighFreq,
    Relu,
    ScaledSigmoid,
)
from maskpf.nn import kernels
from maskpf.nn.lstm import Lstm
from maskpf.nn.models import (
    CONTEXT_FRAMES,
    MODEL_KINDS,
    Model,
    build_model,
    window_inputs,
)


def numeric_input_grad(layer, x, gy, train=True, h=1e-6, reseed=None):
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        for sign, dest in ((+1, 0), (-1, 1)):
            flat[i] = orig + sign * h
            if reseed is not None:
                layer.reseed(np.random.default_rng(reseed))
            val = np.sum(layer.forward(x, train=train) * gy)
            if sign > 0:
                plus = val
            else:
                minus = val
        flat[i] = orig
        grad.ravel()[i] = (plus - minus) / (2 * h)
    return grad


def check_input_grad(layer, x, train=True, seed=0, reseed=None, tol=1e-7):
    rng = np.random.default_rng(seed)
    if reseed is not None:
        layer.reseed(np.random.default_rng(reseed))
    y = layer.forward(x, train=train)
    gy = rng.standard_normal(y.shape)
    for g in layer.grads().values():
        g[...] = 0.0
    gx = layer.backward(gy)
    num = numeric_input_grad(layer, x.copy(), gy, train=train, reseed=reseed)
    assert np.allclose(gx, num, atol=tol), np.abs(gx - num).max()


def test_dense_forward_and_grads():
    rng = np.random.default_rng(100)
    layer = Dense(5, 3)
    layer.init_weights(rng)
    x = rng.standard_normal((4, 5))
    assert np.allclose(layer.forward(x), x @ layer.w + layer.b)
    check_input_grad(layer, x, seed=1)
    # parameter gradient against finite differences on w
    gy = np.random.default_rng(2).standard_normal((4, 3))
    for g in layer.grads().values():
        g[...] = 0.0
    layer.forward(x, train=True)
    layer.backward(gy)
    h = 1e-6
    num = np.zeros_like(layer.w)
    for i in np.ndindex(layer.w.shape):
        layer.w[i] += h
        plus = np.sum(layer.forward(x) * gy)
        layer.w[i] -= 2 * h
        minus = np.sum(layer.forward(x) * gy)
        layer.w[i] += h
        num[i] = (plus - minus) / (2 * h)
    assert np.allclose(layer.gw, num, atol=1e-7)
    assert np.allclose(layer.gb, gy.sum(axis=0))


def _reseed(net):
    """Restart a layer's or a model's dropout stream at a fixed seed."""
    net.reseed(7 if isinstance(net, Model) else np.random.default_rng(7))


def _grad_bytes_after_a_step(net, x, gy, fill):
    """Every grads() array, as bytes, after filling them with `fill` and
    running one train-mode forward and backward."""
    for g in net.grads().values():
        g[...] = fill
    _reseed(net)
    net.forward(x, train=True)
    net.backward(gy)
    return {name: g.tobytes() for name, g in net.grads().items()}


def test_backward_writes_grads_whatever_they_held():
    """Every parameter layer class and every estimator kind: a backward
    pass over grads filled with NaN leaves the bits a pass over zeroed
    grads leaves, so no step needs to zero them first."""
    rng = np.random.default_rng(101)
    cases = [
        (Dense(5, 3), (4, 5)),
        (BatchNorm(3), (4, 3)),
        (BatchNorm(3), (2, 3, 4, 5)),
        (Conv2d(2, 3, (2, 3), (1, 2)), (2, 2, 5, 9)),
        (Deconv2d(3, 2, (2, 3), (1, 2)), (2, 3, 4, 5)),
        (Lstm(7, 5, dropout=0.2, recurrent_dropout=0.2), (3, 4, 7)),
    ]
    runs = []
    for layer, shape in cases:
        layer.init_weights(rng)
        runs.append((type(layer).__name__, layer, rng.standard_normal(shape)))
    for kind in MODEL_KINDS:
        rows = rng.standard_normal((5 + CONTEXT_FRAMES[kind], 205))
        runs.append((kind, build_model(kind, seed=3, dtype=np.float32),
                     window_inputs(kind, rows).astype(np.float32)))
    for name, net, x in runs:
        _reseed(net)
        y = net.forward(x, train=True)
        gy = rng.standard_normal(y.shape).astype(y.dtype)
        from_zeros = _grad_bytes_after_a_step(net, x, gy, 0.0)
        from_nan = _grad_bytes_after_a_step(net, x, gy, np.nan)
        assert from_nan == from_zeros, name


def test_relu_and_elu_pointwise():
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    assert np.allclose(Relu().forward(x), [[0, 0, 0, 0.5, 2.0]])
    elu = Elu().forward(x)
    assert np.allclose(elu, np.where(x > 0, x, np.expm1(x)))
    rng = np.random.default_rng(102)
    check_input_grad(Relu(), rng.standard_normal((3, 7)) + 0.1, seed=3)
    check_input_grad(Elu(), rng.standard_normal((3, 7)), seed=4)


def test_elu_and_batchnorm_leave_the_callers_array_unchanged():
    rng = np.random.default_rng(111)
    x4 = rng.standard_normal((3, 2, 4, 5))
    nhwc = np.ascontiguousarray(x4.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for x in (x4, nhwc, rng.standard_normal((6, 2))):
        before = x.copy()
        for layer in (Elu(), BatchNorm(2)):
            layer.forward(x, train=False)
            layer.forward(x, train=True)
            layer.backward(x)
            assert np.array_equal(x, before), type(layer).__name__


def test_inplace_elu_matches_and_overwrites_its_input():
    rng = np.random.default_rng(112)
    x = rng.standard_normal((3, 2, 4, 5))
    want = Elu().forward(x)
    buf = x.copy()
    got = Elu(inplace=True).forward(buf, train=True)
    assert got is buf
    assert np.array_equal(got, want)


def test_scaled_sigmoid_range_and_grad():
    rng = np.random.default_rng(103)
    layer = ScaledSigmoid()
    x = rng.standard_normal((6, 5)) * 4
    y = layer.forward(x)
    assert np.all(y > 0) and np.all(y < 2)
    assert np.allclose(layer.forward(np.zeros((1, 1))), 1.0)
    check_input_grad(layer, x, seed=5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scaled_sigmoid_saturates_quietly(dtype):
    """Far below zero exp(-x) overflows (from -89 in float32); the output is
    the limit 0, with no overflow warning on the user's terminal."""
    x = np.array([[-1000.0, -100.0, 0.0, 100.0]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = ScaledSigmoid().forward(x)
    assert y.dtype == dtype
    assert np.array_equal(y, np.array([[0.0, y[0, 1], 1.0, 2.0]], dtype=dtype))
    assert 0.0 <= y[0, 1] < 1e-40


def test_dropout_eval_is_identity_and_train_preserves_mean():
    layer = Dropout(0.4)
    layer.reseed(np.random.default_rng(7))
    x = np.ones((200, 50))
    assert np.array_equal(layer.forward(x, train=False), x)
    y = layer.forward(x, train=True)
    kept = y != 0.0
    assert abs(kept.mean() - 0.6) < 0.02
    # inverted scaling: surviving entries are 1/keep
    assert np.allclose(y[kept], 1.0 / 0.6)
    assert abs(y.mean() - 1.0) < 0.03
    with pytest.raises(ConfigError):
        Dropout(1.0)


def test_dropout_reseed_reproduces_mask():
    layer = Dropout(0.5)
    x = np.ones((10, 10))
    layer.reseed(np.random.default_rng(99))
    a = layer.forward(x, train=True)
    layer.reseed(np.random.default_rng(99))
    b = layer.forward(x, train=True)
    assert np.array_equal(a, b)
    check_input_grad(layer, x, seed=6, reseed=99)


def test_batchnorm_train_normalizes_and_eval_uses_running_stats():
    rng = np.random.default_rng(105)
    layer = BatchNorm(4)
    x = rng.standard_normal((64, 4)) * 3.0 + 5.0
    y = layer.forward(x, train=True)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(y.std(axis=0), 1.0, atol=1e-2)
    # eval mode uses the running estimates, not the batch
    z = layer.forward(x[:4], train=False)
    mean, var = layer.run_mean, layer.run_var
    want = (x[:4] - mean) / np.sqrt(var + BN_EPS) * layer.gamma + layer.beta
    assert np.allclose(z, want)


def test_batchnorm_channel_axis_on_images():
    rng = np.random.default_rng(106)
    layer = BatchNorm(3)
    x = rng.standard_normal((8, 3, 4, 5)) * 2 + 1
    y = layer.forward(x, train=True)
    assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)


def test_batchnorm_input_grad():
    rng = np.random.default_rng(107)
    layer = BatchNorm(3)
    x = rng.standard_normal((6, 3))
    check_input_grad(layer, x, seed=9, tol=1e-6)
    layer4 = BatchNorm(2)
    x4 = rng.standard_normal((3, 2, 2, 3))
    check_input_grad(layer4, x4, seed=10, tol=1e-6)


def test_batchnorm_backward_needs_train_forward():
    layer = BatchNorm(2)
    layer.forward(np.ones((3, 2)), train=False)
    with pytest.raises(ConfigError):
        layer.backward(np.ones((3, 2)))


# Layers whose backward needs what a train-mode forward keeps: the factory
# and an input shape for each.
NEEDS_TRAIN_FORWARD = {
    "conv2d": (lambda: Conv2d(2, 3, (2, 3), (1, 2)), (2, 2, 5, 9)),
    "deconv2d": (lambda: Deconv2d(3, 2, (2, 3), (1, 2)), (2, 3, 4, 5)),
    "dense": (lambda: Dense(5, 3), (4, 5)),
    "elu": (Elu, (3, 7)),
    "relu": (Relu, (3, 7)),
    "scaled_sigmoid": (ScaledSigmoid, (3, 7)),
    "batchnorm": (lambda: BatchNorm(3), (4, 3)),
    "lstm": (lambda: Lstm(7, 5, dropout=0.2, recurrent_dropout=0.2), (3, 4, 7)),
}


@pytest.mark.parametrize("name", sorted(NEEDS_TRAIN_FORWARD))
def test_backward_without_a_train_forward_raises(name):
    """Before any forward, and after an eval-mode forward that follows a
    train-mode one, backward raises ConfigError."""
    make, shape = NEEDS_TRAIN_FORWARD[name]
    rng = np.random.default_rng(113)
    x = rng.standard_normal(shape)
    layer = make()
    layer.init_weights(rng)
    gy = np.ones_like(layer.forward(x, train=False))
    with pytest.raises(ConfigError):
        make().backward(gy)
    layer.forward(x, train=True)
    layer.forward(x, train=False)
    with pytest.raises(ConfigError):
        layer.backward(gy)


def test_conv2d_grads():
    rng = np.random.default_rng(108)
    layer = Conv2d(2, 3, (2, 3), (1, 2))
    layer.init_weights(rng)
    x = rng.standard_normal((2, 2, 5, 9))
    check_input_grad(layer, x, seed=11)


def test_conv2d_weight_grad_from_its_kept_im2col_is_bit_equal():
    """The weight gradient a conv takes from the im2col matrix its
    train-mode forward kept has the bits of `kernels.weight_grad` building
    that matrix afresh, in both dtypes and for a channels-last input."""
    rng = np.random.default_rng(114)
    for dtype in (np.float64, np.float32):
        layer = Conv2d(2, 3, (2, 3), (1, 2), dtype)
        layer.init_weights(rng)
        x = rng.standard_normal((2, 2, 5, 9)).astype(dtype)
        for src in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            y = layer.forward(src, train=True)
            gy = rng.standard_normal(y.shape).astype(dtype)
            layer.backward(gy)
            want = kernels.weight_grad(src, gy, (1, 2), (2, 3))
            assert layer.gw.tobytes() == np.ascontiguousarray(want).tobytes()


def test_eval_conv2d_forward_keeps_no_im2col():
    rng = np.random.default_rng(115)
    layer = Conv2d(2, 3, (2, 3), (1, 2))
    layer.init_weights(rng)
    x = rng.standard_normal((2, 2, 5, 9))
    train_y = layer.forward(x, train=True)
    assert layer._cols is not None
    eval_y = layer.forward(x, train=False)
    assert layer._cols is None and layer._x is None
    assert np.array_equal(train_y, eval_y)


def test_first_layers_skip_the_input_gradient():
    """A layer built with input_grad=False writes the same grads and
    returns None; built the default way it returns its input gradient."""
    rng = np.random.default_rng(116)
    cases = [
        (lambda g: Dense(5, 3, input_grad=g), (4, 5)),
        (lambda g: Conv2d(2, 3, (2, 3), (1, 2), input_grad=g), (2, 2, 5, 9)),
        (lambda g: Lstm(7, 5, input_grad=g), (3, 4, 7)),
    ]
    for make, shape in cases:
        full, first = make(True), make(False)
        full.init_weights(np.random.default_rng(1))
        first.init_weights(np.random.default_rng(1))
        x = rng.standard_normal(shape)
        gy = rng.standard_normal(full.forward(x, train=True).shape)
        first.forward(x, train=True)
        assert full.backward(gy).shape == shape
        assert first.backward(gy) is None
        for name, g in full.grads().items():
            assert np.array_equal(g, first.grads()[name]), name


def test_deconv2d_grads():
    rng = np.random.default_rng(109)
    layer = Deconv2d(3, 2, (2, 3), (1, 2))
    layer.init_weights(rng)
    x = rng.standard_normal((2, 3, 4, 5))
    check_input_grad(layer, x, seed=12)


def test_pad_high_freq():
    layer = PadHighFreq(7)
    x = np.arange(24.0).reshape(2, 1, 3, 4)
    y = layer.forward(x)
    assert y.shape == (2, 1, 3, 7)
    assert np.array_equal(y[..., :4], x)
    assert np.all(y[..., 4:] == 0.0)
    gy = np.random.default_rng(13).standard_normal(y.shape)
    assert np.array_equal(layer.backward(gy), gy[..., :4])
    with pytest.raises(ConfigError):
        layer.forward(np.zeros((1, 1, 2, 9)))

