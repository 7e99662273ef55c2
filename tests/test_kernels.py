"""Convolution kernels: loop oracles and adjointness, on both memory layouts.

The kernels take logical (N, C, H, W) arrays. Each test runs on plain
C-ordered numpy arrays (`numpy`) and on (N, C, H, W) views of channels-last
buffers (`nhwc`), the layout the conv estimator passes between its layers.
The float32 twins hold float32 results to the float64 oracles within a
rounding bound taken from float32 eps.
"""

import numpy as np
import pytest

from maskpf.errors import ConfigError
from maskpf.nn import kernels
from maskpf.nn.kernels import (
    conv2d,
    conv2d_grad_input,
    conv2d_grad_weights,
    deconv2d,
    deconv2d_grad_input,
    deconv2d_grad_weights,
)

LAYOUTS = ["numpy", "nhwc"]

# The conv estimator's decoder stages: (c_in, c_out, input height, width).
DECODER_SHAPES = [(128, 64, 2, 11), (128, 32, 3, 24), (64, 16, 4, 50),
                  (32, 1, 5, 102)]


def in_layout(x, layout):
    """x with the same logical shape and values, stored in `layout`."""
    if layout == "numpy":
        return np.ascontiguousarray(x)
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def conv2d_loops(x, w, stride):
    """Straight quadruple-loop reference, deliberately slow and obvious."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    sh, sw = stride
    oh = (h - kh) // sh + 1
    ow = (wd - kw) // sw + 1
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for j in range(f):
            for y in range(oh):
                for z in range(ow):
                    patch = x[b, :, y * sh : y * sh + kh, z * sw : z * sw + kw]
                    out[b, j, y, z] = np.sum(patch * w[j])
    return out


def deconv2d_loops(x, w, stride):
    n, c, h, wd = x.shape
    _, f, kh, kw = w.shape
    sh, sw = stride
    out = np.zeros((n, f, sh * (h - 1) + kh, sw * (wd - 1) + kw))
    for b in range(n):
        for a in range(c):
            for y in range(h):
                for z in range(wd):
                    out[b, :, y * sh : y * sh + kh, z * sw : z * sw + kw] += (
                        x[b, a, y, z] * w[a]
                    )
    return out


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 3)])
def test_conv2d_matches_loop_oracle(layout, stride):
    rng = np.random.default_rng(90)
    x = rng.standard_normal((2, 3, 9, 11))
    w = rng.standard_normal((4, 3, 2, 3))
    got = conv2d(in_layout(x, layout), w, stride)
    assert np.allclose(got, conv2d_loops(x, w, stride), atol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
def test_deconv2d_matches_loop_oracle(layout, stride):
    rng = np.random.default_rng(91)
    x = rng.standard_normal((2, 4, 5, 6))
    w = rng.standard_normal((4, 3, 2, 3))
    got = deconv2d(in_layout(x, layout), w, stride)
    assert np.allclose(got, deconv2d_loops(x, w, stride), atol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", DECODER_SHAPES)
def test_decoder_shapes_match_loop_oracles(layout, shape):
    """Each decoder stage's deconv forward, and the conv forward that serves
    as its input gradient, at the stage's own channel counts."""
    c_in, c_out, h, wd = shape
    rng = np.random.default_rng(96)
    stride = (1, 2)
    x = rng.standard_normal((2, c_in, h, wd))
    w = rng.standard_normal((c_in, c_out, 2, 3))
    y = deconv2d(in_layout(x, layout), w, stride)
    assert np.allclose(y, deconv2d_loops(x, w, stride), atol=1e-11)
    gy = rng.standard_normal(y.shape)
    gx = deconv2d_grad_input(in_layout(gy, layout), w, stride)
    assert np.allclose(gx, conv2d_loops(gy, w, stride), atol=1e-11)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_conv_adjointness(layout):
    """<conv(x), gy> must equal <x, grad_input(gy)>: the backward pass is the
    exact adjoint of the forward map, not an approximation of it."""
    rng = np.random.default_rng(92)
    stride = (1, 2)
    x = rng.standard_normal((3, 2, 7, 12))
    w = rng.standard_normal((5, 2, 2, 3))
    y = conv2d(in_layout(x, layout), w, stride)
    gy = rng.standard_normal(y.shape)
    gx = conv2d_grad_input(in_layout(gy, layout), w, stride, (7, 12))
    assert np.allclose(np.sum(y * gy), np.sum(x * gx), rtol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_deconv_adjointness(layout):
    rng = np.random.default_rng(93)
    stride = (1, 2)
    x = rng.standard_normal((2, 4, 6, 5))
    w = rng.standard_normal((4, 3, 2, 3))
    y = deconv2d(in_layout(x, layout), w, stride)
    gy = rng.standard_normal(y.shape)
    gx = deconv2d_grad_input(in_layout(gy, layout), w, stride)
    assert np.allclose(np.sum(y * gy), np.sum(x * gx), rtol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", DECODER_SHAPES)
def test_decoder_shapes_adjointness(layout, shape):
    """Both maps of a decoder stage are linear in the input and in the
    weights, so each gradient is an exact adjoint: <deconv(x, w), gy> equals
    <x, grad_input(gy)> and, for a weight direction d, <deconv(x, d), gy>
    equals <grad_weights(x, gy), d>."""
    c_in, c_out, h, wd = shape
    rng = np.random.default_rng(97)
    stride = (1, 2)
    x = rng.standard_normal((3, c_in, h, wd))
    w = rng.standard_normal((c_in, c_out, 2, 3))
    y = deconv2d(in_layout(x, layout), w, stride)
    gy = rng.standard_normal(y.shape)
    gx = deconv2d_grad_input(in_layout(gy, layout), w, stride)
    assert np.isclose(np.sum(y * gy), np.sum(x * gx), rtol=1e-12)
    d = rng.standard_normal(w.shape)
    gw = deconv2d_grad_weights(in_layout(x, layout), in_layout(gy, layout),
                               stride, (2, 3))
    assert gw.shape == w.shape
    assert np.isclose(np.sum(deconv2d(x, d, stride) * gy), np.sum(gw * d),
                      rtol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_weight_grad_matches_finite_difference_direction(layout):
    rng = np.random.default_rng(94)
    stride = (1, 2)
    x = rng.standard_normal((2, 3, 6, 9))
    w = rng.standard_normal((4, 3, 2, 3))
    gy = rng.standard_normal(conv2d(x, w, stride).shape)
    gw = conv2d_grad_weights(in_layout(x, layout), in_layout(gy, layout),
                             stride, (2, 3))
    direction = rng.standard_normal(w.shape)
    h = 1e-6
    lhs = (np.sum(conv2d(x, w + h * direction, stride) * gy)
           - np.sum(conv2d(x, w - h * direction, stride) * gy)) / (2 * h)
    assert np.isclose(lhs, np.sum(gw * direction), rtol=1e-6)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_deconv_weight_grad_direction(layout):
    rng = np.random.default_rng(95)
    stride = (1, 2)
    x = rng.standard_normal((2, 4, 5, 6))
    w = rng.standard_normal((4, 3, 2, 3))
    gy = rng.standard_normal(deconv2d(x, w, stride).shape)
    gw = deconv2d_grad_weights(in_layout(x, layout), in_layout(gy, layout),
                               stride, (2, 3))
    assert gw.shape == w.shape
    direction = rng.standard_normal(w.shape)
    h = 1e-6
    lhs = (np.sum(deconv2d(x, w + h * direction, stride) * gy)
           - np.sum(deconv2d(x, w - h * direction, stride) * gy)) / (2 * h)
    assert np.isclose(lhs, np.sum(gw * direction), rtol=1e-6)


def test_kernel_too_large_rejected():
    x = np.zeros((1, 1, 3, 3))
    w = np.zeros((1, 1, 5, 5))
    with pytest.raises(ConfigError):
        conv2d(x, w, (1, 1))


def test_scatter_output_too_small_rejected():
    x = np.zeros((1, 1, 3, 3))
    w = np.zeros((1, 1, 2, 2))
    with pytest.raises(ConfigError):
        kernels.scatter(x, w, (2, 2), (4, 4))


@pytest.mark.parametrize("kernel, stride", [((2, 3), (1, 2)), ((6, 1), (1, 1)),
                                            ((1, 2), (2, 3))])
def test_col2im_writes_a_strided_view_once_with_bias(kernel, stride):
    """Tap columns summed into a strided view of a larger buffer, plus a
    bias, match the tap-by-tap loops; so do `scatter` and the deconv with
    a bias. Output rows and columns no tap reaches (the view is one larger
    than the taps need, and a (1, 2) kernel at stride (2, 3) leaves whole
    phases empty) hold the bias alone, and nothing outside the view is
    written."""
    rng = np.random.default_rng(99)
    kh, kw = kernel
    x = rng.standard_normal((2, 4, 3, 5))
    w = rng.standard_normal((4, 3, kh, kw))
    bias = rng.standard_normal(3)
    want = deconv2d_loops(x, w, stride)
    n, b, h, wd = want.shape
    want = np.pad(want, ((0, 0), (0, 0), (0, 1), (0, 1))) + bias[:, None, None]
    cols = (x.transpose(0, 2, 3, 1).reshape(-1, 4) @ kernels.tap_matrix(w)).reshape(
        2, 3, 5, kh, kw, 3)
    parent = np.full((n, h + 3, wd + 4, b + 2), 7.0)
    region = (slice(None), slice(1, h + 2), slice(2, wd + 3), slice(1, b + 1))
    out = parent[region].transpose(0, 3, 1, 2)
    assert kernels.col2im(cols, stride, out, bias) is out
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    outside = np.ones(parent.shape, bool)
    outside[region] = False
    assert np.all(parent[outside] == 7.0)
    got = kernels.scatter(x, w, stride, (h + 1, wd + 1), bias=bias)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    got = deconv2d(in_layout(x, "nhwc"), w, stride, bias=bias)
    np.testing.assert_allclose(got, want[:, :, :h, :wd], rtol=0, atol=1e-12)


# ------------------------------------------------------------ float32 twins --

F32_EPS = float(np.finfo(np.float32).eps)


def f32_pair(rng, shape):
    """A float32 array and its exact float64 copy."""
    a = rng.standard_normal(shape).astype(np.float32)
    return a, a.astype(np.float64)


def assert_f32_close(got, exact, abs_exact, n_terms):
    """`got` holds float32 sums of at most n_terms products. The standard
    rounding bound of such a sum is n_terms * eps / 2 times the same sum
    over the terms' absolute values (abs_exact); allow n_terms * eps."""
    assert got.dtype == np.float32
    err = np.abs(got.astype(np.float64) - exact)
    assert np.all(err <= n_terms * F32_EPS * abs_exact), err.max()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 3)])
def test_float32_conv2d_matches_loop_oracle(layout, stride):
    rng = np.random.default_rng(90)
    x32, x = f32_pair(rng, (2, 3, 9, 11))
    w32, w = f32_pair(rng, (4, 3, 2, 3))
    got = conv2d(in_layout(x32, layout), w32, stride)
    assert_f32_close(got, conv2d_loops(x, w, stride),
                     conv2d_loops(np.abs(x), np.abs(w), stride), 3 * 2 * 3)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 2)])
def test_float32_deconv2d_matches_loop_oracle(layout, stride):
    rng = np.random.default_rng(91)
    x32, x = f32_pair(rng, (2, 4, 5, 6))
    w32, w = f32_pair(rng, (4, 3, 2, 3))
    got = deconv2d(in_layout(x32, layout), w32, stride)
    assert_f32_close(got, deconv2d_loops(x, w, stride),
                     deconv2d_loops(np.abs(x), np.abs(w), stride), 4 * 2 * 3)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", DECODER_SHAPES)
def test_float32_decoder_shapes_match_loop_oracles(layout, shape):
    c_in, c_out, h, wd = shape
    rng = np.random.default_rng(96)
    stride = (1, 2)
    x32, x = f32_pair(rng, (2, c_in, h, wd))
    w32, w = f32_pair(rng, (c_in, c_out, 2, 3))
    y = deconv2d(in_layout(x32, layout), w32, stride)
    assert_f32_close(y, deconv2d_loops(x, w, stride),
                     deconv2d_loops(np.abs(x), np.abs(w), stride), c_in * 2 * 3)
    gy32, gy = f32_pair(rng, y.shape)
    gx = deconv2d_grad_input(in_layout(gy32, layout), w32, stride)
    assert_f32_close(gx, conv2d_loops(gy, w, stride),
                     conv2d_loops(np.abs(gy), np.abs(w), stride), c_out * 2 * 3)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_float32_weight_grads_match_float64(layout):
    """Both weight gradients against the float64 kernels, which the tests
    above check, on the same float32 values."""
    rng = np.random.default_rng(98)
    stride = (1, 2)
    x32, x = f32_pair(rng, (2, 3, 6, 9))
    gy32, gy = f32_pair(rng, conv2d(x, np.zeros((4, 3, 2, 3)), stride).shape)
    gw = conv2d_grad_weights(in_layout(x32, layout), in_layout(gy32, layout),
                             stride, (2, 3))
    assert_f32_close(gw, conv2d_grad_weights(x, gy, stride, (2, 3)),
                     conv2d_grad_weights(np.abs(x), np.abs(gy), stride, (2, 3)),
                     gy[:, 0].size)
    d32, d = f32_pair(rng, (3, 4, 5, 6))
    gz32, gz = f32_pair(rng, deconv2d(d, np.zeros((4, 2, 2, 3)), stride).shape)
    gw = deconv2d_grad_weights(in_layout(d32, layout), in_layout(gz32, layout),
                               stride, (2, 3))
    assert_f32_close(gw, deconv2d_grad_weights(d, gz, stride, (2, 3)),
                     deconv2d_grad_weights(np.abs(d), np.abs(gz), stride, (2, 3)),
                     d[:, 0].size)
