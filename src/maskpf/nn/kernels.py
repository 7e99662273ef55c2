"""Convolution primitives: one im2col / col2im path over BLAS matrix products.

Three index patterns cover every operation the conv and transposed-conv
layers need, in both directions:

  gather       out[n,b,oh,ow]            = sum_a,kh,kw src[n,a,s*oh+kh,...] * w[b,a,kh,kw]
  scatter      out[n,b,s*oh+kh,s*ow+kw] += sum_a       src[n,a,oh,ow]      * w[a,b,kh,kw]
  weight_grad  out[b,a,kh,kw]            = sum_n,oh,ow big[n,a,s*oh+kh,...] * small[n,b,oh,ow]

Convolution forward is a gather; its input gradient is a scatter; a
transposed convolution is the same two kernels with the roles swapped, and
both weight gradients are the third pattern. Results take the dtype of
their operands (float32 in training and inference, float64 in the
gradient checks; mixing the two upcasts to float64), and padding is always
"valid" (the higher layers do any zero padding themselves).

Every image argument and result has the logical shape (N, C, H, W), but the
work happens channels-last. `gather` and `weight_grad` copy the strided
windows of the source once into an (N*OH*OW, KH*KW*A) matrix and make one
matrix product with the weights or the small tensor; `scatter` makes one
matrix product into (N*OH*OW, KH*KW*B) columns and adds them back tap by
tap. Results are (N, H, W, C) buffers returned as (N, C, H, W) views, so a
chain of layers that passes such views along never copies an image to
change its layout. Contiguous (N, C, H, W) inputs give the same results,
only with a strided copy on the way in.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError


def _nhwc(x: np.ndarray) -> np.ndarray:
    """The channels-last view of a logical (N, C, H, W) array."""
    return np.asarray(x).transpose(0, 2, 3, 1)


def _taps_last(w: np.ndarray) -> np.ndarray:
    """(X, Y, KH, KW) weights as the (X, KH*KW*Y) matrix that matches _im2col."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _im2col(src: np.ndarray, k_hw: tuple[int, int], stride: tuple[int, int],
            out_hw: tuple[int, int]) -> np.ndarray:
    """Windows of an (N, H, W, A) array as an (N*OH*OW, KH*KW*A) matrix."""
    (kh, kw), (sh, sw), (oh, ow) = k_hw, stride, out_hw
    win = sliding_window_view(src, (kh, kw), axis=(1, 2))  # (N, H', W', A, KH, KW)
    win = win[:, : sh * oh : sh, : sw * ow : sw].transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(win).reshape(-1, kh * kw * src.shape[3])


def gather(src: np.ndarray, w: np.ndarray, stride: tuple[int, int],
           cols: np.ndarray | None = None) -> np.ndarray:
    """Strided gather; conv2d forward and deconv2d input gradient. `cols`
    is src's im2col matrix for w's kernel, when the caller already has it."""
    src_t = _nhwc(src)
    sh, sw = stride
    n, h, wd, _ = src_t.shape
    b, _, kh, kw = w.shape
    oh = (h - kh) // sh + 1
    ow = (wd - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"kernel {kh}x{kw} does not fit input {h}x{wd}")
    if cols is None:
        cols = _im2col(src_t, (kh, kw), stride, (oh, ow))
    return (cols @ _taps_last(w).T).reshape(n, oh, ow, b).transpose(0, 3, 1, 2)


def scatter(
    src: np.ndarray, w: np.ndarray, stride: tuple[int, int], out_hw: tuple[int, int]
) -> np.ndarray:
    """Strided scatter-add; deconv2d forward and conv2d input gradient."""
    src_t = _nhwc(src)
    sh, sw = stride
    n, oh, ow, n_a = src_t.shape
    _, b, kh, kw = w.shape
    min_h = sh * (oh - 1) + kh
    min_w = sw * (ow - 1) + kw
    if out_hw[0] < min_h or out_hw[1] < min_w:
        raise ConfigError(f"output {out_hw} too small for scatter ({min_h},{min_w})")
    cols = (src_t.reshape(-1, n_a) @ _taps_last(w)).reshape(n, oh, ow, kh, kw, b)
    out = np.zeros((n, out_hw[0], out_hw[1], b), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, :, i, j]
    return out.transpose(0, 3, 1, 2)


def weight_grad(
    big: np.ndarray,
    small: np.ndarray,
    stride: tuple[int, int],
    k_hw: tuple[int, int],
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel gradient; serves conv2d and deconv2d weight updates. `cols` is
    big's im2col matrix, when the caller already has it."""
    big_t, small_t = _nhwc(big), _nhwc(small)
    n_a, n_b = big_t.shape[3], small_t.shape[3]
    if cols is None:
        cols = _im2col(big_t, k_hw, stride, small_t.shape[1:3])
    out = small_t.reshape(-1, n_b).T @ cols
    return out.reshape(n_b, k_hw[0], k_hw[1], n_a).transpose(0, 3, 1, 2)


# ------------------------------------------------------- layer-facing API ---


def conv2d(x: np.ndarray, w: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """Valid-padding convolution. x (N,C,H,W), w (F,C,KH,KW) -> (N,F,OH,OW)."""
    return gather(x, w, stride)


def conv2d_grad_input(
    gy: np.ndarray, w: np.ndarray, stride: tuple[int, int], in_hw: tuple[int, int]
) -> np.ndarray:
    return scatter(gy, w, stride, in_hw)


def conv2d_grad_weights(
    x: np.ndarray, gy: np.ndarray, stride: tuple[int, int], k_hw: tuple[int, int]
) -> np.ndarray:
    return weight_grad(x, gy, stride, k_hw)


def deconv2d(x: np.ndarray, w: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """Valid transposed convolution. x (N,C,H,W), w (C,F,KH,KW); the output
    is (N, F, s*(H-1)+KH, s*(W-1)+KW)."""
    _, _, h, wd = x.shape
    _, _, kh, kw = w.shape
    out_hw = (stride[0] * (h - 1) + kh, stride[1] * (wd - 1) + kw)
    return scatter(x, w, stride, out_hw)


def deconv2d_grad_input(
    gy: np.ndarray, w: np.ndarray, stride: tuple[int, int]
) -> np.ndarray:
    return gather(gy, w, stride)


def deconv2d_grad_weights(
    x: np.ndarray, gy: np.ndarray, stride: tuple[int, int], k_hw: tuple[int, int]
) -> np.ndarray:
    # For the transposed op the gradient tensor is the spatially larger one.
    return weight_grad(gy, x, stride, k_hw)


def deconv2d_grads(
    x: np.ndarray, gy: np.ndarray, w: np.ndarray, stride: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """(weight gradient, input gradient) of deconv2d(x, w, stride) for the
    output gradient gy. Both are products with the same im2col matrix of gy,
    which is built once here."""
    k_hw = w.shape[2:]
    cols = _im2col(_nhwc(gy), k_hw, stride, x.shape[2:])
    return (weight_grad(gy, x, stride, k_hw, cols),
            gather(gy, w, stride, cols))
