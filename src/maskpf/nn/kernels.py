"""Convolution primitives: one im2col / col2im path over BLAS matrix products.

Three index patterns cover every operation the conv and transposed-conv
layers need, in both directions:

  gather       out[n,b,oh,ow]            = sum_a,kh,kw src[n,a,s*oh+kh,...] * w[b,a,kh,kw]
  scatter      out[n,b,s*oh+kh,s*ow+kw] += sum_a       src[n,a,oh,ow]      * w[a,b,kh,kw]
  weight_grad  out[b,a,kh,kw]            = sum_n,oh,ow big[n,a,s*oh+kh,...] * small[n,b,oh,ow]

Convolution forward is a gather; its input gradient is a scatter; a
transposed convolution is the same two kernels with the roles swapped, and
both weight gradients are the third pattern. The layers (`Conv2d`,
`Deconv2d`) call these three and `im2col` directly. Results take the dtype
of their operands (float32 in training and inference, float64 in the
gradient checks; mixing the two upcasts to float64), and padding is always
"valid" (the higher layers do any zero padding themselves).

Every image argument and result has the logical shape (N, C, H, W), but the
work happens channels-last. `gather` and `weight_grad` copy the strided
windows of the source once into an (N*OH*OW, KH*KW*A) matrix and make one
matrix product with the weights or the small tensor; a caller that
already holds that matrix (`im2col`) passes it as `cols`, as a training
convolution does from its forward to its weight gradient. `scatter` makes one
matrix product into (N*OH*OW, KH*KW*B) tap columns and hands them to
`col2im`, the one col2im, which the conv estimator's inference also calls
on columns it made itself; that inference copies `windows`, the im2col
matrix unflattened, into buffers it reuses. `col2im` writes each output
phase (row mod stride, column mod stride) once, its first tap plus an
optional bias, and adds the phase's other taps to it: no zero fill, and
no separate bias pass. It writes into any (N, B, H, W) view the caller
gives. Results are (N, H, W, C) buffers returned as (N, C, H, W) views,
so a chain of layers that passes such views along never copies an image
to change its layout.
Contiguous (N, C, H, W) inputs give the same results, only with a strided
copy on the way in.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError


def _nhwc(x: np.ndarray) -> np.ndarray:
    """The channels-last view of a logical (N, C, H, W) array."""
    return np.asarray(x).transpose(0, 2, 3, 1)


def tap_matrix(w: np.ndarray) -> np.ndarray:
    """(X, Y, KH, KW) weights as the (X, KH*KW*Y) matrix that matches _im2col
    and whose product columns `col2im` takes."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _windows(src: np.ndarray, k_hw: tuple[int, int], stride: tuple[int, int],
             out_hw: tuple[int, int]) -> np.ndarray:
    """Windows of an (N, H, W, A) array as an (N, OH, OW, KH, KW, A) view."""
    (kh, kw), (sh, sw), (oh, ow) = k_hw, stride, out_hw
    win = sliding_window_view(src, (kh, kw), axis=(1, 2))  # (N, H', W', A, KH, KW)
    return win[:, : sh * oh : sh, : sw * ow : sw].transpose(0, 1, 2, 4, 5, 3)


def _im2col(src: np.ndarray, k_hw: tuple[int, int], stride: tuple[int, int],
            out_hw: tuple[int, int]) -> np.ndarray:
    """Windows of an (N, H, W, A) array as an (N*OH*OW, KH*KW*A) matrix."""
    win = _windows(src, k_hw, stride, out_hw)
    return np.ascontiguousarray(win).reshape(-1, k_hw[0] * k_hw[1] * src.shape[3])


def _valid_hw(in_hw: tuple[int, int], k_hw: tuple[int, int],
              stride: tuple[int, int]) -> tuple[int, int]:
    """Output height and width of a valid strided window over in_hw."""
    (h, wd), (kh, kw), (sh, sw) = in_hw, k_hw, stride
    oh = (h - kh) // sh + 1
    ow = (wd - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"kernel {kh}x{kw} does not fit input {h}x{wd}")
    return oh, ow


def im2col(src: np.ndarray, k_hw: tuple[int, int],
           stride: tuple[int, int]) -> np.ndarray:
    """The im2col matrix of a logical (N, A, H, W) image for a valid
    KH x KW window at `stride`: what `gather` and `weight_grad` take as
    `cols`."""
    src_t = _nhwc(src)
    return _im2col(src_t, k_hw, stride, _valid_hw(src_t.shape[1:3], k_hw, stride))


def windows(src: np.ndarray, k_hw: tuple[int, int],
            stride: tuple[int, int]) -> np.ndarray:
    """The valid KH x KW windows at `stride` of a logical (N, A, H, W)
    image, as an (N, OH, OW, KH, KW, A) view: its im2col matrix before the
    copy, for a caller that copies it into a buffer of its own."""
    src_t = _nhwc(src)
    return _windows(src_t, k_hw, stride, _valid_hw(src_t.shape[1:3], k_hw, stride))


def gather(src: np.ndarray, w: np.ndarray, stride: tuple[int, int],
           cols: np.ndarray | None = None) -> np.ndarray:
    """Strided gather; convolution forward and transposed-convolution input
    gradient. `cols` is src's im2col matrix for w's kernel, when the caller
    already has it."""
    src_t = _nhwc(src)
    n = src_t.shape[0]
    b, _, kh, kw = w.shape
    oh, ow = _valid_hw(src_t.shape[1:3], (kh, kw), stride)
    if cols is None:
        cols = _im2col(src_t, (kh, kw), stride, (oh, ow))
    return (cols @ tap_matrix(w).T).reshape(n, oh, ow, b).transpose(0, 3, 1, 2)


def col2im(cols: np.ndarray, stride: tuple[int, int], out: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Add the tap columns `cols` (N, OH, OW, KH, KW, B) of a strided
    scatter into `out`, the logical (N, B, H, W) destination (any strides),
    plus `bias` (B,) per channel when given; returns `out`.

    Each output phase (row mod sh, column mod sw) is written by one
    assignment: the phase's first tap plus the bias (the bias alone, or
    zero, where that tap does not reach), and then the phase's other taps
    are added to it. No element is written before its first value, and
    without a bias the sums are those of adding the taps in row-major
    order to zeros.
    """
    sh, sw = stride
    n, oh, ow, kh, kw, b = cols.shape
    out_t = _nhwc(out)
    h, wd = out_t.shape[1:3]
    if out_t.shape[::3] != (n, b) or h < sh * (oh - 1) + kh or wd < sw * (ow - 1) + kw:
        raise ConfigError(
            f"col2im output {out.shape} does not fit columns {cols.shape}")
    fill = 0.0 if bias is None else bias
    for py in range(sh):
        for px in range(sw):
            phase = out_t[:, py::sh, px::sw]
            if py >= kh or px >= kw:  # no tap reaches this phase
                phase[...] = fill
                continue
            # The first tap covers the phase's leading (oh, ow) block.
            if bias is None:
                phase[:, :oh, :ow] = cols[:, :, :, py, px]
            else:
                np.add(cols[:, :, :, py, px], bias, out=phase[:, :oh, :ow])
            phase[:, oh:] = fill
            phase[:, :oh, ow:] = fill
            for i in range(py, kh, sh):
                for j in range(px, kw, sw):
                    if (i, j) != (py, px):
                        di, dj = (i - py) // sh, (j - px) // sw
                        phase[:, di : di + oh, dj : dj + ow] += cols[:, :, :, i, j]
    return out


def scatter(
    src: np.ndarray,
    w: np.ndarray,
    stride: tuple[int, int],
    out_hw: tuple[int, int],
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Strided scatter-add; transposed-convolution forward and convolution
    input gradient, plus `bias` per output channel when given. One matrix
    product makes every tap's columns, and `col2im` writes them into a
    fresh channels-last buffer."""
    src_t = _nhwc(src)
    sh, sw = stride
    n, oh, ow, n_a = src_t.shape
    _, b, kh, kw = w.shape
    min_h = sh * (oh - 1) + kh
    min_w = sw * (ow - 1) + kw
    if out_hw[0] < min_h or out_hw[1] < min_w:
        raise ConfigError(f"output {out_hw} too small for scatter ({min_h},{min_w})")
    cols = (src_t.reshape(-1, n_a) @ tap_matrix(w)).reshape(n, oh, ow, kh, kw, b)
    out = np.empty((n, out_hw[0], out_hw[1], b), cols.dtype)
    return col2im(cols, stride, out.transpose(0, 3, 1, 2), bias)


def weight_grad(
    big: np.ndarray,
    small: np.ndarray,
    stride: tuple[int, int],
    k_hw: tuple[int, int],
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel gradient of a convolution and of a transposed convolution.
    `cols` is big's im2col matrix, when the caller already has it."""
    big_t, small_t = _nhwc(big), _nhwc(small)
    n_a, n_b = big_t.shape[3], small_t.shape[3]
    if cols is None:
        cols = _im2col(big_t, k_hw, stride, small_t.shape[1:3])
    out = small_t.reshape(-1, n_b).T @ cols
    return out.reshape(n_b, k_hw[0], k_hw[1], n_a).transpose(0, 3, 1, 2)

