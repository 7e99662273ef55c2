"""Recurrent layer: a from-scratch LSTM over (N, T, D) sequences.

Gate layout in the fused weight matrices is [input, forget, candidate,
output]. Input and recurrent dropout use one mask per sample held fixed
across all time steps, the usual recipe for recurrent nets. Backward is
full backpropagation through time and accumulates into the same grads()
arrays the optimizer sees.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .layers import Layer, glorot_uniform, sigmoid


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal init for square recurrent blocks via QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class Lstm(Layer):
    """Single LSTM layer returning the full output sequence (N, T, H)."""

    def __init__(self, n_in: int, n_units: int, dropout: float = 0.0,
                 recurrent_dropout: float = 0.0, dtype=np.float64):
        if not (0.0 <= dropout < 1.0 and 0.0 <= recurrent_dropout < 1.0):
            raise ConfigError("dropout rates must be in [0, 1)")
        h = n_units
        self.n_in = n_in
        self.n_units = h
        self.wx = np.empty((n_in, 4 * h), dtype)
        self.wh = np.empty((h, 4 * h), dtype)
        self.b = np.zeros(4 * h, dtype)
        self.gwx = np.zeros((n_in, 4 * h), dtype)
        self.gwh = np.zeros((h, 4 * h), dtype)
        self.gb = np.zeros(4 * h, dtype)
        self.dropout = dropout
        self.recurrent_dropout = recurrent_dropout
        self.rng = np.random.default_rng(0)

    def init_weights(self, rng):
        """Glorot input weights, one orthogonal block per gate, and the
        forget gate's bias at 1 so it starts open."""
        h = self.n_units
        self.wx[...] = glorot_uniform(rng, self.wx.shape, *self.wx.shape)
        for k in range(4):
            self.wh[:, k * h : (k + 1) * h] = orthogonal(rng, h)
        self.b[h : 2 * h] = 1.0

    def params(self):
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def grads(self):
        return {"wx": self.gwx, "wh": self.gwh, "b": self.gb}

    def reseed(self, rng):
        self.rng = rng

    def forward(self, x, train=False):
        n, t_len, d = x.shape
        if d != self.n_in:
            raise ConfigError(f"expected input width {self.n_in}, got {d}")
        h = self.n_units
        dtype = x.dtype
        # Masks are drawn in float64 and cast, so every dtype consumes the
        # same random stream.
        if train and self.dropout > 0.0:
            keep = 1.0 - self.dropout
            mx = ((self.rng.random((n, d)) < keep) / keep).astype(dtype, copy=False)
        else:
            mx = None
        if train and self.recurrent_dropout > 0.0:
            keep = 1.0 - self.recurrent_dropout
            mh = ((self.rng.random((n, h)) < keep) / keep).astype(dtype, copy=False)
        else:
            mh = None
        self._mx, self._mh = mx, mh
        # Time-major input, dropped out once; its projection is one GEMM and
        # only the recurrent product h @ wh stays inside the time loop.
        xs = x.transpose(1, 0, 2) if mx is None else x.transpose(1, 0, 2) * mx
        xs = np.ascontiguousarray(xs)
        ax = (xs.reshape(-1, d) @ self.wx).reshape(t_len, n, 4 * h)
        ax += self.b
        if train:
            self._xs = xs
            self._hps = np.empty((t_len, n, h), dtype)
            self._steps = []
        else:
            self._xs = self._hps = self._steps = None
        h_t = np.zeros((n, h), dtype)
        c_t = np.zeros((n, h), dtype)
        out = np.empty((n, t_len, h), dtype)
        for t in range(t_len):
            hp = h_t if mh is None else h_t * mh
            a = hp @ self.wh
            a += ax[t]
            gi = sigmoid(a[:, :h])
            gf = sigmoid(a[:, h : 2 * h])
            gc = np.tanh(a[:, 2 * h : 3 * h])
            go = sigmoid(a[:, 3 * h :])
            c_prev = c_t
            c_t = gf * c_prev + gi * gc
            tc = np.tanh(c_t)
            h_t = go * tc
            out[:, t] = h_t
            if train:
                self._hps[t] = hp
                self._steps.append((gi, gf, gc, go, c_prev, tc))
        return out

    def backward(self, gy):
        n, t_len, h = gy.shape
        # Gate gradients of every step; the weight and input gradients are
        # one GEMM each over all of them after the loop.
        da = np.empty((t_len, n, 4 * h), gy.dtype)
        dh_next = np.zeros((n, h), gy.dtype)
        dc_next = np.zeros((n, h), gy.dtype)
        for t in range(t_len - 1, -1, -1):
            gi, gf, gc, go, c_prev, tc = self._steps[t]
            dh = gy[:, t] + dh_next
            dc = dh * go * (1.0 - tc * tc) + dc_next
            da[t, :, :h] = dc * gc * gi * (1.0 - gi)
            da[t, :, h : 2 * h] = dc * c_prev * gf * (1.0 - gf)
            da[t, :, 2 * h : 3 * h] = dc * gi * (1.0 - gc * gc)
            da[t, :, 3 * h :] = dh * tc * go * (1.0 - go)
            dhp = da[t] @ self.wh.T
            dh_next = dhp if self._mh is None else dhp * self._mh
            dc_next = dc * gf
        da_rows = da.reshape(-1, 4 * h)
        self.gwx += self._xs.reshape(-1, self.n_in).T @ da_rows
        self.gwh += self._hps.reshape(-1, h).T @ da_rows
        self.gb += np.einsum("mg->g", da_rows)
        gx = (da_rows @ self.wx.T).reshape(t_len, n, self.n_in)
        if self._mx is not None:
            gx *= self._mx
        return gx.transpose(1, 0, 2)
