"""Recurrent layer: a from-scratch LSTM over (N, T, D) sequences.

Gate layout in the fused weight matrices is [input, forget, candidate,
output]. `forward` projects every step's input with one GEMM and hands
the time-major projections to `recur`, the one recurrence loop, which
training, validation and inference all run through; for validation and
inference `LstmModel` calls it directly with projections it shares
across windows. Each step's
gate pre-activations are written into one (N, 4H) buffer, and sigmoid and
tanh run in place on its gate slices. The first state is zero, so step 0
has no recurrent product and no forget term, and backward sends no
gradient into it.

Input and recurrent dropout use one mask per sample held fixed across
all time steps, the usual recipe for recurrent nets. Backward is full
backpropagation through time and writes the grads() arrays the optimizer
sees, over whatever they held. A layer built with `input_grad=False`
skips the input gradient and its GEMM and returns None.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .layers import Layer, require_train_forward, glorot_uniform, sigmoid


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal init for square recurrent blocks via QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class Lstm(Layer):
    """Single LSTM layer returning the full output sequence (N, T, H)."""

    def __init__(self, n_in: int, n_units: int, dropout: float = 0.0,
                 recurrent_dropout: float = 0.0, dtype=np.float64,
                 input_grad: bool = True):
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
        self.input_grad = input_grad
        self.rng = np.random.default_rng(0)
        self._mx = self._mh = self._xs = self._hps = self._steps = None

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
        # Masks are drawn in float64 and cast, so every dtype consumes the
        # same random stream: the input mask here, the recurrent one in
        # `recur`.
        if train and self.dropout > 0.0:
            keep = 1.0 - self.dropout
            mx = ((self.rng.random((n, d)) < keep) / keep).astype(x.dtype, copy=False)
        else:
            mx = None
        self._mx = mx
        # Time-major input, dropped out once; its projection is one GEMM and
        # only the recurrent product stays inside the time loop.
        xs = x.transpose(1, 0, 2) if mx is None else x.transpose(1, 0, 2) * mx
        xs = np.ascontiguousarray(xs)
        ax = (xs.reshape(-1, d) @ self.wx).reshape(t_len, n, 4 * h)
        ax += self.b
        self._xs = xs if train else None
        return self.recur(ax, train).transpose(1, 0, 2)

    def recur(self, ax: np.ndarray, train: bool = False,
              out: np.ndarray | None = None) -> np.ndarray:
        """The recurrence over time-major input projections.

        `ax` is (T, N, 4H) with the bias already added; it may be a
        read-only strided view and is never written. Returns the outputs,
        time-major (T, N, H), written into `out` when given. Each step's
        gate pre-activations go into one (N, 4H) buffer: the recurrent
        product is written there and the step's projection added in place,
        then the gates are activated in place. The first state is zero, so
        step 0's pre-activations are `ax[0]` and its cell state is
        `gi * gc`. At eval time one buffer serves every step; in train mode
        each step keeps its own, for `backward`.
        """
        t_len, n, _ = ax.shape
        h = self.n_units
        dtype = ax.dtype
        if train and self.recurrent_dropout > 0.0:
            keep = 1.0 - self.recurrent_dropout
            mh = ((self.rng.random((n, h)) < keep) / keep).astype(dtype, copy=False)
        else:
            mh = None
        self._mh = mh
        if out is None:
            out = np.empty((t_len, n, h), dtype)
        if train:
            gates = np.empty((t_len, n, 4 * h), dtype)
            cells = np.empty((t_len + 1, n, h), dtype)  # cells[t] is step t's c_prev
            cells[0] = 0.0
            tcells = np.empty((t_len, n, h), dtype)
            self._hps = np.empty((t_len, n, h), dtype)
            self._hps[0] = 0.0
            self._steps = (gates, cells, tcells)
        else:
            gates = np.empty((1, n, 4 * h), dtype)
            c = c_prev = np.empty((n, h), dtype)
            tc = np.empty((n, h), dtype)
            self._hps = self._steps = None
        for t in range(t_len):
            a = gates[t if train else 0]
            if t == 0:
                a[...] = ax[0]
            else:
                hp = out[t - 1] if mh is None else out[t - 1] * mh
                if train:
                    self._hps[t] = hp
                np.matmul(hp, self.wh, out=a)
                a += ax[t]
            sigmoid(a[:, : 2 * h], out=a[:, : 2 * h])
            np.tanh(a[:, 2 * h : 3 * h], out=a[:, 2 * h : 3 * h])
            sigmoid(a[:, 3 * h :], out=a[:, 3 * h :])
            gi, gf, gc, go = _gate_slices(a, h)
            if train:
                c_prev, c, tc = cells[t], cells[t + 1], tcells[t]
            if t == 0:
                np.multiply(gi, gc, out=c)
            else:
                np.multiply(gf, c_prev, out=c)
                c += gi * gc
            np.tanh(c, out=tc)
            np.multiply(go, tc, out=out[t])
        return out

    def backward(self, gy):
        require_train_forward(self._steps, "an LSTM")
        gates, cells, tcells = self._steps
        n, t_len, h = gy.shape
        # Gate gradients of every step; the weight and input gradients are
        # one GEMM each over all of them after the loop.
        da = np.empty((t_len, n, 4 * h), gy.dtype)
        dh_next = np.zeros((n, h), gy.dtype)
        dc_next = np.zeros((n, h), gy.dtype)
        for t in range(t_len - 1, -1, -1):
            gi, gf, gc, go = _gate_slices(gates[t], h)
            c_prev, tc = cells[t], tcells[t]
            dh = gy[:, t] + dh_next
            dc = dh * go * (1.0 - tc * tc) + dc_next
            da[t, :, :h] = dc * gc * gi * (1.0 - gi)
            da[t, :, h : 2 * h] = dc * c_prev * gf * (1.0 - gf)
            da[t, :, 2 * h : 3 * h] = dc * gi * (1.0 - gc * gc)
            da[t, :, 3 * h :] = dh * tc * go * (1.0 - go)
            if t > 0:  # the zero first state takes no gradient
                dhp = da[t] @ self.wh.T
                dh_next = dhp if self._mh is None else dhp * self._mh
                dc_next = dc * gf
        da_rows = da.reshape(-1, 4 * h)
        np.matmul(self._xs.reshape(-1, self.n_in).T, da_rows, out=self.gwx)
        np.matmul(self._hps.reshape(-1, h).T, da_rows, out=self.gwh)
        np.einsum("mg->g", da_rows, out=self.gb)
        if not self.input_grad:
            return None
        gx = (da_rows @ self.wx.T).reshape(t_len, n, self.n_in)
        if self._mx is not None:
            gx *= self._mx
        return gx.transpose(1, 0, 2)


def _gate_slices(a: np.ndarray, h: int) -> tuple[np.ndarray, ...]:
    """The input, forget, candidate and output gate columns of (N, 4H)."""
    return a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]
