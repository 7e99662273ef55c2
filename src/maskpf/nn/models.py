"""The three mask estimators.

All of them map a context of degraded log-magnitude frames to one mask
frame of 205 gains in (0, 2):

  fcnn  four stacked frames flattened to 820 inputs, two 1024-unit hidden
        layers with relu, batch norm, and dropout 0.2.
  lstm  ten-step sequences through LSTM(400) then LSTM(205), mask read
        from the last step via a dense layer.
  ced   six frames as a 1-channel image through a strided conv encoder
        (16/32/64/128 channels) and a mirrored transposed-conv decoder
        with skip concatenation, finished by a time-collapsing conv.

`Model.infer` builds the context windows itself. The ced's encoder and
the lstm's layer-1 input projection run once per frame, not once per
window that holds the frame; the lstm's windows then go through the same
recurrence (`Lstm.recur`) that training runs, its steps read as slices
of the shared projections.

Building a model's structure and drawing its initial weights are apart:
the model classes and `empty_model` only allocate the layers' arrays in
the requested dtype, and `build_model` is the only place that draws
initial weights (through `init_weights`). Loading a model file
(`nn.io.load_model`) fills an `empty_model` and draws nothing.

`param_count` counts every value stored in the model file (weights, biases,
and batch-norm running statistics, i.e. 4 values per normalized channel).
REFERENCE_PARAM_COUNTS holds the published totals these builds are checked
against: the fcnn total must match exactly, the other two to within 5%
(their reference tallies include framework bookkeeping that is not
reconstructible from the layer shapes alone).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp import DEFAULT_STFT
from ..errors import ConfigError, DataError
from .layers import (
    BatchNorm,
    Conv2d,
    Deconv2d,
    Dense,
    Dropout,
    Elu,
    Layer,
    PadHighFreq,
    Relu,
    ScaledSigmoid,
    Sequential,
    collect,
    zero_grads,
)
from .lstm import Lstm

N_BINS = DEFAULT_STFT.n_processed

MODEL_KINDS = ("fcnn", "lstm", "ced")

CONTEXT_FRAMES = {"fcnn": 4, "lstm": 10, "ced": 6}

MASK_SCALE = 2.0

REFERENCE_PARAM_COUNTS = {"fcnn": 2_108_621, "lstm": 1_468_120, "ced": 147_292}


def pad_context(frames: np.ndarray, n_frames: int) -> np.ndarray:
    """Left-pad (T, K) frames with n_frames - 1 copies of frame 0."""
    return np.concatenate([np.repeat(frames[:1], n_frames - 1, axis=0), frames])


def context_windows(rows: np.ndarray, n_frames: int) -> np.ndarray:
    """Every window of n_frames consecutive rows, shape (R - n_frames + 1,
    n_frames, K), oldest first."""
    idx = np.arange(rows.shape[0] - n_frames + 1)[:, None] + np.arange(n_frames)
    return rows[idx]


def window_inputs(kind: str, rows: np.ndarray) -> np.ndarray:
    """The inputs one estimator consumes, one per context window of
    left-padded rows: a flat stack, a sequence, or a 1-channel image."""
    hist = context_windows(rows, CONTEXT_FRAMES[kind])
    if kind == "fcnn":
        return hist.reshape(hist.shape[0], -1)
    if kind == "lstm":
        return hist
    return hist[:, None, :, :]  # (T, 1, frames, bins)


def _time_windows(h: np.ndarray, n_rows: int) -> np.ndarray:
    """Every run of n_rows consecutive time rows of a (1, C, R, W) image as a
    (R - n_rows + 1, C, n_rows, W) view of a fresh channels-last buffer."""
    win = sliding_window_view(h[0].transpose(1, 2, 0), n_rows, axis=0)
    return np.ascontiguousarray(win.transpose(0, 3, 1, 2)).transpose(0, 3, 1, 2)


class Model:
    """Shared plumbing: parameter namespaces, reseeding, counting, and
    block-wise inference."""

    kind: str = ""
    n_bins: int  # mask width, and the width of every input frame
    infer_batch = 256  # frames per inference block

    def _layers(self) -> list[tuple[str, Layer]]:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return collect(self._layers(), "params")

    def grads(self) -> dict[str, np.ndarray]:
        return collect(self._layers(), "grads")

    def state(self) -> dict[str, np.ndarray]:
        return collect(self._layers(), "state")

    def expect_state(self, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        """The state arrays, once `shapes` is checked to name exactly them,
        each with its shape; any mismatch raises DataError."""
        state = self.state()
        missing = set(state) - set(shapes)
        extra = set(shapes) - set(state)
        if missing or extra:
            raise DataError(
                f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in state.items():
            if shapes[name] != arr.shape:
                raise DataError(
                    f"tensor {name}: shape {shapes[name]} != expected {arr.shape}")
        return state

    def load_state(self, values: dict[str, np.ndarray]) -> None:
        """Copy values (name -> array) into the state arrays, which keep
        their dtype."""
        state = self.expect_state({k: np.shape(v) for k, v in values.items()})
        for name, arr in state.items():
            arr[...] = values[name]

    def zero_grads(self) -> None:
        zero_grads([layer for _, layer in self._layers()])

    def reseed(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _, layer in self._layers():
            layer.reseed(rng)

    def init_weights(self, rng: np.random.Generator) -> None:
        """Draw every layer's initial weights from rng, in layer order."""
        for _, layer in self._layers():
            layer.init_weights(rng)

    def param_count(self) -> int:
        return int(sum(arr.size for arr in self.state().values()))

    @property
    def context_frames(self) -> int:
        return CONTEXT_FRAMES[self.kind]

    @property
    def dtype(self) -> np.dtype:
        """The weights' dtype, which every array of a pass follows."""
        return next(iter(self.params().values())).dtype

    def astype(self, dtype) -> "Model":
        """Recast every array of every layer to dtype, in place."""
        for _, layer in self._layers():
            layer.astype(dtype)
        return self

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, frames: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Eval-mode masks (T, bins) for one utterance's normalized (T, bins)
        features.

        Frame t's mask comes from the causal window of `context_frames`
        frames ending at t, with frame 0 repeated before the start, as
        `window_inputs` builds it for training. The frames are walked in
        blocks of `batch_size` (default `infer_batch`); each block's
        `batch_size + context_frames - 1` padded rows go to `_infer_rows`,
        so working memory is bounded by the block, not the utterance. The
        frames are cast to the weights' dtype, and so are the masks; a frame
        width other than `n_bins` raises ConfigError.
        """
        if batch_size is None:
            batch_size = self.infer_batch
        if batch_size < 1:
            raise ConfigError("infer batch size must be at least 1")
        frames = np.asarray(frames, dtype=self.dtype)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ConfigError("infer expects (T, bins) frames with T >= 1")
        if frames.shape[1] != self.n_bins:
            raise ConfigError(
                f"expected input width {self.n_bins}, got {frames.shape[1]}")
        span = batch_size + self.context_frames - 1
        rows = pad_context(frames, self.context_frames)
        return np.concatenate([self._infer_rows(rows[i : i + span])
                               for i in range(0, frames.shape[0], batch_size)])

    def _infer_rows(self, rows: np.ndarray) -> np.ndarray:
        """Masks for every full context window of consecutive padded rows."""
        return self.forward(window_inputs(self.kind, rows), train=False)


class FcnnModel(Model):
    kind = "fcnn"

    def __init__(self, n_bins: int = N_BINS, dropout: float = 0.2,
                 dtype=np.float64):
        self.n_bins = n_bins
        n_in = n_bins * CONTEXT_FRAMES["fcnn"]
        self.net = Sequential([
            ("dense1", Dense(n_in, 1024, dtype)),
            ("relu1", Relu()),
            ("bn1", BatchNorm(1024, dtype=dtype)),
            ("drop1", Dropout(dropout)),
            ("dense2", Dense(1024, 1024, dtype)),
            ("relu2", Relu()),
            ("bn2", BatchNorm(1024, dtype=dtype)),
            ("drop2", Dropout(dropout)),
            ("dense3", Dense(1024, n_bins, dtype)),
            ("sig", ScaledSigmoid(MASK_SCALE)),
        ])

    def _layers(self):
        return self.net.named_layers

    def init_weights(self, rng):
        # One draw that once seeded the dropout stream; `build_model`
        # reseeds that stream, but the draw stays so that every seed keeps
        # its weights.
        rng.integers(2**63)
        super().init_weights(rng)

    def forward(self, x, train=False):
        return self.net.forward(x, train=train)

    def backward(self, gy):
        return self.net.backward(gy)


class LstmModel(Model):
    kind = "lstm"

    def __init__(self, n_bins: int = N_BINS, dropout: float = 0.1,
                 recurrent_dropout: float = 0.2, dtype=np.float64):
        self.n_bins = n_bins
        self.lstm1 = Lstm(n_bins, 400, dropout, recurrent_dropout, dtype)
        self.lstm2 = Lstm(400, n_bins, dropout, recurrent_dropout, dtype)
        self.head = Dense(n_bins, n_bins, dtype)
        self.sig = ScaledSigmoid(MASK_SCALE)

    def _layers(self):
        return [("lstm1", self.lstm1), ("lstm2", self.lstm2),
                ("head", self.head), ("sig", self.sig)]

    def reseed(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.lstm1.reseed(rng)
        self.lstm2.reseed(rng)

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ConfigError("recurrent estimator expects (N, T, D) input")
        return self._top(self.lstm1.forward(x, train), train)

    def _top(self, seq1, train):
        """LSTM 2 over layer 1's (N, T, 400) outputs, then the head on its
        last step."""
        seq = self.lstm2.forward(seq1, train)
        self._t_len = seq.shape[1]
        return self.sig.forward(self.head.forward(seq[:, -1], train), train)

    def _infer_rows(self, rows):
        """Layer 1 projects each padded row once, not once per window.

        Window j's step t is row j + t, so step t of every window is
        `proj[t : t + n]`; `recur` reads those steps as zero-copy slices of
        one strided view. Layer 1's outputs come back time-major, so layer
        2's projection is one GEMM on them with no transpose copy.
        """
        n = rows.shape[0] - self.context_frames + 1
        proj = rows @ self.lstm1.wx
        proj += self.lstm1.b
        ax = sliding_window_view(proj, n, axis=0).transpose(0, 2, 1)
        return self._top(self.lstm1.recur(ax).transpose(1, 0, 2), False)

    def backward(self, gy):
        g_last = self.head.backward(self.sig.backward(gy))
        g_seq = np.zeros((gy.shape[0], self._t_len, g_last.shape[1]), g_last.dtype)
        g_seq[:, -1] = g_last
        return self.lstm1.backward(self.lstm2.backward(g_seq))


class CedModel(Model):
    """Convolutional encoder-decoder with skip concatenation.

    Time axis H runs over the 6 context frames, frequency axis W over the
    205 bins. Encoder kernels are 2x3 with stride (1, 2); each decoder
    stage upsamples back, zero-pads the high-frequency edge to its
    encoder partner's width, and concatenates [decoder, encoder] along
    channels. A final 6x1 conv collapses the time axis.

    Activations live in channels-last (N, H, W, C) buffers passed between
    layers as (N, C, H, W) views; every buffer after the first conv is one
    this model allocated, so its ELUs run in place.

    Inference shares the encoder across overlapping windows (see
    `_infer_rows`); its blocks are smaller than the other kinds' because
    the decoder's channels-last activations and im2col matrices outgrow
    the cache at the default 256 windows.
    """

    kind = "ced"
    infer_batch = 32

    def __init__(self, n_bins: int = N_BINS, dtype=np.float64):
        self.n_bins = n_bins
        k, s = (2, 3), (1, 2)
        self.enc = []
        for i, (ci, co) in enumerate([(1, 16), (16, 32), (32, 64), (64, 128)], 1):
            self.enc.append((f"enc{i}", Conv2d(ci, co, k, s, dtype),
                             BatchNorm(co, dtype=dtype), Elu(inplace=True)))
        self.dec = []
        for i, (ci, co) in enumerate([(128, 64), (128, 32), (64, 16), (32, 1)], 1):
            self.dec.append((f"dec{i}", Deconv2d(ci, co, k, s, dtype),
                             BatchNorm(co, dtype=dtype), Elu(inplace=True)))
        self.pads = [PadHighFreq(0) for _ in range(3)]  # widths set per forward
        self.head = Conv2d(1, 1, (CONTEXT_FRAMES["ced"], 1), (1, 1), dtype)
        self.sig = ScaledSigmoid(MASK_SCALE)

    def _layers(self):
        out: list[tuple[str, Layer]] = []
        for name, conv, bn, act in self.enc:
            out += [(name, conv), (f"{name}_bn", bn), (f"{name}_act", act)]
        for name, conv, bn, act in self.dec:
            out += [(name, conv), (f"{name}_bn", bn), (f"{name}_act", act)]
        out.append(("head", self.head))
        out.append(("sig", self.sig))
        return out

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != 1:
            raise ConfigError("conv estimator expects (N, 1, T, F) input")
        enc = self._encode(x, train)
        return self._decode(enc[3], enc[:3], train)

    def _encode(self, x, train):
        """The four encoder outputs, enc1 first."""
        outs = []
        h = x
        for _, conv, bn, act in self.enc:
            h = act.forward(bn.forward(conv.forward(h, train), train), train)
            outs.append(h)
        return outs

    def _decode(self, h, skips, train):
        """Decoder, skip concatenation and head from the enc4 output."""
        # decoder pairs with encoder outputs 3, 2, 1 (0-indexed 2, 1, 0)
        self._skip_channels = []
        for i, (_, conv, bn, act) in enumerate(self.dec):
            h = act.forward(bn.forward(conv.forward(h, train), train), train)
            if i < 3:
                partner = skips[2 - i]
                self.pads[i].target_width = partner.shape[-1]
                h = self.pads[i].forward(h, train)
                self._skip_channels.append(h.shape[1])
                h = np.concatenate([h.transpose(0, 2, 3, 1),
                                    partner.transpose(0, 2, 3, 1)],
                                   axis=3).transpose(0, 3, 1, 2)
        y = self.head.forward(h, train)
        n = y.shape[0]
        return self.sig.forward(y.reshape(n, -1), train)

    def _infer_rows(self, rows):
        """The encoder runs once over all rows, the decoder once per window.

        The encoder convs have time stride 1 and a 2-row kernel, and in eval
        mode batch norm and ELU act row by row, so the enc-k output of
        window j is rows j .. j + 5 - k of the enc-k output of the whole
        (1, 1, R, bins) image: each row is computed once instead of once
        per window that holds it.
        """
        n = rows.shape[0] - self.context_frames + 1
        enc = self._encode(rows[None, None], False)
        wins = [_time_windows(h, h.shape[2] - n + 1) for h in enc]
        return self._decode(wins[3], wins[:3], False)

    def backward(self, gy):
        n = gy.shape[0]
        g = self.sig.backward(gy).reshape(n, 1, 1, -1)
        g = self.head.backward(g)
        skip_grads: list[np.ndarray | None] = [None, None, None]
        for i in range(3, -1, -1):
            _, conv, bn, act = self.dec[i]
            if i < 3:
                dch = self._skip_channels[i]
                skip_grads[2 - i] = g[:, dch:]
                g = self.pads[i].backward(g[:, :dch])
            g = conv.backward(bn.backward(act.backward(g)))
        for i in range(3, -1, -1):
            _, conv, bn, act = self.enc[i]
            if i < 3:
                g += skip_grads[i]  # g is the fresh output of a conv backward
            g = conv.backward(bn.backward(act.backward(g)))
        return g


MODEL_CLASSES = {"fcnn": FcnnModel, "lstm": LstmModel, "ced": CedModel}


def empty_model(kind: str, n_bins: int = N_BINS, dtype=np.float64) -> Model:
    """An estimator's layers with every array allocated in dtype and no
    weight drawn: `build_model` draws the weights, `nn.io.load_model`
    reads a file's into them."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown estimator kind {kind!r}; have {MODEL_KINDS}")
    return MODEL_CLASSES[kind](n_bins, dtype=dtype)


def build_model(kind: str, seed: int, n_bins: int = N_BINS,
                dtype=np.float64) -> Model:
    """Construct a freshly initialized estimator.

    This is the only place that draws initial weights. The seed fixes both
    the weight init and the dropout stream, so two builds with the same
    seed are bit-identical. Weights are drawn in float64 and rounded as
    they are written, so a float32 build is a rounded float64 build.
    """
    model = empty_model(kind, n_bins, dtype)
    ss = np.random.SeedSequence([seed, MODEL_KINDS.index(kind)])
    init_seed, drop_seed = ss.spawn(2)
    model.init_weights(np.random.default_rng(init_seed))
    model.reseed(int(np.random.default_rng(drop_seed).integers(2**31)))
    return model
