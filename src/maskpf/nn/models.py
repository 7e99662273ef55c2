"""The three mask estimators.

All of them map a context of degraded log-magnitude frames to one mask
frame of 205 gains in (0, 2):

  fcnn  four stacked frames flattened to 820 inputs, two 1024-unit hidden
        layers with relu, batch norm, and dropout 0.2 (`FCNN_DROPOUT`).
  lstm  ten-step sequences through LSTM(400) then LSTM(205), mask read
        from the last step via a dense layer; input dropout 0.1 and
        recurrent dropout 0.2 (`LSTM_DROPOUT`, `LSTM_RECURRENT_DROPOUT`).
  ced   six frames as a 1-channel image through a strided conv encoder
        (16/32/64/128 channels) and a mirrored transposed-conv decoder
        with skip concatenation, finished by a time-collapsing conv.

`Model.infer` builds the context windows itself. The ced's encoder and
the lstm's layer-1 input projection run once per frame, not once per
window that holds the frame; the lstm's windows then go through the same
recurrence (`Lstm.recur`) that training runs, its steps read as slices
of the shared projections. It runs an utterance's blocks on the caller's
share of the cores that BLAS leaves idle (`infer_threads`), with the same
masks on any number of threads, and calls from several threads may
overlap. A ced training step runs its batch's two fixed halves on the
same share (`CedModel`), with the same result on any number of threads.

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

import contextlib
import copy
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp import N_PROCESSED
from ..errors import ConfigError, DataError
from . import kernels
from .layers import (
    MASK_SCALE,
    BatchNorm,
    Conv2d,
    Deconv2d,
    Dense,
    Dropout,
    Elu,
    Layer,
    Relu,
    ScaledSigmoid,
    collect,
    elu,
    sigmoid,
    zero_grads,
)
from .lstm import Lstm

N_BINS = N_PROCESSED

MODEL_KINDS = ("fcnn", "lstm", "ced")

CONTEXT_FRAMES = {"fcnn": 4, "lstm": 10, "ced": 6}

FCNN_DROPOUT = 0.2
LSTM_DROPOUT = 0.1
LSTM_RECURRENT_DROPOUT = 0.2

REFERENCE_PARAM_COUNTS = {"fcnn": 2_108_621, "lstm": 1_468_120, "ced": 147_292}


def pad_context(frames: np.ndarray, n_frames: int) -> np.ndarray:
    """Left-pad (T, K) frames with n_frames - 1 copies of frame 0."""
    return np.concatenate([np.repeat(frames[:1], n_frames - 1, axis=0), frames])


def context_windows(rows: np.ndarray, n_frames: int,
                    starts: np.ndarray | None = None) -> np.ndarray:
    """The windows of n_frames consecutive rows that begin at the row
    indices `starts` (default: every window, R - n_frames + 1 of them), as
    one fresh (len(starts), n_frames, K) array, oldest first."""
    if starts is None:
        starts = np.arange(rows.shape[0] - n_frames + 1)
    return rows[np.asarray(starts)[:, None] + np.arange(n_frames)]


def window_inputs(kind: str, rows: np.ndarray,
                  starts: np.ndarray | None = None) -> np.ndarray:
    """The inputs one estimator consumes, one per context window of
    left-padded rows (those beginning at `starts`, or every one): a flat
    stack, a sequence, or a 1-channel image."""
    hist = context_windows(rows, CONTEXT_FRAMES[kind], starts)
    if kind == "fcnn":
        return hist.reshape(hist.shape[0], -1)
    if kind == "lstm":
        return hist
    return hist[:, None, :, :]  # (T, 1, frames, bins)


def _time_windows(h: np.ndarray, n_rows: int) -> np.ndarray:
    """Every run of n_rows consecutive rows of an (R, W, C) array, as an
    (R - n_rows + 1, n_rows, W, C) view."""
    return sliding_window_view(h, n_rows, axis=0).transpose(0, 3, 1, 2)


def _join(h: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """[h, skip] along channels, h zero-padded at its high-frequency edge to
    skip's width: (N, C, H, W) images into one fresh channels-last buffer,
    returned as an (N, C, H, W) view."""
    n, c_h, n_h, w_h = h.shape
    c_s, w_s = skip.shape[1], skip.shape[3]
    out = np.empty((n, n_h, w_s, c_h + c_s), h.dtype)
    out[:, :, :w_h, :c_h] = h.transpose(0, 2, 3, 1)
    out[:, :, w_h:, :c_h] = 0.0
    out[..., c_h:] = skip.transpose(0, 2, 3, 1)
    return out.transpose(0, 3, 1, 2)


def _project(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The product of x's last axis with the matrix w, written into out,
    which has x's shape with w's columns last."""
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[1]))
    return out


@functools.cache
def _blas_thread_getters() -> tuple:
    """The `get_num_threads` function of each OpenBLAS mapped into this
    process, found through /proc/self/maps; none where that cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    getters = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                getters.append(fn)
                break
    return tuple(getters)


def blas_threads() -> int:
    """The largest thread count a loaded OpenBLAS reports, or 1 when none
    can be read."""
    return max((fn() for fn in _blas_thread_getters()), default=1)


def thread_budget() -> int:
    """The threads an `infer` call may run its blocks on in a process that
    has its CPUs to itself: the CPUs in its affinity mask divided by the
    loaded OpenBLAS's thread count, and at least 1. At OpenBLAS's default
    of a thread per core that is 1; with OpenBLAS at one thread
    (`OPENBLAS_NUM_THREADS=1`) it is the CPU count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, cpus // blas_threads())


# The most threads one `infer` call runs on. Two threads on two cores is the
# only count whose speed and memory were measured; how the interpreter-bound
# parts of a block (the LSTM step loop, the ced's many small operations)
# scale past that is unknown, and each thread keeps a workspace of its own.
MAX_INFER_THREADS = 2

# How many file threads of a `--jobs` pool share the process's CPUs while
# `share_cores` runs, 1 outside it.
_sharing_workers = 1


@contextlib.contextmanager
def share_cores(workers: int):
    """Within the block, `workers` threads of this process call `infer`
    at once and split the thread budget between them."""
    global _sharing_workers
    before, _sharing_workers = _sharing_workers, workers
    try:
        yield
    finally:
        _sharing_workers = before


def threads_per_worker(workers: int) -> int:
    """The threads each `infer` call may run on while `workers` threads
    call it at once: the thread budget divided among them, at least 1 and
    at most MAX_INFER_THREADS."""
    return min(MAX_INFER_THREADS, max(1, thread_budget() // workers))


def infer_threads() -> int:
    """The threads each `infer` call of this process may run on, given its
    `share_cores` setting."""
    return threads_per_worker(_sharing_workers)


def _run_split(tasks: list, parallel: bool) -> list:
    """The results of the callables in `tasks`, in order. In parallel the
    first runs on the calling thread and each other on a worker thread of
    its own, which starts and ends inside this call; otherwise all run in
    order on the calling thread. An exception in any task is raised here
    once every task has stopped."""
    if not parallel or len(tasks) == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(len(tasks) - 1) as pool:
        helpers = [pool.submit(task) for task in tasks[1:]]
        first = tasks[0]()
    return [first] + [helper.result() for helper in helpers]


def _twin_layer(layer: Layer) -> Layer:
    """A shallow copy of layer that shares its parameter and running-
    statistic arrays but writes gradient arrays of its own. Each pass
    rebinds the arrays it saves, so the two keep their own from then on."""
    twin = copy.copy(layer)
    grads = {id(g) for g in layer.grads().values()}
    for attr, value in list(vars(twin).items()):
        if id(value) in grads:
            setattr(twin, attr, np.zeros_like(value))
    return twin


# Guards every model's free list of workspaces (`Model._works`).
_WORKS_LOCK = threading.Lock()


class Workspace:
    """Named scratch buffers that inference reuses across blocks and calls.

    Each name holds one flat array. `take` returns a view of its leading
    elements in the requested shape, so a smaller block uses leading
    slices of what a larger one allocated. A buffer is allocated, zeroed,
    when it is first taken, and again when a request outgrows it or asks
    for another dtype; nothing else ever resets it. So one workspace serves
    one thread at a time: each thread of an `infer` call takes its own from
    the model's free list and gives it back when the call returns, so
    `infer` calls of one model may overlap and never share a workspace.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._bufs[name] = np.zeros(size, dtype)
        return buf[:size].reshape(shape)


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
        """Set every grads() array to zero. `backward` writes every one of
        them, so training does not call this; it stays because the
        benchmark's tracer (`perfbench/tracing.py`) wraps it by name."""
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

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> None:
        """Write every grads() array for the output gradient gy of the last
        train-mode forward. The gradient of the network input is not
        computed: each estimator builds its first layer with
        `input_grad=False`, since nothing reads it.

        The ced runs the batch's two halves back through this model and its
        twin (`CedModel`) and then adds the twin's gradients to this
        model's: first half plus second half, in that order. The fcnn and
        the lstm run the batch whole."""
        raise NotImplementedError

    def _update_running(self, parts: list[Model]) -> None:
        """Step every batch norm's running statistics once, from the
        moments its counterpart in each of `parts` (this model, then its
        twin) recorded for its consecutive part of one batch."""
        for layers in zip(*(part._layers() for part in parts)):
            bn = layers[0][1]
            if isinstance(bn, BatchNorm):
                bn.update_running([layer.moments for _, layer in layers])

    def infer(self, frames: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Eval-mode masks (T, bins) for one utterance's normalized (T, bins)
        features.

        Frame t's mask comes from the causal window of `context_frames`
        frames ending at t, with frame 0 repeated before the start, as
        `window_inputs` builds it for training. The frames are walked in
        blocks of `batch_size` (default `infer_batch`) from frame 0; each
        block's `batch_size + context_frames - 1` padded rows go to the
        function `_block_runner` makes once per call, so working memory is
        bounded by the block, not the utterance.

        The blocks are dealt out in turn to the calling thread and up to
        `infer_threads() - 1` worker threads, no more than there are blocks:
        with n threads, thread t runs blocks t, t + n, t + 2n, ... Each
        thread takes a `Workspace` of its own from the model's free list,
        where the lstm and the ced keep their block buffers, and the call
        gives them back when it returns; so calls from several threads may
        overlap. A block is computed the same way whichever thread and
        workspace run it, so the masks do not depend on the thread count.
        The worker threads start and end inside the call, and an exception
        in any block is raised here once every thread has stopped. A single
        block runs on the calling thread alone.

        The masks come back in a fresh array. The frames are cast to the
        weights' dtype, and so are the masks; a frame width other than
        `n_bins` raises ConfigError.
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
        masks = np.empty(frames.shape, frames.dtype)
        starts = range(0, frames.shape[0], batch_size)
        run = self._block_runner()
        n = min(infer_threads(), len(starts))
        with _WORKS_LOCK:
            works = [self._works.pop() if self._works else Workspace()
                     for _ in range(n)]

        def work(t):
            for i in starts[t::n]:
                run(works[t], rows[i : i + span], masks[i : i + batch_size])

        try:
            _run_split([functools.partial(work, t) for t in range(n)], True)
        finally:
            with _WORKS_LOCK:
                self._works.extend(works)
        return masks

    def _block_runner(self):
        """The function `run(work, rows, out)` one `infer` call runs per
        block: it writes the masks of every full context window of the
        consecutive padded `rows` into `out`, keeping any buffer it reuses
        in `work`, the running thread's `Workspace`."""
        def run(work, rows, out):
            out[...] = self.forward(window_inputs(self.kind, rows), train=False)
        return run


class FcnnModel(Model):
    kind = "fcnn"

    def __init__(self, n_bins: int = N_BINS, dtype=np.float64):
        self.n_bins = n_bins
        n_in = n_bins * CONTEXT_FRAMES["fcnn"]
        self.layers = [
            ("dense1", Dense(n_in, 1024, dtype, input_grad=False)),
            ("relu1", Relu()),
            ("bn1", BatchNorm(1024, dtype=dtype)),
            ("drop1", Dropout(FCNN_DROPOUT)),
            ("dense2", Dense(1024, 1024, dtype)),
            ("relu2", Relu()),
            ("bn2", BatchNorm(1024, dtype=dtype)),
            ("drop2", Dropout(FCNN_DROPOUT)),
            ("dense3", Dense(1024, n_bins, dtype)),
            ("sig", ScaledSigmoid()),
        ]
        self._works: list[Workspace] = []

    def _layers(self):
        return self.layers

    def init_weights(self, rng):
        # One draw that once seeded the dropout stream; `build_model`
        # reseeds that stream, but the draw stays so that every seed keeps
        # its weights.
        rng.integers(2**63)
        super().init_weights(rng)

    def forward(self, x, train=False):
        for _, layer in self.layers:
            x = layer.forward(x, train=train)
        if train:
            self._update_running([self])
        return x

    def backward(self, gy):
        for _, layer in reversed(self.layers):
            gy = layer.backward(gy)


class LstmModel(Model):
    kind = "lstm"

    def __init__(self, n_bins: int = N_BINS, dtype=np.float64):
        self.n_bins = n_bins
        self.lstm1 = Lstm(n_bins, 400, LSTM_DROPOUT, LSTM_RECURRENT_DROPOUT,
                          dtype, input_grad=False)
        self.lstm2 = Lstm(400, n_bins, LSTM_DROPOUT, LSTM_RECURRENT_DROPOUT,
                          dtype)
        self.head = Dense(n_bins, n_bins, dtype)
        self.sig = ScaledSigmoid()
        self._works: list[Workspace] = []

    def _layers(self):
        return [("lstm1", self.lstm1), ("lstm2", self.lstm2),
                ("head", self.head), ("sig", self.sig)]

    def forward(self, x, train=False):
        if x.ndim != 3:
            raise ConfigError("recurrent estimator expects (N, T, D) input")
        seq = self.lstm2.forward(self.lstm1.forward(x, train), train)
        self._t_len = seq.shape[1]
        return self.sig.forward(self.head.forward(seq[:, -1], train), train)

    def _block_runner(self):
        return self._infer_rows

    def _infer_rows(self, work, rows, out):
        """Layer 1 projects each padded row once, not once per window.

        Window j's step t is row j + t, so step t of every window is
        `proj[t : t + n]`; `recur` reads those steps as zero-copy slices of
        one strided view. Layer 1's outputs come back time-major, so layer
        2's projection is one GEMM on them with no transpose copy. Both
        projections and both layers' outputs live in the workspace.
        """
        t_len = self.context_frames
        n = rows.shape[0] - t_len + 1
        take, dtype = work.take, rows.dtype
        l1, l2 = self.lstm1, self.lstm2
        proj = _project(rows, l1.wx,
                        take("proj1", (rows.shape[0], 4 * l1.n_units), dtype))
        proj += l1.b
        ax = sliding_window_view(proj, n, axis=0).transpose(0, 2, 1)
        seq = l1.recur(ax, out=take("seq1", (t_len, n, l1.n_units), dtype))
        proj = _project(seq, l2.wx, take("proj2", (t_len, n, 4 * l2.n_units), dtype))
        proj += l2.b
        seq = l2.recur(proj, out=take("seq2", (t_len, n, l2.n_units), dtype))
        out[...] = self.sig.forward(self.head.forward(seq[-1]))

    def backward(self, gy):
        g_last = self.head.backward(self.sig.backward(gy))
        g_seq = np.zeros((gy.shape[0], self._t_len, g_last.shape[1]), g_last.dtype)
        g_seq[:, -1] = g_last
        self.lstm1.backward(self.lstm2.backward(g_seq))


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

    Training splits every batch of N > 1 windows into fixed halves, the
    first ceil(N/2) windows and the rest, whatever the thread count. This
    model runs the first half on the calling thread; its twin (`_twin`),
    whose layers share this model's parameter and running-statistic arrays
    but keep gradients and saved arrays of their own, runs the second on a
    worker thread when `infer_threads()` allows two, else after the first
    on the calling thread. Each batch norm normalizes each half over that
    half's own windows ("ghost" batch norm, Hoffer, Hubara & Soudry, arXiv
    1705.08741), and its running statistics then take one step toward the
    whole batch's mean and variance, merged from both halves' moments
    (`BatchNorm.update_running`). `backward` runs the halves back the same
    way and adds the twin's gradients to this model's, first half plus
    second half, so `grads()` holds the whole batch's. Outputs, gradients
    and running statistics are the same on one thread or two. A batch of
    one window runs whole on the calling thread.

    Inference (`_infer_rows`) takes another route to the same masks. At
    the start of each `infer` call every conv -> batch norm pair is folded
    into one conv (scaled weights, shifted bias) from the current running
    statistics, so a stage is one conv with bias and one ELU; the threads
    of the call share the folded weights. The encoder runs once over a
    block's rows, shared by the windows that hold them. Both halves run in
    the running thread's `Workspace`: the encoder's im2col matrices and
    outputs, the decoder's matrix products, the skip halves' products per
    encoder row, and each decoder stage's output, whose high-frequency pad
    columns stay zero from their allocation on. Its
    blocks are smaller than the other kinds' because the decoder's
    activations and tap columns outgrow the cache at the default 256
    windows.
    """

    kind = "ced"
    infer_batch = 32
    KERNEL, STRIDE = (2, 3), (1, 2)  # every encoder and decoder conv's

    def __init__(self, n_bins: int = N_BINS, dtype=np.float64):
        self.n_bins = n_bins
        k, s = self.KERNEL, self.STRIDE
        self.enc = []
        for i, (ci, co) in enumerate([(1, 16), (16, 32), (32, 64), (64, 128)], 1):
            self.enc.append((f"enc{i}", Conv2d(ci, co, k, s, dtype,
                                               input_grad=i > 1),
                             BatchNorm(co, dtype=dtype), Elu(inplace=True)))
        self.dec = []
        for i, (ci, co) in enumerate([(128, 64), (128, 32), (64, 16), (32, 1)], 1):
            self.dec.append((f"dec{i}", Deconv2d(ci, co, k, s, dtype),
                             BatchNorm(co, dtype=dtype), Elu(inplace=True)))
        self.head = Conv2d(1, 1, (CONTEXT_FRAMES["ced"], 1), (1, 1), dtype)
        self.sig = ScaledSigmoid()
        self._works: list[Workspace] = []
        self._cut: int | None = None  # windows of the last train batch's first half

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
        if not train:
            self._cut = None
            return self._run(x, False)
        n = x.shape[0]
        cut = self._cut = (n + 1) // 2  # all of a one-window batch
        parts = [(self, x[:cut]), (self._twin, x[cut:])] if cut < n else [(self, x)]
        ys = _run_split([functools.partial(part._run, xs, True) for part, xs in parts],
                        infer_threads() > 1)
        self._update_running([part for part, _ in parts])
        return np.concatenate(ys) if len(ys) > 1 else ys[0]

    @functools.cached_property
    def _twin(self) -> CedModel:
        """The model that runs the second half of a training batch: a copy
        whose layers share this model's parameter and running-statistic
        arrays and keep gradients and saved arrays of their own."""
        twin = copy.copy(self)
        twin.enc = [(name,) + tuple(map(_twin_layer, layers))
                    for name, *layers in self.enc]
        twin.dec = [(name,) + tuple(map(_twin_layer, layers))
                    for name, *layers in self.dec]
        twin.head, twin.sig = _twin_layer(self.head), _twin_layer(self.sig)
        return twin

    def _run(self, x, train):
        """The masks of the windows x through this model's layers."""
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
        self._joins = []
        for i, (_, conv, bn, act) in enumerate(self.dec):
            h = act.forward(bn.forward(conv.forward(h, train), train), train)
            if i < 3:
                self._joins.append(h.shape[1::2])
                h = _join(h, skips[2 - i])
        y = self.head.forward(h, train)
        n = y.shape[0]
        return self.sig.forward(y.reshape(n, -1), train)

    def _block_runner(self):
        """Folds every conv -> batch norm pair from the current running
        statistics, afresh for each `infer` call, for all its blocks."""
        enc = []
        for _, conv, bn, _ in self.enc:
            w, b = bn.fold(conv.w, conv.b, 0)
            enc.append((kernels.tap_matrix(w).T, b))
        dec = []
        for _, conv, bn, _ in self.dec:
            w, b = bn.fold(conv.w, conv.b, 1)
            dec.append((kernels.tap_matrix(w), w.shape[1:], b))
        return lambda work, rows, out: self._infer_rows(work, rows, out, enc, dec)

    def _infer_rows(self, work, rows, out, enc_wb, dec_wb):
        """Masks of a block from the folded encoder ((KH*KW*C_in, C_out)
        tap matrix, bias) and the folded decoder (tap matrix,
        (channels, KH, KW), bias) of each stage.

        The encoder convs have time stride 1 and a 2-row kernel, and in eval
        mode batch norm and ELU act row by row, so the enc-k output of
        window j is rows j .. j + 5 - k of the enc-k output of the whole
        (1, 1, R, bins) image: each row is computed once instead of once
        per window that holds it. Each stage copies its input's
        `kernels.windows` into an im2col buffer and makes one matrix
        product into its output buffer, both in the workspace, as
        `kernels.gather` does into fresh arrays.

        A decoder stage's transposed conv starts with one matrix product
        per input pixel, and its input is [decoder, skip] along channels,
        so that product is the decoder half's plus the skip half's. The skip
        half's is made once per shared encoder row and added to each
        window's as a view; stage 1's whole input is encoder rows. Then
        `kernels.col2im` writes the stage's output once, bias included, into
        a stage buffer as wide as the encoder partner, whose high-frequency
        pad columns stay zero from their allocation on, and the ELU runs
        there in place. No activation is copied, padded or concatenated.
        """
        n = rows.shape[0] - self.context_frames + 1
        take, dtype = work.take, rows.dtype
        enc = []
        h = rows[None, None]
        for k, (taps, b) in enumerate(enc_wb, 1):
            win = kernels.windows(h, self.KERNEL, self.STRIDE)
            cols = take("im2col", win.shape, dtype)
            cols[...] = win
            h_t = _project(cols.reshape(win.shape[:3] + (-1,)), taps,
                           take(f"enc{k}", win.shape[:3] + taps.shape[1:], dtype))
            h_t += b
            elu(h_t, out=h_t, scratch=take("cols", h_t.shape, dtype))
            enc.append(h_t[0])  # the stage's rows, channels-last
            h = h_t.transpose(0, 3, 1, 2)
        x = None  # the decoder half of a stage's input; stage 1 has none
        for i, (taps, (c_out, kh, kw), b) in enumerate(dec_wb):
            n_d = 0 if x is None else x.shape[3]
            skip = enc[3 - i]  # stage 1's whole input, a later stage's skip half
            per_row = take("rows", skip.shape[:2] + taps.shape[1:], dtype)
            cols = _time_windows(_project(skip, taps[n_d:], per_row),
                                 skip.shape[0] - n + 1)
            if x is not None:
                dec = _project(x, taps[:n_d], take("cols", cols.shape, dtype))
                dec += cols
                cols = dec
            n_h = cols.shape[1] + kh - 1
            n_w = self.STRIDE[1] * (cols.shape[2] - 1) + kw
            width = enc[2 - i].shape[1] if i < 3 else n_w
            x = take(f"stage{i + 1}", (n, n_h, width, c_out), dtype)
            kernels.col2im(cols.reshape(cols.shape[:3] + (kh, kw, c_out)),
                           self.STRIDE, x[:, :, :n_w].transpose(0, 3, 1, 2), b)
            elu(x, out=x, scratch=take("cols", x.shape, dtype))
        # The head's 6x1 conv: one 6-tap product per window and bin.
        masks = out.reshape(n, 1, -1)
        np.matmul(self.head.w.reshape(1, -1), x.reshape(n, x.shape[1], -1),
                  out=masks)
        masks += self.head.b
        sigmoid(masks, out=masks)
        masks *= MASK_SCALE

    def backward(self, gy):
        cut = self._cut
        if cut is None or cut == gy.shape[0]:  # after an eval forward, it raises
            self._backward(gy)
            return
        twin = self._twin
        _run_split([functools.partial(self._backward, gy[:cut]),
                    functools.partial(twin._backward, gy[cut:])], infer_threads() > 1)
        for g, g_twin in zip(self.grads().values(), twin.grads().values()):
            g += g_twin

    def _backward(self, gy):
        """Write this model's grads() arrays for its last train-mode `_run`."""
        n = gy.shape[0]
        g = self.sig.backward(gy).reshape(n, 1, 1, -1)
        g = self.head.backward(g)
        skip_grads: list[np.ndarray | None] = [None, None, None]
        for i in range(3, -1, -1):
            _, conv, bn, act = self.dec[i]
            if i < 3:
                n_c, n_w = self._joins[i]
                skip_grads[2 - i] = g[:, n_c:]
                g = g[:, :n_c, :, :n_w]
            g = conv.backward(bn.backward(act.backward(g)))
        for i in range(3, -1, -1):
            _, conv, bn, act = self.enc[i]
            if i < 3:
                g += skip_grads[i]  # g is the fresh output of a conv backward
            g = conv.backward(bn.backward(act.backward(g)))  # None after enc1


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
