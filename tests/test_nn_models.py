"""Estimator assembly: parameter budgets, shapes, determinism, gradients."""

import contextlib
import copy
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from helpers_grad import model_grad_check
from helpers_windows import model_inputs
import maskpf
from maskpf.errors import ConfigError, DataError
from maskpf.nn.adam import Adam
from maskpf.nn import models
from maskpf.nn.layers import BN_MOMENTUM, BatchNorm
from maskpf.nn.lstm import Lstm
from maskpf.nn.models import (
    CONTEXT_FRAMES,
    MASK_SCALE,
    MODEL_KINDS,
    REFERENCE_PARAM_COUNTS,
    CedModel,
    build_model,
    empty_model,
    window_inputs,
)

# Largest gap allowed between two float32 masks, or a float32 and a float64
# mask, for the same weights: a few float32 ulps of a gain in (0, 2).
MASK_TOL_F32 = 1e-5


def test_fcnn_parameter_count_is_exact():
    """840704 + 4096 + 1049600 + 4096 + 210125, batch norm counted as four
    values per unit (gamma, beta, and both running statistics)."""
    model = build_model("fcnn", seed=0)
    assert model.param_count() == 2_108_621
    assert model.param_count() == REFERENCE_PARAM_COUNTS["fcnn"]


def test_recurrent_and_conv_counts_are_close_to_reference():
    """The published totals for these two are not reproduced exactly by any
    standard cell/stage bookkeeping we tried; the builds land within a few
    percent and the exact constructions are asserted structurally instead."""
    for kind in ("lstm", "ced"):
        model = build_model(kind, seed=0)
        got = model.param_count()
        ref = REFERENCE_PARAM_COUNTS[kind]
        print(f"{kind}: built {got} vs reference {ref} ({100*(got-ref)/ref:+.2f}%)")
        assert abs(got - ref) / ref < 0.05


def test_lstm_count_arithmetic():
    model = build_model("lstm", seed=1)
    lstm1 = 4 * (205 * 400 + 400 * 400 + 400)
    lstm2 = 4 * (400 * 205 + 205 * 205 + 205)
    head = 205 * 205 + 205
    assert model.param_count() == lstm1 + lstm2 + head


def test_ced_encoder_shape_chain():
    rng = np.random.default_rng(130)
    model = build_model("ced", seed=2)
    x = rng.standard_normal((3, 1, 6, 205))
    want = [(3, 16, 5, 102), (3, 32, 4, 50), (3, 64, 3, 24), (3, 128, 2, 11)]
    h = x
    for (name, conv, bn, act), shape in zip(model.enc, want):
        h = act.forward(bn.forward(conv.forward(h, train=False), train=False))
        assert h.shape == shape, name
    out = model.forward(x, train=False)
    assert out.shape == (3, 205)


def _in_dtype(model, dtype):
    """A copy of the model's state in another dtype, built as `load_model`
    builds a model: an `empty_model` filled through `load_state`."""
    cast = empty_model(model.kind, dtype=dtype)
    cast.load_state(model.state())
    return cast


def _with_running_stats(kind, seed, rng):
    """A model whose batch norms hold non-trivial running statistics."""
    model = build_model(kind, seed=seed)
    if kind != "lstm":
        x = window_inputs(kind, rng.standard_normal((8 + CONTEXT_FRAMES[kind] - 1, 205)))
        model.forward(x * 1.5 + 0.3, train=True)
    return model


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_infer_on_frames_matches_forward_on_windows(kind):
    rng = np.random.default_rng(137)
    model = _with_running_stats(kind, 14, rng)
    for t_len in (1, 5, 33, 300):
        frames = rng.standard_normal((t_len, 205))
        ref = model.forward(model_inputs(kind, frames), train=False)
        got = model.infer(frames)
        assert got.shape == (t_len, 205)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=str(t_len))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_infer_block_size_does_not_change_masks(kind):
    rng = np.random.default_rng(138)
    model = _with_running_stats(kind, 15, rng)
    frames = rng.standard_normal((300, 205))
    ref = model.infer(frames, batch_size=256)
    for batch_size in (1, 32):
        np.testing.assert_allclose(model.infer(frames, batch_size=batch_size), ref,
                                   rtol=0, atol=1e-12, err_msg=str(batch_size))


def test_ced_eval_output_does_not_depend_on_infer_batch_size():
    """Bit-identical for every block size; the shared encoder sees one
    image per block, the decoder one batch of windows."""
    rng = np.random.default_rng(136)
    model = _with_running_stats("ced", 13, rng)
    frames = rng.standard_normal((300, 205))
    ref = model.infer(frames, batch_size=256)
    for batch_size in (1, 32, 300, 1000):
        assert np.array_equal(model.infer(frames, batch_size=batch_size), ref), batch_size


def test_ced_float32_eval_output_does_not_depend_on_infer_batch_size():
    """The float32 twin of the test above. In float32 the masks are not
    bit-identical across block sizes: BLAS takes another summation path for
    another matrix size. They agree to the float32 mask tolerance."""
    rng = np.random.default_rng(136)
    model = _in_dtype(_with_running_stats("ced", 13, rng), np.float32)
    frames = rng.standard_normal((300, 205))
    ref = model.infer(frames, batch_size=256)
    assert ref.dtype == np.float32
    for batch_size in (1, 32, 300, 1000):
        np.testing.assert_allclose(model.infer(frames, batch_size=batch_size), ref,
                                   rtol=0, atol=MASK_TOL_F32, err_msg=str(batch_size))


def _shift_state(model):
    """Move every batch-norm running mean of an fcnn or a ced, or the
    layer-1 bias of an lstm, by the same amount."""
    if model.kind == "ced":
        for _, _, bn, _ in model.enc + model.dec:
            bn.run_mean += 0.25
    elif model.kind == "fcnn":
        for _, layer in model.layers:
            if isinstance(layer, BatchNorm):
                layer.run_mean += 0.25
    else:
        model.lstm1.b += 0.25


@contextlib.contextmanager
def _on_threads(n):
    """Run the `infer` calls inside on n threads, whatever the budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "infer_threads", lambda: n)
        yield


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_infer_workspace_changes_no_mask(kind):
    """Neither the buffers a model keeps for inference nor the threads its
    blocks run on change a mask: float32 and float64 calls on 1, 2 and 3
    threads of one, two, three and many blocks, partial last blocks
    included, give bit for bit what a fresh copy of the model gives on one
    thread; no later call writes into an earlier call's masks; and a state
    change between calls shows in the next call (the ced folds its batch
    norm afresh in every call)."""
    rng = np.random.default_rng(145)
    trained = _with_running_stats(kind, 19, rng)
    frames64 = {t_len: rng.standard_normal((t_len, 205))
                for t_len in (5, 14, 20, 300)}
    for dtype in (np.float32, np.float64):
        pristine = _in_dtype(trained, dtype)  # never runs infer
        frames = {t_len: f.astype(dtype) for t_len, f in frames64.items()}

        def one_thread(model, t_len, batch_size=None):
            with _on_threads(1):
                return copy.deepcopy(model).infer(frames[t_len], batch_size)

        want = {(batch_size, t_len): one_thread(pristine, t_len, batch_size)
                for batch_size in (7, 32) for t_len in frames}
        shifted = copy.deepcopy(pristine)
        _shift_state(shifted)
        want_shifted = one_thread(shifted, 300)
        for threads in (1, 2, 3):
            model = copy.deepcopy(pristine)
            calls = []
            with _on_threads(threads):
                for batch_size in (7, 32):
                    for t_len in (300, 5, 14, 20, 300):
                        got = model.infer(frames[t_len], batch_size=batch_size)
                        assert np.array_equal(got, want[batch_size, t_len]), (
                            dtype, threads, batch_size, t_len)
                        calls.append((got, got.copy()))
                for got, kept in calls:
                    assert np.array_equal(got, kept)
                before = model.infer(frames[300])
                _shift_state(model)
                got = model.infer(frames[300])
            assert not np.array_equal(got, before)
            assert np.array_equal(got, want_shifted), (dtype, threads)


def test_a_worker_block_exception_surfaces_and_no_thread_outlives_infer(monkeypatch):
    """A block that raises on a worker thread makes `infer` raise that
    exception, and the call leaves as many threads as it found."""
    model = build_model("fcnn", seed=24, dtype=np.float32)
    real_runner = model._block_runner

    def failing_runner():
        run = real_runner()

        def checked(work, rows, out):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker block failed")
            run(work, rows, out)
        return checked

    monkeypatch.setattr(model, "_block_runner", failing_runner)
    frames = np.random.default_rng(149).standard_normal((40, 205))
    before = threading.active_count()
    with _on_threads(2), pytest.raises(RuntimeError, match="worker block failed"):
        model.infer(frames, batch_size=8)
    assert threading.active_count() == before
    with _on_threads(2):  # and the model infers again
        assert model.infer(frames).shape == (40, 205)
    assert threading.active_count() == before


def test_many_threads_take_every_block_once():
    """Eight threads on one-frame blocks, switching as often as the
    interpreter allows: a block taken twice or never would leave a mask
    row unlike the one-thread row (unwritten rows hold whatever
    `np.empty` gave)."""
    model = build_model("fcnn", seed=25, dtype=np.float32)
    frames = np.random.default_rng(150).standard_normal((100, 205))
    with _on_threads(1):
        want = model.infer(frames, batch_size=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _on_threads(8):
            for _ in range(2):
                assert np.array_equal(model.infer(frames, batch_size=1), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["lstm", "ced"])
def test_overlapping_infer_calls_share_no_workspace(kind):
    """Two threads call `infer` five times each on one float32 model, each
    on frames of its own, switching as often as the interpreter allows:
    every mask is bit for bit the one the model gives on one thread. Two
    calls that shared a workspace would overwrite each other's block
    buffers."""
    model = _in_dtype(_with_running_stats(kind, 20, np.random.default_rng(151)),
                      np.float32)
    rng = np.random.default_rng(152)
    frames = [rng.standard_normal((300, 205)).astype(np.float32)
              for _ in range(2)]
    interval = sys.getswitchinterval()
    with _on_threads(1):
        want = [model.infer(f) for f in frames]
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                got = list(pool.map(
                    lambda f: [model.infer(f) for _ in range(5)], frames,
                    timeout=300))
        finally:
            sys.setswitchinterval(interval)
    for masks, ref in zip(got, want):
        for mask in masks:
            assert np.array_equal(mask, ref)


def test_thread_budget_divides_cpus_by_blas_threads(monkeypatch):
    """One inference thread when OpenBLAS runs a thread per CPU, every CPU
    when it runs one, and a file thread's share of the budget while
    `share_cores` runs, the outer share again once an inner one ends; no
    `infer` call runs on more than MAX_INFER_THREADS threads."""
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(models, "blas_threads", lambda: cpus)
    assert models.thread_budget() == 1
    assert models.infer_threads() == 1
    monkeypatch.setattr(models, "blas_threads", lambda: 1)
    monkeypatch.setattr(models.os, "sched_getaffinity", lambda pid: set(range(6)))
    assert models.thread_budget() == 6
    assert [models.threads_per_worker(w) for w in (6, 4, 3, 2, 1)] == [1, 1, 2, 2, 2]
    with models.share_cores(4):
        assert models.infer_threads() == 1
        with models.share_cores(2):
            assert models.infer_threads() == 2
        assert models.infer_threads() == 1
    assert models.infer_threads() == models.MAX_INFER_THREADS == 2


def test_blas_threads_reads_the_loaded_openblas():
    """In a child whose OpenBLAS starts with 2 threads the query reads 2,
    and with 1 it reads 1: the budget follows the BLAS setting."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(maskpf.__file__))}
    code = "from maskpf.nn import models; print(models.blas_threads())"
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", code], check=True,
                             env={**env, "OPENBLAS_NUM_THREADS": threads},
                             capture_output=True, text=True, timeout=120)
        assert run.stdout.strip() == threads


# Traced peak of a second float32 ced `infer` over 300 frames: 9.39 MB when
# every block allocated its activations, 2.70 MB on one thread with the
# decoder's in the workspace, and 1.28 MB on one or two threads with the
# encoder's there too (the padded rows, the masks and the folded weights).
# A second thread's block arrays would count here if they were fresh.
CED_INFER_PEAK_BYTES = 4_000_000


def test_ced_infer_reuses_its_workspace():
    frames = np.random.default_rng(146).standard_normal((300, 205)).astype(np.float32)
    for threads in (1, 2):
        model = build_model("ced", seed=20, dtype=np.float32)
        with _on_threads(threads):
            model.infer(frames)
            tracemalloc.start()
            try:
                model.infer(frames)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < CED_INFER_PEAK_BYTES, (threads, peak)


def _arrays(value):
    """Every ndarray inside a layer attribute, looking into lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _arrays(item)]
    return []


# The shape of one example's output of each kind's last parameter layer.
HEAD_OUT = {"fcnn": (205,), "lstm": (205,), "ced": (1, 1, 205)}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_forward_and_backward_stay_float32(kind):
    """A float32 model trains in float32: its output, every cache a layer
    keeps for the backward pass (dropout masks included), a layer's input
    gradient, every grads() array and the Adam update stay float32. The
    model's backward returns None: no gradient of the network input."""
    rng = np.random.default_rng(140)
    model = build_model(kind, seed=17, dtype=np.float32)
    model.reseed(5)
    rows = rng.standard_normal((6 + CONTEXT_FRAMES[kind] - 1, 205))
    x = window_inputs(kind, rows).astype(np.float32)
    y = model.forward(x, train=True)
    gy = rng.standard_normal(y.shape).astype(np.float32)
    assert model.backward(gy) is None
    layers = dict(model._layers())
    # the ced's own layers ran the first half of the batch, its twin's the rest
    n = (y.shape[0] + 1) // 2 if kind == "ced" else y.shape[0]
    g_head = layers["sig"].backward(gy[:n]).reshape(n, *HEAD_OUT[kind])
    gx = layers["dense3" if kind == "fcnn" else "head"].backward(g_head)
    assert y.dtype == gx.dtype == np.float32
    caches = [(f"{name}.{attr}", arr) for name, layer in model._layers()
              for attr, value in vars(layer).items() for arr in _arrays(value)
              if arr.dtype.kind == "f"]  # relu keeps a boolean mask
    assert len(caches) > len(model.params()) + len(model.grads())
    for name, arr in caches:
        assert arr.dtype == np.float32, name
    for name, arr in model.grads().items():
        assert arr.dtype == np.float32, name
    adam = Adam(model.params(), lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
    adam.step(model.grads())
    for name, arr in model.state().items():
        assert arr.dtype == np.float32, name
    assert model.infer(rows).dtype == np.float32


def test_float32_build_is_a_rounded_float64_build():
    for kind in MODEL_KINDS:
        ref = build_model(kind, seed=7).state()
        for key, arr in build_model(kind, seed=7, dtype=np.float32).state().items():
            assert arr.dtype == np.float32, key
            assert np.array_equal(arr, ref[key].astype(np.float32)), key


# SHA-256 of build_model(kind, seed=7, dtype).state(), name, dtype, shape
# and bytes of every tensor in order, as the builds drew them when each
# layer constructor still drew its own weights. A change to the order or
# the arithmetic of the initial draws changes these.
BUILD_DIGESTS = {
    ("fcnn", "float64"): "59357d8ed9f5120becf064a1d62636473b7c896e489be867d297403c4308b0bc",
    ("fcnn", "float32"): "3f8c5ae69c596f906f028991313221ac73e9bd4566ad71b0d928eec35917adc3",
    ("lstm", "float64"): "022029bb4335c991088c6b4d4104f5ebbb872dc259008eec548cdac04d7bffba",
    ("lstm", "float32"): "e5476f4d541a5b60dc2dbef6aa1137bc5ce430aa1f2a814a9f92c23cddc8c533",
    ("ced", "float64"): "7bcda213a0078c3bae6ca9b1f3d262ea3ed9296590e72ad155ec6e99bccc2518",
    ("ced", "float32"): "55cf9b12b70c9e4c0ec3b99fce20075c78e30346a5dfef390eb4435df676a1a4",
}


@pytest.mark.parametrize("kind, dtype", sorted(BUILD_DIGESTS))
def test_build_matches_its_pinned_digest(kind, dtype):
    h = hashlib.sha256()
    for name, arr in build_model(kind, seed=7, dtype=dtype).state().items():
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == BUILD_DIGESTS[kind, dtype]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_infer_matches_float64_on_the_same_weights(kind):
    """Float32 inference against float64 inference on the float32-rounded
    weights, the two ways to run a model file's tensors."""
    rng = np.random.default_rng(141)
    model = _in_dtype(_with_running_stats(kind, 18, rng), np.float32)
    wide = build_model(kind, seed=0)
    wide.load_state(model.state())
    frames = rng.standard_normal((300, 205))
    got = model.infer(frames)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, wide.infer(frames), rtol=0, atol=MASK_TOL_F32)


@pytest.mark.parametrize("width", [204, 206])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_infer_rejects_a_wrong_frame_width(kind, width):
    model = build_model(kind, seed=16)
    with pytest.raises(ConfigError, match=f"expected input width 205, got {width}"):
        model.infer(np.zeros((20, width)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_infer_takes_frames_in_any_memory_order(kind):
    rng = np.random.default_rng(147)
    model = build_model(kind, seed=21)
    frames = rng.standard_normal((40, 205))
    got = model.infer(np.asfortranarray(frames))
    assert np.array_equal(got, model.infer(frames))


def test_infer_rejects_windows_and_empty_input():
    model = build_model("fcnn", seed=16)
    with pytest.raises(ConfigError):
        model.infer(np.zeros((4, 6, 205)))
    with pytest.raises(ConfigError):
        model.infer(np.zeros((0, 205)))
    with pytest.raises(ConfigError):
        model.infer(np.zeros((4, 205)), batch_size=0)


def _lstm_reference(layer, x, gy, mx, mh):
    """Outputs, input gradient and weight gradients of an LSTM, one step at
    a time, with the input mask mx and recurrent mask mh (n, d) and (n, h)
    held over all steps."""
    n, t_len, _ = x.shape
    h = layer.n_units

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hs, c = np.zeros((n, h)), np.zeros((n, h))
    steps, ys = [], np.empty((n, t_len, h))
    for t in range(t_len):
        hp = hs * mh
        a = (x[:, t] * mx) @ layer.wx + hp @ layer.wh + layer.b
        gi, gf = sig(a[:, :h]), sig(a[:, h : 2 * h])
        gc, go = np.tanh(a[:, 2 * h : 3 * h]), sig(a[:, 3 * h :])
        steps.append((hp, c, gi, gf, gc, go))
        c = gf * c + gi * gc
        hs = go * np.tanh(c)
        ys[:, t] = hs
    gwx, gwh, gb = np.zeros_like(layer.wx), np.zeros_like(layer.wh), np.zeros_like(layer.b)
    gx = np.empty_like(x)
    dh_next, dc_next = np.zeros((n, h)), np.zeros((n, h))
    for t in range(t_len - 1, -1, -1):
        hp, c_prev, gi, gf, gc, go = steps[t]
        tc = np.tanh(gf * c_prev + gi * gc)
        dh = gy[:, t] + dh_next
        dc = dh * go * (1 - tc**2) + dc_next
        da = np.concatenate([dc * gc * gi * (1 - gi), dc * c_prev * gf * (1 - gf),
                             dc * gi * (1 - gc**2), dh * tc * go * (1 - go)], axis=1)
        gwx += (x[:, t] * mx).T @ da
        gwh += hp.T @ da
        gb += da.sum(axis=0)
        gx[:, t] = (da @ layer.wx.T) * mx
        dh_next, dc_next = (da @ layer.wh.T) * mh, dc * gf
    return ys, gx, gwx, gwh, gb


def test_lstm_matches_a_step_by_step_reference():
    """The hoisted input projection, the in-place gates, the zero first
    state and the after-the-loop weight GEMMs give the per-step
    recurrence's outputs and gradients: without dropout, with frozen input
    and recurrent masks, and for a one-step sequence, whose only step is
    the zero-state one. The reference draws the masks the layer draws: the
    input mask, then the recurrent one."""
    for t_len, dropout in ((4, 0.0), (4, 0.3), (1, 0.3)):
        rng = np.random.default_rng(139)
        layer = Lstm(7, 5, dropout=dropout, recurrent_dropout=dropout)
        layer.init_weights(rng)
        layer.reseed(np.random.default_rng(140))
        x = rng.standard_normal((3, t_len, 7))
        gy = rng.standard_normal((3, t_len, 5))
        y = layer.forward(x, train=True)
        layer.gwx[...] = layer.gwh[...] = layer.gb[...] = 0.0
        gx = layer.backward(gy)
        masks = np.random.default_rng(140)
        keep = 1.0 - dropout
        mx = (masks.random((3, 7)) < keep) / keep
        mh = (masks.random((3, 5)) < keep) / keep
        assert (mx.all() and mh.all()) == (dropout == 0.0)
        ref = _lstm_reference(layer, x, gy, mx, mh)
        case = f"T={t_len}, dropout={dropout}"
        np.testing.assert_allclose(y, ref[0], rtol=0, atol=1e-14, err_msg=case)
        for got, want in zip((gx, layer.gwx, layer.gwh, layer.gb), ref[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=case)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_recur_reads_strided_views_like_copies(dtype):
    """`recur` on a read-only sliding-window view of row projections, as
    `LstmModel._infer_rows` hands it, gives the array it gives on a
    contiguous copy, and leaves the view's rows unchanged."""
    rng = np.random.default_rng(142)
    layer = Lstm(7, 5, dtype=dtype)
    layer.init_weights(rng)
    proj = rng.standard_normal((12, 20)).astype(dtype)
    before = proj.copy()
    ax = sliding_window_view(proj, 9, axis=0).transpose(0, 2, 1)
    assert not ax.flags.writeable
    got = layer.recur(ax)
    assert got.shape == (4, 9, 5) and got.dtype == dtype
    assert np.array_equal(got, layer.recur(np.ascontiguousarray(ax)))
    assert np.array_equal(proj, before)


def test_lstm_eval_forward_keeps_nothing_for_backward():
    rng = np.random.default_rng(143)
    layer = Lstm(7, 5, dropout=0.2, recurrent_dropout=0.2)
    layer.init_weights(rng)
    x = rng.standard_normal((3, 4, 7))
    layer.forward(x, train=True)
    assert layer._steps is not None
    layer.forward(x, train=False)
    assert layer._steps is None and layer._hps is None and layer._xs is None


def test_fcnn_infer_keeps_no_activations():
    """Eval-mode forwards keep nothing for a backward pass, so after `infer`
    an fcnn's layers hold only weights, gradients and statistics."""
    model = build_model("fcnn", seed=22)
    model.infer(np.random.default_rng(148).standard_normal((40, 205)))
    kept = {id(a) for a in [*model.state().values(), *model.grads().values()]}
    for name, layer in model._layers():
        for attr, value in vars(layer).items():
            for arr in _arrays(value):
                assert id(arr) in kept, f"{name}.{attr}"


def test_outputs_live_inside_mask_range():
    rng = np.random.default_rng(131)
    shapes = {"fcnn": (5, 820), "lstm": (5, 10, 205), "ced": (5, 1, 6, 205)}
    for kind in MODEL_KINDS:
        model = build_model(kind, seed=3)
        y = model.forward(rng.standard_normal(shapes[kind]) * 2, train=False)
        assert y.shape == (5, 205)
        assert np.all(y > 0.0) and np.all(y < MASK_SCALE)


def test_build_is_deterministic_per_seed_and_kind():
    for kind in MODEL_KINDS:
        a = build_model(kind, seed=7)
        b = build_model(kind, seed=7)
        for key, arr in a.state().items():
            assert np.array_equal(arr, b.state()[key]), key
        c = build_model(kind, seed=8)
        assert any(
            not np.array_equal(arr, c.state()[key])
            for key, arr in a.state().items()
        )


def test_seed_streams_differ_across_kinds():
    a = build_model("fcnn", seed=7)
    b = build_model("fcnn", seed=9)
    assert not np.array_equal(a.state()["dense1.w"], b.state()["dense1.w"])


def test_state_round_trip_and_validation():
    model = build_model("fcnn", seed=4)
    other = build_model("fcnn", seed=5)
    other.load_state({k: v.copy() for k, v in model.state().items()})
    for key, arr in model.state().items():
        assert np.array_equal(arr, other.state()[key])
    with pytest.raises(DataError):
        other.load_state({})
    bad = {k: v.copy() for k, v in model.state().items()}
    first = next(iter(bad))
    bad[first] = np.zeros((2, 2))
    with pytest.raises(DataError):
        other.load_state(bad)


def test_train_mode_forward_is_reproducible_after_reseed():
    rng = np.random.default_rng(132)
    model = build_model("fcnn", seed=6)
    x = rng.standard_normal((4, 820))
    model.reseed(42)
    a = model.forward(x, train=True)
    model.reseed(42)
    b = model.forward(x, train=True)
    assert np.array_equal(a, b)
    model.reseed(43)
    c = model.forward(x, train=True)
    assert not np.array_equal(a, c)


def test_input_rank_validation():
    model = build_model("lstm", seed=0)
    with pytest.raises(ConfigError):
        model.forward(np.zeros((4, 205)))
    ced = build_model("ced", seed=0)
    with pytest.raises(ConfigError):
        ced.forward(np.zeros((4, 6, 205)))
    with pytest.raises(ConfigError):
        build_model("gru", seed=0)


def test_fcnn_gradients_small():
    rng = np.random.default_rng(133)
    model = build_model("fcnn", seed=10, n_bins=8)
    x = rng.standard_normal((4, 32))
    worst, _ = model_grad_check(model, x, samples_per_tensor=3, seed=20)
    assert worst <= 1e-4, worst


def test_lstm_gradients_small():
    rng = np.random.default_rng(134)
    model = build_model("lstm", seed=11, n_bins=8)
    x = rng.standard_normal((3, 10, 8))
    worst, _ = model_grad_check(model, x, samples_per_tensor=3, seed=21)
    assert worst <= 1e-4, worst


def test_ced_gradients_small():
    rng = np.random.default_rng(135)
    model = CedModel(n_bins=45)
    model.init_weights(np.random.default_rng(12))
    x = rng.standard_normal((2, 1, 6, 45))
    worst, _ = model_grad_check(model, x, samples_per_tensor=3, seed=22)
    assert worst <= 1e-4, worst


def _ced_step(model, x, gy):
    """A train-mode forward and backward; the output, every gradient and
    every running statistic, copied."""
    y = model.forward(x, train=True)
    model.backward(gy)
    return y, {k: v.copy() for k, v in {**model.grads(), **model.state()}.items()}


@pytest.mark.parametrize("n", [32, 17, 2])
def test_ced_training_halves_do_not_depend_on_the_thread_count(n):
    """The ced runs a training batch as two fixed halves: on 1 and on 2
    threads a float32 forward and backward give bit for bit the same
    output, gradients and running statistics, twice in a row."""
    rng = np.random.default_rng(153)
    x = rng.standard_normal((n, 1, 6, 205)).astype(np.float32)
    gy = rng.standard_normal((n, 205)).astype(np.float32)
    got = {}
    for threads in (1, 2):
        model = build_model("ced", seed=26, dtype=np.float32)
        with _on_threads(threads):
            got[threads] = [_ced_step(model, x, gy) for _ in range(2)]
    for (y1, s1), (y2, s2) in zip(got[1], got[2]):
        assert y1.dtype == np.float32 and np.array_equal(y1, y2)
        for key, arr in s1.items():
            assert np.array_equal(arr, s2[key]), key


def _bn_inputs(monkeypatch):
    """Record the input of every train-mode batch-norm forward, by layer."""
    seen = {}
    real = BatchNorm.forward

    def recording(layer, x, train=False):
        if train:
            seen.setdefault(id(layer), []).append(x.copy())
        return real(layer, x, train)

    monkeypatch.setattr(BatchNorm, "forward", recording)
    return seen


@pytest.mark.parametrize("n", [32, 17])
def test_ced_running_statistics_are_the_whole_batch(monkeypatch, n):
    """Each batch norm normalizes each half over that half's own windows,
    and its running statistics take one step toward the mean and variance
    of both halves' inputs together (17 windows: 9 + 8)."""
    rng = np.random.default_rng(154)
    model = build_model("ced", seed=27)
    x = rng.standard_normal((n, 1, 6, 205)) * 1.5 + 0.3
    seen = _bn_inputs(monkeypatch)
    with _on_threads(2):
        model.forward(x, train=True)
    pairs = [(bn, twin_bn) for (_, _, bn, _), (_, _, twin_bn, _)
             in zip(model.enc + model.dec, model._twin.enc + model._twin.dec)]
    for bn, twin_bn in pairs:
        (first,), (second,) = seen[id(bn)], seen[id(twin_bn)]
        assert first.shape[0] == (n + 1) // 2 and second.shape[0] == n // 2
        assert bn.moments[0] == first.size // first.shape[1]
        whole = np.concatenate([first, second])
        mean = whole.mean(axis=(0, 2, 3))
        var = whole.var(axis=(0, 2, 3))
        np.testing.assert_allclose(bn.run_mean, (1 - BN_MOMENTUM) * mean,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(bn.run_var, BN_MOMENTUM + (1 - BN_MOMENTUM) * var,
                                   rtol=0, atol=1e-12)
        assert np.shares_memory(bn.gamma, twin_bn.gamma)
        assert not np.shares_memory(bn.ggamma, twin_bn.ggamma)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def test_a_one_window_ced_batch_runs_on_the_calling_thread(monkeypatch):
    model = build_model("ced", seed=28)
    x = np.random.default_rng(155).standard_normal((1, 1, 6, 205))
    monkeypatch.setattr(models, "ThreadPoolExecutor", _NoPool)
    with _on_threads(2):
        y = model.forward(x, train=True)
        model.backward(np.ones_like(y))
    assert "_twin" not in vars(model)
    assert np.any(model.grads()["enc1.w"] != 0.0)


@pytest.mark.parametrize("method", ["_run", "_backward"])
def test_a_ced_worker_half_exception_surfaces_and_no_thread_outlives_it(
        monkeypatch, method):
    """An exception in the second half's forward or backward, on the
    worker thread, is raised from the model's call, which leaves as many
    threads as it found; the model trains again afterwards."""
    model = build_model("ced", seed=29, dtype=np.float32)
    rng = np.random.default_rng(156)
    x = rng.standard_normal((8, 1, 6, 205)).astype(np.float32)
    gy = rng.standard_normal((8, 205)).astype(np.float32)
    twin = model._twin
    real = getattr(twin, method)

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker half failed")
        return real(*args)

    monkeypatch.setattr(twin, method, failing)
    before = threading.active_count()
    outputs = []
    with _on_threads(2):
        with pytest.raises(RuntimeError, match="worker half failed"):
            outputs.append(model.forward(x, train=True))
            model.backward(gy)
        assert len(outputs) == (method == "_backward")
        assert threading.active_count() == before
        monkeypatch.undo()
        model.forward(x, train=True)
        model.backward(gy)
    assert threading.active_count() == before
