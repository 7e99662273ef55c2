"""Loss algebra, the optimizer update, early stopping, and the full loop."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import maskpf
from maskpf.degrade import PRESETS, surrogate_code
from maskpf.errors import ConfigError, DataError, NumericError
from maskpf.dsp import AudioBuffer, NormStats, band_limit, level_normalize
from maskpf.nn import models, train as train_module
from maskpf.nn.adam import BLOCK, Adam
from maskpf.nn.io import load_model, save_model
from maskpf.nn.loss import LOSS_EPS, logmag_mse
from maskpf.features import analyze_pair, build_dataset, input_stats
from maskpf.nn.models import MODEL_KINDS, build_model
from maskpf.nn.train import (
    Dataset,
    EarlyStopping,
    TrainConfig,
    train_model,
)

from helpers_grad import model_grad_check
from helpers_windows import model_inputs


def test_loss_zero_when_masks_agree():
    rng = np.random.default_rng(140)
    mask = rng.uniform(0.1, 1.9, (6, 20))
    mags = rng.uniform(1e-3, 1.0, (6, 20))
    loss, grad = logmag_mse(mask, mask, mags)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_reduces_to_log_mask_ratio_above_floor():
    """With magnitudes above the floor the products cancel: the loss is the
    mean squared difference of the log masks."""
    rng = np.random.default_rng(141)
    pred = rng.uniform(0.2, 1.8, (5, 16))
    target = rng.uniform(0.2, 1.8, (5, 16))
    mags = rng.uniform(1e-2, 1.0, (5, 16))
    loss, _ = logmag_mse(pred, target, mags)
    direct = np.mean((np.log(pred) - np.log(target)) ** 2)
    assert abs(loss - direct) < 1e-10


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(142)
    pred = rng.uniform(0.2, 1.8, (4, 9))
    target = rng.uniform(0.2, 1.8, (4, 9))
    mags = rng.uniform(1e-2, 1.0, (4, 9))
    _, grad = logmag_mse(pred, target, mags)
    h = 1e-7
    for idx in [(0, 0), (1, 4), (3, 8)]:
        stepped = pred.copy()
        stepped[idx] += h
        plus, _ = logmag_mse(stepped, target, mags)
        stepped[idx] -= 2 * h
        minus, _ = logmag_mse(stepped, target, mags)
        num = (plus - minus) / (2 * h)
        assert np.isclose(grad[idx], num, rtol=1e-5)


def test_loss_flat_below_floor():
    """Predictions whose product sits under the floor get zero gradient; the
    floor region is genuinely flat, not just clipped."""
    pred = np.array([[1e-13]])
    target = np.array([[1.0]])
    mags = np.array([[1e-3]])
    loss_a, grad = logmag_mse(pred, target, mags)
    loss_b, _ = logmag_mse(pred * 0.5, target, mags)
    assert grad[0, 0] == 0.0
    assert loss_a == loss_b


def test_loss_in_float32_matches_float64():
    """Training computes the loss on float32 predictions, targets and
    magnitudes; loss and gradient stay float32 and agree with float64."""
    rng = np.random.default_rng(148)
    pred = rng.uniform(0.05, 1.95, (32, 205))
    target = rng.uniform(0.0, 2.0, (32, 205))
    mags = rng.uniform(1e-4, 3.0, (32, 205))
    loss64, grad64 = logmag_mse(pred, target, mags)
    f32 = [a.astype(np.float32) for a in (pred, target, mags)]
    loss32, grad32 = logmag_mse(*f32)
    assert grad32.dtype == np.float32
    assert abs(loss32 - loss64) <= 1e-5 * loss64
    np.testing.assert_allclose(grad32, grad64, rtol=1e-5,
                               atol=1e-5 * np.abs(grad64).max())


def test_loss_rejects_nan():
    with pytest.raises(NumericError):
        logmag_mse(np.array([[np.nan]]), np.array([[1.0]]), np.array([[1.0]]))


def test_adam_single_step_hand_computed():
    """One step from zero moments: update = lr * g / (|g| + eps) elementwise
    after bias correction collapses."""
    p = np.array([1.0, -2.0, 3.0])
    opt = Adam({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    g = np.array([0.5, -1.0, 2.0])
    opt.step({"p": g.copy()})
    # m_hat = g, v_hat = g^2, so the step is lr * sign-ish update
    want = np.array([1.0, -2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, want, atol=1e-12)


def test_adam_two_steps_match_reference_formula():
    rng = np.random.default_rng(143)
    p = rng.standard_normal(5)
    p0 = p.copy()
    opt = Adam({"p": p}, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    g1 = rng.standard_normal(5)
    g2 = rng.standard_normal(5)
    opt.step({"p": g1.copy()})
    opt.step({"p": g2.copy()})

    m = np.zeros(5)
    v = np.zeros(5)
    ref = p0.copy()
    for t, g in enumerate([g1, g2], 1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p, ref, atol=1e-12)


def adam_matches_expression_form(dtype, shapes):
    rng = np.random.default_rng(144)
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    start = {k: v.copy() for k, v in params.items()}
    opt = Adam(params, lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-6)
    grads = [{k: rng.standard_normal(v.shape).astype(dtype)
              for k, v in params.items()} for _ in range(4)]
    for g in grads:
        opt.step(g)

    for key, p in start.items():
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, g in enumerate(grads, 1):
            gk = g[key]
            m *= 0.8
            m += (1.0 - 0.8) * gk
            v *= 0.99
            v += (1.0 - 0.99) * gk * gk
            bc1 = 1.0 - 0.8**t
            bc2 = 1.0 - 0.99**t
            p -= 3e-3 * (m / bc1) / (np.sqrt(v / bc2) + 1e-6)
        assert params[key].dtype == dtype
        assert np.array_equal(params[key], p), key


def test_adam_in_place_update_is_bit_identical_to_expression_form():
    """The scratch-buffer update performs the operations of the textbook
    expression in the same order, so several steps on a 2-D tensor, and a
    smaller tensor sharing the scratch buffers, give the same bits. The
    float32 tensor spans two whole update blocks and a partial one."""
    adam_matches_expression_form(np.float64, {"w": (7, 5), "b": (3,)})
    adam_matches_expression_form(np.float32, {"w": (2, BLOCK + 777), "b": (3,)})


def test_adam_validation():
    settings = {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    with pytest.raises(ConfigError):  # a flat view of it would be a copy
        Adam({"p": np.zeros((3, 4)).T}, **settings)
    opt = Adam({"p": np.zeros(2)}, **settings)
    with pytest.raises(ConfigError):
        opt.step({"q": np.zeros(2)})


def test_adam_updates_in_place_so_models_see_steps():
    model = build_model("fcnn", seed=1, n_bins=8)
    before = model.state()["dense1.w"].copy()
    opt = Adam(model.params(), lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    grads = {k: np.ones_like(v) for k, v in model.params().items()}
    opt.step(grads)
    assert not np.array_equal(model.state()["dense1.w"], before)


def test_early_stopping_counts_and_restores():
    model = build_model("fcnn", seed=2, n_bins=8)
    stopper = EarlyStopping(patience=2, min_delta=0.1)
    assert stopper.update(1.0, 1, model) is False
    snapshot = {k: v.copy() for k, v in model.state().items()}
    model.params()["dense1.w"][...] += 1.0
    assert stopper.update(0.95, 2, model) is False  # within min_delta: no improvement
    assert stopper.update(1.2, 3, model) is True
    stopper.restore(model)
    assert np.array_equal(model.state()["dense1.w"], snapshot["dense1.w"])
    assert stopper.best_epoch == 1


def make_synthetic_dataset(rng, n, kind="lstm"):
    """n examples of random frames, split into two utterances."""
    frames = rng.standard_normal((n, 205))
    targets = rng.uniform(0.3, 1.7, (n, 205))
    mags = rng.uniform(1e-2, 1.0, (n, 205))
    cut = n // 3
    return Dataset(kind, *([a[:cut], a[cut:]] for a in (frames, targets, mags)))


def test_dataset_validation():
    rng = np.random.default_rng(144)
    frames = [rng.standard_normal((9, 205)), rng.standard_normal((3, 205))]
    ones = [np.ones((9, 205)), np.ones((3, 205))]
    data = Dataset("fcnn", frames, ones, ones)
    assert len(data) == 12
    assert data.offsets.tolist() == [*range(9), *range(12, 15)]
    bad = [
        ([frames[0], np.ones((0, 205))], ones, ones),  # an empty utterance
        (frames, [ones[0], np.ones((2, 205))], ones),  # targets one frame short
        (frames, ones, [ones[0], np.ones((3, 204))]),  # mags of another width
        (frames, ones[:1], ones[:1]),                  # one utterance's missing
        ([], [], []),
    ]
    for args in bad:
        with pytest.raises(DataError):
            Dataset("fcnn", *args)
    with pytest.raises(ConfigError):
        Dataset("mlp", frames, ones, ones)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_windows_never_cross_utterance_boundaries(kind):
    """Each utterance's first windows repeat its own frame 0, never the
    previous utterance's tail, in training batches and in validation. The
    frames carry energy up to both edges, and the 2-frame utterance is
    shorter than every context."""
    rng = np.random.default_rng(150)
    frames = [rng.standard_normal((n, 205)) + 3.0 for n in (7, 2, 13)]
    targets = [rng.uniform(0.3, 1.7, f.shape) for f in frames]
    mags = [rng.uniform(1e-2, 1.0, f.shape) for f in frames]
    data = Dataset(kind, frames, targets, mags)
    want = np.concatenate([model_inputs(kind, f) for f in frames]).astype(np.float32)
    idx = rng.permutation(len(data))
    assert np.array_equal(data.batch(idx), want[idx])
    assert np.array_equal(data.inputs, want)

    model = build_model(kind, seed=9)  # float64, so masks compare to 1e-12
    masks = np.concatenate([model.infer(f.astype(np.float32)) for f in frames])
    loss, _ = logmag_mse(masks, data.targets, data.mags)
    assert abs(train_module._eval_loss(model, data) - loss) <= 1e-12 * loss


def _forward_loss(model, data):
    """The validation loss as eval-mode forward passes over the stored
    windows give it, 256 windows at a time."""
    x = data.inputs
    pred = np.concatenate([model.forward(x[i : i + 256], train=False)
                           for i in range(0, len(x), 256)])
    return logmag_mse(pred, data.targets, data.mags)[0]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_eval_loss_through_infer_matches_forward(kind):
    """Validation through `Model.infer` scores the masks eval-mode forward
    gives on the same windows: the fcnn's and the lstm's are bit-identical,
    the ced's move by its folded batch norm's rounding. It draws nothing
    from the dropout stream."""
    rng = np.random.default_rng(151)
    train = make_synthetic_dataset(rng, 48, kind)
    config = TrainConfig(kind=kind, batch_size=16, max_epochs=1, seed=10)
    model = train_model(config, train, train).model  # non-trivial BN statistics
    frames = [rng.standard_normal((n, 205)) for n in (300, 2, 41)]
    targets = [rng.uniform(0.3, 1.7, f.shape) for f in frames]
    mags = [rng.uniform(1e-2, 1.0, f.shape) for f in frames]
    data = Dataset(kind, frames, targets, mags)
    streams = [layer.rng for _, layer in model._layers() if hasattr(layer, "rng")]
    before = [r.bit_generator.state for r in streams]
    got = train_module._eval_loss(model, data)
    assert [r.bit_generator.state for r in streams] == before
    want = _forward_loss(model, data)
    if kind == "ced":
        assert abs(got - want) <= 1e-6 * want
    else:
        assert got == want


def test_zero_lr_patience_gives_exactly_patience_plus_one_evals():
    """With lr=0 the model never changes, so epoch 1 sets the best loss and
    every later epoch is a non-improvement: training must run exactly
    1 + patience validation passes and stop."""
    rng = np.random.default_rng(145)
    train = make_synthetic_dataset(rng, 24)
    val = make_synthetic_dataset(rng, 12)
    config = TrainConfig(kind="lstm", learning_rate=0.0, batch_size=8,
                         max_epochs=50, patience=3, seed=3)
    result = train_model(config, train, val)
    assert len(result.history) == 4
    assert result.stopped_early
    assert result.best_epoch == 1
    losses = [h.val_loss for h in result.history]
    assert all(x == losses[0] for x in losses)


def test_training_reduces_loss_and_restores_best():
    rng = np.random.default_rng(146)
    train = make_synthetic_dataset(rng, 48, kind="fcnn")
    val = make_synthetic_dataset(rng, 16, kind="fcnn")
    config = TrainConfig(kind="fcnn", learning_rate=1e-3, batch_size=16,
                         max_epochs=6, patience=6, seed=4)
    result = train_model(config, train, val)
    assert result.history[0].train_loss > result.history[-1].train_loss
    best = min(h.val_loss for h in result.history)
    assert result.best_val_loss == best


def test_train_is_deterministic():
    rng = np.random.default_rng(147)
    train = make_synthetic_dataset(rng, 32, kind="fcnn")
    val = make_synthetic_dataset(rng, 8, kind="fcnn")
    config = TrainConfig(kind="fcnn", learning_rate=1e-3, batch_size=8,
                         max_epochs=3, patience=5, seed=5)
    a = train_model(config, train, val)
    b = train_model(config, train, val)
    for key, arr in a.model.state().items():
        assert np.array_equal(arr, b.model.state()[key]), key
    assert [h.val_loss for h in a.history] == [h.val_loss for h in b.history]
    assert a.model.dtype == np.float32


def test_ced_training_does_not_depend_on_the_thread_count(monkeypatch):
    """The ced's two fixed halves per batch give the same 2-epoch model and
    losses whether they run on one thread or two."""
    rng = np.random.default_rng(159)
    train = make_synthetic_dataset(rng, 40, kind="ced")
    val = make_synthetic_dataset(rng, 12, kind="ced")
    config = TrainConfig(kind="ced", batch_size=16, max_epochs=2, seed=11)
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(models, "infer_threads", lambda: threads)
        results.append(train_model(config, train, val))
    a, b = results
    for key, arr in a.model.state().items():
        assert np.array_equal(arr, b.model.state()[key]), key
    assert [(h.train_loss, h.val_loss) for h in a.history] == \
        [(h.train_loss, h.val_loss) for h in b.history]


def test_dataset_holds_float32_and_casts_once():
    """Float64 arrays are cast once, as they are stacked: each stored value
    is the float32 rounding of the value passed in. `inputs` stacks the
    windows afresh on each read and keeps nothing."""
    rng = np.random.default_rng(149)
    frames, targets, mags = (rng.uniform(0.1, 2.0, (6, 205)) for _ in range(3))
    data = Dataset("fcnn", [frames], [targets], [mags])
    for arr in (data.rows, data.targets, data.mags, data.inputs):
        assert arr.dtype == np.float32
    assert np.array_equal(data.rows[3:], frames.astype(np.float32))
    assert np.array_equal(data.targets, targets.astype(np.float32))
    assert np.array_equal(data.mags, mags.astype(np.float32))
    assert data.inputs is not data.inputs
    assert np.array_equal(data.inputs, data.batch(np.arange(len(data))))


def test_train_model_rejects_another_kinds_data():
    rng = np.random.default_rng(158)
    data = make_synthetic_dataset(rng, 6, kind="fcnn")
    with pytest.raises(ConfigError):
        train_model(TrainConfig(kind="lstm", max_epochs=1), data, data)


@pytest.mark.parametrize("kind", ["fcnn", "lstm"])
def test_train_model_trains_in_float32(monkeypatch, kind):
    """From float64 arrays in, the model, its gradients and the optimizer's
    moments are all float32."""
    optimizers = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(train_module, "Adam", RecordingAdam)
    rng = np.random.default_rng(155)
    train = make_synthetic_dataset(rng, 16, kind=kind)
    val = make_synthetic_dataset(rng, 8, kind=kind)
    config = TrainConfig(kind=kind, batch_size=8, max_epochs=2, seed=6)
    model = train_model(config, train, val).model
    assert model.dtype == np.float32
    for name, arr in {**model.state(), **model.grads()}.items():
        assert arr.dtype == np.float32, name
    (opt,) = optimizers
    assert opt.t == 4
    for moments in (opt.m, opt.v):
        for name, arr in moments.items():
            assert arr.dtype == np.float32, name


def test_trained_model_file_holds_the_trained_weights(tmp_path):
    """A float32-trained model survives save and load bit for bit."""
    rng = np.random.default_rng(156)
    train = make_synthetic_dataset(rng, 16, kind="fcnn")
    val = make_synthetic_dataset(rng, 8, kind="fcnn")
    config = TrainConfig(kind="fcnn", batch_size=8, max_epochs=2, seed=7)
    model = train_model(config, train, val).model
    path = str(tmp_path / "m.mpf1")
    stats = NormStats(rng.standard_normal(205), rng.uniform(0.5, 2.0, 205))
    save_model(path, model, stats, config)
    loaded, _, _ = load_model(path)
    assert loaded.state().keys() == model.state().keys()
    for key, arr in model.state().items():
        assert loaded.state()[key].dtype == arr.dtype == np.float32, key
        assert np.array_equal(loaded.state()[key], arr), key


def test_gradient_checks_stay_float64():
    """Central differences at h=1e-5 are meaningless on float32 weights, so
    the checker refuses them and runs on a float64 build."""
    rng = np.random.default_rng(157)
    x = rng.standard_normal((3, 32))
    with pytest.raises(TypeError):
        model_grad_check(build_model("fcnn", seed=8, n_bins=8,
                                     dtype=np.float32), x)
    max_rel, _ = model_grad_check(build_model("fcnn", seed=8, n_bins=8), x,
                                  samples_per_tensor=2)
    assert max_rel <= 1e-4


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(kind="vgg")
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    for bad in ({"seed": -1}, {"seed": 1.5}, {"learning_rate": -1.0},
                {"learning_rate": np.nan}, {"learning_rate": np.inf},
                {"min_delta": np.nan},
                {"max_epochs": np.nan}, {"beta1": np.nan}, {"beta1": -0.1},
                {"beta2": 1.0}, {"adam_eps": -1.0}, {"adam_eps": 0.0},
                {"adam_eps": np.nan}, {"adam_eps": np.inf},
                # each type is checked before its range: a list, a bool or a
                # float where an int belongs is a ConfigError, not a TypeError
                # or a ValueError from the comparison
                {"learning_rate": []}, {"min_delta": []}, {"adam_eps": []},
                {"beta1": True}, {"learning_rate": "0.1"},
                {"batch_size": 1.5}, {"max_epochs": 2.0}, {"patience": True},
                {"seed": True}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


# SHA-256 of the model file that `_trained_file_digests` writes for each
# kind, with one BLAS thread. They pin float32 training bit for bit: batch
# assembly, shuffling, dropout, the ced's half batches and merged batch-norm
# statistics, and which epoch validation keeps. They
# depend on the numpy and BLAS build and on the CPU's kernels (recorded
# with numpy 2.4.6 and scipy-openblas 0.3.31 on x86-64); `python
# tests/test_nn_train.py` prints them afresh.
TRAINED_FILE_SHA256 = {
    "fcnn": "bc5ff541cecb3743bdc10f07a299db3b6241428dd9281a0ddd732ebaf4ea5889",
    "lstm": "828973fcdf2e255eda04a12a71a243e4c34ea333587408204bde0942377f5860",
    "ced": "37753115b5dd367c0a42480c16257bef08db0d6175fcb1b228cb7cc1599a1dac",
}


def _trained_file_digests() -> dict[str, str]:
    """Train each kind for 2 epochs on coded noise with energy up to both
    edges (train: 22, 34 and 2 frames; val: 18) and hash the saved file."""
    rng = np.random.default_rng(160)
    pairs = []
    for n in (6000, 9000, 800, 5000):
        clean, _ = level_normalize(band_limit(AudioBuffer(rng.standard_normal(n))))
        pairs.append(analyze_pair(clean, surrogate_code(clean, PRESETS["q_mid"])))
    stats = input_stats(pairs[:3])
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.mpf1")
        for kind in MODEL_KINDS:
            config = TrainConfig(kind=kind, batch_size=16, max_epochs=2, seed=8)
            result = train_model(config, build_dataset(pairs[:3], kind, stats),
                                 build_dataset(pairs[3:], kind, stats))
            save_model(path, result.model, stats, config)
            with open(path, "rb") as fh:
                digests[kind] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_trained_model_files_are_pinned():
    """Run in a child process so that OpenBLAS starts with one thread: its
    float32 sums change with the thread count."""
    paths = [os.path.dirname(os.path.dirname(maskpf.__file__)),
             os.path.dirname(__file__)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    assert json.loads(run.stdout) == TRAINED_FILE_SHA256


if __name__ == "__main__":
    print(json.dumps(_trained_file_digests()))
