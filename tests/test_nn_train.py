"""Loss algebra, the optimizer update, early stopping, and the full loop."""

import numpy as np
import pytest

from maskpf.errors import ConfigError, DataError, NumericError
from maskpf.dsp import NormStats
from maskpf.nn import train as train_module
from maskpf.nn.adam import BLOCK, Adam
from maskpf.nn.io import load_model, save_model
from maskpf.nn.loss import LOSS_EPS, logmag_mse
from maskpf.nn.models import build_model
from maskpf.nn.train import (
    Dataset,
    EarlyStopping,
    TrainConfig,
    train_model,
)

from helpers_grad import model_grad_check


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
    opt = Adam({"p": p}, lr=0.01)
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
    with pytest.raises(ConfigError):
        Adam({"p": np.zeros(2)}, lr=-1.0)
    with pytest.raises(ConfigError):  # a flat view of it would be a copy
        Adam({"p": np.zeros((3, 4)).T})
    opt = Adam({"p": np.zeros(2)})
    with pytest.raises(ConfigError):
        opt.step({"q": np.zeros(2)})


def test_adam_updates_in_place_so_models_see_steps():
    model = build_model("fcnn", seed=1, n_bins=8)
    before = model.state()["dense1.w"].copy()
    opt = Adam(model.params(), lr=0.05)
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
    if kind == "lstm":
        inputs = rng.standard_normal((n, 10, 205))
    else:
        inputs = rng.standard_normal((n, 820))
    targets = rng.uniform(0.3, 1.7, (n, 205))
    mags = rng.uniform(1e-2, 1.0, (n, 205))
    return Dataset(inputs, targets, mags)


def test_dataset_validation():
    rng = np.random.default_rng(144)
    with pytest.raises(DataError):
        Dataset(rng.standard_normal((3, 4)), rng.standard_normal((2, 5)),
                rng.standard_normal((3, 5)))
    with pytest.raises(DataError):
        Dataset(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)),
                rng.standard_normal((3, 6)))


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
    assert result.val_evaluations == 4
    assert result.stopped_early
    assert result.best_epoch == 1
    assert len(result.history) == 4
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


def test_dataset_holds_float32_and_casts_once():
    """Float64 arrays are cast on construction; float32 arrays are kept
    as they are, not copied."""
    rng = np.random.default_rng(149)
    data = make_synthetic_dataset(rng, 6, kind="fcnn")
    for arr in (data.inputs, data.targets, data.mags):
        assert arr.dtype == np.float32
    again = Dataset(data.inputs, data.targets, data.mags)
    assert again.inputs is data.inputs
    assert again.targets is data.targets
    assert again.mags is data.mags


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
