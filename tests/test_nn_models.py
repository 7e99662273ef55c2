"""Estimator assembly: parameter budgets, shapes, determinism, gradients."""

import numpy as np
import pytest

from helpers_grad import model_grad_check
from maskpf.errors import ConfigError, DataError
from maskpf.nn.models import (
    MASK_SCALE,
    MODEL_KINDS,
    REFERENCE_PARAM_COUNTS,
    CedModel,
    build_model,
)

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


def test_ced_eval_output_does_not_depend_on_infer_batch_size():
    rng = np.random.default_rng(136)
    model = build_model("ced", seed=13)
    # give batch norm non-trivial running statistics
    model.forward(rng.standard_normal((8, 1, 6, 205)), train=True)
    x = rng.standard_normal((300, 1, 6, 205))
    ref = model.infer(x, batch_size=256)
    for batch_size in (1, 32):
        assert np.array_equal(model.infer(x, batch_size=batch_size), ref), batch_size


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
    model = CedModel(np.random.default_rng(12), n_bins=45)
    x = rng.standard_normal((2, 1, 6, 45))
    worst, _ = model_grad_check(model, x, samples_per_tensor=3, seed=22)
    assert worst <= 1e-4, worst
