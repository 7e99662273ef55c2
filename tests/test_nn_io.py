"""Model file round trips and corruption handling."""

import struct

import numpy as np
import pytest

from maskpf.dsp import NormStats
from maskpf.errors import DataError
from maskpf.nn import layers, lstm
from maskpf.nn.io import load_model, save_model
from maskpf.nn.models import MODEL_KINDS, build_model
from maskpf.nn.train import TrainConfig


def small_stats(rng):
    return NormStats(rng.standard_normal(205), rng.uniform(0.5, 2.0, 205))


def test_round_trip_preserves_everything_to_float32(tmp_path):
    rng = np.random.default_rng(150)
    model = build_model("fcnn", seed=9)
    config = TrainConfig(kind="fcnn", seed=9, max_epochs=7)
    stats = small_stats(rng)
    path = str(tmp_path / "m.mpf1")
    save_model(path, model, stats, config)
    loaded, back_stats, header = load_model(path)
    assert loaded.kind == "fcnn"
    assert header["train_config"]["max_epochs"] == 7
    for key, arr in model.state().items():
        f32 = arr.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.state()[key], f32), key
    assert np.array_equal(back_stats.mean, stats.mean.astype(np.float32))
    assert np.array_equal(back_stats.std, stats.std.astype(np.float32))


@pytest.mark.parametrize("kind", ["fcnn", "lstm", "ced"])
def test_loaded_model_holds_the_stored_float32_weights(tmp_path, kind):
    """Inference runs on exactly the file's tensors: every state array of
    the loaded model is float32 and equals the rounded saved one, while the
    normalization stats load as float64 for the DSP."""
    rng = np.random.default_rng(153)
    model = build_model(kind, seed=4)
    path = str(tmp_path / "m.mpf1")
    save_model(path, model, small_stats(rng), TrainConfig(kind=kind, seed=4))
    loaded, stats, _ = load_model(path)
    assert loaded.dtype == np.float32
    for key, arr in model.state().items():
        assert loaded.state()[key].dtype == np.float32, key
        assert np.array_equal(loaded.state()[key], arr.astype(np.float32)), key
    assert stats.mean.dtype == stats.std.dtype == np.float64


def test_load_model_draws_no_initial_weights(tmp_path, monkeypatch):
    """Loading allocates the layers and copies the file's tensors in: with
    every initializer made to fail, each kind still loads, bit for bit."""
    rng = np.random.default_rng(154)
    saved = {}
    for kind in MODEL_KINDS:
        model = build_model(kind, seed=5, dtype=np.float32)
        saved[kind] = {k: v.copy() for k, v in model.state().items()}
        save_model(str(tmp_path / f"{kind}.mpf1"), model, small_stats(rng),
                   TrainConfig(kind=kind, seed=5))

    def no_draw(*args, **kwargs):
        raise AssertionError("load_model drew an initial weight")

    monkeypatch.setattr(layers, "glorot_uniform", no_draw)
    monkeypatch.setattr(lstm, "glorot_uniform", no_draw)
    monkeypatch.setattr(lstm, "orthogonal", no_draw)
    with pytest.raises(AssertionError):
        build_model("lstm", seed=5)
    for kind in MODEL_KINDS:
        loaded, _, _ = load_model(str(tmp_path / f"{kind}.mpf1"))
        state = loaded.state()
        assert state.keys() == saved[kind].keys()
        for key, arr in saved[kind].items():
            assert state[key].dtype == np.float32, key
            assert state[key].tobytes() == arr.tobytes(), key


def test_double_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(151)
    model = build_model("ced", seed=3)
    config = TrainConfig(kind="ced", seed=3)
    stats = small_stats(rng)
    a = tmp_path / "a.mpf1"
    b = tmp_path / "b.mpf1"
    save_model(str(a), model, stats, config)
    save_model(str(b), model, stats, config)
    assert a.read_bytes() == b.read_bytes()


def test_magic_and_corruption_rejected(tmp_path):
    rng = np.random.default_rng(152)
    model = build_model("fcnn", seed=1)
    config = TrainConfig(kind="fcnn", seed=1)
    path = tmp_path / "m.mpf1"
    save_model(str(path), model, small_stats(rng), config)
    raw = path.read_bytes()

    bad = tmp_path / "bad.mpf1"
    bad.write_bytes(b"WAVE" + raw[4:])
    with pytest.raises(DataError):
        load_model(str(bad))

    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError):
        load_model(str(bad))

    bad.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(DataError):
        load_model(str(bad))

    (hlen,) = struct.unpack("<I", raw[4:8])
    bad.write_bytes(raw[:8] + b"{" * hlen + raw[8 + hlen:])
    with pytest.raises(DataError):
        load_model(str(bad))

    with pytest.raises(DataError):
        load_model(str(tmp_path / "absent.mpf1"))
