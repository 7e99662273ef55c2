"""Context windowing and dataset assembly."""

import numpy as np
import pytest

from maskpf.dsp import N_PROCESSED
from maskpf.errors import ConfigError, DataError
from maskpf.features import analyze_pair, build_dataset, infer_mask, input_stats
from maskpf.nn.models import CONTEXT_FRAMES, build_model, pad_context, window_inputs
from maskpf.nn.train import Dataset
from maskpf.degrade import PRESETS, surrogate_code
from maskpf.dsp import band_limit, level_normalize, stft
from maskpf.synth import synth_utterance

from helpers_windows import model_inputs


def make_pair(seed=120, duration_s=0.8, preset="q_mid"):
    clean = band_limit(synth_utterance(seed=seed, duration_s=duration_s))
    clean, _ = level_normalize(clean)
    return clean, surrogate_code(clean, PRESETS[preset])


def test_window_inputs_repeat_first_frame():
    feats = np.arange(12.0).reshape(4, 3)
    hist = window_inputs("lstm", pad_context(feats, 10))
    assert hist.shape == (4, 10, 3)
    assert np.array_equal(hist[0], np.repeat(feats[:1], 10, axis=0))
    assert np.array_equal(hist[1], [feats[0]] * 9 + [feats[1]])
    assert np.array_equal(hist[3], [feats[0]] * 7 + [feats[1], feats[2], feats[3]])
    rows = pad_context(feats, 10)
    assert np.array_equal(window_inputs("lstm", rows, np.array([3, 0, 3])),
                          hist[[3, 0, 3]])


def test_window_inputs_are_causal():
    """Future frames must never appear in a frame's window, neither in the
    windows `window_inputs` builds nor in a dataset's."""
    rng = np.random.default_rng(121)
    feats = rng.standard_normal((20, 205))
    tweaked = feats.copy()
    tweaked[10:] += 100.0
    ones = [np.ones((5, 205)), np.ones((20, 205))]
    for kind, context in CONTEXT_FRAMES.items():
        hist, hist2 = (window_inputs(kind, pad_context(f, context))
                       for f in (feats, tweaked))
        assert np.array_equal(hist[:10], hist2[:10])
        assert not np.array_equal(hist[10], hist2[10])
        data, data2 = (Dataset(kind, [f[:5], f], ones, ones)
                       for f in (feats, tweaked))
        assert np.array_equal(data.inputs[:15], data2.inputs[:15])
        assert not np.array_equal(data.inputs[15], data2.inputs[15])


def test_model_inputs_shapes():
    feats = np.zeros((15, 205))
    assert model_inputs("fcnn", feats).shape == (15, 4 * 205)
    assert model_inputs("lstm", feats).shape == (15, 10, 205)
    assert model_inputs("ced", feats).shape == (15, 1, 6, 205)
    with pytest.raises(ConfigError):
        model_inputs("mlp", feats)


def test_fcnn_flattening_order_keeps_frames_contiguous():
    feats = np.arange(20.0).reshape(5, 4)
    flat = model_inputs("fcnn", feats)
    # row 4 is frames 1..4 concatenated oldest-first
    assert np.array_equal(flat[4], feats[1:5].ravel())


def test_analyze_pair_trims_to_common_length():
    clean, coded = make_pair(seed=122)
    longer = np.concatenate([coded.samples, np.zeros(777)])
    from maskpf.dsp import AudioBuffer

    pair = analyze_pair(clean, AudioBuffer(longer))
    assert pair.clean_spec.n_frames == pair.coded_spec.n_frames
    assert pair.n_frames == pair.coded_spec.n_frames


def test_input_stats_cover_processed_band():
    clean, coded = make_pair(seed=123)
    pair = analyze_pair(clean, coded)
    stats = input_stats([pair])
    assert stats.mean.shape == (N_PROCESSED,)
    assert np.all(stats.std > 0)
    with pytest.raises(DataError):
        input_stats([])


def test_build_dataset_concatenates_and_respects_threshold():
    pairs = [analyze_pair(*make_pair(seed=s)) for s in (124, 125)]
    stats = input_stats(pairs)
    ds = build_dataset(pairs, "fcnn", stats)
    total = sum(p.n_frames for p in pairs)
    assert ds.inputs.shape == (total, 820)
    assert ds.targets.shape == (total, 205)
    assert ds.mags.shape == (total, 205)
    assert ds.targets.max() <= 2.0
    assert ds.targets.min() >= 0.0
    with pytest.raises(DataError):
        build_dataset([], "fcnn", stats)


def test_infer_mask_end_to_end_shape_and_range():
    clean, coded = make_pair(seed=126)
    pair = analyze_pair(clean, coded)
    stats = input_stats([pair])
    model = build_model("fcnn", seed=5)
    mask = infer_mask(model, stats, pair.coded_spec)
    assert mask.shape == (pair.n_frames, 205)
    assert np.all(mask > 0.0)
    assert np.all(mask < 2.0)
