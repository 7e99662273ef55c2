"""Distance metrics checked against hand-computed values."""

import numpy as np
import pytest

from maskpf.dsp import AudioBuffer, stft
from maskpf.errors import DataError
from maskpf.metrics import (
    SEGSNR_MAX_DB,
    SEGSNR_MIN_DB,
    lsd_from_mags,
    log_spectral_distance,
    segmental_snr,
)
from maskpf.synth import synth_utterance


def test_lsd_zero_for_identical_mags():
    rng = np.random.default_rng(50)
    mags = rng.uniform(0.01, 2.0, (7, 40))
    assert lsd_from_mags(mags, mags) == 0.0


def test_lsd_constant_gain_is_flat_offset():
    """A uniform gain g shifts every bin by 20*log10(g), so the distance is
    exactly that many dB regardless of content."""
    rng = np.random.default_rng(51)
    mags = rng.uniform(0.05, 3.0, (9, 33))
    for gain in (2.0, 0.25, 10.0):
        want = abs(20.0 * np.log10(gain))
        assert lsd_from_mags(mags * gain, mags) == pytest.approx(want, rel=1e-12)


def test_lsd_hand_computed_small_case():
    ref = np.array([[1.0, 1.0], [1.0, 1.0]])
    test = np.array([[10.0, 1.0], [1.0, 0.1]])
    # per frame: sqrt(mean([20^2, 0])) = sqrt(200) each
    want = np.sqrt(200.0)
    assert lsd_from_mags(test, ref) == pytest.approx(want, rel=1e-12)


def test_lsd_floor_limits_silence_blowup():
    ref = np.array([[1.0, 0.0]])
    test = np.array([[1.0, 0.0]])
    assert lsd_from_mags(test, ref) == 0.0
    # one silent, one not: difference capped by the floor, not infinite
    loud = np.array([[1.0, 1.0]])
    val = lsd_from_mags(loud, ref)
    assert np.isfinite(val)


def test_lsd_shape_validation():
    with pytest.raises(DataError):
        lsd_from_mags(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(DataError):
        lsd_from_mags(np.ones(4), np.ones(4))


def test_signal_lsd_matches_magnitude_lsd():
    buf = synth_utterance(seed=60, duration_s=0.7)
    other = AudioBuffer(buf.samples * 0.5)
    direct = log_spectral_distance(buf, other)
    via_mags = lsd_from_mags(stft(other).magnitudes(), stft(buf).magnitudes())
    assert direct == pytest.approx(via_mags, rel=1e-12)


def test_signal_lsd_frame_mismatch():
    buf = synth_utterance(seed=61, duration_s=0.7)
    short = AudioBuffer(buf.samples[: len(buf) - 600])
    with pytest.raises(DataError):
        log_spectral_distance(buf, short)


def test_segsnr_identical_hits_upper_clamp():
    buf = synth_utterance(seed=62, duration_s=0.5)
    assert segmental_snr(buf, buf) == SEGSNR_MAX_DB


def test_segsnr_known_white_noise_level():
    """Constant-envelope reference with noise at exactly -20 dB per frame."""
    rng = np.random.default_rng(63)
    n = 256 * 40
    ref = np.sign(rng.standard_normal(n)) * 0.1
    noise = rng.standard_normal(n)
    frames = noise.reshape(40, 256)
    scale = np.sqrt((0.1**2 * 256) / 100.0 / np.sum(frames**2, axis=1))
    noise = (frames * scale[:, None]).ravel()
    got = segmental_snr(AudioBuffer(ref), AudioBuffer(ref + noise))
    assert got == pytest.approx(20.0, abs=1e-9)


def test_segsnr_clamps_below():
    rng = np.random.default_rng(64)
    ref = rng.standard_normal(256 * 8) * 0.1
    wrecked = AudioBuffer(-ref * 50.0)
    got = segmental_snr(AudioBuffer(ref), wrecked)
    assert got == SEGSNR_MIN_DB


def test_segsnr_ignores_silent_frames():
    """Silence between bursts must not drag the average down."""
    rng = np.random.default_rng(65)
    burst = rng.standard_normal(256) * 0.2
    sig = np.concatenate([burst, np.zeros(256 * 4), burst])
    noisy = sig + rng.standard_normal(len(sig)) * 1e-4
    got = segmental_snr(AudioBuffer(sig), AudioBuffer(noisy))
    sig_only = np.concatenate([burst, burst])
    noisy_only = np.concatenate([noisy[:256], noisy[-256:]])
    want = segmental_snr(AudioBuffer(sig_only), AudioBuffer(noisy_only))
    assert got == pytest.approx(want, abs=1e-9)


def test_segsnr_validation():
    buf = AudioBuffer(np.ones(1024) * 0.1)
    with pytest.raises(DataError):
        segmental_snr(buf, AudioBuffer(np.ones(512)))
    with pytest.raises(DataError):
        segmental_snr(AudioBuffer(np.zeros(1024)), AudioBuffer(np.zeros(1024)))
    with pytest.raises(DataError):
        segmental_snr(AudioBuffer(np.ones(100) * 0.1), AudioBuffer(np.ones(100) * 0.1))
