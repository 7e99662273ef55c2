"""Signal-layer tests: windows, STFT round trips, features, cepstrum,
and the preprocessing surrogates."""

import numpy as np
import pytest

from maskpf.dsp import (
    DEFAULT_STFT,
    LOG_FLOOR,
    SAMPLE_RATE,
    AudioBuffer,
    FeatureMatrix,
    NormStats,
    StftConfig,
    active_rms,
    band_limit,
    compute_norm_stats,
    denormalize,
    frame_count,
    istft,
    level_normalize,
    log_magnitude,
    normalize,
    real_cepstrum,
    sqrt_hann,
    stft,
    stft_filter,
)
from maskpf.errors import ConfigError, DataError


def test_sqrt_hann_overlap_identity():
    w = sqrt_hann(512)
    assert w.shape == (512,)
    assert w[0] == 0.0
    overlap = w[:256] ** 2 + w[256:] ** 2
    np.testing.assert_allclose(overlap, 1.0, atol=1e-12)


def test_sqrt_hann_rejects_odd():
    with pytest.raises(ConfigError):
        sqrt_hann(511)


def test_frame_count_matches_layout():
    assert frame_count(512) == 1
    assert frame_count(511) == 0
    assert frame_count(512 + 256) == 2
    assert frame_count(512 + 255) == 1
    assert frame_count(16000) == (16000 - 512) // 256 + 1


def test_stft_shapes_and_bins():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.standard_normal(4000) * 0.1)
    spec = stft(buf)
    assert spec.frames.shape == (frame_count(4000), 257)
    assert spec.config.n_processed == 205


def test_stft_rejects_short_signals():
    with pytest.raises(DataError):
        stft(AudioBuffer(np.zeros(511)))


def test_istft_interior_reconstruction():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5000) * 0.3
    rec = istft(stft(AudioBuffer(x)))
    n = len(rec)
    interior = slice(256, n - 256)
    err = np.max(np.abs(rec.samples[interior] - x[:n][interior]))
    assert err < 1e-10


def test_istft_output_length():
    x = np.random.default_rng(2).standard_normal(512 + 3 * 256)
    spec = stft(AudioBuffer(x))
    assert len(istft(spec)) == (spec.n_frames - 1) * 256 + 512


def test_stft_frame_placement():
    # an impulse at sample 600 only touches frames whose span covers it
    x = np.zeros(2048)
    x[600] = 1.0
    spec = stft(AudioBuffer(x))
    energy = np.abs(spec.frames).sum(axis=1)
    covering = [t for t in range(spec.n_frames)
                if t * 256 <= 600 < t * 256 + 512]
    for t in range(spec.n_frames):
        if t in covering:
            assert energy[t] > 0.0
        else:
            assert energy[t] == 0.0


def test_log_magnitude_floor_and_shape():
    x = np.zeros(1024)
    x[100] = 0.5
    feats = log_magnitude(stft(AudioBuffer(x)))
    assert feats.frames.shape[1] == 205
    assert np.all(feats.frames >= np.log(LOG_FLOOR) - 1e-12)


def test_norm_stats_round_trip():
    rng = np.random.default_rng(3)
    mats = [FeatureMatrix(rng.standard_normal((40, 7)) * 3 + 1) for _ in range(3)]
    stats = compute_norm_stats(mats)
    normed = normalize(mats[0], stats)
    back = denormalize(normed)
    np.testing.assert_allclose(back.frames, mats[0].frames, atol=1e-12)
    stacked = np.concatenate([m.frames for m in mats], axis=0)
    np.testing.assert_allclose(stats.mean, stacked.mean(axis=0))


def test_normalize_requires_stats():
    with pytest.raises(ConfigError):
        normalize(FeatureMatrix(np.zeros((2, 2))), None)


def test_norm_stats_reject_zero_std():
    with pytest.raises(ConfigError):
        NormStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))


def test_real_cepstrum_matches_direct_formula():
    rng = np.random.default_rng(4)
    frame = rng.standard_normal(512)
    w = sqrt_hann(512)
    c = real_cepstrum(frame, w)
    spectrum = np.fft.fft(frame * w)
    expected = np.fft.ifft(np.log(np.maximum(np.abs(spectrum), LOG_FLOOR))).real
    np.testing.assert_allclose(c, expected, atol=1e-12)
    assert c.shape == (512,)


def test_real_cepstrum_is_symmetric():
    # log magnitude of a real frame is even, so its cepstrum is too
    frame = np.random.default_rng(5).standard_normal(512)
    c = real_cepstrum(frame)
    np.testing.assert_allclose(c[1:], c[:0:-1], atol=1e-10)


def test_band_limit_passband_and_stopband():
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    mid = AudioBuffer(0.4 * np.sin(2 * np.pi * 1000.0 * t))
    hi = AudioBuffer(0.4 * np.sin(2 * np.pi * 7600.0 * t))
    lo = AudioBuffer(0.4 * np.sin(2 * np.pi * 20.0 * t))
    mid_out = band_limit(mid)
    hi_out = band_limit(hi)
    lo_out = band_limit(lo)
    body = slice(2000, -2000)
    mid_ratio = np.sqrt(np.mean(mid_out.samples[body] ** 2)
                        / np.mean(mid.samples[body] ** 2))
    hi_ratio = np.sqrt(np.mean(hi_out.samples[body] ** 2)
                       / np.mean(hi.samples[body] ** 2))
    lo_ratio = np.sqrt(np.mean(lo_out.samples[body] ** 2)
                       / np.mean(lo.samples[body] ** 2))
    assert abs(mid_ratio - 1.0) < 0.01
    assert hi_ratio < 0.01
    assert lo_ratio < 0.05


def test_band_limit_preserves_length_and_alignment():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(6000) * 0.1
    out = band_limit(AudioBuffer(x))
    assert len(out) == 6000
    # linear phase with delay compensation: a band-limited input passes
    # through nearly unchanged, so alignment error stays tiny
    twice = band_limit(out)
    body = slice(1600, -1600)
    lag = np.argmax(np.correlate(twice.samples[body], out.samples[body], "full"))
    assert lag == len(out.samples[body]) - 1


def test_band_limit_matches_direct_convolution():
    """Overlap-add convolution against the direct full convolution, same
    group-delay crop."""
    from maskpf.dsp import _BAND_LIMIT_EDGES, _BAND_LIMIT_TAPS, _band_limit_filter

    rng = np.random.default_rng(9)
    h = _band_limit_filter(*_BAND_LIMIT_EDGES, _BAND_LIMIT_TAPS)
    delay = (len(h) - 1) // 2
    for n in (100, 1537, 16100):
        x = rng.standard_normal(n) * 0.3
        ref = np.convolve(x, h)[delay : delay + n]
        out = band_limit(AudioBuffer(x)).samples
        assert out.shape == (n,)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


def test_stft_filter_identity_reproduces_every_sample():
    """Noise with full energy up to both edges, lengths off the hop grid."""
    rng = np.random.default_rng(10)
    for n in (300, 513, 1001, 16100):
        x = rng.standard_normal(n) * 0.3
        out = stft_filter(AudioBuffer(x, label="coded"), lambda spec: spec)
        assert out.label == "coded"
        assert out.samples.shape == (n,)
        np.testing.assert_allclose(out.samples, x, rtol=0, atol=1e-9)
    relabeled = stft_filter(AudioBuffer(x), lambda spec: spec, label="enhanced")
    assert relabeled.label == "enhanced"


def test_level_normalize_hits_target():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8192) * 0.01
    out, scale = level_normalize(AudioBuffer(x))
    assert abs(20 * np.log10(active_rms(out.samples)) - (-26.0)) < 1e-9
    np.testing.assert_allclose(out.samples, x * scale)


def test_level_normalize_ignores_silence():
    # half the signal silent: active RMS should come from the loud part
    x = np.zeros(8192)
    x[:4096] = np.random.default_rng(8).standard_normal(4096) * 0.05
    loud_only, _ = level_normalize(AudioBuffer(x[:4096]))
    both, _ = level_normalize(AudioBuffer(x))
    np.testing.assert_allclose(
        both.samples[:4096], loud_only.samples, rtol=1e-10)


def test_level_normalize_rejects_zeros():
    with pytest.raises(DataError):
        level_normalize(AudioBuffer(np.zeros(4096)))


def test_audio_buffer_validation():
    with pytest.raises(DataError):
        AudioBuffer(np.zeros((2, 100)))
    with pytest.raises(DataError):
        AudioBuffer(np.array([0.0, np.nan]))


def test_stft_config_validation():
    with pytest.raises(ConfigError):
        StftConfig(frame_len=512, hop=128, fft_len=512, n_bins=257)
    with pytest.raises(ConfigError):
        StftConfig(frame_len=512, hop=256, fft_len=1024, n_bins=513)


def test_default_config_matches_bandwidth():
    # 205 bins at 31.25 Hz spacing put the processed edge at 6.375 kHz,
    # the last bin strictly below 6.4 kHz
    cfg = DEFAULT_STFT
    bin_hz = SAMPLE_RATE / cfg.fft_len
    assert bin_hz == 31.25
    assert (cfg.n_processed - 1) * bin_hz <= 6400.0 < cfg.n_processed * bin_hz


def test_real_cepstrum_of_a_stack_is_taken_row_by_row():
    frames = np.random.default_rng(6).standard_normal((3, 512))
    stacked = real_cepstrum(frames)
    assert stacked.shape == (3, 512)
    for row, frame in zip(stacked, frames):
        np.testing.assert_allclose(row, real_cepstrum(frame), rtol=0, atol=1e-12)
