"""Surrogate degrader determinism, alignment, and manifest handling."""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from maskpf.audio_io import write_wav
from maskpf.degrade import (
    PRESETS,
    DegradeProfile,
    ManifestEntry,
    _content_seed,
    align_pair,
    get_profile,
    load_manifest,
    resolve_pair,
    save_manifest,
    split_entries,
    surrogate_code,
)
from maskpf.dsp import AudioBuffer, band_limit, level_normalize, stft
from maskpf.errors import ConfigError, DataError
from maskpf.metrics import log_spectral_distance
from maskpf.synth import synth_utterance


def prepped(seed=70, duration_s=1.0):
    buf = band_limit(synth_utterance(seed=seed, duration_s=duration_s))
    buf, _ = level_normalize(buf)
    return buf


def test_surrogate_is_deterministic_per_content():
    buf = prepped()
    a = surrogate_code(buf, PRESETS["q_mid"])
    b = surrogate_code(buf, PRESETS["q_mid"])
    assert np.array_equal(a.samples, b.samples)


def test_surrogate_differs_across_content_and_preset():
    x = prepped(seed=71)
    y = prepped(seed=72)
    ax = surrogate_code(x, PRESETS["q_mid"])
    ay = surrogate_code(y, PRESETS["q_mid"])
    assert len(ax) != len(ay) or not np.array_equal(ax.samples, ay.samples)
    bx = surrogate_code(x, PRESETS["q_low"])
    assert not np.array_equal(ax.samples, bx.samples)


def test_seed_offsets_do_not_collide_across_presets():
    """The preset seeds are consecutive (101, 102, 103), so adding the
    offset to them would give q_low at offset 1 the jitter of q_mid at
    offset 0. The offset is an entropy word of its own instead; offset 0
    keeps the draws of the preset's seed and the content hash alone."""
    samples = prepped().samples
    low_1 = replace(PRESETS["q_low"], offset=1)
    mid_0 = PRESETS["q_mid"]
    draws = [_content_seed(p, samples).standard_normal(1000)
             for p in (low_1, mid_0, PRESETS["q_low"])]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[0], draws[2])
    digest = zlib.crc32(samples.tobytes())
    own = np.random.default_rng(np.random.SeedSequence([101, digest]))
    assert np.array_equal(draws[2], own.standard_normal(1000))


def test_surrogate_preserves_length_and_exact_zeros():
    """Frames that are entirely silent have zero spectra, and a gain on a
    zero spectrum stays zero. The raw synthetic utterances end in exact
    zeros, so the degraded edges must too."""
    buf = synth_utterance(seed=73, duration_s=1.0)
    coded = surrogate_code(buf, PRESETS["q_low"])
    assert len(coded) == len(buf)
    assert np.all(buf.samples[:64] == 0.0)
    assert np.all(np.abs(coded.samples[:64]) < 1e-12)


def test_surrogate_damage_follows_preset_order():
    """Coarser presets must hurt more, with clear separation."""
    lsds = {}
    for name in ("q_low", "q_mid", "q_high"):
        vals = []
        for seed in (74, 75, 76):
            buf = prepped(seed=seed)
            coded = surrogate_code(buf, PRESETS[name])
            vals.append(log_spectral_distance(buf, coded))
        lsds[name] = float(np.mean(vals))
    assert lsds["q_low"] > lsds["q_mid"] + 0.2
    assert lsds["q_mid"] > lsds["q_high"] + 0.12
    assert lsds["q_high"] > 1.0


def test_surrogate_keeps_phase_structure():
    """The degrader rescales bin magnitudes; bin phases of loud bins move
    far less than a phase-randomizing operation would allow."""
    buf = prepped(seed=77)
    coded = surrogate_code(buf, PRESETS["q_mid"])
    a = stft(buf).frames
    b = stft(coded).frames
    loud = np.abs(a) > np.percentile(np.abs(a), 95)
    dphi = np.angle(b[loud] / a[loud])
    assert np.percentile(np.abs(dphi), 90) < 0.35


def test_profile_validation():
    with pytest.raises(ConfigError):
        DegradeProfile(step_base=0.0, jitter_sigma=0.1)
    with pytest.raises(ConfigError):
        DegradeProfile(step_base=0.5, jitter_sigma=-0.1)
    with pytest.raises(ConfigError):
        DegradeProfile(step_base=0.5, jitter_sigma=0.1, seed=-1)
    with pytest.raises(ConfigError):
        DegradeProfile(step_base=0.5, jitter_sigma=0.1, offset=-1)
    with pytest.raises(ConfigError):
        get_profile("nonsense")


def test_align_pair_recovers_known_shift():
    rng = np.random.default_rng(78)
    clean = AudioBuffer(rng.standard_normal(16000) * 0.1)
    delayed = AudioBuffer(np.concatenate([np.zeros(37), clean.samples]))
    a, b = align_pair(clean, delayed)
    assert len(a) == len(b)
    assert np.allclose(a.samples, b.samples, atol=1e-12)


def test_align_pair_identity_passthrough():
    buf = prepped(seed=79)
    a, b = align_pair(buf, AudioBuffer(buf.samples.copy()))
    assert np.array_equal(a.samples, buf.samples)
    assert np.array_equal(b.samples, buf.samples)


def test_align_pair_warns_on_uncorrelated_noise():
    rng = np.random.default_rng(80)
    a = AudioBuffer(rng.standard_normal(16000) * 0.1)
    b = AudioBuffer(rng.standard_normal(15000) * 0.1)
    with pytest.warns(UserWarning, match="alignment failed"):
        out_a, out_b = align_pair(a, b)
    assert len(out_a) == len(out_b) == 15000
    assert np.array_equal(out_b.samples, b.samples)


def test_segsnr_orders_with_preset_severity():
    from maskpf.metrics import segmental_snr

    snrs = {}
    for name in ("q_low", "q_high"):
        vals = []
        for seed in (74, 75, 76):
            buf = prepped(seed=seed)
            coded = surrogate_code(buf, PRESETS[name])
            vals.append(segmental_snr(buf, coded))
        snrs[name] = float(np.mean(vals))
    assert snrs["q_low"] < snrs["q_high"]


def test_irm_spread_is_two_sided_and_tails_order():
    """Quantization both over- and undershoots, and coarser steps put more
    mass far above 1."""
    from maskpf.mask import compute_irm, mask_histogram

    tails = {}
    for name in ("q_low", "q_high"):
        counts = 0
        for seed in (74, 75):
            buf = prepped(seed=seed)
            coded = surrogate_code(buf, PRESETS[name])
            counts = counts + mask_histogram(compute_irm(stft(buf), stft(coded)))
        h = counts / counts.sum()
        assert h[0] > 0.05
        assert h[1] + h[2] + h[3] > 0.05
        tails[name] = float(h[2] + h[3])
    assert tails["q_low"] > tails["q_high"]


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a.wav", "surrogate:q_mid", "train"),
        ManifestEntry("b.wav", "b_coded.wav", "val"),
        ManifestEntry("c.wav", "surrogate:q_low", "test"),
    ]
    path = str(tmp_path / "m.jsonl")
    save_manifest(path, entries)
    back = load_manifest(path)
    assert back == entries
    assert split_entries(back, "train") == entries[:1]
    assert split_entries(back, "val") == entries[1:2]
    with pytest.raises(ConfigError):
        split_entries(back, "holdout")


def test_manifest_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"clean": "a.wav", "coded": "x.wav"}\n')
    with pytest.raises(DataError):
        load_manifest(str(path))
    path.write_text('{"clean": "a.wav", "coded": "x.wav", "split": "dev"}\n')
    with pytest.raises(DataError):
        load_manifest(str(path))
    path.write_text('{"clean": "a.wav", "coded": "surrogate:zzz", "split": "train"}\n')
    with pytest.raises(DataError):
        load_manifest(str(path))
    path.write_text("not json\n")
    with pytest.raises(DataError):
        load_manifest(str(path))
    path.write_text("\n")
    with pytest.raises(DataError):
        load_manifest(str(path))
    with pytest.raises(DataError):
        load_manifest(str(tmp_path / "missing.jsonl"))


def test_resolve_pair_surrogate_and_seed_offset(tmp_path):
    buf = synth_utterance(seed=80, duration_s=0.8)
    write_wav(str(tmp_path / "u.wav"), buf)
    entry = ManifestEntry("u.wav", "surrogate:q_mid", "train")
    clean, coded = resolve_pair(entry, str(tmp_path))
    assert len(clean) == len(coded)
    again_clean, again_coded = resolve_pair(entry, str(tmp_path))
    assert np.array_equal(coded.samples, again_coded.samples)
    assert np.array_equal(clean.samples, again_clean.samples)


def test_resolve_pair_file_coded_path(tmp_path):
    clean = synth_utterance(seed=81, duration_s=0.8)
    pre = band_limit(clean)
    pre, _ = level_normalize(pre)
    coded = surrogate_code(pre, PRESETS["q_high"])
    delayed = AudioBuffer(np.concatenate([np.zeros(23), coded.samples]))
    write_wav(str(tmp_path / "clean.wav"), clean)
    write_wav(str(tmp_path / "coded.wav"), delayed)
    entry = ManifestEntry("clean.wav", "coded.wav", "test")
    a, b = resolve_pair(entry, str(tmp_path))
    assert len(a) == len(b)
    # alignment should bring the pair close in time despite the injected lag
    lsd = log_spectral_distance(a, b)
    assert lsd < 4.0
