"""Mask algebra: ratio targets, bounding, histograms, cepstral oracle."""

import numpy as np
import pytest

from maskpf.dsp import (
    FRAME_LEN,
    LOG_FLOOR,
    N_PROCESSED,
    AudioBuffer,
    Spectrogram,
    analysis_frames,
    analysis_window,
    stft,
)
from maskpf.errors import ConfigError, DataError
from maskpf.mask import (
    CEPSTRUM_CUTOFF,
    HISTOGRAM_LABELS,
    MAG_GUARD,
    MaskMatrix,
    apply_mask,
    bound_mask,
    compute_irm,
    envelope_mask,
    mask_histogram,
    modified_mask,
    oracle_cepstrum_substitute,
    oracle_sweep,
)
from maskpf.synth import synth_utterance


def random_spec(rng, t_count=12):
    shape = (t_count, FRAME_LEN // 2 + 1)
    return Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_irm_recovers_clean_exactly_through_its_guard():
    rng = np.random.default_rng(41)
    clean = random_spec(rng)
    coded = random_spec(rng)
    irm = compute_irm(clean, coded)
    recovered = irm.values * (coded.magnitudes() + MAG_GUARD)
    assert np.allclose(recovered, clean.magnitudes(), rtol=1e-12, atol=0)


def test_irm_guard_shifts_denominator():
    rng = np.random.default_rng(42)
    clean = random_spec(rng)
    coded = random_spec(rng)
    irm = compute_irm(clean, coded)
    expect = clean.magnitudes() / (coded.magnitudes() + MAG_GUARD)
    assert np.array_equal(irm.values, expect)


def test_irm_rejects_frame_mismatch():
    rng = np.random.default_rng(43)
    with pytest.raises(DataError):
        compute_irm(random_spec(rng, 10), random_spec(rng, 11))


def test_bound_mask_caps_and_inf_is_identity():
    rng = np.random.default_rng(44)
    mask = MaskMatrix(rng.uniform(0, 8, (6, 205)))
    capped = bound_mask(mask, 2.0)
    assert capped.values.max() <= 2.0
    below = mask.values <= 2.0
    assert np.array_equal(capped.values[below], mask.values[below])
    assert np.array_equal(bound_mask(mask, np.inf).values, mask.values)
    with pytest.raises(ConfigError):
        bound_mask(mask, 0.0)


def test_modified_mask_replaces_only_above_threshold():
    values = np.array([[0.0, 0.5, 2.0, 2.0000001, 7.0]])
    out = modified_mask(MaskMatrix(values))
    assert np.array_equal(out.values, [[0.0, 0.5, 2.0, 1.0, 1.0]])


def test_apply_mask_leaves_upper_band_and_phase_alone():
    rng = np.random.default_rng(46)
    spec = random_spec(rng, 9)
    n = N_PROCESSED
    mask = MaskMatrix(rng.uniform(0.2, 1.8, (9, n)))
    out = apply_mask(spec, mask)
    assert np.array_equal(out.frames[:, n:], spec.frames[:, n:])
    assert np.allclose(np.abs(out.frames[:, :n]), mask.values * np.abs(spec.frames[:, :n]))
    assert np.allclose(np.angle(out.frames[:, :n]), np.angle(spec.frames[:, :n]))
    # the input spectrogram must not be written through
    assert not np.shares_memory(out.frames, spec.frames)


def test_apply_mask_shape_mismatch():
    rng = np.random.default_rng(47)
    spec = random_spec(rng, 9)
    with pytest.raises(DataError):
        apply_mask(spec, MaskMatrix(np.ones((9, 10))))


def test_resynthesis_keeps_gain_out_of_the_passthrough_band():
    """After masking, synthesis, and re-analysis, the processed band carries
    the full gain while the 6.4 to 7 kHz band only picks up the small
    leakage a masked (hence inconsistent) spectrogram creates. An identity
    mask reconstructs the band exactly."""
    from maskpf.dsp import istft

    buf = synth_utterance(88, duration_s=1.5)
    spec = stft(buf)
    n = N_PROCESSED
    gain = 1.7

    def band_ratios(mask_values):
        out = stft(istft(apply_mask(spec, MaskMatrix(mask_values))))
        t = min(out.n_frames, spec.n_frames)
        lo = slice(0, n)
        hi = slice(n, 225)
        ratios = []
        for band in (lo, hi):
            e_in = (np.abs(spec.frames[1:t - 1, band]) ** 2).sum()
            e_out = (np.abs(out.frames[1:t - 1, band]) ** 2).sum()
            ratios.append(e_out / e_in)
        return ratios

    lo_ratio, hi_ratio = band_ratios(np.full((spec.n_frames, n), gain))
    assert abs(lo_ratio - gain**2) < 0.02 * gain**2
    assert abs(hi_ratio - 1.0) < 0.05
    lo_id, hi_id = band_ratios(np.ones((spec.n_frames, n)))
    assert abs(lo_id - 1.0) < 1e-12
    assert abs(hi_id - 1.0) < 1e-12


def test_mask_matrix_validation():
    with pytest.raises(DataError):
        MaskMatrix(np.ones(5))
    with pytest.raises(DataError):
        MaskMatrix(np.array([[1.0, -0.1]]))
    with pytest.raises(DataError):
        MaskMatrix(np.array([[1.0, np.nan]]))


def test_histogram_bucket_edges():
    """Boundary gains land in the lower bucket: [0,1], (1,2], (2,5], (5,inf)."""
    mask = MaskMatrix(np.array([[0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 5.1, 80.0]]))
    hist = mask_histogram([mask])
    assert hist.total == 8
    assert hist.counts.tolist() == [2, 2, 2, 2]
    assert abs(hist.fractions.sum() - 1.0) < 1e-15
    assert [r[0] for r in hist.rows()] == list(HISTOGRAM_LABELS)


def test_histogram_pools_multiple_matrices():
    a = MaskMatrix(np.full((3, 4), 0.5))
    b = MaskMatrix(np.full((2, 4), 3.0))
    hist = mask_histogram([a, b])
    assert hist.total == 20
    assert hist.counts.tolist() == [12, 0, 8, 0]
    with pytest.raises(DataError):
        mask_histogram([])


def test_identity_pair_mass_sits_in_first_bucket():
    buf = synth_utterance(seed=9, duration_s=0.8)
    spec = stft(buf)
    irm = compute_irm(spec, spec)
    hist = mask_histogram([irm])
    assert hist.fractions[0] == 1.0
    assert irm.values.max() <= 1.0


def test_oracle_sweep_non_increasing_and_zero_at_inf():
    buf = synth_utterance(seed=10, duration_s=1.0)
    rng = np.random.default_rng(10)
    clean = stft(buf)
    noisy = Spectrogram(
        clean.frames * np.exp(0.3 * rng.standard_normal(clean.frames.shape)))
    rows = oracle_sweep(clean, noisy, bounds=(1.0, 2.0, 4.0, 10.0, np.inf))
    dists = [d for _, d in rows]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.01
    assert dists[0] > dists[1]


def test_cepstrum_substitute_identity_preserves_spectrum():
    """Swapping an envelope with itself reproduces the windowed magnitudes."""
    rng = np.random.default_rng(11)
    spectrum = np.fft.rfft(rng.standard_normal(FRAME_LEN) * analysis_window())
    mags = oracle_cepstrum_substitute(spectrum, spectrum)
    direct = np.abs(spectrum)
    above = direct > 1e-6
    assert np.allclose(mags[above], direct[above], rtol=1e-9)


def test_cepstrum_substitute_moves_envelope_toward_clean():
    from maskpf.metrics import lsd_from_mags

    rng = np.random.default_rng(12)
    n = FRAME_LEN
    t = np.arange(n)
    clean_frame = np.sin(2 * np.pi * 220 * t / 16000) * np.hanning(n)
    coded_frame = clean_frame * 0.5 + 0.2 * rng.standard_normal(n)
    clean_spectrum = np.fft.rfft(clean_frame * analysis_window())
    coded_spectrum = np.fft.rfft(coded_frame * analysis_window())
    clean_mags = np.abs(clean_spectrum)[None, :]
    coded_mags = np.abs(coded_spectrum)[None, :]
    swapped = oracle_cepstrum_substitute(clean_spectrum, coded_spectrum)[None, :]
    assert lsd_from_mags(swapped, clean_mags) < lsd_from_mags(coded_mags, clean_mags)


def test_envelope_mask_identity_is_near_unity():
    buf = synth_utterance(seed=14, duration_s=0.6)
    spec = stft(buf)
    mask = envelope_mask(spec, spec)
    mags = spec.magnitudes()
    loud = mags > 1e-4
    assert np.allclose(mask.values[loud], 1.0, atol=1e-6)


def _coded_pair_with_energy_at_both_edges():
    from maskpf.degrade import PRESETS, surrogate_code

    buf = synth_utterance(seed=15, duration_s=1.2)
    rng = np.random.default_rng(15)
    clean = AudioBuffer(buf.samples + 0.01 * rng.standard_normal(len(buf)))
    coded = surrogate_code(clean, PRESETS["q_low"])
    coded_td = analysis_frames(coded.samples)
    assert np.all(np.abs(coded_td).max(axis=1) > 1e-3)  # every frame has energy
    return clean, coded


def test_envelope_mask_matches_the_per_frame_substitution():
    """The batched mask against a loop of per-frame substitutions."""
    clean, coded = _coded_pair_with_energy_at_both_edges()
    clean_spec, coded_spec = stft(clean), stft(coded)
    mask = envelope_mask(clean_spec, coded_spec)
    ref = np.array([oracle_cepstrum_substitute(a, b)[:N_PROCESSED]
                    for a, b in zip(clean_spec.frames, coded_spec.frames)])
    ref /= coded_spec.magnitudes() + 1e-9
    assert mask.shape == ref.shape == (coded_spec.n_frames, N_PROCESSED)
    np.testing.assert_allclose(mask.values, ref, rtol=0, atol=1e-12)


def test_envelope_mask_matches_the_time_domain_oracle():
    """The mask from the two spectrograms equals, bit for bit, the oracle
    computed from the raw frames of both signals: window, real FFT, log
    magnitude, inverse real FFT, envelope merge, real FFT, exp."""
    clean, coded = _coded_pair_with_energy_at_both_edges()
    cepstra = []
    for buf in (clean, coded):
        spectra = np.fft.rfft(analysis_frames(buf.samples) * analysis_window(),
                              axis=-1)
        log_mag = np.log(np.maximum(np.abs(spectra), LOG_FLOOR))
        cepstra.append(np.fft.irfft(log_mag, n=FRAME_LEN, axis=-1))
    merged = cepstra[1]
    quefrencies = np.r_[0:CEPSTRUM_CUTOFF, FRAME_LEN - CEPSTRUM_CUTOFF + 1:FRAME_LEN]
    merged[:, quefrencies] = cepstra[0][:, quefrencies]
    mags = np.exp(np.fft.rfft(merged, axis=-1).real)
    coded_spec = stft(coded)
    ref = mags[:, :N_PROCESSED] / (coded_spec.magnitudes() + 1e-9)
    assert np.array_equal(envelope_mask(stft(clean), coded_spec).values, ref)


def test_envelope_mask_rejects_misaligned_frames():
    buf = synth_utterance(seed=16, duration_s=0.5)
    spec = stft(buf)
    shorter = Spectrogram(spec.frames[:-1])
    with pytest.raises(DataError):
        envelope_mask(spec, shorter)
    with pytest.raises(DataError):
        envelope_mask(shorter, spec)
