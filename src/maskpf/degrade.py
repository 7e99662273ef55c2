"""Deterministic codec surrogate and dataset pairing.

No actual speech codec ships with the package, so paired training data is
produced by a stand-in degrader that mimics what low-rate coding does to
the spectrum: coarse quantization of log magnitudes, loss of high
frequencies, and level-dependent spectral noise. The degradation operates
as a multiplicative gain on STFT bins, so the phase track and exact zeros
of the input survive, and the output stays sample-aligned with the input.

This module also owns the JSONL manifest format that names clean/coded
pairs and their train/val/test split, and the preprocessing chain applied
to every pair before analysis.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .audio_io import read_wav
from .dsp import (
    LOG_FLOOR,
    SAMPLE_RATE,
    AudioBuffer,
    DEFAULT_STFT,
    Spectrogram,
    StftConfig,
    band_limit,
    level_normalize,
    stft_filter,
)
from .errors import ConfigError, DataError

_TILT_EDGE_HZ = 6400.0


@dataclass(frozen=True)
class DegradeProfile:
    """Knobs of the surrogate degrader.

    step_base    quantization step for the log magnitude (natural-log units)
                 at 0 Hz; the step grows linearly to step_base*(1+step_slope)
                 at the Nyquist bin.
    jitter_sigma standard deviation of the random log-magnitude jitter at
                 0 Hz, scaled by the same frequency growth as the step.
    hf_start_hz  frequency above which deterministic attenuation sets in.
    hf_max       attenuation (natural-log units) reached at the processed-band
                 edge (6.4 kHz) and held constant above it.
    seed         mixed with a hash of the samples so each utterance gets its
                 own reproducible noise.
    """

    name: str
    step_base: float
    step_slope: float
    jitter_sigma: float
    hf_start_hz: float
    hf_max: float
    seed: int = 0

    def __post_init__(self):
        if self.step_base <= 0 or self.step_slope < 0:
            raise ConfigError("step_base must be > 0 and step_slope >= 0")
        if self.jitter_sigma < 0 or self.hf_max < 0:
            raise ConfigError("jitter_sigma and hf_max must be >= 0")
        if not 0 < self.hf_start_hz < SAMPLE_RATE / 2:
            raise ConfigError("hf_start_hz must be inside (0, Nyquist)")


# The three presets form one degradation family. The deterministic
# spectral tilt is identical everywhere, reaches its full depth at the
# processed-band edge, and stays below the ln(2) a mask bounded by 2 can
# undo, so corrections learned at one severity transfer to the others.
# Severity comes from the quantization step and the jitter level alone,
# and both are kept moderate: past a point, extra quantization noise
# pushes the ideal ratio above the mask cap so often that the training
# targets collapse to 1 and the tilt itself stops being learnable.
PRESETS = {
    "q_low": DegradeProfile(
        "q_low", step_base=0.45, step_slope=0.5, jitter_sigma=0.05,
        hf_start_hz=2000.0, hf_max=0.55, seed=101,
    ),
    "q_mid": DegradeProfile(
        "q_mid", step_base=0.28, step_slope=0.5, jitter_sigma=0.04,
        hf_start_hz=2000.0, hf_max=0.55, seed=102,
    ),
    "q_high": DegradeProfile(
        "q_high", step_base=0.15, step_slope=0.5, jitter_sigma=0.02,
        hf_start_hz=2000.0, hf_max=0.55, seed=103,
    ),
}


def get_profile(name: str) -> DegradeProfile:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown degrade preset {name!r}; have {sorted(PRESETS)}"
        )
    return PRESETS[name]


def _content_seed(profile: DegradeProfile, samples: np.ndarray) -> np.random.Generator:
    digest = zlib.crc32(samples.tobytes())
    return np.random.default_rng(np.random.SeedSequence([profile.seed, digest]))


def surrogate_code(buf: AudioBuffer, profile: DegradeProfile,
                   cfg: StftConfig = DEFAULT_STFT) -> AudioBuffer:
    """Apply the surrogate degradation; output matches the input length.

    The coding runs through `stft_filter`, so every real sample sits under
    complete window overlap.
    """
    rng = _content_seed(profile, buf.samples)
    freqs = np.fft.rfftfreq(cfg.fft_len, 1.0 / SAMPLE_RATE)
    growth = 1.0 + profile.step_slope * freqs / freqs[-1]
    step = profile.step_base * growth
    hf_span = max(_TILT_EDGE_HZ - profile.hf_start_hz, 1.0)
    atten = profile.hf_max * np.clip((freqs - profile.hf_start_hz) / hf_span, 0.0, 1.0)

    def code(spec: Spectrogram) -> Spectrogram:
        log_mag = np.log(np.maximum(np.abs(spec.frames), LOG_FLOOR))
        quantized = np.round(log_mag / step) * step
        jitter = rng.standard_normal(log_mag.shape) * (profile.jitter_sigma * growth)
        gain = np.exp(quantized - atten + jitter - log_mag)
        return Spectrogram(spec.frames * gain, cfg)

    return stft_filter(buf, code, cfg, label="coded")


def align_pair(clean: AudioBuffer, coded: AudioBuffer,
               max_lag: int = 2048) -> tuple[AudioBuffer, AudioBuffer]:
    """Time-align a decoded file against its clean original.

    Estimates the lag maximizing cross-correlation within +-max_lag samples,
    shifts the coded signal accordingly, and trims both to the common
    length. Already-aligned pairs pass through unchanged. A pair whose
    best normalized correlation stays below 0.2 is returned unshifted
    with a warning instead of being moved by a spurious peak.
    """
    a = clean.samples
    b = coded.samples
    n = min(len(a), len(b))
    if n < 4 * max_lag:
        max_lag = max(n // 8, 1)
    fft_len = int(2 ** np.ceil(np.log2(n + max_lag)))
    fa = np.fft.rfft(a[:n], fft_len)
    fb = np.fft.rfft(b[:n], fft_len)
    # xcorr[l] = sum_m b[m + l] * a[m], so a coded signal that lags the
    # clean one by d samples peaks at l = +d and is trimmed from the front.
    xcorr = np.fft.irfft(fb * np.conj(fa), fft_len)
    lags = np.concatenate([np.arange(0, max_lag + 1), np.arange(-max_lag, 0)])
    window = np.concatenate([xcorr[: max_lag + 1], xcorr[-max_lag:]])
    scale = np.linalg.norm(a[:n]) * np.linalg.norm(b[:n])
    if scale == 0.0 or window.max() / scale < 0.2:
        warnings.warn("alignment failed: correlation peak below 0.2, "
                      "returning the pair unshifted", stacklevel=2)
        m = min(len(a), len(b))
        return (AudioBuffer(a[:m], label=clean.label),
                AudioBuffer(b[:m], label=coded.label))
    lag = int(lags[np.argmax(window)])
    if lag >= 0:
        b_shift = b[lag:]
        a_shift = a
    else:
        b_shift = b
        a_shift = a[-lag:]
    m = min(len(a_shift), len(b_shift))
    return (AudioBuffer(a_shift[:m], label=clean.label),
            AudioBuffer(b_shift[:m], label=coded.label))


SPLITS = ("train", "val", "test")
SURROGATE_PREFIX = "surrogate:"


@dataclass(frozen=True)
class ManifestEntry:
    """One utterance pair. `coded` is a WAV path or "surrogate:<preset>"."""

    clean: str
    coded: str
    split: str

    def uses_surrogate(self) -> bool:
        return self.coded.startswith(SURROGATE_PREFIX)

    def surrogate_preset(self) -> str:
        return self.coded[len(SURROGATE_PREFIX):]


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a JSONL manifest; every line is one clean/coded pair."""
    if not os.path.isfile(path):
        raise DataError(f"no such manifest: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    entries = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, "
                            f"got {type(row).__name__}")
        missing = {"clean", "coded", "split"} - set(row)
        if missing:
            raise DataError(f"{path}:{lineno}: missing keys {sorted(missing)}")
        if row["split"] not in SPLITS:
            raise DataError(
                f"{path}:{lineno}: split must be one of {SPLITS}, "
                f"got {row['split']!r}"
            )
        entry = ManifestEntry(str(row["clean"]), str(row["coded"]),
                              str(row["split"]))
        if entry.uses_surrogate():
            try:
                get_profile(entry.surrogate_preset())
            except ConfigError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
        entries.append(entry)
    if not entries:
        raise DataError(f"{path}: manifest is empty")
    return entries


def save_manifest(path: str, entries: list[ManifestEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(
                {"clean": e.clean, "coded": e.coded, "split": e.split}) + "\n")


def split_entries(entries: list[ManifestEntry], split: str) -> list[ManifestEntry]:
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}")
    return [e for e in entries if e.split == split]


def load_clean(path: str) -> AudioBuffer:
    """Read a clean WAV, band-limit it to the speech band and scale it to
    the standard active level: the input of every surrogate coding."""
    clean = band_limit(read_wav(path, label="clean"))
    clean, _ = level_normalize(clean)
    return clean


def resolve_pair(entry: ManifestEntry,
                 manifest_dir: str) -> tuple[AudioBuffer, AudioBuffer]:
    """Load and preprocess one manifest pair.

    The clean side goes through `load_clean`. A surrogate coded side is
    generated from that preprocessed clean signal; a file-based coded side
    is band-limited and cross-correlation aligned instead. Both sides come
    back equal length.
    """
    clean = load_clean(os.path.join(manifest_dir, entry.clean))
    if entry.uses_surrogate():
        profile = get_profile(entry.surrogate_preset())
        return clean, surrogate_code(clean, profile)
    coded = read_wav(os.path.join(manifest_dir, entry.coded), label="coded")
    return align_pair(clean, band_limit(coded))
