"""Deterministic speech-like test signals.

Real recordings are not part of the package, so tests and the demo tooling
build utterances from seeded harmonic voicing, noise bursts, and slow
formant-style spectral coloring. The generator is pure: one seed, one
signal, bit-identical across runs and platforms that share IEEE doubles.
"""

from __future__ import annotations

import numpy as np

from .dsp import SAMPLE_RATE, AudioBuffer

BODY_FLOOR_DB = -55.0
EDGE_SILENCE = 512


def _glide(rng: np.random.Generator, n: int, lo: float, hi: float, knots: int) -> np.ndarray:
    """Smooth random trajectory in [lo, hi] from a handful of spline knots."""
    pts = rng.uniform(lo, hi, size=knots)
    x = np.linspace(0.0, 1.0, knots)
    return np.interp(np.linspace(0.0, 1.0, n), x, pts)


def _voiced_segment(rng: np.random.Generator, n: int) -> np.ndarray:
    """Harmonic stack with drifting pitch and two moving resonance peaks."""
    t = np.arange(n) / SAMPLE_RATE
    f0 = _glide(rng, n, 95.0, 220.0, 4)
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    formant1 = _glide(rng, n, 350.0, 900.0, 3)
    formant2 = _glide(rng, n, 1200.0, 2600.0, 3)
    seg = np.zeros(n)
    base = float(f0.mean())
    n_harm = int(6800.0 / base)
    for k in range(1, n_harm + 1):
        freq = k * base
        weight = 1.0 / k
        weight *= 1.0 + 2.0 * np.exp(-0.5 * ((freq - formant1) / 220.0) ** 2)
        weight *= 1.0 + 1.2 * np.exp(-0.5 * ((freq - formant2) / 350.0) ** 2)
        weight *= np.exp(-freq / 4000.0)
        seg += weight * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    envelope = np.sin(np.linspace(0.0, np.pi, n)) ** 0.5
    return seg * envelope * (0.25 / np.max(np.abs(seg)))


def _unvoiced_segment(rng: np.random.Generator, n: int) -> np.ndarray:
    """High-passed noise burst, like a fricative."""
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    spectrum *= np.clip((freqs - 1500.0) / 2500.0, 0.05, 1.0)
    seg = np.fft.irfft(spectrum, n)
    envelope = np.sin(np.linspace(0.0, np.pi, n)) ** 2
    seg = seg * envelope
    return seg * (0.08 / np.max(np.abs(seg)))


def synth_utterance(seed: int, duration_s: float = 2.0) -> AudioBuffer:
    """One deterministic utterance: alternating voiced/unvoiced stretches
    over a faint faded noise floor, with exactly silent lead-in and tail.

    The floor (about -55 dB) keeps spectral valleys off the log floor so
    spectral metrics stay informative; the silent edges exercise zero
    handling in the rest of the pipeline.
    """
    rng = np.random.default_rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    body_len = n - 2 * EDGE_SILENCE
    if body_len < SAMPLE_RATE // 4:
        raise ValueError("duration too short for a body between silent edges")

    body = np.zeros(body_len)
    pos = 0
    voiced = True
    while pos < body_len:
        seg_len = int(rng.uniform(0.12, 0.30) * SAMPLE_RATE)
        seg_len = min(seg_len, body_len - pos)
        if seg_len < 64:
            break
        seg = _voiced_segment(rng, seg_len) if voiced else _unvoiced_segment(rng, seg_len)
        body[pos : pos + seg_len] += seg
        pos += seg_len
        voiced = not voiced

    floor = rng.standard_normal(body_len) * 10.0 ** (BODY_FLOOR_DB / 20.0)
    fade = min(256, body_len // 4)
    ramp = np.ones(body_len)
    ramp[:fade] = np.linspace(0.0, 1.0, fade)
    ramp[-fade:] = np.linspace(1.0, 0.0, fade)
    body += floor * ramp

    out = np.zeros(n)
    out[EDGE_SILENCE : EDGE_SILENCE + body_len] = body
    return AudioBuffer(out)


def synth_corpus(n_utterances: int, base_seed: int = 1000, duration_s: float = 2.0) -> list[AudioBuffer]:
    """A list of independent utterances with consecutive seeds."""
    return [synth_utterance(base_seed + i, duration_s) for i in range(n_utterances)]
