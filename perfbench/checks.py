"""Reference computations the benchmark makes apart from the program.

The framing, log-spectral distance, segmental SNR, loss and band limit
here are written from their definitions with numpy and scipy.signal.firwin;
only the pair resolution and the untrained model come from maskpf, where
the checks say so.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin

SAMPLE_RATE = 16000
FRAME = 512
HOP = 256
BINS = 205
LOG_FLOOR = 1e-12
BAND_EDGES_HZ = (70.0, 7150.0)
BAND_TAPS = 1537
SEG_FRAME = 256


def read_samples(path: str) -> np.ndarray:
    """WAV samples as float64 in [-1, 1), PCM16 or float32."""
    _, data = wavfile.read(path)
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    return data.astype(np.float64)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def magnitudes(x: np.ndarray) -> np.ndarray:
    """|rfft| of sqrt-periodic-Hann 512-sample frames at a 256 hop, 205 bins."""
    window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME) / FRAME))
    n_frames = (len(x) - FRAME) // HOP + 1
    idx = np.arange(n_frames)[:, None] * HOP + np.arange(FRAME)[None, :]
    return np.abs(np.fft.rfft(x[idx] * window, axis=1))[:, :BINS]


def lsd_db(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean over frames of the RMS over bins of the 20*log10 magnitude gap."""
    a = 20.0 * np.log10(np.maximum(magnitudes(ref), LOG_FLOOR))
    b = 20.0 * np.log10(np.maximum(magnitudes(test), LOG_FLOOR))
    return float(np.mean(np.sqrt(np.mean((a - b) ** 2, axis=1))))


def segsnr_db(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean SNR over active 256-sample frames, each clamped to [-10, 35] dB.

    A frame is active when its reference energy exceeds 1e-3 of the peak.
    """
    n = len(ref) // SEG_FRAME * SEG_FRAME
    r = ref[:n].reshape(-1, SEG_FRAME)
    t = test[:n].reshape(-1, SEG_FRAME)
    energy = np.sum(r * r, axis=1)
    active = energy > energy.max() * 1e-3
    noise = np.maximum(np.sum((r - t) ** 2, axis=1), 1e-300)
    snr = 10.0 * np.log10(energy[active] / noise[active])
    return float(np.mean(np.clip(snr, -10.0, 35.0)))


def scored_length(n: int) -> int:
    """Samples an istft of the signal's full frames covers; eval scores these."""
    return ((n - FRAME) // HOP) * HOP + FRAME


def lag_of_peak(ref: np.ndarray, test: np.ndarray) -> int:
    """Lag at which the full cross-correlation of test against ref peaks."""
    n = len(ref) + len(test) - 1
    size = 1 << (n - 1).bit_length()
    xc = np.fft.irfft(np.fft.rfft(test, size) * np.conj(np.fft.rfft(ref, size)), size)
    lag = int(np.argmax(xc))
    return lag if lag < size // 2 else lag - size


def band_limited(x: np.ndarray) -> np.ndarray:
    """The enhancer's 70-7150 Hz linear-phase band limit, delay removed."""
    h = firwin(BAND_TAPS, list(BAND_EDGES_HZ), pass_zero=False, fs=SAMPLE_RATE)
    n = len(x) + len(h) - 1
    size = 1 << (n - 1).bit_length()
    y = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)
    delay = (BAND_TAPS - 1) // 2
    return y[delay:delay + len(x)]


def matches_float32(out: np.ndarray, ref: np.ndarray) -> bool:
    """Every sample equals the reference up to float32 rounding.

    Half a float32 ulp, plus 1e-12 for the difference between two float64
    convolutions of the same filter.
    """
    return (out.shape == ref.shape
            and bool(np.all(np.abs(out - ref) <= np.abs(ref) * 2.0**-24 + 1e-12)))


def logmag_mse(pred: np.ndarray, target: np.ndarray, mags: np.ndarray) -> float:
    """Mean squared gap of the log masked magnitudes, both floored at 1e-12."""
    p = np.log(np.maximum(pred * mags, LOG_FLOOR))
    t = np.log(np.maximum(target * mags, LOG_FLOOR))
    return float(np.mean((p - t) ** 2))
