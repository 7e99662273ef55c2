"""Objective quality measures: log-spectral distance over the processed
band and segmental SNR with the usual frame clamp.

Both metrics take the reference first and the signal under test second.
"""

from __future__ import annotations

import numpy as np

from .dsp import LOG_FLOOR, AudioBuffer, stft
from .errors import DataError

SEGSNR_FRAME_LEN = 256
SEGSNR_MIN_DB = -10.0
SEGSNR_MAX_DB = 35.0


def lsd_from_mags(test_mags: np.ndarray, ref_mags: np.ndarray) -> float:
    """Log-spectral distance (dB) between two magnitude matrices.

    Per frame: the RMS over bins of the difference of the 20*log10
    magnitudes (each floored at LOG_FLOOR before the log); the result is the
    mean over frames.
    """
    test_mags = np.asarray(test_mags, dtype=np.float64)
    ref_mags = np.asarray(ref_mags, dtype=np.float64)
    if test_mags.shape != ref_mags.shape or test_mags.ndim != 2:
        raise DataError("magnitude matrices must be 2-D and the same shape")
    ref_db = 20.0 * np.log10(np.maximum(ref_mags, LOG_FLOOR))
    test_db = 20.0 * np.log10(np.maximum(test_mags, LOG_FLOOR))
    per_frame = np.sqrt(np.mean((ref_db - test_db) ** 2, axis=1))
    return float(np.mean(per_frame))


def log_spectral_distance(reference: AudioBuffer, test: AudioBuffer) -> float:
    """Log-spectral distance between two signals over the processed bins.

    Both signals are analyzed with the standard 32 ms / 50% framing; they
    must yield the same frame count (trim beforehand if needed).
    """
    ref_spec = stft(reference)
    test_spec = stft(test)
    if ref_spec.n_frames != test_spec.n_frames:
        raise DataError(
            f"frame count mismatch: {ref_spec.n_frames} vs {test_spec.n_frames}"
        )
    return lsd_from_mags(test_spec.magnitudes(), ref_spec.magnitudes())


def segmental_snr(reference: AudioBuffer, test: AudioBuffer) -> float:
    """Mean per-frame SNR (dB), clamped to [-10, 35], over active frames.

    Frames are non-overlapping, SEGSNR_FRAME_LEN samples long; a frame is
    active when the reference energy is within 30 dB of the peak reference
    frame energy. The trailing partial frame is dropped.
    """
    if len(reference) != len(test):
        raise DataError(
            f"length mismatch: reference {len(reference)}, test {len(test)}"
        )
    n = len(reference) // SEGSNR_FRAME_LEN * SEGSNR_FRAME_LEN
    if n < 1:
        raise DataError("signals shorter than one metric frame")
    ref = reference.samples[:n].reshape(-1, SEGSNR_FRAME_LEN)
    tst = test.samples[:n].reshape(-1, SEGSNR_FRAME_LEN)
    ref_energy = np.sum(ref**2, axis=1)
    peak = ref_energy.max()
    if peak <= 0.0:
        raise DataError("reference is all zeros")
    active = ref_energy > peak * 1e-3
    noise_energy = np.sum((ref - tst) ** 2, axis=1)
    snr_db = 10.0 * np.log10(
        ref_energy[active] / np.maximum(noise_energy[active], 1e-300)
    )
    return float(np.mean(np.clip(snr_db, SEGSNR_MIN_DB, SEGSNR_MAX_DB)))
