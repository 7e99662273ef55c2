"""WAV file reading and writing at the package's fixed 16 kHz mono format.

Files are touched only at the command-line boundary; everything in between
works on float64 in-memory buffers.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np
from scipy.io import wavfile

from .dsp import SAMPLE_RATE, AudioBuffer
from .errors import DataError


def read_wav(path: str, label: str = "clean") -> AudioBuffer:
    """Load a 16 kHz mono WAV file (PCM16 or float32) as float64 in [-1, 1].

    Any file that is not one whole such WAV with at least one finite
    sample raises DataError naming the path: a header cut short, a data
    chunk shorter than its header declares, or an unsupported format.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such audio file: {path}")
    try:
        with warnings.catch_warnings():
            # scipy reads a file cut off inside its data chunk as a shorter
            # signal and only warns; here that is a truncated file.
            warnings.filterwarnings("error", "Reached EOF prematurely",
                                    wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except (ValueError, struct.error, OSError, wavfile.WavFileWarning) as exc:
        raise DataError(f"unreadable WAV file {path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DataError(f"{path}: unsupported sample format {data.dtype}")
    if samples.size == 0:
        raise DataError(f"{path}: no samples")
    try:
        return AudioBuffer(samples, rate, label=label)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_wav(path: str, buf: AudioBuffer, fmt: str = "pcm16") -> None:
    """Write a buffer as 16 kHz mono WAV, either PCM16 or float32.

    PCM16 output is clipped to [-1, 1) before quantization.
    """
    if buf.sample_rate != SAMPLE_RATE:
        raise DataError(f"expected {SAMPLE_RATE} Hz buffer, got {buf.sample_rate}")
    if fmt == "pcm16":
        clipped = np.clip(buf.samples, -1.0, 32767.0 / 32768.0)
        data = np.round(clipped * 32768.0).astype(np.int16)
    elif fmt == "float32":
        data = buf.samples.astype(np.float32)
    else:
        raise DataError(f"unsupported output format: {fmt}")
    wavfile.write(path, SAMPLE_RATE, data)
