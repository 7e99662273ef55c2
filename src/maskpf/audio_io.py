"""WAV file reading and writing at the package's fixed 16 kHz mono format.

Files are touched only at the command-line boundary; everything in between
works on float64 in-memory `AudioBuffer`s, which are 16 kHz by
construction. `read_wav` is where other rates are turned away.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .dsp import SAMPLE_RATE, AudioBuffer
from .errors import DataError


# (format tag, bits per sample) of the sample formats `read_wav` loads:
# PCM16, float32 and float64.
_SAMPLE_FORMATS = {(1, 16), (3, 32), (3, 64)}


def read_wav(path: str) -> AudioBuffer:
    """Load a 16 kHz mono WAV file (PCM16, float32 or float64) as float64
    in [-1, 1].

    Any file that is not one whole such WAV with at least one finite
    sample raises DataError naming the path: a header cut short, a data
    chunk shorter than its header declares, or an unsupported format.
    The chunks and their `fmt ` fields are checked before scipy reads the
    samples, so scipy only ever sees a file it reads whole.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such audio file: {path}")
    _check_chunks(path)
    try:
        _, data = wavfile.read(path)
    except (ValueError, struct.error, OSError) as exc:
        raise DataError(f"unreadable WAV file {path}: {exc}") from exc
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    if samples.size == 0:
        raise DataError(f"{path}: no samples")
    try:
        return AudioBuffer(samples)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _check_chunks(path: str) -> None:
    """Walk the chunks of the little-endian RIFF WAVE file at path the way
    `wavfile.read` will, and raise DataError unless the file holds
    every byte its RIFF header declares, every chunk lies inside the file,
    there is a data chunk, each one follows a `fmt ` chunk and holds whole
    samples, and each `fmt ` chunk describes one of `_SAMPLE_FORMATS` at
    16 kHz mono."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise DataError(f"{path}: not a RIFF WAVE file")
        end = struct.unpack("<I", head[4:8])[0] + 8
        if end > size:
            raise DataError(f"{path}: truncated: {size} bytes of the {end} "
                            "its RIFF header declares")
        pos, align, has_data = 12, None, False
        while pos < end:
            fh.seek(pos)
            chunk = fh.read(8)
            if len(chunk) < 8:
                raise DataError(f"{path}: truncated chunk header at byte {pos}")
            name, n = struct.unpack("<4sI", chunk)
            if pos + 8 + n > size:
                raise DataError(f"{path}: {name!r} chunk declares {n} bytes, "
                                f"the file holds {size - pos - 8}")
            if name == b"fmt ":
                align = _check_fmt(path, n, fh.read(16))
            elif name == b"data":
                if align is None or n % align:
                    raise DataError(f"{path}: data chunk of {n} bytes without "
                                    "a fmt chunk before it, or not whole samples")
                has_data = True
            pos += 8 + n + n % 2
    if not has_data:
        raise DataError(f"{path}: no data chunk")


def _check_fmt(path: str, n: int, body: bytes) -> int:
    """The block align of an n-byte `fmt ` chunk whose first bytes are
    body, once its fields describe one of `_SAMPLE_FORMATS` at 16 kHz mono."""
    if n not in (16, 18):
        raise DataError(f"{path}: fmt chunk of {n} bytes, not 16 or 18")
    tag, channels, rate, _, align, bits = struct.unpack("<HHIIHH", body)
    if (tag, bits) not in _SAMPLE_FORMATS:
        raise DataError(f"{path}: unsupported sample format: format tag "
                        f"{tag} with {bits} bits per sample")
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if align != bits // 8:
        raise DataError(f"{path}: block align {align} for {bits}-bit mono samples")
    return align


def write_wav(path: str, buf: AudioBuffer, fmt: str = "pcm16") -> None:
    """Write a buffer as 16 kHz mono WAV, either PCM16 or float32.

    PCM16 output is clipped to [-1, 1) before quantization.
    """
    if fmt == "pcm16":
        clipped = np.clip(buf.samples, -1.0, 32767.0 / 32768.0)
        data = np.round(clipped * 32768.0).astype(np.int16)
    elif fmt == "float32":
        data = buf.samples.astype(np.float32)
    else:
        raise DataError(f"unsupported output format: {fmt}")
    wavfile.write(path, SAMPLE_RATE, data)
