"""WAV file reading and writing at the package's fixed 16 kHz mono format.

Files are touched only at the command-line boundary; everything in between
works on float64 in-memory `AudioBuffer`s, which are 16 kHz by
construction. `read_wav` is where other rates are turned away.

Both directions use `struct` for the RIFF header and numpy for the
samples. The reader walks every chunk and checks every `fmt ` field
before it reads a sample; it returns the samples `scipy.io.wavfile.read`
would. The writer writes the bytes `scipy.io.wavfile.write` would: a
44-byte header for PCM16, and an 18-byte `fmt ` chunk plus a `fact` chunk
for float32.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .dsp import SAMPLE_RATE, AudioBuffer
from .errors import DataError


# The little-endian sample type of each (format tag, bits per sample) that
# `read_wav` loads: PCM16, float32 and float64.
_SAMPLE_FORMATS = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4"),
                   (3, 64): np.dtype("<f8")}


def read_wav(path: str) -> AudioBuffer:
    """Load a 16 kHz mono WAV file (PCM16, float32 or float64) as float64
    in [-1, 1].

    Any file that is not one whole such WAV with at least one finite
    sample raises DataError naming the path: a header cut short, a data
    chunk shorter than its header declares, or an unsupported format.
    """
    if not os.path.isfile(path):
        raise DataError(f"no such audio file: {path}")
    try:
        with open(path, "rb") as fh:
            offset, count, dtype = _data_chunk(path, fh)
            fh.seek(offset)
            data = np.fromfile(fh, dtype=dtype, count=count)
    except OSError as exc:
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


def _data_chunk(path: str, fh) -> tuple[int, int, np.dtype]:
    """The byte offset, sample count and sample type of the samples in the
    little-endian RIFF WAVE file open as fh: those of its last data chunk,
    read with the `fmt ` chunk before it.

    Raises DataError unless the file holds every byte its RIFF header
    declares, every chunk lies inside the file, there is a data chunk, each
    one follows a `fmt ` chunk and holds whole samples, and each `fmt `
    chunk describes one of `_SAMPLE_FORMATS` at 16 kHz mono."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise DataError(f"{path}: not a RIFF WAVE file")
    end = struct.unpack("<I", head[4:8])[0] + 8
    if end > size:
        raise DataError(f"{path}: truncated: {size} bytes of the {end} "
                        "its RIFF header declares")
    pos, dtype, data = 12, None, None
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
            dtype = _check_fmt(path, n, fh.read(16))
        elif name == b"data":
            if dtype is None or n % dtype.itemsize:
                raise DataError(f"{path}: data chunk of {n} bytes without "
                                "a fmt chunk before it, or not whole samples")
            data = (pos + 8, n // dtype.itemsize, dtype)
        pos += 8 + n + n % 2
    if data is None:
        raise DataError(f"{path}: no data chunk")
    return data


def _check_fmt(path: str, n: int, body: bytes) -> np.dtype:
    """The sample type of an n-byte `fmt ` chunk whose first bytes are
    body, once its fields describe one of `_SAMPLE_FORMATS` at 16 kHz mono."""
    if n not in (16, 18):
        raise DataError(f"{path}: fmt chunk of {n} bytes, not 16 or 18")
    tag, channels, rate, byte_rate, align, bits = struct.unpack("<HHIIHH", body)
    if (tag, bits) not in _SAMPLE_FORMATS:
        raise DataError(f"{path}: unsupported sample format: format tag "
                        f"{tag} with {bits} bits per sample")
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if align != bits // 8 or byte_rate != rate * align:
        raise DataError(f"{path}: block align {align} and byte rate "
                        f"{byte_rate} for {bits}-bit mono samples at {rate} Hz")
    return _SAMPLE_FORMATS[tag, bits]


def write_wav(path: str, buf: AudioBuffer, fmt: str = "pcm16") -> None:
    """Write a buffer as 16 kHz mono WAV, either PCM16 or float32.

    PCM16 output is clipped to [-1, 1) before quantization. A float32 file
    carries the `fmt ` extension size field and the `fact` chunk (its
    sample count) that non-PCM WAV files have.
    """
    if fmt == "pcm16":
        clipped = np.clip(buf.samples, -1.0, 32767.0 / 32768.0)
        data, tag = np.round(clipped * 32768.0).astype("<i2"), 1
    elif fmt == "float32":
        data, tag = buf.samples.astype("<f4"), 3
    else:
        raise DataError(f"unsupported output format: {fmt}")
    align = data.itemsize
    fmt_body = struct.pack("<HHIIHH", tag, 1, SAMPLE_RATE, SAMPLE_RATE * align,
                           align, 8 * align)
    fact = b""
    if tag == 3:
        fmt_body += b"\0\0"
        fact = b"fact" + struct.pack("<II", 4, len(data))
    chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
              + fact + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(chunks) + data.nbytes) + chunks)
        data.tofile(fh)
