"""Mutation sweeps over the two binary files the package reads.

Each sweep starts from a file the package wrote and mutates it byte by
byte or field by field. Every mutated WAV must raise a MaskpfError from
`read_wav` or load as a finite mono signal; every mutated model file must
raise DataError from `load_model` or load a model whose masks are finite.
"""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import maskpf
from maskpf.audio_io import read_wav, write_wav
from maskpf.dsp import AudioBuffer, NormStats
from maskpf.errors import DataError, MaskpfError
from maskpf.nn.io import MAGIC, load_model, save_model
from maskpf.nn.models import N_BINS, build_model
from maskpf.nn.train import TrainConfig

BYTE_VALUES = (0x00, 0x01, 0x7F, 0x80, 0xFF)
WORD_VALUES = (0, 1, 0x7FFFFFFF, 0xFFFFFFFF)
JSON_VALUES = (None, True, 0, -1, 1.5, "x", [], {})


def _source_wavs(tmp_path) -> dict[str, bytes]:
    """A 400-sample PCM16 file and a float32 file, as `write_wav` writes
    them, of noise with energy at both ends."""
    samples = np.random.default_rng(170).uniform(-0.9, 0.9, 400)
    out = {}
    for fmt in ("pcm16", "float32"):
        path = tmp_path / f"source.{fmt}.wav"
        write_wav(str(path), AudioBuffer(samples), fmt=fmt)
        out[fmt] = path.read_bytes()
    return out


def wav_mutations(data: bytes):
    """(label, bytes): data truncated at every offset; each of its first 64
    bytes set to each of BYTE_VALUES; each 4-byte window that starts in its
    first 61 bytes set to each of WORD_VALUES, little-endian."""
    for cut in range(len(data)):
        yield f"cut {cut}", data[:cut]
    for at in range(64):
        for value in BYTE_VALUES:
            yield f"byte {at} = {value:#x}", data[:at] + bytes([value]) + data[at + 1:]
    for at in range(61):
        for value in WORD_VALUES:
            yield (f"word {at} = {value:#x}",
                   data[:at] + struct.pack("<I", value) + data[at + 4:])


# A mutated chunk name makes scipy skip that chunk with a warning.
@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
def test_every_mutated_wav_is_rejected_or_reads_finite(tmp_path):
    path = tmp_path / "case.wav"
    cases = 0
    for fmt, data in _source_wavs(tmp_path).items():
        for label, mutated in wav_mutations(data):
            path.write_bytes(mutated)
            cases += 1
            try:
                buf = read_wav(str(path))
            except MaskpfError:
                continue
            assert buf.samples.ndim == 1 and buf.samples.size > 0, (fmt, label)
            assert np.all(np.isfinite(buf.samples)), (fmt, label)
    assert cases == 3630


def test_degrade_of_a_mutated_wav_exits_3_without_a_traceback(tmp_path):
    """A child process, whose stderr would show a traceback, on a PCM16
    file whose data chunk declares more bytes than it holds."""
    data = _source_wavs(tmp_path)["pcm16"]
    bad = tmp_path / "bad.wav"
    bad.write_bytes(data[:40] + struct.pack("<I", 0x7FFFFFFF) + data[44:])
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(maskpf.__file__))}
    run = subprocess.run(
        [sys.executable, "-m", "maskpf.cli", "degrade", "--out-dir",
         str(tmp_path / "out"), "--preset", "q_low", str(bad)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr
    assert str(bad) in run.stderr


@pytest.fixture(scope="module")
def ced_file(tmp_path_factory) -> bytes:
    """A float32 ced model file as `save_model` writes it."""
    rng = np.random.default_rng(171)
    path = tmp_path_factory.mktemp("model") / "ced.mpf1"
    stats = NormStats(rng.standard_normal(N_BINS), rng.uniform(0.5, 2.0, N_BINS))
    save_model(str(path), build_model("ced", seed=31, dtype=np.float32), stats,
               TrainConfig(kind="ced", seed=31))
    return path.read_bytes()


def _split(raw: bytes) -> tuple[dict, bytes]:
    """The parsed header and the payload of a model file."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :]


def _join(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


def _paths(node, prefix=()):
    """The path (keys and indices) of every value inside a JSON value."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _substituted(header: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(header))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def model_mutations(raw: bytes):
    """(label, bytes): raw truncated at every offset through its header and
    the first 16 payload bytes, then at every 4093rd byte; and each of
    JSON_VALUES put in place of each value in its header, the fields of
    `train_config` and every tensor entry and its fields included."""
    header, payload = _split(raw)
    end = len(raw) - len(payload) + 16
    for cut in [*range(end + 1), *range(end + 1, len(raw), 4093)]:
        yield f"cut {cut}", raw[:cut]
    for path in _paths(header):
        for value in JSON_VALUES:
            yield (f"{'.'.join(map(str, path))} = {json.dumps(value)}",
                   _join(_substituted(header, path, value), payload))


def test_every_mutated_model_file_is_rejected_or_infers_finite(tmp_path, ced_file):
    frames = np.random.default_rng(172).standard_normal((40, N_BINS))
    path = tmp_path / "case.mpf1"
    cases = loaded = 0
    for label, mutated in model_mutations(ced_file):
        path.write_bytes(mutated)
        cases += 1
        try:
            model, stats, _ = load_model(str(path))
        except DataError:
            continue
        loaded += 1
        assert np.all(np.isfinite(model.infer(frames))), label
        assert np.all(np.isfinite(stats.mean)) and np.all(stats.std > 0), label
    assert cases == 4338  # 2338 truncations, 8 values into 250 header values
    assert loaded > 0  # values a field accepts load as they should
