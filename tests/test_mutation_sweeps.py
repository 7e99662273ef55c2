"""Mutation sweeps over the four kinds of file the package reads.

Each sweep starts from a well-formed file and mutates it byte by byte or
field by field:
- every mutated WAV must raise a MaskpfError from `read_wav` or load the
  samples scipy's reader loads;
- every mutated model file must raise DataError from `load_model` or load
  a model whose masks are finite;
- every mutated manifest must raise DataError from `load_manifest` or
  load its lines' strings as they are;
- every mutated `--config` object must raise ConfigError or give each
  flag the value the same text typed after the flag gives it.
Each format also has one child-process CLI case that checks the exit
code and that stderr holds no traceback.
"""

import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

import maskpf
from maskpf.audio_io import read_wav, write_wav
from maskpf.cli import _config_defaults, build_parser
from maskpf.degrade import ManifestEntry, load_manifest
from maskpf.dsp import AudioBuffer, NormStats
from maskpf.errors import ConfigError, DataError, MaskpfError
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


def _scipy_samples(path) -> np.ndarray:
    """The samples `scipy.io.wavfile.read` gives for the file at path, as
    float64 scaled the way `read_wav` scales them."""
    with warnings.catch_warnings():
        # a mutated chunk name makes scipy skip that chunk with a warning
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        _, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    return samples


def test_every_mutated_wav_is_rejected_or_reads_finite(tmp_path):
    """scipy's reader is the reference: every file `read_wav` loads must
    give scipy's samples exactly, and `read_wav` warns on no file."""
    path = tmp_path / "case.wav"
    cases = loaded = 0
    for fmt, data in _source_wavs(tmp_path).items():
        for label, mutated in wav_mutations(data):
            path.write_bytes(mutated)
            cases += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    buf = read_wav(str(path))
                except MaskpfError:
                    buf = None
            assert not caught, (fmt, label, [str(w.message) for w in caught])
            if buf is None:
                continue
            loaded += 1
            assert buf.samples.ndim == 1 and buf.samples.size > 0, (fmt, label)
            assert np.all(np.isfinite(buf.samples)), (fmt, label)
            assert np.array_equal(buf.samples, _scipy_samples(path)), (fmt, label)
    assert cases == 3630
    assert loaded > 0


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """`maskpf argv` in a child process, whose stderr would show a
    traceback."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(maskpf.__file__))}
    return subprocess.run([sys.executable, "-m", "maskpf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_degrade_of_a_mutated_wav_exits_3_without_a_traceback(tmp_path):
    """A PCM16 file whose data chunk declares more bytes than it holds."""
    data = _source_wavs(tmp_path)["pcm16"]
    bad = tmp_path / "bad.wav"
    bad.write_bytes(data[:40] + struct.pack("<I", 0x7FFFFFFF) + data[44:])
    run = run_cli("degrade", "--out-dir", str(tmp_path / "out"),
                  "--preset", "q_low", str(bad))
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


# A surrogate-coded line and a file-coded one; the non-ASCII path puts
# truncations inside a UTF-8 sequence.
MANIFEST_ROWS = (
    {"clean": "wav/\u00fctt00.wav", "coded": "surrogate:q_low", "split": "train"},
    {"clean": "wav/utt01.wav", "coded": "wav/utt01.coded.wav", "split": "test"},
)


def _manifest_bytes(rows) -> bytes:
    return "".join(json.dumps(row, ensure_ascii=False) + "\n"
                   for row in rows).encode()


def manifest_mutations():
    """(label, bytes): the manifest of MANIFEST_ROWS truncated at every byte
    offset, each line replaced by each of JSON_VALUES, and each of
    JSON_VALUES put in each key of each line."""
    data = _manifest_bytes(MANIFEST_ROWS)
    for cut in range(len(data)):
        yield f"cut {cut}", data[:cut]
    for line, row in enumerate(MANIFEST_ROWS):
        for value in JSON_VALUES:
            rows = [*MANIFEST_ROWS[:line], value, *MANIFEST_ROWS[line + 1:]]
            yield f"line {line} = {json.dumps(value)}", _manifest_bytes(rows)
            for key in row:
                rows = list(MANIFEST_ROWS)
                rows[line] = {**row, key: value}
                yield f"line {line} {key} = {json.dumps(value)}", _manifest_bytes(rows)


def test_every_mutated_manifest_is_rejected_or_loads_its_strings(tmp_path):
    path = tmp_path / "manifest.jsonl"
    cases = loaded = 0
    for label, data in manifest_mutations():
        path.write_bytes(data)
        cases += 1
        try:
            entries = load_manifest(str(path))
        except DataError as exc:
            assert str(path) in str(exc), label
            continue
        loaded += 1
        rows = [json.loads(line) for line in data.decode().splitlines()]
        assert entries == [ManifestEntry(**row) for row in rows], label
        assert all(isinstance(value, str) for row in rows
                   for value in row.values()), label
    assert cases == 214  # 150 truncations, 8 values as 2 lines and in 6 keys
    assert loaded > 0


def test_oracle_of_a_mutated_manifest_exits_3_without_a_traceback(tmp_path):
    """A manifest line whose clean path is null."""
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(_manifest_bytes([{**MANIFEST_ROWS[1], "clean": None}]))
    run = run_cli("oracle", "--manifest", str(manifest), "--out-dir",
                  str(tmp_path / "out"), "--split", "test")
    assert run.returncode == 3, run.stderr
    assert "Traceback" not in run.stderr
    assert f"{manifest}:1" in run.stderr


def _optional_flags(command):
    """The actions of a subcommand's optional flags that `--config` may set."""
    return [a for a in command._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "config")]


def _required_argv(command) -> list[str]:
    """Arguments that satisfy a subcommand's required flags and inputs."""
    argv = []
    for action in command._actions:
        if action.required:
            value = sorted(action.choices)[0] if action.choices else "x"
            argv += [*action.option_strings[:1], value]
    return argv


def config_mutations(commands):
    """(label, subcommand name, text): each of JSON_VALUES as the whole
    object, a two-flag object truncated at every offset, and each of
    JSON_VALUES given to each optional flag of each subcommand."""
    for name, command in commands.items():
        for value in JSON_VALUES:
            yield f"{name} = {json.dumps(value)}", name, json.dumps(value)
        text = json.dumps({"jobs": 2, "seed": 5})
        for cut in range(len(text)):
            yield f"{name} cut {cut}", name, text[:cut]
        for action in _optional_flags(command):
            for value in JSON_VALUES:
                yield (f"{name} {action.dest} = {json.dumps(value)}", name,
                       json.dumps({action.dest: value}))


def test_every_mutated_config_is_rejected_or_parses_as_its_flag(tmp_path, capsys):
    """A config value that loads gives its flag the value that the same
    text typed after the flag gives; one the flag refuses is a ConfigError
    (exit 2)."""
    parser, commands = build_parser()
    path = tmp_path / "config.json"
    cases = loaded = 0
    for label, name, text in config_mutations(commands):
        command = commands[name]
        path.write_text(text, encoding="utf-8")
        cases += 1
        try:
            defaults = _config_defaults(command, str(path))
        except ConfigError:
            defaults = None
        loaded += defaults is not None
        try:
            value = json.loads(text)
        except ValueError:
            assert defaults is None, label
            continue
        if not isinstance(value, dict):
            assert defaults is None, label
            continue
        if not value:
            assert defaults == {}, label
        for dest, given in value.items():
            action = {a.dest: a for a in _optional_flags(command)}[dest]
            if action.nargs == 0:
                assert (defaults is None) == (not isinstance(given, bool)), label
                assert defaults is None or defaults[dest] is given, label
                continue
            flag_text = given if isinstance(given, str) else json.dumps(given)
            try:
                args = parser.parse_args([name, *_required_argv(command),
                                          action.option_strings[0], flag_text])
            except SystemExit:
                assert defaults is None, label
                continue
            assert defaults is not None, label
            assert defaults[dest] == getattr(args, dest), label
    capsys.readouterr()
    assert cases == 380  # 6 subcommands x (8 objects + 22 cuts); 8 values x 25 flags
    assert loaded > 0


def test_stats_with_a_mutated_config_exits_2_without_a_traceback(tmp_path):
    """A config object that gives --jobs a list."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jobs": []}), encoding="utf-8")
    run = run_cli("stats", "--manifest", str(tmp_path / "manifest.jsonl"),
                  "--out-dir", str(tmp_path / "out"), "--config", str(config))
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "'jobs'" in run.stderr
