"""Shared fixtures: small deterministic corpora and manifest scaffolding.

Expensive artifacts are session-scoped so the suite builds them once.
"""

from __future__ import annotations

import json
import os

import pytest

from maskpf.audio_io import write_wav
from maskpf.degrade import PRESETS, surrogate_code
from maskpf.dsp import AudioBuffer, band_limit, level_normalize
from maskpf.synth import synth_corpus, synth_utterance


@pytest.fixture(scope="session")
def small_corpus() -> list[AudioBuffer]:
    return synth_corpus(4, base_seed=300, duration_s=1.2)


def preprocess(buf: AudioBuffer) -> AudioBuffer:
    out = band_limit(buf)
    out, _ = level_normalize(out)
    return out


@pytest.fixture(scope="session")
def small_pairs(small_corpus) -> list[tuple[AudioBuffer, AudioBuffer]]:
    """Preprocessed clean plus q_low surrogate-coded versions."""
    pairs = []
    for buf in small_corpus:
        clean = preprocess(buf)
        pairs.append((clean, surrogate_code(clean, PRESETS["q_low"])))
    return pairs


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> str:
    """A directory of clean WAVs plus a manifest using surrogate coding.

    Layout: wav/utt00.wav .. utt05.wav, manifest.jsonl with 3 train,
    2 val, 1 test entries, all coded via the q_low preset.
    """
    root = tmp_path_factory.mktemp("corpus")
    wav_dir = root / "wav"
    wav_dir.mkdir()
    splits = ["train", "train", "train", "val", "val", "test"]
    lines = []
    for i, split in enumerate(splits):
        buf = synth_utterance(7000 + i, duration_s=1.0)
        rel = f"wav/utt{i:02d}.wav"
        write_wav(str(root / rel), buf, fmt="float32")
        lines.append({"clean": rel, "coded": "surrogate:q_low", "split": split})
    manifest = root / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return str(root)


@pytest.fixture(scope="session")
def manifest_path(corpus_dir) -> str:
    return os.path.join(corpus_dir, "manifest.jsonl")
