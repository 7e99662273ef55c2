"""Seeded inputs of the two workloads and the seed-independent probes.

long_utts    three synthetic utterances of 10 s (train 1, val 1, test 1)
             with the silent 512-sample lead-in and tail of maskpf.synth.
             The manifest codes them as surrogate:<preset>, cycling through
             q_low, q_mid, q_high.
short_files  24 clips of 1.0-1.5 s (train 7, val 4, test 13) cut from
             synthetic utterances at offsets off the 256-sample hop, with
             energy in their first and last 256 samples and lengths that
             are not a multiple of the hop. The manifest names the coded
             WAVs that the run's own degrade stage writes.

The seed picks the synthesis seeds, the small duration jitter and the clip
offsets; the durations of each split are fixed so every seed does the same
amount of work. The probes for the identity-mask checks never depend on the
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
HOP = 256
PRESETS = ("q_low", "q_mid", "q_high")
WORKLOADS = ("long_utts", "short_files")

LONG_SPLITS = ("train", "val", "test")
LONG_DURATIONS_S = (10.0, 10.0, 10.0)
SHORT_SPLITS = ("train",) * 7 + ("val",) * 4 + ("test",) * 13
SHORT_SOURCE_S = 16.0
SHORT_SOURCES = 3
EDGE = 256
EDGE_MIN_DB = -30.0


@dataclass
class Utterance:
    name: str
    samples: np.ndarray
    split: str
    preset: str

    @property
    def seconds(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def _short_length(i: int) -> int:
    """Fixed clip length in [1 s, 1.5 s) that is not a multiple of the hop."""
    n = SAMPLE_RATE + (i * 9973 + 4321) % (SAMPLE_RATE // 2)
    return n + 1 if n % HOP == 0 else n


def _edge_db(clip: np.ndarray) -> float:
    """Level of the weaker 256-sample edge relative to the whole clip."""
    rms = np.sqrt(np.mean(clip ** 2))
    edges = min(np.sqrt(np.mean(clip[:EDGE] ** 2)),
                np.sqrt(np.mean(clip[-EDGE:] ** 2)))
    return 20.0 * np.log10(max(edges, 1e-300) / rms)


def cut_clip(rng: np.random.Generator, source: np.ndarray, length: int) -> np.ndarray:
    """A clip starting off the hop grid with energy at both ends."""
    from maskpf.synth import EDGE_SILENCE

    lo, hi = EDGE_SILENCE + EDGE, len(source) - EDGE_SILENCE - EDGE - length
    for _ in range(1000):
        start = int(rng.integers(lo, hi))
        if start % HOP == 0:
            continue
        clip = source[start:start + length]
        if _edge_db(clip) >= EDGE_MIN_DB:
            return clip.copy()
    raise RuntimeError("no clip with energy at both ends")


def make_workload(workload: str, seed: int) -> list[Utterance]:
    from maskpf.synth import synth_utterance

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "long_utts":
        out = []
        for i, (split, dur) in enumerate(zip(LONG_SPLITS, LONG_DURATIONS_S)):
            dur += int(rng.integers(1, HOP)) / SAMPLE_RATE
            buf = synth_utterance(int(rng.integers(2**31)), dur)
            out.append(Utterance(f"utt{i:02d}", buf.samples, split,
                                 PRESETS[i % 3]))
        return out
    if workload == "short_files":
        sources = [synth_utterance(int(rng.integers(2**31)), SHORT_SOURCE_S).samples
                   for _ in range(SHORT_SOURCES)]
        out = []
        for i, split in enumerate(SHORT_SPLITS):
            clip = cut_clip(rng, sources[i % SHORT_SOURCES], _short_length(i))
            out.append(Utterance(f"clip{i:02d}", clip, split, PRESETS[i % 3]))
        return out
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def make_probes(workload: str) -> list[Utterance]:
    """Seed-independent inputs of the identity-mask checks.

    Both workloads use 16,100 samples of white noise (energy at both ends,
    length off the hop grid). long_utts adds a 3 s synthetic utterance with
    silent edges, short_files a 1.3 s clip cut off the hop grid.
    """
    from maskpf.synth import synth_utterance

    noise = 0.1 * np.random.default_rng(16100).standard_normal(16100)
    probes = [Utterance("probe_noise", noise, "test", "q_mid")]
    if workload == "long_utts":
        speech = synth_utterance(4242, 3.0 + 77 / SAMPLE_RATE).samples
    else:
        source = synth_utterance(4243, 6.0).samples
        speech = cut_clip(np.random.default_rng(4243), source, 20813)
    probes.append(Utterance("probe_speech", speech, "test", "q_mid"))
    return probes


def write_corpus(root: str, utts: list[Utterance], coded_files: bool) -> str:
    """Write clean WAVs and a manifest; returns the manifest path.

    With coded_files the manifest names coded/<preset>/<name>.coded.wav,
    which the degrade stage writes; otherwise it names surrogate:<preset>.
    """
    from maskpf.audio_io import write_wav
    from maskpf.dsp import AudioBuffer

    os.makedirs(os.path.join(root, "wav"), exist_ok=True)
    path = os.path.join(root, "manifest.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for u in utts:
            rel = f"wav/{u.name}.wav"
            write_wav(os.path.join(root, rel), AudioBuffer(u.samples))
            coded = (coded_wav(u.name, u.preset) if coded_files
                     else f"surrogate:{u.preset}")
            fh.write(json.dumps({"clean": rel, "coded": coded,
                                 "split": u.split}) + "\n")
    return path


def coded_wav(name: str, preset: str) -> str:
    """Path, relative to the corpus root, of the coded WAV degrade writes."""
    return f"coded/{preset}/{name}.coded.wav"
