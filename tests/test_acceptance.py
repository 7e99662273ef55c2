"""Acceptance gate: one test per shipping criterion, at its stated tolerance.

Run with -v to get one pass/fail line per criterion. The end-to-end
learning check (criterion 7) trains the convolutional estimator for real
and dominates the runtime; everything else finishes in seconds.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from maskpf.audio_io import write_wav
from maskpf.cli import main as cli_main
from maskpf.degrade import PRESETS, surrogate_code
from maskpf.dsp import (
    AudioBuffer,
    band_limit,
    istft,
    level_normalize,
    stft,
)
from maskpf.features import analyze_pair, build_dataset, infer_mask, input_stats
from maskpf.mask import (
    HISTOGRAM_EDGES,
    apply_mask,
    compute_irm,
    envelope_mask,
    mask_histogram,
    modified_mask,
    oracle_sweep,
)
from maskpf.metrics import log_spectral_distance, lsd_from_mags
from maskpf.nn.loss import logmag_mse
from maskpf.nn.models import REFERENCE_PARAM_COUNTS, build_model
from maskpf.nn.train import TrainConfig, train_model
from maskpf.synth import synth_corpus

from helpers_grad import model_grad_check

# Criterion 7 experiment layout. The corpus, split, and training seeds are
# pinned; the surrogate presets live in maskpf.degrade.
C7_CORPUS_SEED = 800
C7_UTTERANCES = 20
C7_DURATION_S = 5.0
C7_TRAIN, C7_VAL = 14, 3
C7_MODEL_SEED = 11
C7_SECOND_SEED = 4200


def prep(buf: AudioBuffer) -> AudioBuffer:
    out = band_limit(buf)
    out, _ = level_normalize(out)
    return out


def coded_pair(buf: AudioBuffer, preset: str) -> tuple[AudioBuffer, AudioBuffer]:
    clean = prep(buf)
    return clean, surrogate_code(clean, PRESETS[preset])


def test_01_stft_round_trip_on_random_signals():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(12_000, 24_000))
        x = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        rec = istft(stft(AudioBuffer(x))).samples
        interior = slice(512, (len(rec) // 256 - 1) * 256)
        err = np.max(np.abs(rec[interior] - x[: len(rec)][interior]))
        worst = max(worst, err / np.max(np.abs(x)))
    print(f"criterion 1: worst interior relative error {worst:.3e}")
    assert worst < 1e-6


def test_02_unbounded_oracle_inverts_the_degradation():
    corpus = synth_corpus(6, base_seed=910, duration_s=1.5)
    worst_rel = 0.0
    lsds = []
    for buf in corpus:
        clean, coded = coded_pair(buf, "q_low")
        pair = analyze_pair(clean, coded)
        irm = compute_irm(pair.clean_spec, pair.coded_spec)
        coded_mags = pair.coded_spec.magnitudes()
        clean_mags = pair.clean_spec.magnitudes()
        recovered = irm * coded_mags
        strong = coded_mags >= 1e-3
        rel = np.abs(recovered - clean_mags)[strong] / clean_mags[strong]
        worst_rel = max(worst_rel, rel.max())
        lsds.append(lsd_from_mags(recovered, clean_mags))
    print(f"criterion 2: worst strong-bin error {worst_rel:.3e}, "
          f"corpus lsd {np.mean(lsds):.3e} dB")
    assert worst_rel < 1e-6
    assert np.mean(lsds) < 0.01


def test_03_bounded_oracle_sweep_shape():
    corpus = synth_corpus(20, base_seed=550, duration_s=1.5)
    bounds = (1.0, 2.0, 4.0, 10.0)
    per_bound = []
    envelopes = []
    for buf in corpus:
        clean, coded = coded_pair(buf, "q_low")
        pair = analyze_pair(clean, coded)
        sweep = [lsd for _, lsd in
                 oracle_sweep(pair.clean_spec, pair.coded_spec, bounds)]
        assert all(a >= b - 1e-12 for a, b in zip(sweep, sweep[1:]))
        per_bound.append(sweep)
        emask = envelope_mask(pair.clean_spec, pair.coded_spec)
        envelopes.append(lsd_from_mags(
            emask * pair.coded_spec.magnitudes(),
            pair.clean_spec.magnitudes()))
    means = np.mean(per_bound, axis=0)
    env_mean = float(np.mean(envelopes))
    print("criterion 3: bound lsd " +
          " ".join(f"{b:g}:{v:.3f}" for b, v in zip(bounds, means)) +
          f"  envelope:{env_mean:.3f}")
    assert means[1] < means[0]
    assert env_mean > means[1]


def test_04_parameter_counts():
    counts = {kind: build_model(kind, seed=0).param_count()
              for kind in ("fcnn", "lstm", "ced")}
    assert counts["fcnn"] == 2_108_621
    for kind in ("lstm", "ced"):
        ref = REFERENCE_PARAM_COUNTS[kind]
        delta = 100.0 * (counts[kind] - ref) / ref
        print(f"criterion 4: {kind} params {counts[kind]:,} vs reference "
              f"{ref:,} ({delta:+.2f}%, unreconciled)")
    print(f"criterion 4: fcnn params {counts['fcnn']:,} exact")


def test_05_encoder_shape_chain():
    model = build_model("ced", seed=2)
    x = np.random.default_rng(920).standard_normal((3, 1, 6, 205))
    want = [(3, 16, 5, 102), (3, 32, 4, 50), (3, 64, 3, 24), (3, 128, 2, 11)]
    h = x
    for (name, conv, bn, act), shape in zip(model.enc, want):
        h = act.forward(bn.forward(conv.forward(h, train=False), train=False))
        assert h.shape == shape, name
    out = model.forward(x, train=False)
    assert out.shape == (3, 205)
    print("criterion 5: encoder chain 16x5x102 32x4x50 64x3x24 128x2x11 "
          "-> 205 outputs")


def test_06_gradients_match_finite_differences():
    rng = np.random.default_rng(930)
    cases = {
        "fcnn": (build_model("fcnn", seed=4, n_bins=8),
                 rng.standard_normal((4, 32))),
        "lstm": (build_model("lstm", seed=4, n_bins=8),
                 rng.standard_normal((3, 10, 8))),
        "ced": (build_model("ced", seed=4, n_bins=45),
                rng.standard_normal((2, 1, 6, 45))),
    }
    for kind, (model, x) in cases.items():
        max_rel, _ = model_grad_check(model, x, h=1e-5, samples_per_tensor=3)
        print(f"criterion 6: {kind} max relative gradient error {max_rel:.2e}")
        assert max_rel <= 1e-4


def test_07_training_reduces_distortion(tmp_path):
    t0 = time.perf_counter()
    corpus = synth_corpus(C7_UTTERANCES, base_seed=C7_CORPUS_SEED,
                          duration_s=C7_DURATION_S)
    pairs = [coded_pair(buf, "q_low") for buf in corpus]
    analyzed = [analyze_pair(*p) for p in pairs[: C7_TRAIN + C7_VAL]]
    stats = input_stats(analyzed[:C7_TRAIN])
    train_data = build_dataset(analyzed[:C7_TRAIN], "ced", stats)
    val_data = build_dataset(analyzed[C7_TRAIN:], "ced", stats)
    config = TrainConfig(kind="ced", max_epochs=30, patience=5,
                         seed=C7_MODEL_SEED)
    result = train_model(config, train_data, val_data)

    def improvement(clean: AudioBuffer, coded: AudioBuffer) -> float:
        spec = stft(coded)
        enhanced = istft(apply_mask(spec, infer_mask(result.model, stats, spec)))
        n = len(enhanced)
        clean_t = AudioBuffer(clean.samples[:n])
        coded_t = AudioBuffer(coded.samples[:n])
        return (log_spectral_distance(clean_t, coded_t)
                - log_spectral_distance(clean_t, enhanced))

    held = [improvement(c, x) for c, x in pairs[C7_TRAIN + C7_VAL:]]
    mid = [improvement(*coded_pair(buf, "q_mid"))
           for buf in corpus[C7_TRAIN + C7_VAL:]]
    second = [improvement(*coded_pair(buf, "q_low"))
              for buf in synth_corpus(5, base_seed=C7_SECOND_SEED,
                                      duration_s=C7_DURATION_S)]
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: held-out {np.mean(held):+.3f} dB, "
          f"q_mid {np.mean(mid):+.3f} dB, "
          f"second corpus {np.mean(second):+.3f} dB, "
          f"epochs {len(result.history)}, {elapsed:.0f}s")
    assert elapsed < 1800
    assert np.mean(held) >= 0.5
    assert np.mean(mid) > 0.0
    assert np.mean(second) > 0.0


def test_08_loss_equals_log_mask_distance_above_floor():
    rng = np.random.default_rng(940)
    clean = synth_corpus(1, base_seed=941, duration_s=1.0)[0]
    clean, coded = coded_pair(clean, "q_mid")
    pair = analyze_pair(clean, coded)
    irm = compute_irm(pair.clean_spec, pair.coded_spec)
    target = modified_mask(irm)
    coded_mags = np.maximum(pair.coded_spec.magnitudes(), 1e-3)
    pred = rng.uniform(0.05, 2.0, target.shape)
    loss, _ = logmag_mse(pred, target, coded_mags)
    direct = float(np.mean(
        (np.log(pred) - np.log(np.maximum(target, 1e-9))) ** 2))
    gap = abs(loss - direct)
    print(f"criterion 8: |loss - mean squared log-mask diff| = {gap:.2e}")
    assert gap < 1e-10


def test_09_cli_reruns_are_byte_identical(tmp_path, corpus_dir, manifest_path):
    clean_wav = os.path.join(corpus_dir, "wav", "utt00.wav")

    def run_all(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        out = {}
        assert cli_main(["stats", "--manifest", manifest_path,
                         "--out-dir", str(root / "stats")]) == 0
        out["stats.csv"] = (root / "stats" / "stats.csv").read_bytes()
        assert cli_main(["oracle", "--manifest", manifest_path,
                         "--out-dir", str(root / "oracle"), "--split", "test",
                         "--bounds", "1,2,4,10,inf"]) == 0
        out["oracle.csv"] = (root / "oracle" / "oracle.csv").read_bytes()
        assert cli_main(["degrade", "--out-dir", str(root / "deg"),
                         "--preset", "q_low", clean_wav]) == 0
        out["coded.wav"] = (root / "deg" / "utt00.coded.wav").read_bytes()
        assert cli_main(["train", "--manifest", manifest_path,
                         "--out-dir", str(root / "train"), "--kind", "fcnn",
                         "--seed", "5", "--epochs", "1"]) == 0
        out["model.mpf1"] = (root / "train" / "model.mpf1").read_bytes()
        log_rows = (root / "train" / "training_log.csv").read_text().splitlines()
        out["training_log"] = "\n".join(
            ",".join(r.split(",")[:-1]) for r in log_rows).encode()
        out["train_summary.json"] = (
            root / "train" / "train_summary.json").read_bytes()
        model = str(root / "train" / "model.mpf1")
        assert cli_main(["enhance", "--out-dir", str(root / "enh"),
                         "--model", model,
                         str(root / "deg" / "utt00.coded.wav")]) == 0
        out["enhanced.wav"] = (
            root / "enh" / "utt00.coded.enhanced.wav").read_bytes()
        assert cli_main(["eval", "--manifest", manifest_path,
                         "--out-dir", str(root / "eval"), "--split", "val",
                         "--model", model]) == 0
        out["eval_utterances.csv"] = (
            root / "eval" / "eval_utterances.csv").read_bytes()
        out["eval_summary.csv"] = (
            root / "eval" / "eval_summary.csv").read_bytes()
        return out

    first = run_all("one")
    second = run_all("two")
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    print(f"criterion 9: {len(first)} artifacts byte-identical across reruns "
          "(training log compared without its wall-clock column)")


def test_10_histogram_partitions_everything():
    assert HISTOGRAM_EDGES == (1.0, 2.0, 5.0)
    rng = np.random.default_rng(950)
    wild = rng.uniform(0, 50, (40, 205))
    counts = mask_histogram(wild)
    assert counts.sum() == wild.size
    assert abs(float((counts / counts.sum()).sum()) - 1.0) <= 1e-12

    buf = prep(synth_corpus(1, base_seed=951, duration_s=1.0)[0])
    spec = stft(buf)
    identity = compute_irm(spec, spec)
    ident_fractions = mask_histogram(identity) / identity.size
    print(f"criterion 10: identity-pair mass in [0,1] = "
          f"{ident_fractions[0]:.12f}")
    assert ident_fractions[0] == 1.0
    assert abs(float(ident_fractions.sum()) - 1.0) <= 1e-12
