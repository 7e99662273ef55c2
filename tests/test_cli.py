"""End-to-end runs of every CLI subcommand on a tiny corpus."""

import csv
import io
import json
import math
import os
import struct

import numpy as np
import pytest

from maskpf import cli
from maskpf.audio_io import read_wav, write_wav
from maskpf.cli import _enhance_one, main
from maskpf.degrade import load_manifest, resolve_pair, split_entries
from maskpf.dsp import AudioBuffer, NormStats, band_limit
from maskpf.features import analyze_pair, build_dataset, input_stats
from maskpf.metrics import log_spectral_distance, segmental_snr
from maskpf.nn.io import load_model, save_model
from maskpf.nn.models import MODEL_KINDS, N_BINS, build_model
from maskpf.nn.train import TrainConfig, train_model
from scipy.io import wavfile


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_header(out_dir):
    with open(os.path.join(out_dir, "run_header.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, manifest_path):
    out = tmp_path_factory.mktemp("trained")
    code = main([
        "train", "--manifest", manifest_path, "--out-dir", str(out),
        "--kind", "fcnn", "--seed", "3", "--epochs", "2",
    ])
    assert code == 0
    return str(out)


def test_version_flag_exits_clean(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_stats_csv_and_header(tmp_path, manifest_path, capsys):
    out = tmp_path / "stats"
    code = main(["stats", "--manifest", manifest_path, "--out-dir", str(out),
                 "--split", "train"])
    assert code == 0
    assert "utterances" in capsys.readouterr().out
    rows = read_rows(out / "stats.csv")
    assert rows[0] == ["source", "bucket", "count", "fraction"]
    assert len(rows) == 5
    assert all(r[0] == "q_low" for r in rows[1:])
    fractions = [float(r[3]) for r in rows[1:]]
    counts = [int(r[2]) for r in rows[1:]]
    assert abs(sum(fractions) - 1.0) < 1e-4
    assert all(c >= 0 for c in counts)
    header = read_header(out)
    assert header["command"] == "stats"
    assert header["args"]["split"] == "train"
    assert not any("time" in k or "date" in k for k in header)


def test_stats_jobs_parity(tmp_path, manifest_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["stats", "--manifest", manifest_path, "--out-dir", str(a),
                 "--split", "train", "--jobs", "1"]) == 0
    assert main(["stats", "--manifest", manifest_path, "--out-dir", str(b),
                 "--split", "train", "--jobs", "2"]) == 0
    assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()


def test_oracle_sweep_descends(tmp_path, manifest_path):
    out = tmp_path / "oracle"
    code = main(["oracle", "--manifest", manifest_path, "--out-dir", str(out),
                 "--split", "test", "--bounds", "1,2,5,inf", "--envelope"])
    assert code == 0
    rows = read_rows(out / "oracle.csv")
    labels = [r[0] for r in rows[1:]]
    assert labels == ["1", "2", "5", "inf", "envelope"]
    lsds = [float(r[1]) for r in rows[1:]]
    bounded = lsds[:4]
    assert all(x >= y - 1e-12 for x, y in zip(bounded, bounded[1:]))
    assert bounded[-1] < 0.01
    assert lsds[4] > lsds[1]


def test_oracle_rejects_bad_bounds(tmp_path, manifest_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "--manifest", manifest_path, "--out-dir", str(out),
                 "--bounds", "2,zero"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["oracle", "--manifest", manifest_path, "--out-dir", str(out),
                 "--bounds", "-1"]) == 2
    capsys.readouterr()


def test_train_outputs(trained_dir):
    assert os.path.exists(os.path.join(trained_dir, "model.mpf1"))
    log = read_rows(os.path.join(trained_dir, "training_log.csv"))
    assert log[0] == ["epoch", "train_loss", "val_loss", "lr", "elapsed_s"]
    assert len(log) == 3
    with open(os.path.join(trained_dir, "train_summary.json"),
              encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["param_count"] == 2_108_621
    assert summary["epochs_run"] == 2
    assert summary["train_examples"] > summary["val_examples"] > 0


def test_train_reruns_byte_identical(tmp_path, manifest_path, trained_dir):
    out = tmp_path / "again"
    code = main([
        "train", "--manifest", manifest_path, "--out-dir", str(out),
        "--kind", "fcnn", "--seed", "3", "--epochs", "2",
    ])
    assert code == 0
    first = open(os.path.join(trained_dir, "model.mpf1"), "rb").read()
    assert (out / "model.mpf1").read_bytes() == first
    strip = lambda rows: [r[:-1] for r in rows]
    assert strip(read_rows(out / "training_log.csv")) == strip(
        read_rows(os.path.join(trained_dir, "training_log.csv")))


def test_degrade_enhance_round_trip(tmp_path, corpus_dir, trained_dir, capsys):
    clean_wav = os.path.join(corpus_dir, "wav", "utt05.wav")
    deg = tmp_path / "deg"
    code = main(["degrade", "--out-dir", str(deg), "--preset", "q_low",
                 "--format", "float32", clean_wav])
    assert code == 0
    coded_path = str(deg / "utt05.coded.wav")
    assert capsys.readouterr().out.strip() == coded_path

    enh = tmp_path / "enh"
    model = os.path.join(trained_dir, "model.mpf1")
    code = main(["enhance", "--out-dir", str(enh), "--model", model,
                 "--format", "float32", coded_path])
    assert code == 0
    out_path = str(enh / "utt05.coded.enhanced.wav")
    assert capsys.readouterr().out.strip() == out_path

    coded = read_wav(coded_path)
    enhanced = read_wav(out_path)
    assert len(enhanced) == len(coded)
    assert np.all(np.isfinite(enhanced.samples))
    assert np.max(np.abs(enhanced.samples)) > 0


def test_enhance_keeps_passthrough_band_close(tmp_path, corpus_dir,
                                              trained_dir):
    """The 6.4 to 7 kHz band of the output stays within resynthesis
    leakage of the coded input even though the lower band is reshaped."""
    from maskpf.dsp import stft

    clean_wav = os.path.join(corpus_dir, "wav", "utt04.wav")
    deg = tmp_path / "deg"
    assert main(["degrade", "--out-dir", str(deg), "--preset", "q_mid",
                 "--format", "float32", clean_wav]) == 0
    coded_path = str(deg / "utt04.coded.wav")
    enh = tmp_path / "enh"
    assert main(["enhance", "--out-dir", str(enh), "--model",
                 os.path.join(trained_dir, "model.mpf1"),
                 "--format", "float32", coded_path]) == 0
    a = stft(read_wav(coded_path))
    b = stft(read_wav(str(enh / "utt04.coded.enhanced.wav")))
    t = min(a.n_frames, b.n_frames)
    hi = slice(a.config.n_processed, 225)
    e_in = (np.abs(a.frames[1:t - 1, hi]) ** 2).sum()
    e_out = (np.abs(b.frames[1:t - 1, hi]) ** 2).sum()
    assert e_in > 0
    assert abs(e_out / e_in - 1.0) < 0.05


def test_degrade_and_enhance_reruns_byte_identical(tmp_path, corpus_dir,
                                                   trained_dir):
    clean_wav = os.path.join(corpus_dir, "wav", "utt03.wav")
    model = os.path.join(trained_dir, "model.mpf1")
    blobs = {"deg": [], "enh": []}
    for tag in ("one", "two"):
        deg = tmp_path / f"deg_{tag}"
        assert main(["degrade", "--out-dir", str(deg), "--preset", "q_mid",
                     clean_wav]) == 0
        coded = deg / "utt03.coded.wav"
        blobs["deg"].append(coded.read_bytes())
        enh = tmp_path / f"enh_{tag}"
        assert main(["enhance", "--out-dir", str(enh), "--model", model,
                     str(coded)]) == 0
        blobs["enh"].append((enh / "utt03.coded.enhanced.wav").read_bytes())
    assert blobs["deg"][0] == blobs["deg"][1]
    assert blobs["enh"][0] == blobs["enh"][1]


def test_eval_reports(tmp_path, manifest_path, trained_dir, capsys):
    out = tmp_path / "eval"
    model = os.path.join(trained_dir, "model.mpf1")
    code = main(["eval", "--manifest", manifest_path, "--out-dir", str(out),
                 "--split", "val", "--model", model])
    assert code == 0
    assert "improvement" in capsys.readouterr().out
    rows = read_rows(out / "eval_utterances.csv")
    assert len(rows) == 3
    per_utt = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    summary = dict(read_rows(out / "eval_summary.csv")[1:])
    assert summary["utterances"] == "2"
    assert abs(float(summary["mean_lsd_improvement_db"])
               - per_utt[:, 2].mean()) < 1e-5
    for r in rows[1:]:
        assert abs(float(r[2]) - float(r[3]) - float(r[4])) < 2e-6


def zero_last_layer(model):
    """Zero the last layer: the scaled sigmoid then outputs exactly 1, so
    the mask is the identity."""
    params = model.params()
    last = list(params)[-1].rsplit(".", 1)[0]
    for name, arr in params.items():
        if name.rsplit(".", 1)[0] == last:
            arr[...] = 0.0
    return model


def identity_model(kind):
    model = zero_last_layer(build_model(kind, seed=0))
    return model, NormStats(np.zeros(N_BINS), np.ones(N_BINS))


def assert_identity_enhance(model, stats):
    """Noise with energy at both ends, lengths off the 256-sample hop grid."""
    rng = np.random.default_rng(40)
    for n in (1000, 16100):
        x = rng.standard_normal(n) * 0.3
        out = _enhance_one(model, stats, AudioBuffer(x, label="coded"))
        assert out.label == "enhanced"
        assert out.samples.shape == (n,)
        np.testing.assert_allclose(out.samples, x, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_identity_mask_enhance_reproduces_every_sample(kind):
    assert_identity_enhance(*identity_model(kind))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_identity_mask_float32_model_reproduces_every_sample(kind, tmp_path):
    """The same contract for the float32 model that `load_model` returns."""
    model, stats = identity_model(kind)
    path = str(tmp_path / "identity.mpf1")
    save_model(path, model, stats, TrainConfig(kind=kind, seed=0))
    model, stats, _ = load_model(path)
    assert model.dtype == np.float32
    assert_identity_enhance(model, stats)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float64_trained_model_file_keeps_the_format(kind, tmp_path,
                                                     small_pairs):
    """Training now runs in float32, but a model trained in float64, as
    files were written before, saves to the same format and loads: the
    header and `train_config` keep their keys, and with its last layer
    zeroed the loaded model passes the identity-mask check."""
    pairs = [analyze_pair(*p) for p in small_pairs[:2]]
    stats = input_stats(pairs[:1])
    config = TrainConfig(kind=kind, batch_size=16, max_epochs=1, seed=2)
    result = train_model(config, build_dataset(pairs[:1], kind, stats),
                         build_dataset(pairs[1:], kind, stats),
                         model=build_model(kind, config.seed))
    assert result.model.dtype == np.float64
    path = str(tmp_path / "f64.mpf1")
    save_model(path, zero_last_layer(result.model), stats, config)
    model, loaded_stats, header = load_model(path)
    assert sorted(header) == [
        "context_frames", "format_version", "kind", "tensors", "train_config"]
    assert header["format_version"] == 1
    assert sorted(header["train_config"]) == [
        "adam_eps", "batch_size", "beta1", "beta2", "kind", "learning_rate",
        "max_epochs", "min_delta", "patience", "seed"]
    assert model.dtype == np.float32
    assert_identity_enhance(model, loaded_stats)


def test_identity_mask_eval_credits_nothing(tmp_path, manifest_path):
    """Eval scores the span the full frames cover; the coded-side figures
    are those of that span, and an identity filter improves on them by
    nothing."""
    model, stats = identity_model("fcnn")
    path = str(tmp_path / "identity.mpf1")
    save_model(path, model, stats, TrainConfig(kind="fcnn", seed=0))
    out = tmp_path / "eval"
    assert main(["eval", "--manifest", manifest_path, "--out-dir", str(out),
                 "--split", "val", "--model", path]) == 0
    rows = read_rows(out / "eval_utterances.csv")[1:]
    entries = split_entries(load_manifest(manifest_path), "val")
    assert len(rows) == len(entries) == 2
    for row, entry in zip(rows, entries):
        clean, coded = resolve_pair(entry, os.path.dirname(manifest_path))
        n = min(len(clean), len(coded))
        span = ((n - 512) // 256) * 256 + 512
        ref = AudioBuffer(clean.samples[:span])
        deg = AudioBuffer(coded.samples[:span])
        assert float(row[2]) == pytest.approx(log_spectral_distance(ref, deg), abs=1e-6)
        assert float(row[5]) == pytest.approx(segmental_snr(ref, deg), abs=1e-6)
        assert float(row[3]) == pytest.approx(float(row[2]), abs=1e-6)
        assert float(row[4]) == 0.0
        assert float(row[6]) == pytest.approx(float(row[5]), abs=1e-6)


def test_eval_jobs_parity(tmp_path, manifest_path, trained_dir):
    model = os.path.join(trained_dir, "model.mpf1")
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, jobs in ((a, "1"), (b, "2")):
        assert main(["eval", "--manifest", manifest_path, "--out-dir", str(out),
                     "--split", "val", "--model", model,
                     "--jobs", jobs]) == 0
    assert (a / "eval_utterances.csv").read_bytes() == \
        (b / "eval_utterances.csv").read_bytes()


def test_missing_model_is_data_error(tmp_path, manifest_path, capsys):
    code = main(["eval", "--manifest", manifest_path,
                 "--out-dir", str(tmp_path / "x"), "--split", "val",
                 "--model", str(tmp_path / "nope.mpf1")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_empty_split_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(
        {"clean": "wav/a.wav", "coded": "surrogate:q_low",
         "split": "train"}) + "\n")
    code = main(["stats", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "o"), "--split", "test"])
    assert code == 3
    capsys.readouterr()


def test_malformed_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("not json at all\n")
    code = main(["stats", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 3
    capsys.readouterr()


def test_unknown_preset_is_usage_error(tmp_path, corpus_dir):
    clean_wav = os.path.join(corpus_dir, "wav", "utt00.wav")
    with pytest.raises(SystemExit) as exc:
        main(["degrade", "--out-dir", str(tmp_path / "o"),
              "--preset", "q_extreme", clean_wav])
    assert exc.value.code == 2


def test_stats_groups_by_source(tmp_path, corpus_dir):
    """Rougher surrogates shift mask mass into the above-2 buckets."""
    manifest = tmp_path / "m.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for i, preset in enumerate(["q_low", "q_low", "q_high", "q_high"]):
            wav = os.path.join(corpus_dir, "wav", f"utt0{i}.wav")
            fh.write(json.dumps({"clean": wav, "coded": f"surrogate:{preset}",
                                 "split": "train"}) + "\n")
    out = tmp_path / "stats"
    assert main(["stats", "--manifest", str(manifest),
                 "--out-dir", str(out)]) == 0
    rows = read_rows(out / "stats.csv")
    assert rows[0] == ["source", "bucket", "count", "fraction"]
    assert len(rows) == 9
    tail = {}
    for source in ("q_low", "q_high"):
        part = [r for r in rows[1:] if r[0] == source]
        assert len(part) == 4
        assert abs(sum(float(r[3]) for r in part) - 1.0) < 1e-9
        tail[source] = sum(float(r[3]) for r in part
                           if r[1] in ("2..5", "5..inf"))
    assert tail["q_low"] > tail["q_high"]


def test_config_file_fills_defaults_but_flags_win(tmp_path, manifest_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bounds": "1,2", "split": "val"}))
    out = tmp_path / "oracle"
    code = main(["oracle", "--manifest", manifest_path, "--out-dir", str(out),
                 "--config", str(cfg), "--split", "test"])
    assert code == 0
    rows = read_rows(out / "oracle.csv")
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    header = read_header(out)
    assert header["args"]["bounds"] == "1,2"
    assert header["args"]["split"] == "test"


def test_config_rejects_bad_values(tmp_path, manifest_path, capsys):
    out = str(tmp_path / "o")
    cases = [
        {"bogus": 1},          # not a flag of stats
        {"split": "nope"},     # fails the choices check
        {"jobs": "three"},     # wrong type
        {"jobs": 2.5},         # not an integer
        {"jobs": 0},           # fewer than one worker
        ["split", "val"],      # not an object
    ]
    for i, payload in enumerate(cases):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(payload))
        assert main(["stats", "--manifest", manifest_path,
                     "--out-dir", out, "--config", str(cfg)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", "--manifest", manifest_path,
                 "--out-dir", out, "--config", str(bad)]) == 2
    assert main(["stats", "--manifest", manifest_path, "--out-dir", out,
                 "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_degrade_seed_offsets_jitter(tmp_path, corpus_dir):
    clean_wav = os.path.join(corpus_dir, "wav", "utt01.wav")
    outs = {}
    for name, extra in (("plain", []), ("zero", ["--seed", "0"]),
                        ("five", ["--seed", "5"]), ("five2", ["--seed", "5"])):
        out = tmp_path / name
        assert main(["degrade", "--out-dir", str(out), "--preset", "q_mid",
                     *extra, clean_wav]) == 0
        outs[name] = (out / "utt01.coded.wav").read_bytes()
    assert outs["plain"] == outs["zero"]
    assert outs["five"] == outs["five2"]
    assert outs["five"] != outs["plain"]


def clean_wavs(corpus_dir, n=3):
    return [os.path.join(corpus_dir, "wav", f"utt0{i}.wav") for i in range(n)]


def test_enhance_and_degrade_jobs_parity(tmp_path, corpus_dir, trained_dir):
    model = os.path.join(trained_dir, "model.mpf1")
    outputs = {}
    for jobs in ("1", "2"):
        deg = tmp_path / f"deg{jobs}"
        assert main(["degrade", "--out-dir", str(deg), "--preset", "q_high",
                     "--jobs", jobs, *clean_wavs(corpus_dir)]) == 0
        coded = sorted(str(p) for p in deg.glob("*.wav"))
        enh = tmp_path / f"enh{jobs}"
        assert main(["enhance", "--out-dir", str(enh), "--model", model,
                     "--jobs", jobs, *coded]) == 0
        outputs[jobs] = {f"{step}/{p.name}": p.read_bytes()
                         for step, d in (("degrade", deg), ("enhance", enh))
                         for p in d.glob("*.wav")}
    assert len(outputs["1"]) == 6
    assert outputs["1"] == outputs["2"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    max_workers: list = []

    def __init__(self, max_workers, initializer=None):
        self.max_workers.append(max_workers)
        self.initializer = initializer

    def __enter__(self):
        if self.initializer is not None:
            self.initializer()
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_caps_workers_at_items_and_rejects_zero(tmp_path, corpus_dir,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "max_workers", [])
    wavs = clean_wavs(corpus_dir)
    for jobs, n_files in (("8", 2), ("2", 3), ("3", 3)):
        assert main(["degrade", "--out-dir", str(tmp_path / jobs),
                     "--preset", "q_low", "--jobs", jobs,
                     *wavs[:n_files]]) == 0
    assert RecordingPool.max_workers == [2, 2, 3]
    for jobs in ("0", "-1"):
        assert main(["degrade", "--out-dir", str(tmp_path / "x"),
                     "--preset", "q_low", "--jobs", jobs, *wavs]) == 2
    assert RecordingPool.max_workers == [2, 2, 3]
    assert "--jobs" in capsys.readouterr().err


def count_model_loads(monkeypatch) -> list:
    calls = []
    real = cli.load_model

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_model", counted)
    return calls


def test_model_loads_once_per_command(tmp_path, manifest_path, corpus_dir,
                                      trained_dir, monkeypatch):
    model = os.path.join(trained_dir, "model.mpf1")
    calls = count_model_loads(monkeypatch)
    assert main(["eval", "--manifest", manifest_path, "--out-dir",
                 str(tmp_path / "eval"), "--split", "train", "--model", model,
                 "--jobs", "1"]) == 0
    assert len(read_rows(tmp_path / "eval" / "eval_utterances.csv")) == 4
    assert calls == [model]
    calls.clear()
    assert main(["enhance", "--out-dir", str(tmp_path / "enh"), "--model",
                 model, "--jobs", "1", *clean_wavs(corpus_dir)]) == 0
    assert len(list((tmp_path / "enh").glob("*.wav"))) == 3
    assert calls == [model]
    assert cli._MODEL is None


def test_enhance_jobs_2_loads_the_model_once(tmp_path, corpus_dir, trained_dir,
                                             monkeypatch):
    """Workers forked from the parent share its model: over all processes,
    `enhance --jobs 2` on four files loads it once. Each load appends its
    process id to a file, which every process can reach."""
    model = os.path.join(trained_dir, "model.mpf1")
    log = tmp_path / "loads.txt"
    real = cli.load_model

    def logged(path):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(path)

    monkeypatch.setattr(cli, "load_model", logged)
    inputs = clean_wavs(corpus_dir, 4)
    assert main(["enhance", "--out-dir", str(tmp_path / "enh"), "--model",
                 model, "--jobs", "2", *inputs]) == 0
    assert len(list((tmp_path / "enh").glob("*.wav"))) == 4
    assert log.read_text().split() == [str(os.getpid())]


def test_workers_load_their_own_model_unless_forked(tmp_path, corpus_dir,
                                                    trained_dir, monkeypatch):
    """Under a start method other than fork, each pool worker runs the
    loader again as its initializer (the stand-in pool runs it once)."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "max_workers", [])
    model = os.path.join(trained_dir, "model.mpf1")
    calls = count_model_loads(monkeypatch)
    for method, loads in (("fork", 1), ("spawn", 2)):
        monkeypatch.setattr(cli.multiprocessing, "get_start_method",
                            lambda: method)
        calls.clear()
        assert main(["enhance", "--out-dir", str(tmp_path / method), "--model",
                     model, "--jobs", "2", *clean_wavs(corpus_dir, 2)]) == 0
        assert calls == [model] * loads, method


def test_float32_eval_lsd_matches_float64_inference(tmp_path, manifest_path,
                                                    trained_dir, monkeypatch):
    """`eval` infers in float32 on the stored weights; the same weights in
    float64 give every utterance's enhanced LSD to within 1e-3 dB."""
    model = os.path.join(trained_dir, "model.mpf1")
    argv = ["eval", "--manifest", manifest_path, "--split", "val",
            "--model", model]
    assert load_model(model)[0].dtype == np.float32
    assert main(argv + ["--out-dir", str(tmp_path / "f32")]) == 0
    real = cli.load_model

    def widened(path):
        net, stats, header = real(path)
        return net.astype(np.float64), stats, header

    monkeypatch.setattr(cli, "load_model", widened)
    assert main(argv + ["--out-dir", str(tmp_path / "f64")]) == 0
    f32 = read_rows(tmp_path / "f32" / "eval_utterances.csv")
    f64 = read_rows(tmp_path / "f64" / "eval_utterances.csv")
    assert len(f32) == len(f64) == 3
    for a, b in zip(f32[1:], f64[1:]):
        assert a[2] == b[2]  # the coded side does not touch the model
        assert abs(float(a[3]) - float(b[3])) <= 1e-3


def test_back_to_back_enhance_uses_each_model(tmp_path, corpus_dir,
                                              trained_dir):
    """Two in-process enhance runs with different models: each output is
    that model's own result, so the per-process model slot never goes
    stale."""
    identity = str(tmp_path / "identity.mpf1")
    model, stats = identity_model("ced")
    save_model(identity, model, stats, TrainConfig(kind="ced", seed=0))
    in_path = clean_wavs(corpus_dir, 1)[0]
    for tag, path in (("trained", os.path.join(trained_dir, "model.mpf1")),
                      ("identity", identity)):
        out = tmp_path / tag
        assert main(["enhance", "--out-dir", str(out), "--model", path,
                     "--format", "float32", in_path]) == 0
        model, stats, _ = load_model(path)
        expected = _enhance_one(model, stats,
                                band_limit(read_wav(in_path, label="coded")))
        ref = tmp_path / f"{tag}.ref.wav"
        write_wav(str(ref), expected, "float32")
        assert (out / "utt00.enhanced.wav").read_bytes() == ref.read_bytes()
    trained = read_wav(str(tmp_path / "trained" / "utt00.enhanced.wav"))
    same = read_wav(str(tmp_path / "identity" / "utt00.enhanced.wav"))
    assert not np.array_equal(trained.samples, same.samples)


def rewrite_model(src, dst, edit_header=None, edit_payload=None):
    """Copy a model file, passing its parsed header and its payload bytes
    through the given edits; the payload edit runs first and also sees
    the original header."""
    raw = open(src, "rb").read()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8:8 + hlen])
    payload = bytearray(raw[8 + hlen:])
    if edit_payload is not None:
        edit_payload(payload, header)
    if edit_header is not None:
        header = edit_header(header)
    blob = json.dumps(header).encode()
    with open(dst, "wb") as fh:
        fh.write(raw[:4] + struct.pack("<I", len(blob)) + blob + payload)


def _with(key, value):
    def edit(header):
        header[key] = value
        return header
    return edit


def _without(key):
    def edit(header):
        del header[key]
        return header
    return edit


def _train_field(field, value):
    def edit(header):
        header["train_config"][field] = value
        return header
    return edit


def _first_tensor(field, value):
    def edit(header):
        header["tensors"][0][field] = value
        return header
    return edit


def _set_value(index, x):
    """Set one float32 of the payload; -1 is the last value of norm.std."""
    def edit(payload, header):
        values = np.frombuffer(payload, dtype="<f4").copy()
        values[index] = x
        payload[:] = values.tobytes()
    return edit


def _tensor(header, name):
    return next(t for t in header["tensors"] if t["name"] == name)


def _drop_tensor(name):
    """Remove a tensor's declaration and its bytes, so the payload still
    matches the header."""
    def edit_header(header):
        header["tensors"].remove(_tensor(header, name))
        return header

    def edit_payload(payload, header):
        offset = 0
        for t in header["tensors"]:
            nbytes = 4 * math.prod(t["shape"])
            if t["name"] == name:
                del payload[offset:offset + nbytes]
                return
            offset += nbytes
    return edit_header, edit_payload


def _add_tensor(name, size):
    def edit_header(header):
        header["tensors"].append({"name": name, "shape": [size]})
        return header

    def edit_payload(payload, header):
        payload += bytes(4 * size)
    return edit_header, edit_payload


def _rename_tensor(name, new_name):
    def edit(header):
        _tensor(header, name)["name"] = new_name
        return header
    return edit


def _transpose_tensor(name):
    """Reverse a tensor's declared shape: the same size, so the payload
    length still fits."""
    def edit(header):
        _tensor(header, name)["shape"].reverse()
        return header
    return edit


MALFORMED_MODELS = {
    "header_not_object": (lambda h: [h], None),
    "no_tensors": (_without("tensors"), None),
    "tensors_not_list": (_with("tensors", {"a": 1}), None),
    "tensor_not_dict": (_with("tensors", ["enc1.w"]), None),
    "tensor_without_shape": (_first_tensor("shape", None), None),
    "tensor_float_dim": (_first_tensor("shape", [1.5]), None),
    "tensor_negative_dim": (_first_tensor("shape", [-1]), None),
    "tensor_name_not_str": (_first_tensor("name", 7), None),
    "unknown_kind": (_with("kind", "gru"), None),
    "no_train_config": (_without("train_config"), None),
    "train_config_not_object": (_with("train_config", "ced"), None),
    "train_config_unknown_kind": (_train_field("kind", "gru"), None),
    "train_config_kind_mismatch": (_train_field("kind", "fcnn"), None),
    "train_config_bad_seed": (_train_field("seed", "x"), None),
    "no_context_frames": (_without("context_frames"), None),
    "wrong_context_frames": (_with("context_frames", 6), None),
    "missing_tensor": _drop_tensor("head.b"),
    "extra_tensor": _add_tensor("head.extra", 3),
    "duplicate_tensor": (_rename_tensor("lstm1.wh", "lstm1.wx"), None),
    "transposed_weight": (_transpose_tensor("lstm1.wx"), None),
    "nan_weight": (None, _set_value(0, np.nan)),
    "inf_weight": (None, _set_value(0, -np.inf)),
    "zero_norm_scale": (None, _set_value(-1, 0.0)),
}


def test_malformed_model_files_exit_3(tmp_path, manifest_path, corpus_dir,
                                      capsys):
    """Every malformed model file is a data error (exit 3) in both
    model-loading commands, at --jobs 1 and --jobs 2."""
    good = str(tmp_path / "good.mpf1")
    model, stats = identity_model("lstm")
    save_model(good, model, stats, TrainConfig(kind="lstm", seed=0))
    for name, (edit_header, edit_payload) in MALFORMED_MODELS.items():
        bad = str(tmp_path / f"{name}.mpf1")
        rewrite_model(good, bad, edit_header, edit_payload)
        for jobs in ("1", "2"):
            enhance = ["enhance", "--out-dir", str(tmp_path / "enh"),
                       "--model", bad, "--jobs", jobs,
                       *clean_wavs(corpus_dir, 2)]
            evaluate = ["eval", "--manifest", manifest_path, "--out-dir",
                        str(tmp_path / "eval"), "--split", "val",
                        "--model", bad, "--jobs", jobs]
            for argv in (enhance, evaluate):
                assert main(argv) == 3, (name, argv[0], jobs)
                assert f"maskpf {argv[0]}: error: {bad}" in \
                    capsys.readouterr().err, name


def wav_bytes(data, rate=16000):
    buf = io.BytesIO()
    wavfile.write(buf, rate, data)
    return buf.getvalue()


_GOOD_WAV = wav_bytes(np.round(3000 * np.sin(np.arange(4000) * 0.05))
                      .astype(np.int16))

MALFORMED_WAVS = {
    "empty": b"",
    "riff_header_only": _GOOD_WAV[:12],
    "truncated_header": _GOOD_WAV[:30],
    "truncated_data": _GOOD_WAV[:1000],
    "not_a_wav": b"this is not a WAV file " * 8,
    "int32_samples": wav_bytes(np.zeros(4000, np.int32)),
    "stereo": wav_bytes(np.zeros((4000, 2), np.int16)),
    "rate_8k": wav_bytes(np.zeros(4000, np.int16), rate=8000),
    "nan_sample": wav_bytes(np.array([0.0, np.nan] * 2000, np.float32)),
    "inf_sample": wav_bytes(np.array([0.0, np.inf] * 2000, np.float32)),
    "zero_samples": wav_bytes(np.zeros(0, np.int16)),
}


def test_malformed_wavs_exit_3(tmp_path, capsys):
    """Every malformed WAV is a data error (exit 3) naming the file, both as
    the clean input of degrade and as the coded input of enhance."""
    model_path = str(tmp_path / "identity.mpf1")
    save_model(model_path, *identity_model("ced"), TrainConfig(kind="ced", seed=0))
    for name, data in MALFORMED_WAVS.items():
        bad = tmp_path / f"{name}.wav"
        bad.write_bytes(data)
        degrade = ["degrade", "--out-dir", str(tmp_path / "deg"),
                   "--preset", "q_low", str(bad)]
        enhance = ["enhance", "--out-dir", str(tmp_path / "enh"),
                   "--model", model_path, str(bad)]
        for argv in (degrade, enhance):
            assert main(argv) == 3, (name, argv[0])
            err = capsys.readouterr().err
            assert f"maskpf {argv[0]}: error:" in err and str(bad) in err, \
                (name, err)


def _manifest_line(corpus_dir, **fields):
    row = {"clean": os.path.join(corpus_dir, "wav", "utt00.wav"),
           "coded": "surrogate:q_low", "split": "test"}
    row.update(fields)
    return (json.dumps({k: v for k, v in row.items() if v is not None})
            + "\n").encode()


# Each case: the manifest's bytes given the corpus directory, and the file
# the error must name, relative to the manifest's directory.
MALFORMED_MANIFESTS = {
    "list_line": (lambda c: b'["clean", "coded", "split"]\n', "manifest.jsonl"),
    "string_line": (lambda c: b'"clean"\n', "manifest.jsonl"),
    "null_line": (lambda c: b"null\n", "manifest.jsonl"),
    "missing_key": (lambda c: _manifest_line(c, split=None), "manifest.jsonl"),
    "bad_split": (lambda c: _manifest_line(c, split="dev"), "manifest.jsonl"),
    "bad_preset": (lambda c: _manifest_line(c, coded="surrogate:q_extreme"),
                   "manifest.jsonl"),
    "missing_coded_file": (lambda c: _manifest_line(c, coded="absent.wav"),
                           "absent.wav"),
    "not_utf8": (lambda c: b"\xff\xfe" + _manifest_line(c), "manifest.jsonl"),
}


def test_malformed_manifests_exit_3(tmp_path, corpus_dir, capsys):
    """Every malformed manifest is a data error (exit 3) naming the file at
    fault, in a manifest-reading command at --jobs 1 and --jobs 2."""
    for name, (content, culprit) in MALFORMED_MANIFESTS.items():
        case = tmp_path / name
        case.mkdir()
        manifest = case / "manifest.jsonl"
        manifest.write_bytes(content(corpus_dir))
        for jobs in ("1", "2"):
            argv = ["oracle", "--manifest", str(manifest), "--out-dir",
                    str(case / "out"), "--split", "test", "--jobs", jobs]
            assert main(argv) == 3, (name, jobs)
            err = capsys.readouterr().err
            assert "maskpf oracle: error:" in err and \
                str(case / culprit) in err, (name, err)
