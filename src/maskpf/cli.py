"""Command-line front end.

Subcommands:

  stats    mask-value histogram of a manifest split
  oracle   distortion left by bounded oracle masks, averaged over a split
  train    fit an estimator on the train/val splits of a manifest
  enhance  run a trained model over degraded WAV files
  eval     compare degraded vs. enhanced quality on a split
  degrade  apply a surrogate-degradation preset to clean WAV files

Every command writes its outputs plus a run_header.json (the resolved
arguments and package version; no timestamps) into --out-dir. A JSON
file passed as --config supplies defaults for the optional flags of the
chosen subcommand, each value parsed as the same text given as that flag
would be; flags given on the command line win, abbreviated or not. Exit
codes: 0 ok, 2 bad configuration or arguments, 3 bad data, 4 numeric
failure.

Every command sends its per-file work through `_map_ordered`, with one
worker function at every --jobs value; above one, the files run on
threads of this process. `enhance` and `eval` load the model once, before
any file is read, so a bad model file fails with its own error; every
file thread then infers with that one model. Training and inference run
in float32, so `train` saves exactly the trained weights and `enhance`
and `eval` compute on them as stored.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .audio_io import read_wav, write_wav
from .degrade import (
    PRESETS,
    ManifestEntry,
    get_profile,
    load_clean,
    load_manifest,
    resolve_pair,
    split_entries,
    surrogate_code,
)
from .dsp import FRAME_LEN, HOP, AudioBuffer, band_limit, frame_count, stft_filter
from .errors import ConfigError, DataError, MaskpfError
from .features import analyze_pair, build_dataset, infer_mask, input_stats
from .mask import (
    HISTOGRAM_LABELS,
    apply_mask,
    compute_irm,
    envelope_mask,
    mask_histogram,
    oracle_sweep,
)
from .metrics import log_spectral_distance, lsd_from_mags, segmental_snr
from .nn.io import load_model, save_model
from .nn.models import MODEL_KINDS, blas_threads, share_cores, threads_per_worker
from .nn.train import TrainConfig, train_model


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_header(out_dir: str, command: str, args: argparse.Namespace,
                  workers: int) -> None:
    """Write run_header.json. Its `infer_threads` is the threads each
    `infer` call may run on while `workers` file threads share the CPUs
    (`_pool_size` of the command's per-file work; 1 for `train`, which
    infers on the calling thread alone). In `train` it is also the number
    of threads a ced training step runs its two halves on. `blas_threads`
    is the loaded OpenBLAS's thread count, which float32 trained bits
    depend on."""
    _write_json(os.path.join(out_dir, "run_header.json"), {
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "blas_threads": blas_threads(),
        "infer_threads": threads_per_worker(workers),
        "package_version": __version__,
    })


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _map_ordered(fn, items: list, jobs: int) -> list:
    """Apply fn to items on at most `jobs` threads, in input order.

    One worker runs the items on the calling thread, in order, and stops
    at the first that raises. More run on a thread pool that starts and
    ends inside the call, and while it runs each `infer` call takes its
    share of the thread budget, `threads_per_worker(workers)`.
    """
    workers = _pool_size(jobs, items)
    if workers == 1:
        return [fn(item) for item in items]
    with share_cores(workers), ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _pool_size(jobs: int, items: list) -> int:
    """The threads `_map_ordered` runs items on: the calling one alone at
    --jobs 1 or for one item, else at most one per item."""
    return 1 if jobs == 1 or len(items) <= 1 else min(jobs, len(items))


def _load_split(args, split: str) -> tuple[list[ManifestEntry], str]:
    selected = split_entries(load_manifest(args.manifest), split)
    if not selected:
        raise DataError(f"manifest has no entries in split {split!r}")
    return selected, os.path.dirname(os.path.abspath(args.manifest))


def _analyze_worker(job):
    """The `UtterancePair` of an (entry, manifest_dir, ...) job: its
    spectrograms only."""
    return analyze_pair(*resolve_pair(job[0], job[1]))


# ------------------------------------------------------------------ stats --


def _stats_worker(job: tuple[ManifestEntry, str]) -> np.ndarray:
    pair = _analyze_worker(job)
    return mask_histogram(compute_irm(pair.clean_spec, pair.coded_spec))


def cmd_stats(args) -> int:
    entries, manifest_dir = _load_split(args, args.split)
    out_dir = _ensure_out(args.out_dir)
    results = _map_ordered(
        _stats_worker, [(e, manifest_dir) for e in entries], args.jobs)
    groups: dict[str, list[np.ndarray]] = {}
    for entry, counts in zip(entries, results):
        key = entry.surrogate_preset() if entry.uses_surrogate() else "file"
        groups.setdefault(key, []).append(counts)
    rows = []
    for key in sorted(groups):
        counts = sum(groups[key])
        total = int(counts.sum())
        rows.extend([key, label, int(count), _fmt(count / total)]
                    for label, count in zip(HISTOGRAM_LABELS, counts))
        print(f"stats: {key}: {len(groups[key])} utterances, "
              f"{total} mask values")
    _write_csv(os.path.join(out_dir, "stats.csv"),
               ["source", "bucket", "count", "fraction"], rows)
    _write_header(out_dir, "stats", args, _pool_size(args.jobs, entries))
    return 0


# ----------------------------------------------------------------- oracle --


def _parse_bounds(text: str) -> list[float]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(float(token))
        except ValueError as exc:
            raise ConfigError(f"bad bound {token!r}") from exc
        if not out[-1] > 0:  # NaN fails too
            raise ConfigError(f"bounds must be positive, got {token!r}")
    if not out:
        raise ConfigError("no bounds given")
    return out


def cmd_oracle(args) -> int:
    entries, manifest_dir = _load_split(args, args.split)
    bounds = _parse_bounds(args.bounds)
    out_dir = _ensure_out(args.out_dir)
    jobs = [(e, manifest_dir, bounds, args.envelope) for e in entries]
    results = _map_ordered(_oracle_worker, jobs, args.jobs)
    stacked = np.array(results)
    means = stacked.mean(axis=0)
    labels = [("inf" if np.isinf(b) else f"{b:g}") for b in bounds]
    if args.envelope:
        labels.append("envelope")
    rows = [[label, _fmt(v)] for label, v in zip(labels, means)]
    _write_csv(os.path.join(out_dir, "oracle.csv"), ["bound", "lsd_db"], rows)
    _write_header(out_dir, "oracle", args, _pool_size(args.jobs, jobs))
    for label, v in zip(labels, means):
        print(f"oracle bound {label}: lsd {_fmt(v)} dB")
    return 0


def _oracle_worker(job) -> list[float]:
    _, _, bounds, with_envelope = job
    pair = _analyze_worker(job)
    sweep = oracle_sweep(pair.clean_spec, pair.coded_spec, tuple(bounds))
    values = [lsd for _, lsd in sweep]
    if with_envelope:
        emask = envelope_mask(pair.clean_spec, pair.coded_spec)
        enhanced = emask * pair.coded_spec.magnitudes()
        values.append(lsd_from_mags(enhanced, pair.clean_spec.magnitudes()))
    return values


# ------------------------------------------------------------------ train --


def cmd_train(args) -> int:
    config = TrainConfig(
        kind=args.kind,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        min_delta=args.min_delta,
        seed=args.seed,
    )
    train_entries, manifest_dir = _load_split(args, "train")
    val_entries, _ = _load_split(args, "val")
    out_dir = _ensure_out(args.out_dir)
    train_pairs, val_pairs = (
        _map_ordered(_analyze_worker, [(e, manifest_dir) for e in entries],
                     args.jobs)
        for entries in (train_entries, val_entries))
    stats = input_stats(train_pairs)
    train_data = build_dataset(train_pairs, args.kind, stats)
    val_data = build_dataset(val_pairs, args.kind, stats)
    result = train_model(config, train_data, val_data)

    model_path = os.path.join(out_dir, "model.mpf1")
    save_model(model_path, result.model, stats, config)
    log_rows = [
        [log.epoch, f"{log.train_loss:.8f}", f"{log.val_loss:.8f}",
         f"{log.lr:.6g}", f"{log.elapsed_s:.3f}"]
        for log in result.history
    ]
    _write_csv(os.path.join(out_dir, "training_log.csv"),
               ["epoch", "train_loss", "val_loss", "lr", "elapsed_s"], log_rows)
    summary = {
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "epochs_run": len(result.history),
        "val_evaluations": len(result.history),
        "stopped_early": result.stopped_early,
        "param_count": result.model.param_count(),
        "train_examples": len(train_data),
        "val_examples": len(val_data),
    }
    _write_json(os.path.join(out_dir, "train_summary.json"), summary)
    _write_header(out_dir, "train", args, 1)
    print(f"train: best epoch {result.best_epoch} "
          f"val_loss {result.best_val_loss:.6f} -> {model_path}")
    return 0


# ---------------------------------------------------------------- enhance --


def _output_paths(inputs: list[str], out_dir: str, suffix: str) -> list[str]:
    """The file each input writes: its stem plus suffix, in out_dir. Two
    inputs that would write the same file, or an output that is one of the
    inputs, are a ConfigError, raised before any work starts."""
    real_inputs = {os.path.realpath(p): p for p in inputs}
    written: dict[str, str] = {}
    for in_path in inputs:
        stem = os.path.splitext(os.path.basename(in_path))[0]
        out_path = os.path.join(out_dir, stem + suffix)
        if out_path in written:
            raise ConfigError(f"inputs {written[out_path]!r} and {in_path!r} "
                              f"would both write {out_path}")
        overwritten = real_inputs.get(os.path.realpath(out_path))
        if overwritten is not None:
            raise ConfigError(f"input {in_path!r} would write {out_path}, "
                              f"overwriting input {overwritten!r}")
        written[out_path] = in_path
    return list(written)


def _enhance_one(model, stats, coded: AudioBuffer) -> AudioBuffer:
    def enhance(spec):
        return apply_mask(spec, infer_mask(model, stats, spec))

    return stft_filter(coded, enhance)


def _enhance_worker(model, stats, job) -> str:
    in_path, out_path, fmt = job
    coded = band_limit(read_wav(in_path))
    write_wav(out_path, _enhance_one(model, stats, coded), fmt)
    return out_path


def cmd_enhance(args) -> int:
    out_paths = _output_paths(args.inputs, args.out_dir, ".enhanced.wav")
    out_dir = _ensure_out(args.out_dir)
    jobs = [(p, out, args.format) for p, out in zip(args.inputs, out_paths)]
    model, stats, _ = load_model(args.model)
    written = _map_ordered(partial(_enhance_worker, model, stats), jobs,
                           args.jobs)
    _write_header(out_dir, "enhance", args, _pool_size(args.jobs, jobs))
    for path in written:
        print(path)
    return 0


# ------------------------------------------------------------------- eval --


EVAL_COLUMNS = ("lsd_coded_db", "lsd_enhanced_db", "lsd_improvement_db",
                "segsnr_coded_db", "segsnr_enhanced_db")


def _eval_worker(model, stats, job) -> list:
    """Scores the samples that the utterance's full analysis frames cover,
    the span an unpadded istft of them would return."""
    entry, manifest_dir = job
    clean, coded = resolve_pair(entry, manifest_dir)
    n_frames = frame_count(len(coded))
    if n_frames < 1:
        raise DataError(f"signal too short for analysis: {len(coded)} samples")
    scored = (n_frames - 1) * HOP + FRAME_LEN
    enhanced = _enhance_one(model, stats, coded)
    clean_t = AudioBuffer(clean.samples[:scored])
    coded_t = AudioBuffer(coded.samples[:scored])
    enhanced_t = AudioBuffer(enhanced.samples[:scored])
    lsd_coded = log_spectral_distance(clean_t, coded_t)
    lsd_enh = log_spectral_distance(clean_t, enhanced_t)
    seg_coded = segmental_snr(clean_t, coded_t)
    seg_enh = segmental_snr(clean_t, enhanced_t)
    return [entry.clean, lsd_coded, lsd_enh, lsd_coded - lsd_enh,
            seg_coded, seg_enh]


def cmd_eval(args) -> int:
    entries, manifest_dir = _load_split(args, args.split)
    out_dir = _ensure_out(args.out_dir)
    model, stats, _ = load_model(args.model)
    rows = _map_ordered(partial(_eval_worker, model, stats),
                        [(e, manifest_dir) for e in entries], args.jobs)
    table = [
        [i, r[0]] + [_fmt(v) for v in r[1:]] for i, r in enumerate(rows)
    ]
    _write_csv(os.path.join(out_dir, "eval_utterances.csv"),
               ["index", "clean", *EVAL_COLUMNS], table)
    values = np.array([r[1:] for r in rows], dtype=np.float64)
    means = values.mean(axis=0)
    summary_rows = [[f"mean_{name}", _fmt(v)]
                    for name, v in zip(EVAL_COLUMNS, means)]
    summary_rows.append(["utterances", str(len(rows))])
    _write_csv(os.path.join(out_dir, "eval_summary.csv"),
               ["metric", "value"], summary_rows)
    _write_header(out_dir, "eval", args, _pool_size(args.jobs, entries))
    print(f"eval: lsd {means[0]:.3f} -> {means[1]:.3f} dB "
          f"(improvement {means[2]:.3f}) over {len(rows)} utterances")
    return 0


# ---------------------------------------------------------------- degrade --


def _degrade_worker(job) -> str:
    in_path, out_path, profile, fmt = job
    write_wav(out_path, surrogate_code(load_clean(in_path), profile), fmt)
    return out_path


def cmd_degrade(args) -> int:
    profile = replace(get_profile(args.preset), offset=args.seed)
    out_paths = _output_paths(args.inputs, args.out_dir, ".coded.wav")
    out_dir = _ensure_out(args.out_dir)
    jobs = [(p, out, profile, args.format)
            for p, out in zip(args.inputs, out_paths)]
    written = _map_ordered(_degrade_worker, jobs, args.jobs)
    _write_header(out_dir, "degrade", args, _pool_size(args.jobs, jobs))
    for path in written:
        print(path)
    return 0


# ------------------------------------------------------------------ parse --


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The maskpf parser, and its subcommand parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="maskpf",
        description="Mask-based spectral post-filter for degraded speech.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifest: bool = True, seed_help: str | None = None):
        p.add_argument("--out-dir", required=True, help="output directory")
        p.add_argument("--config",
                       help="JSON file of defaults for this command's "
                            "optional flags; explicit flags win")
        p.add_argument("--seed", type=int, default=0,
                       help=seed_help or "recorded in the run header; this "
                       "command has no stochastic step")
        p.add_argument("--jobs", type=int, default=1,
                       help="files processed at once, each on a thread "
                            "(default 1)")
        if manifest:
            p.add_argument("--manifest", required=True,
                           help="JSONL manifest of clean/coded pairs")

    p = sub.add_parser("stats", help="mask histogram over a split")
    add_common(p)
    p.add_argument("--split", default="train", choices=["train", "val", "test"])
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("oracle", help="bounded oracle-mask distortion sweep")
    add_common(p)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--bounds", default="1,2,5,inf",
                   help="comma-separated mask caps (default 1,2,5,inf)")
    p.add_argument("--envelope", action="store_true",
                   help="also report the cepstral-envelope oracle")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("train", help="fit an estimator")
    add_common(p, seed_help="weight initialization and batch shuffling seed")
    p.add_argument("--kind", default=TrainConfig.kind, choices=list(MODEL_KINDS))
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--min-delta", type=float, default=TrainConfig.min_delta)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="apply a trained model to WAV files")
    add_common(p, manifest=False)
    p.add_argument("--model", required=True, help="path to a .mpf1 model")
    p.add_argument("--format", default="pcm16", choices=["pcm16", "float32"])
    p.add_argument("inputs", nargs="+", help="degraded WAV files")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="score degraded vs enhanced on a split")
    add_common(p)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--model", required=True, help="path to a .mpf1 model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("degrade", help="apply a surrogate-degradation preset")
    add_common(p, manifest=False,
               seed_help="jitter seed, mixed in with the preset's own seed")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--format", default="pcm16", choices=["pcm16", "float32"])
    p.add_argument("inputs", nargs="+", help="clean WAV files")
    p.set_defaults(func=cmd_degrade)

    return parser, sub.choices


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The defaults that the JSON object in the file at path gives the
    optional flags of one subcommand, keyed by dest (batch_size, say).

    Each value is parsed as the same text typed after its flag would be,
    through the flag's own type and choices: a string as written, anything
    else as json.dumps writes it. A store_true flag takes a JSON boolean.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = {a.dest: a for a in command._actions
               if a.option_strings and not a.required
               and a.dest not in ("help", "config")}
    defaults = {}
    for key, value in sorted(loaded.items()):
        action = allowed.get(key)
        if action is None:
            raise ConfigError(f"config key {key!r} is not an optional flag "
                              f"of {command.prog!r}; have {sorted(allowed)}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be a boolean")
            defaults[key] = value
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:  # the two calls argparse makes on a typed flag's text
            defaults[key] = command._get_value(action, text)
            command._check_value(action, defaults[key])
        except argparse.ArgumentError as exc:
            raise ConfigError(f"config key {key!r}: {exc.message}") from exc
    return defaults


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the subcommand's defaults, so a flag
            # typed on the command line, abbreviated or not, wins.
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except MaskpfError as exc:
        print(f"maskpf {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
