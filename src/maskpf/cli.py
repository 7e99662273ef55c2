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
chosen subcommand; flags given on the command line win. Exit codes: 0
ok, 2 bad configuration or arguments, 3 bad data, 4 numeric failure.

Every command sends its per-file work through `_map_ordered`, with one
worker function at every --jobs value. `enhance` and `eval` load the
model once, in the parent, so a bad model file fails with its own error
before any worker starts; workers forked from it share that model, and
workers started otherwise load their own. Training and inference run in
float32, so `train` saves exactly the trained weights and `enhance` and
`eval` compute on them as stored.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
from .dsp import DEFAULT_STFT, AudioBuffer, band_limit, frame_count, stft_filter
from .errors import ConfigError, DataError, MaskpfError
from .features import analyze_pair, build_dataset, infer_mask, input_stats
from .mask import (
    HISTOGRAM_LABELS,
    apply_mask,
    compute_irm,
    envelope_mask,
    mask_histogram,
    oracle_sweep,
    time_domain_frames,
)
from .metrics import log_spectral_distance, lsd_from_mags, segmental_snr
from .nn.io import load_model, save_model
from .nn.models import MODEL_KINDS
from .nn.train import TrainConfig, train_model


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_header(out_dir: str, command: str, args: argparse.Namespace) -> None:
    _write_json(os.path.join(out_dir, "run_header.json"), {
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "package_version": __version__,
    })


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _map_ordered(fn, items: list, jobs: int, init=None) -> list:
    """Apply fn to items across at most `jobs` processes, in input order.

    `init` runs once per process before fn: here first, so its errors
    surface as themselves (an exception in a pool initializer would only
    break the pool). Pool workers started by `fork` inherit what it set
    up; under any other start method each worker runs it again as its
    initializer.
    """
    if init is not None:
        init()
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    worker_init = None if multiprocessing.get_start_method() == "fork" else init
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             initializer=worker_init) as pool:
        return list(pool.map(fn, items))


# The (model, stats) of the running enhance or eval command in this
# process: `_use_model` sets it before any worker reads it, and `main`
# empties it when the command returns, so no later command sees or keeps it.
_MODEL = None


def _use_model(path: str | None) -> None:
    """Load the model file at path into this process's slot; None empties it."""
    global _MODEL
    _MODEL = None if path is None else load_model(path)[:2]


def _load_split(args, split: str) -> tuple[list[ManifestEntry], str]:
    selected = split_entries(load_manifest(args.manifest), split)
    if not selected:
        raise DataError(f"manifest has no entries in split {split!r}")
    return selected, os.path.dirname(os.path.abspath(args.manifest))


def _analyze_worker(job):
    """Resolve and analyze the pair of an (entry, manifest_dir, ...) job."""
    clean, coded = resolve_pair(job[0], job[1])
    return clean, coded, analyze_pair(clean, coded)


# ------------------------------------------------------------------ stats --


def _stats_worker(job: tuple[ManifestEntry, str]) -> np.ndarray:
    _, _, pair = _analyze_worker(job)
    hist = mask_histogram([compute_irm(pair.clean_spec, pair.coded_spec)])
    return np.append(hist.counts, hist.total)


def cmd_stats(args) -> int:
    entries, manifest_dir = _load_split(args, args.split)
    out_dir = _ensure_out(args.out_dir)
    results = _map_ordered(
        _stats_worker, [(e, manifest_dir) for e in entries], args.jobs)
    groups: dict[str, np.ndarray] = {}
    members: dict[str, int] = {}
    for entry, result in zip(entries, results):
        key = entry.surrogate_preset() if entry.uses_surrogate() else "file"
        groups[key] = groups.get(key, 0) + result
        members[key] = members.get(key, 0) + 1
    rows = []
    for key in sorted(groups):
        counts, total = groups[key][:-1], int(groups[key][-1])
        rows.extend(
            [key, label, int(c), _fmt(c / total)]
            for label, c in zip(HISTOGRAM_LABELS, counts)
        )
        print(f"stats: {key}: {members[key]} utterances, {total} mask values")
    _write_csv(os.path.join(out_dir, "stats.csv"),
               ["source", "bucket", "count", "fraction"], rows)
    _write_header(out_dir, "stats", args)
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
        if out[-1] <= 0:
            raise ConfigError("bounds must be positive")
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
    _write_header(out_dir, "oracle", args)
    for label, v in zip(labels, means):
        print(f"oracle bound {label}: lsd {_fmt(v)} dB")
    return 0


def _oracle_worker(job) -> list[float]:
    _, _, bounds, with_envelope = job
    clean, coded, pair = _analyze_worker(job)
    sweep = oracle_sweep(pair.clean_spec, pair.coded_spec, tuple(bounds))
    values = [lsd for _, lsd in sweep]
    if with_envelope:
        n = pair.coded_spec.config.n_processed
        clean_td = time_domain_frames(clean.samples)
        coded_td = time_domain_frames(coded.samples)
        emask = envelope_mask(
            pair.clean_spec, pair.coded_spec, clean_td, coded_td)
        enhanced = emask.values * pair.coded_spec.magnitudes(n)
        values.append(
            lsd_from_mags(enhanced, pair.clean_spec.magnitudes(n)))
    return values


# ------------------------------------------------------------------ train --


def cmd_train(args) -> int:
    train_entries, manifest_dir = _load_split(args, "train")
    val_entries, _ = _load_split(args, "val")
    out_dir = _ensure_out(args.out_dir)
    train_pairs, val_pairs = (
        [pair for _, _, pair in _map_ordered(
            _analyze_worker, [(e, manifest_dir) for e in entries], args.jobs)]
        for entries in (train_entries, val_entries))
    stats = input_stats(train_pairs)
    config = TrainConfig(
        kind=args.kind,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        min_delta=args.min_delta,
        seed=args.seed,
    )
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
        "val_evaluations": result.val_evaluations,
        "stopped_early": result.stopped_early,
        "param_count": result.model.param_count(),
        "train_examples": len(train_data),
        "val_examples": len(val_data),
    }
    _write_json(os.path.join(out_dir, "train_summary.json"), summary)
    _write_header(out_dir, "train", args)
    print(f"train: best epoch {result.best_epoch} "
          f"val_loss {result.best_val_loss:.6f} -> {model_path}")
    return 0


# ---------------------------------------------------------------- enhance --


def _enhance_one(model, stats, coded: AudioBuffer) -> AudioBuffer:
    def enhance(spec):
        return apply_mask(spec, infer_mask(model, stats, spec))

    return stft_filter(coded, enhance, label="enhanced")


def _enhance_worker(job) -> str:
    in_path, out_dir, fmt = job
    coded = band_limit(read_wav(in_path, label="coded"))
    enhanced = _enhance_one(*_MODEL, coded)
    stem = os.path.splitext(os.path.basename(in_path))[0]
    out_path = os.path.join(out_dir, f"{stem}.enhanced.wav")
    write_wav(out_path, enhanced, fmt)
    return out_path


def cmd_enhance(args) -> int:
    out_dir = _ensure_out(args.out_dir)
    jobs = [(p, out_dir, args.format) for p in args.inputs]
    written = _map_ordered(_enhance_worker, jobs, args.jobs,
                           partial(_use_model, args.model))
    _write_header(out_dir, "enhance", args)
    for path in written:
        print(path)
    return 0


# ------------------------------------------------------------------- eval --


EVAL_COLUMNS = ("lsd_coded_db", "lsd_enhanced_db", "lsd_improvement_db",
                "segsnr_coded_db", "segsnr_enhanced_db")


def _eval_worker(job) -> list:
    """Scores the samples that the utterance's full analysis frames cover,
    the span an unpadded istft of them would return."""
    entry, manifest_dir = job
    clean, coded = resolve_pair(entry, manifest_dir)
    n_frames = frame_count(len(coded))
    if n_frames < 1:
        raise DataError(f"signal too short for analysis: {len(coded)} samples")
    scored = (n_frames - 1) * DEFAULT_STFT.hop + DEFAULT_STFT.frame_len
    enhanced = _enhance_one(*_MODEL, coded)
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
    rows = _map_ordered(_eval_worker, [(e, manifest_dir) for e in entries],
                        args.jobs, partial(_use_model, args.model))
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
    _write_header(out_dir, "eval", args)
    print(f"eval: lsd {means[0]:.3f} -> {means[1]:.3f} dB "
          f"(improvement {means[2]:.3f}) over {len(rows)} utterances")
    return 0


# ---------------------------------------------------------------- degrade --


def _degrade_worker(job) -> str:
    in_path, out_dir, profile, fmt = job
    coded = surrogate_code(load_clean(in_path), profile)
    stem = os.path.splitext(os.path.basename(in_path))[0]
    out_path = os.path.join(out_dir, f"{stem}.coded.wav")
    write_wav(out_path, coded, fmt)
    return out_path


def cmd_degrade(args) -> int:
    profile = get_profile(args.preset)
    profile = replace(profile, seed=profile.seed + args.seed)
    out_dir = _ensure_out(args.out_dir)
    jobs = [(p, out_dir, profile, args.format) for p in args.inputs]
    written = _map_ordered(_degrade_worker, jobs, args.jobs)
    _write_header(out_dir, "degrade", args)
    for path in written:
        print(path)
    return 0


# ------------------------------------------------------------------ parse --


# Populated by build_parser: command -> {dest: argparse action} for the
# optional flags a --config file may supply.
_CONFIG_ACTIONS: dict[str, dict[str, argparse.Action]] = {}


def build_parser() -> argparse.ArgumentParser:
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
                       help="parallel worker processes (default 1)")
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
    p.add_argument("--kind", default="fcnn", choices=list(MODEL_KINDS))
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--min-delta", type=float, default=1e-4)
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
               seed_help="offset added to the preset's jitter seed")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--format", default="pcm16", choices=["pcm16", "float32"])
    p.add_argument("inputs", nargs="+", help="clean WAV files")
    p.set_defaults(func=cmd_degrade)

    _CONFIG_ACTIONS.clear()
    for name, sp in sub.choices.items():
        _CONFIG_ACTIONS[name] = {
            a.dest: a
            for a in sp._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "config")
        }
    return parser


def _apply_config(args: argparse.Namespace, raw_argv: list[str]) -> None:
    """Fill optional flags from the JSON file named by --config.

    Keys use the flag's dest name (for example batch_size). A flag the
    user typed explicitly keeps its command-line value.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = _CONFIG_ACTIONS[args.command]
    for key in sorted(loaded):
        if key not in allowed:
            raise ConfigError(
                f"config key {key!r} is not an optional flag of "
                f"{args.command!r}; have {sorted(allowed)}")
        action = allowed[key]
        flag = action.option_strings[-1]
        if any(tok == flag or tok.startswith(flag + "=") for tok in raw_argv):
            continue
        value = loaded[key]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be a boolean")
        elif action.type in (int, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number")
            if action.type is int and float(value) != int(value):
                raise ConfigError(f"config key {key!r} must be an integer")
            value = action.type(value)
        elif not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"config key {key!r} must be one of {list(action.choices)}")
        setattr(args, action.dest, value)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(raw_argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, raw_argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except MaskpfError as exc:
        print(f"maskpf {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        _use_model(None)


if __name__ == "__main__":
    sys.exit(main())
