"""End-to-end benchmark of the maskpf pipeline, with an optional traced run.

    python3 perfbench/run.py --workload long_utts --seed 1 --seconds 40 --trace 0

Runs `maskpf.cli.main` in-process through degrade -> oracle -> train (fcnn,
lstm, ced) -> enhance (each kind) -> eval on a workload generated from the
seed, timing every command from outside. One round is the whole pipeline;
rounds repeat until --seconds of command time have passed, and at least
twice so that reruns can be compared byte for byte. Each end-to-end metric
is the median of its command's samples from all rounds. The correctness
checks run between rounds, outside the timed region.

With --trace 1 the same rounds run with spans recorded around the package's
public functions and layer passes (see tracing.py), and the result holds
the per-layer metrics instead; the trace itself is written to
perfbench/_work/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 2 when the maskpf sources
are missing and 1 when a pipeline command fails.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, fixed before numpy loads: on a shared 2-core machine the
# default two OpenBLAS threads made one eval of four 3 s utterances take
# anywhere from 1.0 to 2.5 s, against 1.0 to 1.3 s with one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

KINDS = ("fcnn", "lstm", "ced")
EPOCHS = 1
# Kinds whose best validation loss must beat the untrained model's. The
# fcnn is left out: its batch-norm running statistics (momentum 0.99) lag
# the data's so far in a short training that on some seeds its eval-mode
# validation loss stays above the untrained model's even after five
# epochs (see CHANGES.md).
VAL_LOSS_CHECKED = ("lstm", "ced")
TRAIN_SEED = 7
ORACLE_BOUNDS = "1,2,5,inf"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# One round, in order. Degrade runs first because the short_files manifest
# names the coded WAVs it writes; enhance and eval follow the train of
# their kind. Most commands that take under a second on long_utts run
# twice, spread over the round between the long ones: the speed of this
# shared machine drifts by 10-20% for seconds at a time, so a metric is
# the median of many short samples taken apart rather than of a few long
# ones.
SCHEDULE = (
    "degrade", "oracle", "train.fcnn", "enhance.fcnn", "eval",
    "train.lstm", "enhance.lstm", "degrade", "oracle", "enhance.fcnn",
    "eval", "train.ced", "enhance.ced",
)
TOL_DB = 1e-6


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("long_utts", "short_files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    """BLAS library, numpy version and the thread count each loaded
    OpenBLAS reports."""
    import ctypes

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[os.path.basename(path)] = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "blas_threads": threads,
            "requested_threads": int(BLAS_THREADS)}


class Pipeline:
    """One workload's inputs, its timed commands and its checks."""

    def __init__(self, workload: str, seed: int, work: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.corpus = work / "corpus"
        self.probe_dir = work / "probes"
        self.out = work / "out"
        self.rounds = 0
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[dict[str, str]] = []
        self.refs: dict | None = None

    # ----------------------------------------------------------------- setup

    def setup(self) -> float:
        """Generate and write the inputs; returns the seconds it took."""

        t0 = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.utts = workloads.make_workload(self.workload, self.seed)
        self.probes = workloads.make_probes(self.workload)
        self.manifest = workloads.write_corpus(
            str(self.corpus), self.utts, coded_files=self.workload == "short_files")
        self.probe_manifest = workloads.write_corpus(
            str(self.probe_dir), self.probes, coded_files=False)
        return time.perf_counter() - t0

    @property
    def test(self):
        return [u for u in self.utts if u.split == "test"]

    def clean_path(self, u) -> str:
        return str(self.corpus / "wav" / f"{u.name}.wav")

    def coded_path(self, u, preset=None) -> str:

        return str(self.corpus / workloads.coded_wav(u.name, preset or u.preset))

    def model_path(self, kind: str) -> str:
        return str(self.out / f"train_{kind}" / "model.mpf1")

    # --------------------------------------------------------------- running

    def invoke(self, label: str, argv: list[str], timed: bool) -> float:
        """Run one maskpf command in-process and return its wall time; a
        timed one (part of a round) is traced when tracing is on."""
        from maskpf import cli

        tracer = self.tracer if timed else None
        if tracer is not None:
            tracer.run_id = f"r{self.rounds + 1}.{label}"
            tracer.active = True
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv + ["--jobs", "1"])
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if code != 0:
            raise BenchError(f"maskpf {' '.join(argv)} exited with {code}")
        return elapsed

    def argv(self, label: str) -> list[str]:
        """The maskpf command line of one scheduled step."""
        command, _, kind = label.partition(".")
        if command == "degrade":
            return ["degrade", "--out-dir", str(self.corpus / "coded" / kind),
                    "--preset", kind, *[self.clean_path(u) for u in self.utts]]
        if command == "oracle":
            return ["oracle", "--manifest", self.manifest, "--out-dir",
                    str(self.out / "oracle"), "--split", "test", "--bounds",
                    ORACLE_BOUNDS, "--envelope"]
        if command == "train":
            return ["train", "--manifest", self.manifest, "--out-dir",
                    str(self.out / f"train_{kind}"), "--kind", kind,
                    "--epochs", str(EPOCHS), "--patience", str(EPOCHS + 1),
                    "--seed", str(TRAIN_SEED)]
        if command == "enhance":
            return ["enhance", "--out-dir", str(self.out / f"enhance_{kind}"),
                    "--model", self.model_path(kind),
                    *[self.coded_path(u) for u in self.test]]
        return ["eval", "--manifest", self.manifest, "--out-dir",
                str(self.out / "eval"), "--model", self.model_path("fcnn"),
                "--split", "test"]

    def run_round(self) -> float:
        """One timed pass through SCHEDULE; returns its command seconds."""

        gc.collect()
        command_s = 0.0
        for step in SCHEDULE:
            labels = ([f"degrade.{p}" for p in workloads.PRESETS]
                      if step == "degrade" else [step])
            t = sum(self.invoke(label, self.argv(label), True) for label in labels)
            self.samples.setdefault(step, []).append(t)
            command_s += t
        self.rounds += 1
        return command_s

    def end_to_end(self) -> dict[str, float]:
        """The median of each command's samples over all rounds, per second
        of audio or as training examples per second."""
        t = {step: statistics.median(v) for step, v in self.samples.items()}
        all_s = sum(u.seconds for u in self.utts)
        test_s = sum(u.seconds for u in self.test)
        m = {"degrade_rtf": t["degrade"] / (len(workloads.PRESETS) * all_s),
             "oracle_rtf": t["oracle"] / test_s,
             "eval_rtf": t["eval"] / test_s}
        for kind in KINDS:
            summary = json.loads(
                (self.out / f"train_{kind}" / "train_summary.json").read_text())
            work = summary["epochs_run"] * summary["train_examples"]
            m[f"train_eps_{kind}"] = work / t[f"train.{kind}"]
            m[f"enhance_rtf_{kind}"] = t[f"enhance.{kind}"] / test_s
        return m

    # ---------------------------------------------------------------- checks

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def _known_fault_op(self, ok: bool) -> None:
        """An identity-mask operation: a miss is the edge fault, counted as
        failed rather than as a wrong result."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def prepare_refs(self) -> None:
        """Reference values that depend only on the inputs, made once
        before the first round, untimed.

        It starts with an untimed degrade so that a manifest naming coded
        WAVs resolves; with the model builds and forward passes that follow
        it also warms the allocator and caches before the first timed
        command.
        """
        from maskpf.degrade import load_manifest, resolve_pair, split_entries
        from maskpf.dsp import AudioBuffer, band_limit, level_normalize
        from maskpf.features import analyze_pair, build_dataset, input_stats
        from maskpf.nn.models import build_model

        for p in workloads.PRESETS:
            self.invoke("prepare", self.argv(f"degrade.{p}"), False)
        clean_ref = {}
        for u in self.utts:
            buf = AudioBuffer(checks.read_samples(self.clean_path(u)))
            clean_ref[u.name] = level_normalize(band_limit(buf))[0].samples
        entries = load_manifest(self.manifest)
        root = str(self.corpus)
        eval_ref = []
        for e in split_entries(entries, "test"):
            clean, coded = resolve_pair(e, root)
            n = checks.scored_length(len(coded))
            eval_ref.append((checks.lsd_db(clean.samples[:n], coded.samples[:n]),
                             checks.segsnr_db(clean.samples[:n], coded.samples[:n])))
        pairs = {s: [analyze_pair(*resolve_pair(e, root))
                     for e in split_entries(entries, s)] for s in ("train", "val")}
        stats = input_stats(pairs["train"])
        untrained = {}
        for kind in VAL_LOSS_CHECKED:
            val = build_dataset(pairs["val"], kind, stats)
            model = build_model(kind, TRAIN_SEED)
            pred = np.concatenate([model.forward(val.inputs[i:i + 256], train=False)
                                   for i in range(0, len(val), 256)])
            untrained[kind] = checks.logmag_mse(pred, val.targets, val.mags)
        probe_ref = {p.name: checks.band_limited(
            checks.read_samples(str(self.probe_dir / "wav" / f"{p.name}.wav")))
            for p in self.probes}
        self.refs = {"clean": clean_ref, "eval": eval_ref,
                     "untrained": untrained, "probe": probe_ref,
                     "identity": self._identity_models()}

    def _identity_models(self) -> dict[str, str]:
        """Models whose last layer is all zeros, so the scaled sigmoid
        outputs exactly 1 and the mask is the identity."""
        from maskpf.dsp import NormStats
        from maskpf.nn.io import save_model
        from maskpf.nn.models import N_BINS, build_model
        from maskpf.nn.train import TrainConfig

        paths = {}
        os.makedirs(self.work / "identity", exist_ok=True)
        for kind in KINDS:
            model = build_model(kind, 0)
            params = model.params()
            last = list(params)[-1].rsplit(".", 1)[0]
            for name, arr in params.items():
                if name.rsplit(".", 1)[0] == last:
                    arr[...] = 0.0
            paths[kind] = str(self.work / "identity" / f"{kind}.mpf1")
            save_model(paths[kind], model,
                       NormStats(np.zeros(N_BINS), np.ones(N_BINS)),
                       TrainConfig(kind=kind, seed=0))
        return paths

    def check_round(self) -> None:

        refs = self.refs
        digest: dict[str, str] = {}

        # degrade: length, lag-0 alignment, per-preset LSD ordering
        lsd = {p: [] for p in workloads.PRESETS}
        for p in workloads.PRESETS:
            for u in self.utts:
                path = self.coded_path(u, p)
                digest[path] = checks.file_digest(path)
                coded = checks.read_samples(path)
                ref = refs["clean"][u.name]
                ok = (len(coded) == len(ref)
                      and checks.lag_of_peak(ref, coded) == 0)
                self._op(ok, f"degrade {p} {u.name}: length or alignment")
                lsd[p].append(checks.lsd_db(ref, coded))
        means = [np.mean(lsd[p]) for p in workloads.PRESETS]
        self._op(means[0] > means[1] > means[2],
                 f"degrade: LSD not ordered q_low > q_mid > q_high: {means}")

        # oracle: finite rows, LSD non-increasing as the bound grows
        rows = checks.read_csv(str(self.out / "oracle" / "oracle.csv"))[1:]
        values = [float(r[1]) for r in rows]
        bounds = values[:len(ORACLE_BOUNDS.split(","))]
        self._op(len(rows) == len(bounds) + 1
                 and all(np.isfinite(values))
                 and all(a >= b for a, b in zip(bounds, bounds[1:])),
                 f"oracle: rows {rows}")

        # train: loads, fixed epoch count, beats the untrained model on val
        from maskpf.nn.io import load_model

        for kind in KINDS:
            path = self.model_path(kind)
            digest[path] = checks.file_digest(path)
            model, _, header = load_model(path)
            summary = json.loads(
                (self.out / f"train_{kind}" / "train_summary.json").read_text())
            untrained = refs["untrained"].get(kind, np.inf)
            self._op(header["kind"] == kind and model.kind == kind
                     and summary["epochs_run"] == EPOCHS
                     and summary["best_val_loss"] < untrained,
                     f"train {kind}: {summary} vs untrained {untrained}")

        # enhance: same length as the input, finite samples
        for kind in KINDS:
            for u in self.test:
                out = checks.read_samples(str(
                    self.out / f"enhance_{kind}" / f"{u.name}.coded.enhanced.wav"))
                n_in = len(checks.read_samples(self.coded_path(u)))
                self._op(len(out) == n_in and bool(np.all(np.isfinite(out))),
                         f"enhance {kind} {u.name}: length or finiteness")

        # eval: coded-side LSD and segmental SNR match the own computation
        rows = checks.read_csv(str(self.out / "eval" / "eval_utterances.csv"))[1:]
        summary = dict(checks.read_csv(str(self.out / "eval" / "eval_summary.csv"))[1:])
        for row, (ref_lsd, ref_seg) in zip(rows, refs["eval"]):
            self._op(abs(float(row[2]) - ref_lsd) <= TOL_DB
                     and abs(float(row[5]) - ref_seg) <= TOL_DB,
                     f"eval {row[1]}: {row[2]}, {row[5]} vs {ref_lsd}, {ref_seg}")
        mean_lsd = np.mean([r[0] for r in refs["eval"]])
        mean_seg = np.mean([r[1] for r in refs["eval"]])
        if len(rows) != len(refs["eval"]) \
                or abs(float(summary["mean_lsd_coded_db"]) - mean_lsd) > TOL_DB \
                or abs(float(summary["mean_segsnr_coded_db"]) - mean_seg) > TOL_DB:
            self.errors.append(f"eval summary {summary} vs {mean_lsd}, {mean_seg}")
        self.digests.append(digest)
        self.check_identity()

    def check_identity(self) -> None:
        """Identity-mask enhance and eval on the seed-independent probes."""

        refs = self.refs
        inputs = [str(self.probe_dir / "wav" / f"{p.name}.wav") for p in self.probes]
        for kind in KINDS:
            out_dir = self.work / f"identity_enhance_{kind}"
            self.invoke("identity", [
                "enhance", "--out-dir", str(out_dir), "--model",
                refs["identity"][kind], "--format", "float32", *inputs], False)
            for p in self.probes:
                out = checks.read_samples(str(out_dir / f"{p.name}.enhanced.wav"))
                self._known_fault_op(checks.matches_float32(out, refs["probe"][p.name]))
        out_dir = self.work / "identity_eval"
        self.invoke("identity", [
            "eval", "--manifest", self.probe_manifest, "--out-dir", str(out_dir),
            "--model", refs["identity"]["fcnn"], "--split", "test"], False)
        for row in checks.read_csv(str(out_dir / "eval_utterances.csv"))[1:]:
            self._known_fault_op(abs(float(row[4])) <= TOL_DB)

    def check_reruns(self) -> None:
        """Each round's coded files and models equal the next round's."""
        n = len(self.digests)
        for r in range(n):
            a, b = self.digests[r], self.digests[(r + 1) % n]
            for label, part in (("degrade", "coded"),) + tuple(
                    (f"train {k}", f"train_{k}") for k in KINDS):
                keys = [k for k in a if f"/{part}/" in k]
                self._op(bool(keys) and all(a[k] == b.get(k) for k in keys),
                         f"rounds {r + 1} and {(r + 1) % n + 1}: {label} "
                         "outputs differ")


def run(args) -> int:
    if not (SRC / "maskpf" / "__init__.py").is_file():
        print(f"perfbench: maskpf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import maskpf
    import maskpf.cli  # noqa: F401

    if not Path(maskpf.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported maskpf from {maskpf.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    work_root = HERE / "_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    pipe = Pipeline(args.workload, args.seed, work, tracer)
    try:
        setup_s = import_s + statistics.median(
            pipe.setup() for _ in range(SETUP_REPEATS))
        pipe.prepare_refs()
        if tracer is not None:
            tracer.install()
        command_s = 0.0
        while pipe.rounds < MIN_ROUNDS or command_s < args.seconds:
            command_s += pipe.run_round()
            pipe.check_round()
        pipe.check_reruns()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = pipe.end_to_end()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    units = {"degrade_rtf": "s/s", "oracle_rtf": "s/s", "eval_rtf": "s/s"}
    units.update({f"enhance_rtf_{k}": "s/s" for k in KINDS})
    units.update({f"train_eps_{k}": "examples/s" for k in KINDS})
    metrics = {name: {"value": e2e[name], "unit": units[name]} for name in units}
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": pipe.rounds, "command_s": command_s, "samples": pipe.samples,
        "import_s": import_s, "wall_s": time.perf_counter() - T_START,
        **blas_info()}))
    if tracer is not None:
        print(json.dumps({"traced_end_to_end": metrics}))
        tracer_path = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(tracer_path))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in
                   tracing.layer_metrics(tracer.spans, pipe.rounds).items()}
    for err in pipe.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not pipe.errors, "attempted": pipe.attempted,
                      "failed": pipe.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
