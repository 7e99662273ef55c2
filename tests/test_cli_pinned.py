"""Byte-level pins of what the CLI writes.

`_cli_output_digests` runs `degrade` (every preset), `stats`, `oracle
--envelope`, `enhance --format float32` and `eval` on two clips of
band-limited noise, with energy at both edges and lengths off the hop
grid, and hashes every file they write except the run headers. A change
to the DSP, the masks, the metrics or inference that moves one output
bit changes a digest.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import maskpf
from maskpf.audio_io import write_wav
from maskpf.cli import main
from maskpf.dsp import AudioBuffer, NormStats, band_limit
from maskpf.nn.io import save_model
from maskpf.nn.models import MODEL_KINDS, N_BINS, build_model
from maskpf.nn.train import TrainConfig

CLIP_LENGTHS = (16077, 8131)

# SHA-256 of each output file, keyed by its path under the run directory,
# with one BLAS thread (numpy 2.4.6, scipy-openblas 0.3.31, x86-64);
# `python tests/test_cli_pinned.py` prints them afresh.
CLI_OUTPUT_SHA256 = {
    "degrade_q_high/clip0.coded.wav":
        "957f785ad95ab3834d8793aa4183e4be9ff2c5e1dd5a2ddfb6016286682c62b3",
    "degrade_q_high/clip1.coded.wav":
        "c0e2db392da3620e1ffe8cdbb59cecfaa423e49d8398df12010dc6262e7e6072",
    "degrade_q_low/clip0.coded.wav":
        "159133c80e61e67d73001ddd267b3d32139951e558d8e383834572d17dc0b3f1",
    "degrade_q_low/clip1.coded.wav":
        "dea16d316847c2be5922e5a994f700e07898929093aa31cacb9ee80c3de198cc",
    "degrade_q_mid/clip0.coded.wav":
        "eb8df3320cd67c12dc211676013af4208e3d4c3ba02b53aedf664d5ac581e792",
    "degrade_q_mid/clip1.coded.wav":
        "56bcb655e760c8be50e03dd23d03a8938277bcc5266f0c8206516352cabe9df1",
    "enhance_ced/clip0.coded.enhanced.wav":
        "6d9a1adab9addaedb15e20f90312e1fd27a9d61af6890cc9eeec02c97a035564",
    "enhance_ced/clip1.coded.enhanced.wav":
        "d8e8db6370d9a3dbb3adf292fd14f380195af67019212c058bfdb9a832884e7d",
    "enhance_fcnn/clip0.coded.enhanced.wav":
        "2023b7bccea96c21c3a4cb088785d2716709ca870c82ee0bc71fd2b2a941ae41",
    "enhance_fcnn/clip1.coded.enhanced.wav":
        "bdca0f25bfbba2bc7a8ec43d02e3b01a01dc818bda3845604a59eac5bc13d625",
    "enhance_lstm/clip0.coded.enhanced.wav":
        "2c6adca8d02090c83e8838c5d48acb21add6429c67e2629a0b9d5a63e49eb86e",
    "enhance_lstm/clip1.coded.enhanced.wav":
        "aba1e113333927477a5fdff666a5fc8462bd734b98b02ea4b13e5885a4077c6e",
    "eval_ced/eval_summary.csv":
        "5998e8b2c8abf5d0e829e79ea5b6beff438a54863ac7518816558e0d68a8dd2b",
    "eval_ced/eval_utterances.csv":
        "1d12c2441b59627ab47dfff9ab1701057a3b85c82761a0a473cd3b99fede29b9",
    "eval_fcnn/eval_summary.csv":
        "a06a7d8d67e1d25f9a42aee6c1d87e9dee30341c433b008f14eb9094ef7d636c",
    "eval_fcnn/eval_utterances.csv":
        "45f6e26a689dec1a8b99e03dfb9e3bad4eb20c074f5dbc6dce88ccfb2f08c95d",
    "eval_lstm/eval_summary.csv":
        "99a79d3a548559c0d20b9b40914204b8bb628e57d2f561b2cc16120d8a168fdd",
    "eval_lstm/eval_utterances.csv":
        "6687d3f61fd7bbaf2a70519b124001cfec5232544f5541155a095bcd4b7644a3",
    "oracle/oracle.csv":
        "180fc57293c8f79bdbd4f3a6c60d08523e250ca18d1ec481dcf7225c78943c32",
    "stats/stats.csv":
        "d36b15b0b933bdf5435840fe6f4ba9a9590d31cb7cca324a6365da09cfcf2d6b",
}


def _run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"maskpf {' '.join(argv)} failed")


def _cli_output_digests() -> dict[str, str]:
    rng = np.random.default_rng(1301)
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "wav"))
        clean = []
        for i, n in enumerate(CLIP_LENGTHS):
            buf = band_limit(AudioBuffer(0.1 * rng.standard_normal(n)))
            clean.append(os.path.join(root, "wav", f"clip{i}.wav"))
            write_wav(clean[-1], buf, fmt="float32")
        for preset in ("q_low", "q_mid", "q_high"):
            _run(["degrade", "--preset", preset, "--format", "float32",
                  "--out-dir", os.path.join(root, "out", f"degrade_{preset}"),
                  *clean])
        rows = [("wav/clip0.wav", "surrogate:q_low", "train"),
                ("wav/clip1.wav", "out/degrade_q_high/clip1.coded.wav", "train"),
                ("wav/clip0.wav", "out/degrade_q_mid/clip0.coded.wav", "test"),
                ("wav/clip1.wav", "surrogate:q_high", "test")]
        manifest = os.path.join(root, "manifest.jsonl")
        with open(manifest, "w", encoding="utf-8") as fh:
            for c, coded, split in rows:
                fh.write(json.dumps({"clean": c, "coded": coded,
                                     "split": split}) + "\n")
        _run(["stats", "--manifest", manifest,
              "--out-dir", os.path.join(root, "out", "stats")])
        _run(["oracle", "--manifest", manifest, "--envelope",
              "--out-dir", os.path.join(root, "out", "oracle")])
        stats = NormStats(np.linspace(-6.0, -2.0, N_BINS),
                          np.linspace(1.5, 2.5, N_BINS))
        coded = [os.path.join(root, "out", "degrade_q_mid", f"clip{i}.coded.wav")
                 for i in range(len(CLIP_LENGTHS))]
        for seed, kind in enumerate(MODEL_KINDS):
            model = os.path.join(root, f"{kind}.mpf1")
            save_model(model, build_model(kind, seed, dtype=np.float32), stats,
                       TrainConfig(kind=kind, seed=seed))
            _run(["enhance", "--model", model, "--format", "float32",
                  "--out-dir", os.path.join(root, "out", f"enhance_{kind}"),
                  *coded])
            _run(["eval", "--manifest", manifest, "--model", model,
                  "--out-dir", os.path.join(root, "out", f"eval_{kind}")])
        digests = {}
        out = os.path.join(root, "out")
        for dirpath, _, names in os.walk(out):
            for name in names:
                if name == "run_header.json":
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out)] = (
                        hashlib.sha256(fh.read()).hexdigest())
    return dict(sorted(digests.items()))


def test_cli_outputs_are_pinned():
    """Run in a child process so that OpenBLAS starts with one thread: its
    float32 sums change with the thread count."""
    paths = [os.path.dirname(os.path.dirname(maskpf.__file__)),
             os.path.dirname(__file__)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    assert json.loads(run.stdout.splitlines()[-1]) == CLI_OUTPUT_SHA256


if __name__ == "__main__":
    print(json.dumps(_cli_output_digests()))
