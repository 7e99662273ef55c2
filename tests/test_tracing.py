"""The benchmark's tracer (`perfbench/tracing.py`) against the package.

The tracer patches package functions by name and position, so a rename
there shows only in a traced benchmark run. This test installs it, runs
a tiny oracle, train and enhance under it, and checks that the spans
the per-layer metrics read are recorded and that uninstalling leaves
every module and class namespace of the package as it found it.
"""

import importlib.util
import inspect
import os
import pathlib
import sys

from maskpf import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict[str, dict]:
    """A copy of the namespace of every loaded maskpf module and of every
    class defined in one."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "maskpf" or name.startswith("maskpf.")):
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_spans_the_pipeline_and_uninstalls(tmp_path, manifest_path,
                                                  corpus_dir):
    before = package_namespaces()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer._patches
        tracer.active = True
        train = tmp_path / "train"
        assert cli.main(["oracle", "--manifest", manifest_path, "--out-dir",
                         str(tmp_path / "oracle"), "--envelope"]) == 0
        assert cli.main(["train", "--manifest", manifest_path, "--out-dir",
                         str(train), "--kind", "fcnn", "--epochs", "1"]) == 0
        assert cli.main(["enhance", "--out-dir", str(tmp_path / "enh"),
                         "--model", str(train / "model.mpf1"),
                         os.path.join(corpus_dir, "wav", "utt00.wav")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    after = package_namespaces()
    for key, namespace in before.items():
        changed = sorted(attr for attr in namespace.keys() | after[key].keys()
                         if namespace.get(attr) is not after[key].get(attr))
        assert not changed, (key, changed)
    names = {span[0] for span in tracer.spans}
    for name in ("features.build_dataset", "features.infer_mask",
                 "mask.apply_mask", "mask.envelope_mask"):
        assert name in names
