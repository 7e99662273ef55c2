"""In-memory span tracing of the maskpf package, installed from outside.

`Tracer.install` replaces the package's public functions (in every maskpf
module that imported them by name) and the `forward`/`backward` methods of
its layer and model classes with thin wrappers. While `Tracer.active` is
true each wrapped call records one span: name, start, end, parent span,
run id and a few attributes (audio seconds, batch size, estimator kind,
FLOPs). Spans stay in a list until `write` dumps them at the end of a run;
`layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.

Nothing in the package is edited: uninstalling restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

SAMPLE_RATE = 16000
HOP = 256
FRAME_LEN = 512
KINDS = ("fcnn", "lstm", "ced")
COMMANDS = ("degrade", "oracle", "train", "enhance", "eval")
TRAIN_BATCH = 32

# Named layers that hold parameters or batch-norm state, per estimator kind.
# Every other layer (activations, dropout, padding) is pooled as "other".
NAMED_LAYERS = {
    "fcnn": ("dense1", "bn1", "dense2", "bn2", "dense3"),
    "lstm": ("lstm1", "lstm2", "head"),
    "ced": tuple(
        [n for i in range(1, 5) for n in (f"enc{i}", f"enc{i}_bn")]
        + [n for i in range(1, 5) for n in (f"dec{i}", f"dec{i}_bn")]
        + ["head"]),
}
PARAM_LAYER_CLASSES = ("Dense", "BatchNorm", "Conv2d", "Deconv2d", "Lstm")
OTHER_LAYER_CLASSES = ("Relu", "Elu", "Dropout", "PadHighFreq", "ScaledSigmoid")
# Attributes that a span passes down to every span nested inside it.
INHERITED = ("kind", "train", "n", "val")
NAME_ATTR = "_perfbench_layer"


def frames_s(n_frames: int) -> float:
    """Seconds of audio covered by n analysis frames (32 ms, 16 ms hop)."""
    return ((n_frames - 1) * HOP + FRAME_LEN) / SAMPLE_RATE


def _buf_s(buf) -> float:
    return len(buf.samples) / buf.sample_rate


def _spec_s(spec) -> float:
    return frames_s(spec.frames.shape[0])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _audio(seconds_of):
    return lambda a, k, r: {"audio_s": seconds_of(a, k, r)}


def _gather_flops(a, k, r):
    w = _arg(a, k, 1, "w")
    n, b, oh, ow = r.shape
    return {"flops": 2 * n * b * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]}


def _scatter_flops(a, k, r):
    src, w = _arg(a, k, 0, "src"), _arg(a, k, 1, "w")
    n, ca, oh, ow = src.shape
    return {"flops": 2 * n * ca * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]}


def _weight_grad_flops(a, k, r):
    big, small = _arg(a, k, 0, "big"), _arg(a, k, 1, "small")
    n, b, oh, ow = small.shape
    return {"flops": 2 * n * b * oh * ow * big.shape[1] * r.shape[2] * r.shape[3]}


# (module, function, span name, attribute function or None)
FUNCTIONS = [
    ("maskpf.audio_io", "read_wav", "audio_io.read_wav",
     _audio(lambda a, k, r: _buf_s(r))),
    ("maskpf.audio_io", "write_wav", "audio_io.write_wav",
     _audio(lambda a, k, r: _buf_s(_arg(a, k, 1, "buf")))),
    ("maskpf.dsp", "band_limit", "dsp.band_limit",
     _audio(lambda a, k, r: _buf_s(r))),
    ("maskpf.dsp", "level_normalize", "dsp.level_normalize",
     _audio(lambda a, k, r: _buf_s(r[0]))),
    ("maskpf.dsp", "stft", "dsp.stft",
     _audio(lambda a, k, r: _buf_s(_arg(a, k, 0, "buf")))),
    ("maskpf.dsp", "istft", "dsp.istft", _audio(lambda a, k, r: _buf_s(r))),
    ("maskpf.degrade", "surrogate_code", "degrade.surrogate_code",
     _audio(lambda a, k, r: _buf_s(r))),
    ("maskpf.degrade", "align_pair", "degrade.align_pair",
     _audio(lambda a, k, r: _buf_s(_arg(a, k, 0, "clean")))),
    ("maskpf.degrade", "resolve_pair", "degrade.resolve_pair", None),
    ("maskpf.features", "analyze_pair", "features.analyze_pair",
     _audio(lambda a, k, r: frames_s(r.n_frames))),
    ("maskpf.features", "build_dataset", "features.build_dataset",
     _audio(lambda a, k, r: sum(frames_s(p.n_frames)
                                for p in _arg(a, k, 0, "pairs")))),
    ("maskpf.features", "infer_mask", "features.infer_mask",
     _audio(lambda a, k, r: _spec_s(_arg(a, k, 2, "coded_spec")))),
    ("maskpf.mask", "compute_irm", "mask.compute_irm",
     _audio(lambda a, k, r: _spec_s(_arg(a, k, 1, "coded")))),
    ("maskpf.mask", "apply_mask", "mask.apply_mask",
     _audio(lambda a, k, r: _spec_s(r))),
    ("maskpf.mask", "oracle_sweep", "mask.oracle_sweep",
     _audio(lambda a, k, r: _spec_s(_arg(a, k, 1, "coded")))),
    ("maskpf.mask", "envelope_mask", "mask.envelope_mask",
     _audio(lambda a, k, r: _spec_s(_arg(a, k, 1, "coded")))),
    ("maskpf.metrics", "log_spectral_distance", "metrics.lsd",
     _audio(lambda a, k, r: _buf_s(_arg(a, k, 0, "reference")))),
    ("maskpf.metrics", "segmental_snr", "metrics.segsnr",
     _audio(lambda a, k, r: _buf_s(_arg(a, k, 0, "reference")))),
    ("maskpf.nn.kernels", "gather", "kernels.gather", _gather_flops),
    ("maskpf.nn.kernels", "scatter", "kernels.scatter", _scatter_flops),
    ("maskpf.nn.kernels", "weight_grad", "kernels.weight_grad",
     _weight_grad_flops),
    ("maskpf.nn.io", "load_model", "io.load_model", None),
    ("maskpf.nn.io", "save_model", "io.save_model", None),
    ("maskpf.nn.loss", "logmag_mse", "loss.logmag_mse", None),
    ("maskpf.nn.train", "train_model", "train.train_model",
     lambda a, k, r: {"kind": _arg(a, k, 0, "config").kind}),
    # Private, but it is the whole validation pass of one epoch.
    ("maskpf.nn.train", "_eval_loss", "train.val", lambda a, k, r: {"val": True}),
] + [("maskpf.cli", f"cmd_{c}", f"cli.{c}", None) for c in COMMANDS]

# Attribute functions that must run before the call (they set inherited
# context for the spans nested inside).
PRE_ATTRS = {"train.train_model", "train.val"}


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, run id, attrs]
        self.spans: list[list] = []
        self.active = False
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _call(self, name, fn, args, kwargs, attrs_fn, pre):
        spans, stack = self.spans, self._stack
        sid = len(spans)
        attrs = attrs_fn(args, kwargs, None) if pre else None
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, attrs]
        spans.append(span)
        stack.append(sid)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if attrs_fn is not None and not pre:
            span[5] = attrs_fn(args, kwargs, result)
        return result

    def _wrap_function(self, fn, name, attrs_fn):
        tracer = self
        pre = name in PRE_ATTRS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, attrs_fn, pre)

        return wrapper

    def _wrap_method(self, fn, span_name):
        """Wrap a method; span_name maps the instance to the span's name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not tracer.active:
                return fn(obj, *args, **kwargs)
            return tracer._call(span_name(obj), fn, (obj,) + args, kwargs,
                                None, False)

        return wrapper

    def _wrap_model_method(self, fn, method):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, x, *args, **kwargs):
            if not tracer.active:
                return fn(model, x, *args, **kwargs)
            attrs = {"kind": model.kind, "n": int(x.shape[0])}
            if method == "forward":
                attrs["train"] = bool(args[0] if args else kwargs.get("train", False))
            elif method == "backward":
                attrs["train"] = True
            else:  # infer
                attrs["audio_s"] = frames_s(int(x.shape[0]))
            return tracer._call(f"model.{method}", fn, (model, x) + args,
                                kwargs, lambda a, k, r: attrs, True)

        return wrapper

    def _name_layers(self, fn):
        """build_model post-hook: tag each named layer with its kind and name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            for name, layer in model._layers():
                setattr(layer, NAME_ATTR, f"{model.kind}.{name}")
            return model

        return wrapper

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Replace a function in every loaded maskpf module that holds it."""
        import sys

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "maskpf" or mod_name.startswith("maskpf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        # Import every module first so that by-name imports can be found.
        for mod_name in ("maskpf.cli", "maskpf.nn.adam", "maskpf.nn.lstm"):
            importlib.import_module(mod_name)
        for mod_name, fn_name, span_name, attrs_fn in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            self._patch_everywhere(
                original, self._wrap_function(original, span_name, attrs_fn))
        models = importlib.import_module("maskpf.nn.models")
        build = models.build_model
        self._patch_everywhere(build, self._name_layers(build))
        layers = importlib.import_module("maskpf.nn.layers")
        lstm = importlib.import_module("maskpf.nn.lstm")
        for cls_name in PARAM_LAYER_CLASSES + OTHER_LAYER_CLASSES:
            cls = getattr(layers, cls_name, None) or getattr(lstm, cls_name)
            for method in ("forward", "backward"):
                if cls_name in OTHER_LAYER_CLASSES:
                    name = lambda layer, m=method: f"layer.other.{m}"
                else:
                    name = lambda layer, m=method: (
                        f"layer.{getattr(layer, NAME_ATTR, 'unnamed')}.{m}")
                self._patch(cls, method, self._wrap_method(vars(cls)[method], name))
        for cls_name in ("FcnnModel", "LstmModel", "CedModel"):
            cls = getattr(models, cls_name)
            for method in ("forward", "backward"):
                self._patch(cls, method,
                            self._wrap_model_method(vars(cls)[method], method))
        self._patch(models.Model, "infer",
                    self._wrap_model_method(vars(models.Model)["infer"], "infer"))
        self._patch(models.Model, "zero_grads", self._wrap_method(
            vars(models.Model)["zero_grads"], lambda m: "model.zero_grads"))
        adam = importlib.import_module("maskpf.nn.adam").Adam
        self._patch(adam, "step",
                    self._wrap_method(vars(adam)["step"], lambda a: "adam.step"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- output

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run, "attrs": attrs or {},
                }) + "\n")


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _contexts(spans) -> list[dict]:
    """Inherited attributes of each span: its own plus its ancestors'."""
    ctx: list[dict] = []
    for name, _, _, parent, _, attrs in spans:
        base = ctx[parent] if parent >= 0 else {}
        if attrs and any(k in attrs for k in INHERITED):
            base = {**base, **{k: attrs[k] for k in INHERITED if k in attrs}}
        ctx.append(base)
    return ctx


def layer_metrics(spans, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Reduce spans to {metric name: (value, unit)}."""
    self_t = _self_times(spans)
    ctx = _contexts(spans)
    total: dict[str, float] = {}     # inclusive seconds per key
    own: dict[str, float] = {}       # self seconds per key
    audio: dict[str, float] = {}     # audio seconds per key
    calls: dict[str, int] = {}
    flops: dict[str, float] = {}

    def add(key, i, dur):
        total[key] = total.get(key, 0.0) + dur
        own[key] = own.get(key, 0.0) + self_t[i]
        calls[key] = calls.get(key, 0) + 1
        attrs = spans[i][5] or {}
        if "audio_s" in attrs:
            audio[key] = audio.get(key, 0.0) + attrs["audio_s"]
        if "flops" in attrs:
            flops[key] = flops.get(key, 0.0) + attrs["flops"]

    # A training step of batch 32 is a model.forward(train=True) of 32
    # examples and what follows it outside the validation pass: the loss,
    # zero_grads, backward and the Adam update.
    steps: dict[str, int] = {}
    last_train_n: dict[str, int] = {}
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = end - start
        c = ctx[i]
        kind = c.get("kind")
        add(name, i, dur)
        if not kind:
            continue
        if name.startswith(("model.", "train.")):
            add(f"{name}@{kind}", i, dur)
        if name == "model.forward" and c.get("train"):
            last_train_n[kind] = attrs["n"]
        elif name == "model.backward" and attrs["n"] == TRAIN_BATCH:
            steps[kind] = steps.get(kind, 0) + 1
        inside = (c.get("train") and c.get("n") == TRAIN_BATCH
                  and name.startswith(("layer.", "kernels.", "model.")))
        after = (name in ("loss.logmag_mse", "model.zero_grads", "adam.step")
                 and not c.get("val") and last_train_n.get(kind) == TRAIN_BATCH)
        if inside or after:
            add(f"{name}@step.{kind}", i, dur)

    def per_step(key, kind, which=total):
        return 1e3 * which.get(key, 0.0) / max(steps.get(kind, 0), 1)

    def per_audio(key, which=total):
        return 1e3 * which.get(key, 0.0) / audio[key] if audio.get(key) else 0.0

    def per_call(key):
        return 1e3 * total.get(key, 0.0) / calls[key] if calls.get(key) else 0.0

    out: dict[str, tuple[float, str]] = {}
    for k in ("gather", "scatter", "weight_grad"):
        key = f"kernels.{k}@step.ced"
        out[f"kernels.{k}.ms"] = (per_step(key, "ced", own), "ms")
        out[f"kernels.{k}.gflop"] = (
            flops.get(key, 0.0) / max(steps.get("ced", 0), 1) / 1e9, "GFLOP")
    for kind in KINDS:
        for layer in NAMED_LAYERS[kind] + ("other",):
            label = layer if layer == "other" else f"{kind}.{layer}"
            for method, suffix in (("forward", "fwd_ms"), ("backward", "bwd_ms")):
                key = f"layer.{label}.{method}@step.{kind}"
                out[f"layer.{kind}.{layer}.{suffix}"] = (per_step(key, kind), "ms")
    for kind in KINDS:
        out[f"model.{kind}.infer_ms_per_s"] = (
            per_audio(f"model.infer@{kind}"), "ms/s")
    for kind in KINDS:
        step_ms = sum(per_step(f"{name}@step.{kind}", kind) for name in (
            "model.forward", "loss.logmag_mse", "model.zero_grads",
            "model.backward", "adam.step"))
        out[f"train.{kind}.step_ms"] = (step_ms, "ms")
        out[f"train.{kind}.val_ms"] = (per_call(f"train.val@{kind}"), "ms")
        out[f"adam.{kind}.step_ms"] = (
            per_step(f"adam.step@step.{kind}", kind, own), "ms")
    loading_cmds = calls.get("cli.enhance", 0) + calls.get("cli.eval", 0)
    out["io.load_model.ms"] = (per_call("io.load_model"), "ms")
    out["io.load_model.calls"] = (
        calls.get("io.load_model", 0) / max(loading_cmds, 1), "calls")
    out["io.save_model.ms"] = (per_call("io.save_model"), "ms")
    out["features.analyze_pair.self_ms_per_s"] = (
        per_audio("features.analyze_pair", own), "ms/s")
    out["features.build_dataset.ms_per_s"] = (
        per_audio("features.build_dataset"), "ms/s")
    out["features.infer_mask.self_ms_per_s"] = (
        per_audio("features.infer_mask", own), "ms/s")
    for name in ("dsp.band_limit", "dsp.level_normalize", "dsp.stft",
                 "dsp.istft", "degrade.surrogate_code", "degrade.align_pair",
                 "mask.compute_irm", "mask.apply_mask", "mask.oracle_sweep",
                 "mask.envelope_mask", "metrics.lsd", "metrics.segsnr",
                 "audio_io.read_wav", "audio_io.write_wav"):
        out[f"{name}.ms_per_s"] = (per_audio(name), "ms/s")
    out["audio_io.files"] = (
        (calls.get("audio_io.read_wav", 0) + calls.get("audio_io.write_wav", 0))
        / max(n_rounds, 1), "count")
    for c in COMMANDS:
        key = f"cli.{c}"
        out[f"cli.{c}.self_ms"] = (
            1e3 * own.get(key, 0.0) / calls[key] if calls.get(key) else 0.0, "ms")
    return out
