"""Model file format.

Layout: 4-byte magic "MPF1", a little-endian uint32 header length, a JSON
header, then the raw tensor payloads as little-endian float32 in exactly
the order the header declares. The header carries the estimator kind, the
training config, the feature normalization stats' tensor names, and one
(name, shape) entry per tensor. Keys are sorted and no timestamps are
stored, so saving the same trained model twice yields identical bytes.

The file stores float32, which is plenty for inference and keeps files
half the size. Training runs in float32 too, so a file holds exactly the
trained weights (a float64 model, such as one built for a gradient check,
is rounded on saving). `load_model` allocates a float32 model's layers
and reads each stored tensor straight into the array that holds it, so
`enhance` and `eval` compute in float32 on exactly the stored weights.
Loading draws no initial weights: the training seed in the header is
validated but not used. The normalization stats feed the float64 DSP and
load as float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict

import numpy as np

from ..dsp import NormStats
from ..errors import ConfigError, DataError
from .models import CONTEXT_FRAMES, MODEL_KINDS, N_BINS, Model, empty_model
from .train import TrainConfig

MAGIC = b"MPF1"
FORMAT_VERSION = 1


def save_model(path: str, model: Model, stats: NormStats,
               config: TrainConfig) -> None:
    tensors: list[tuple[str, np.ndarray]] = list(model.state().items())
    tensors.append(("norm.mean", stats.mean))
    tensors.append(("norm.std", stats.std))
    header = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "context_frames": model.context_frames,
        "train_config": asdict(config),
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in tensors
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_model(path: str) -> tuple[Model, NormStats, dict]:
    """Rebuild the estimator in float32 with the stored weights, and its
    feature stats. Any malformed file (header schema, kind, tensor names,
    shapes or values) raises DataError."""
    if not os.path.isfile(path):
        raise DataError(f"no such model file: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if prefix[:4] != MAGIC:
            raise DataError(f"{path}: not a model file (bad magic)")
        if len(prefix) < 8:
            raise DataError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", prefix[4:8])
        if 8 + hlen > size:
            raise DataError(f"{path}: truncated header")
        header = _parse_header(path, fh.read(hlen))
        shapes = _tensor_shapes(path, header["tensors"])
        payload = 4 * sum(math.prod(shape) for shape in shapes.values())
        if 8 + hlen + payload > size:
            raise DataError(f"{path}: payload shorter than declared tensors")
        if 8 + hlen + payload < size:
            raise DataError(f"{path}: {size - 8 - hlen - payload} trailing bytes")
        stats = {name: np.empty(N_BINS, np.float32)
                 for name in ("norm.mean", "norm.std")}
        if any(name not in shapes for name in stats):
            raise DataError(f"{path}: missing normalization tensors")
        if any(shapes[name] != (N_BINS,) for name in stats):
            raise DataError(f"{path}: normalization tensors must hold {N_BINS} "
                            "values each, with a positive scale")
        model = empty_model(header["kind"], dtype=np.float32)
        try:
            state = model.expect_state(
                {name: shape for name, shape in shapes.items() if name not in stats})
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
        state.update(stats)
        # Read into the layers' own arrays: fresh pages dominate the load
        # time, and a read buffer plus a copy would touch each one twice.
        for name in shapes:
            dst = state[name]
            if fh.readinto(dst) != dst.nbytes:
                raise DataError(f"{path}: payload shorter than declared tensors")
            if sys.byteorder == "big":  # the file is little-endian
                dst.byteswap(inplace=True)
            if not _all_finite(dst):
                raise DataError(f"{path}: tensor {name} is not finite")
    mean = stats["norm.mean"].astype(np.float64)
    std = stats["norm.std"].astype(np.float64)
    if np.any(std <= 0):
        raise DataError(f"{path}: normalization tensors must hold {N_BINS} "
                        "values each, with a positive scale")
    return model, NormStats(mean, std), header


def _parse_header(path: str, blob: bytes) -> dict:
    """The header object, once its format version, kind, context and
    training config are checked."""
    try:
        header = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or type(header.get("format_version")) is not int \
            or header["format_version"] != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version")
    kind = header.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"{path}: unknown estimator kind {kind!r}")
    if header.get("context_frames") != CONTEXT_FRAMES[kind]:
        raise DataError(f"{path}: context_frames must be {CONTEXT_FRAMES[kind]} "
                        f"for a {kind} model")
    try:
        config = TrainConfig(**header.get("train_config"))
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{path}: bad train_config: {exc}") from exc
    if config.kind != kind:
        raise DataError(f"{path}: train_config kind {config.kind!r} "
                        f"does not match the model kind {kind!r}")
    if not isinstance(header.get("tensors"), list):
        raise DataError(f"{path}: header has no tensor list")
    return header


def _tensor_shapes(path: str, decls: list) -> dict[str, tuple[int, ...]]:
    """Each declared tensor's shape by name, in file order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for decl in decls:
        if not (isinstance(decl, dict) and isinstance(decl.get("name"), str)
                and isinstance(decl.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in decl["shape"])):
            raise DataError(f"{path}: bad tensor declaration {decl!r}")
        if decl["name"] in shapes:
            raise DataError(f"{path}: duplicate tensor {decl['name']}")
        shapes[decl["name"]] = tuple(decl["shape"])
    return shapes


def _all_finite(arr: np.ndarray) -> bool:
    """Whether no value is NaN or infinite. The min and max propagate NaN
    and reach any infinity, and unlike isfinite they make no temporary."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))
