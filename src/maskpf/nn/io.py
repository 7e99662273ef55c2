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
is rounded on saving). `load_model` builds a float32 model and copies the
stored tensors into it as they are, so `enhance` and `eval` compute in
float32 on exactly the stored weights. The normalization stats feed the
float64 DSP and load as float64.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..dsp import NormStats
from ..errors import ConfigError, DataError
from .models import MODEL_KINDS, N_BINS, Model, build_model
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
        "train_config": config.to_dict(),
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
    """Rebuild the estimator in float32, its weights, and its feature stats.
    Any malformed file (header schema, kind, tensor shapes or values) raises
    DataError."""
    if not os.path.isfile(path):
        raise DataError(f"no such model file: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8 : 8 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version")
    kind, decls = header.get("kind"), header.get("tensors")
    if kind not in MODEL_KINDS:
        raise DataError(f"{path}: unknown estimator kind {kind!r}")
    try:
        config = TrainConfig(**header.get("train_config"))
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{path}: bad train_config: {exc}") from exc
    if config.kind != kind:
        raise DataError(f"{path}: train_config kind {config.kind!r} "
                        f"does not match the model kind {kind!r}")
    if type(config.seed) is not int or config.seed < 0:
        raise DataError(f"{path}: train_config seed must be an int >= 0")
    if not isinstance(decls, list):
        raise DataError(f"{path}: header has no tensor list")

    offset = 8 + hlen
    values: dict[str, np.ndarray] = {}
    for decl in decls:
        if not (isinstance(decl, dict) and isinstance(decl.get("name"), str)
                and isinstance(decl.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in decl["shape"])):
            raise DataError(f"{path}: bad tensor declaration {decl!r}")
        shape = tuple(decl["shape"])
        count = math.prod(shape)
        nbytes = 4 * count
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: payload shorter than declared tensors")
        flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        if not np.all(np.isfinite(flat)):
            raise DataError(f"{path}: tensor {decl['name']} is not finite")
        values[decl["name"]] = flat.reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")

    mean = values.pop("norm.mean", None)
    std = values.pop("norm.std", None)
    if mean is None or std is None:
        raise DataError(f"{path}: missing normalization tensors")
    if mean.shape != (N_BINS,) or std.shape != (N_BINS,) or np.any(std <= 0):
        raise DataError(f"{path}: normalization tensors must hold {N_BINS} "
                        "values each, with a positive scale")
    model = build_model(kind, config.seed, dtype=np.float32)
    model.load_state(values)
    return model, NormStats(mean, std), header
