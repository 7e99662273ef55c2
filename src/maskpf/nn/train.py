"""Minibatch training loop with early stopping on the validation loss.

Training runs in float32, the dtype model files store: `train_model`
builds a float32 model and `Dataset` holds float32 arrays, so the file
saved from a trained model holds its weights exactly.

A `Dataset` is built one way, from utterances: each one's normalized
(T, 205) frames, its (T, 205) mask targets and its (T, 205) degraded
magnitudes, all plain arrays (`features.build_dataset` makes them).

A training step is a train-mode forward, the loss, one backward pass and
one Adam update. The backward pass writes every gradient array the
update reads, whatever they held, so no step zeroes them first, and it
computes no gradient of the network input.

Each epoch's validation loss scores the masks `Model.infer` gives for
the validation windows, the eval path `enhance` and `eval` take, and
draws nothing from the dropout or shuffle streams.

Every source of randomness (weight init, dropout, batch shuffling) derives
from the single seed in the config, so a rerun with the same config and
data reproduces the same weights bit for bit. Wall-clock time is the one
exception and is only reported, never used.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .adam import Adam
from .loss import logmag_mse
from .models import (
    CONTEXT_FRAMES,
    MODEL_KINDS,
    Model,
    build_model,
    pad_context,
    window_inputs,
)


# The `TrainConfig` fields that must be an int, and those that may be any
# real number; neither may be a bool.
_INT_FIELDS = ("batch_size", "max_epochs", "patience", "seed")
_RATE_FIELDS = ("learning_rate", "beta1", "beta2", "adam_eps", "min_delta")


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "fcnn"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        # Types first, so that each range check compares numbers. The range
        # checks are comparisons, written so that NaN fails each (every
        # comparison with NaN is false) and no int is too large for them.
        for names, types, what in ((_INT_FIELDS, int, "an int"),
                                   (_RATE_FIELDS, (int, float), "a number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"kind must be one of {MODEL_KINDS}")
        if not (self.batch_size >= 1 and self.max_epochs >= 1):
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (self.patience >= 1 and 0 <= self.min_delta < math.inf):
            raise ConfigError("patience must be >= 1 and min_delta finite and >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(
                f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    elapsed_s: float


@dataclass
class TrainResult:
    model: Model
    history: list[EpochLog]
    best_epoch: int
    best_val_loss: float
    stopped_early: bool


class EarlyStopping:
    """Stop after `patience` epochs without a val-loss drop of min_delta.

    Keeps a copy of the best-epoch weights so training can hand back the
    best model rather than the last one. The first update always stores
    one: any finite loss beats the initial inf, and `logmag_mse` raises on
    a non-finite loss.
    """

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.counter = 0
        self.best_loss = np.inf
        self.best_epoch = 0
        self.best_state: dict[str, np.ndarray] | None = None

    def update(self, loss: float, epoch: int, model: Model) -> bool:
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.best_epoch = epoch
            self.best_state = {k: v.copy() for k, v in model.state().items()}
            self.counter = 0
            return False
        self.counter += 1
        return self.counter >= self.patience

    def restore(self, model: Model) -> None:
        model.load_state(self.best_state)


class Dataset:
    """One estimator kind's examples, held as frames: every utterance's
    normalized frames, left-padded with `context_frames - 1` copies of its
    frame 0 and stacked in `rows`, one example per frame.

    Example i is the context window that begins at row `offsets[i]`, with
    mask target `targets[i]` and the degraded magnitudes `mags[i]` the loss
    multiplies both masks against. `batch` gathers windows through
    `window_inputs`, the builder `Model.infer` uses, so training and
    validation see the same windows.

    The arrays are held in float32, the training dtype, cast once as they
    are stacked, so no batch mixes float64 data with float32 weights.
    """

    def __init__(self, kind: str, frames: list[np.ndarray],
                 targets: list[np.ndarray], mags: list[np.ndarray]):
        """The examples of each utterance's (T, K) frames, targets and
        mags, whose first windows repeat its own frame 0."""
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown estimator kind {kind!r}")
        if not frames:
            raise DataError("no utterances to assemble")
        lengths = [f.shape[0] for f in frames]
        if min(lengths) < 1:
            raise DataError("every utterance needs at least one frame")
        if [t.shape for t in targets] != [m.shape for m in mags] \
                or [t.shape[0] for t in targets] != lengths:
            raise DataError("targets and mags must be alike, one row per frame")
        context = CONTEXT_FRAMES[kind]
        pads_before = (context - 1) * np.arange(len(frames))
        self.kind = kind
        self.rows = np.concatenate([pad_context(f, context) for f in frames],
                                   dtype=np.float32)
        self.offsets = np.arange(sum(lengths)) + np.repeat(pads_before, lengths)
        self.targets = np.concatenate(targets, dtype=np.float32)
        self.mags = np.concatenate(mags, dtype=np.float32)

    def __len__(self) -> int:
        return int(self.offsets.shape[0])

    def batch(self, idx: np.ndarray) -> np.ndarray:
        """The model inputs of examples idx, in that order."""
        return window_inputs(self.kind, self.rows, self.offsets[idx])

    @property
    def inputs(self) -> np.ndarray:
        """Every example's model input, stacked afresh on each read."""
        return window_inputs(self.kind, self.rows, self.offsets)


def _eval_loss(model: Model, data: Dataset) -> float:
    """The loss of every example's eval-mode mask, from one `Model.infer`
    call over all the stored rows.

    Mask t of that call is the window that ends at row t, so example i's is
    mask `offsets[i] + context_frames - 1`, from the very window training
    sees. The `context_frames - 1` windows per utterance boundary that
    straddle two utterances are computed and dropped. One call per
    utterance would skip them, but its smaller products made the fcnn's
    validation over four 1-1.5 s clips about 25% slower than one call.
    """
    masks = model.infer(data.rows)[data.offsets + model.context_frames - 1]
    loss, _ = logmag_mse(masks, data.targets, data.mags)
    return loss


def train_model(config: TrainConfig, train_data: Dataset,
                val_data: Dataset) -> TrainResult:
    """Fit an estimator; returns the best-validation-epoch weights."""
    if train_data.kind != config.kind or val_data.kind != config.kind:
        raise ConfigError(f"datasets must hold {config.kind} examples")
    model = build_model(config.kind, config.seed, dtype=np.float32)
    adam = Adam(
        model.params(),
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, 0xD5]))
    stopper = EarlyStopping(config.patience, config.min_delta)
    history: list[EpochLog] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_data))
        running = 0.0
        for i in range(0, len(order), config.batch_size):
            idx = order[i : i + config.batch_size]
            pred = model.forward(train_data.batch(idx), train=True)
            loss, grad = logmag_mse(
                pred, train_data.targets[idx], train_data.mags[idx])
            model.backward(grad)
            adam.step(model.grads())
            running += loss * len(idx)
        train_loss = running / len(train_data)
        val_loss = _eval_loss(model, val_data)
        history.append(EpochLog(
            epoch, train_loss, val_loss, config.learning_rate,
            time.perf_counter() - t0))
        if stopper.update(val_loss, epoch, model):
            stopped_early = True
            break

    stopper.restore(model)
    return TrainResult(
        model=model,
        history=history,
        best_epoch=stopper.best_epoch,
        best_val_loss=float(stopper.best_loss),
        stopped_early=stopped_early,
    )
