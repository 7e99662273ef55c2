"""Minibatch training loop with early stopping on the validation loss.

Training runs in float32, the dtype model files store: `train_model`
builds a float32 model and `Dataset` holds float32 arrays, so the file
saved from a trained model holds its weights exactly. A model passed in
through `model=` trains in its own dtype.

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

import time
from dataclasses import asdict, dataclass, field

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
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"kind must be one of {MODEL_KINDS}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.patience < 1 or self.min_delta < 0:
            raise ConfigError("patience must be >= 1 and min_delta >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


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
    val_evaluations: int


class EarlyStopping:
    """Stop after `patience` epochs without a val-loss drop of min_delta.

    Keeps a copy of the best-epoch weights so training can hand back the
    best model rather than the last one.
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
        if self.best_state is not None:
            model.load_state(self.best_state)


@dataclass
class Dataset:
    """One estimator kind's examples, held as frames: every utterance's
    normalized frames, left-padded with `context_frames - 1` copies of its
    frame 0 and stacked in `rows` (`from_utterances`).

    Example i is the context window that begins at row `offsets[i]`, with
    mask target `targets[i]` and the degraded magnitudes `mags[i]` the loss
    multiplies both masks against. `batch` gathers windows through
    `window_inputs`, the builder `Model.infer` uses, so training and
    validation see the same windows.

    The arrays are held in float32, the training dtype: they are cast once
    here (a no-op for float32 arrays), so no batch mixes float64 data with
    float32 weights.
    """

    kind: str
    rows: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    mags: np.ndarray

    @classmethod
    def from_utterances(cls, kind: str, frames: list[np.ndarray],
                        targets: list[np.ndarray],
                        mags: list[np.ndarray]) -> "Dataset":
        """One example per frame of each utterance's (T, K) frames, whose
        first windows repeat its own frame 0."""
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown estimator kind {kind!r}")
        if not frames:
            raise DataError("no utterances to assemble")
        lengths = [f.shape[0] for f in frames]
        if min(lengths) < 1:
            raise DataError("every utterance needs at least one frame")
        if [t.shape[0] for t in targets] != lengths or [m.shape[0] for m in mags] != lengths:
            raise DataError("targets and mags must hold one row per frame")
        context = CONTEXT_FRAMES[kind]
        pads_before = (context - 1) * np.arange(len(frames))
        return cls(
            kind,
            np.concatenate([pad_context(f, context) for f in frames],
                           dtype=np.float32),
            np.arange(sum(lengths)) + np.repeat(pads_before, lengths),
            np.concatenate(targets, dtype=np.float32),
            np.concatenate(mags, dtype=np.float32),
        )

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown estimator kind {self.kind!r}")
        self.rows = np.asarray(self.rows, dtype=np.float32)
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        self.targets = np.asarray(self.targets, dtype=np.float32)
        self.mags = np.asarray(self.mags, dtype=np.float32)
        n = self.offsets.shape[0]
        if self.rows.ndim != 2 or self.offsets.ndim != 1:
            raise DataError("rows must be (R, K) and offsets one per example")
        if n < 1:
            raise DataError("dataset is empty")
        if self.targets.shape != self.mags.shape:
            raise DataError("targets and mags must have the same shape")
        if self.targets.shape[0] != n:
            raise DataError("targets and mags must hold one row per example")
        last = self.offsets.max() + CONTEXT_FRAMES[self.kind]
        if self.offsets.min() < 0 or last > self.rows.shape[0]:
            raise DataError("a window offset reaches outside the rows")

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


def train_model(
    config: TrainConfig,
    train_data: Dataset,
    val_data: Dataset,
    model: Model | None = None,
) -> TrainResult:
    """Fit an estimator; returns the best-validation-epoch weights."""
    if model is None:
        model = build_model(config.kind, config.seed, dtype=np.float32)
    if train_data.kind != model.kind or val_data.kind != model.kind:
        raise ConfigError(f"datasets must hold {model.kind} examples")
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
    val_evals = 0
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
        val_evals += 1
        history.append(EpochLog(
            epoch, train_loss, val_loss, config.learning_rate,
            time.perf_counter() - t0))
        if stopper.update(val_loss, epoch, model):
            stopped_early = True
            break

    stopper.restore(model)
    best_epoch = stopper.best_epoch if stopper.best_state is not None else 0
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=float(stopper.best_loss),
        stopped_early=stopped_early,
        val_evaluations=val_evals,
    )
