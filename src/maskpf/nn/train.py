"""Minibatch training loop with early stopping on the validation loss.

Training runs in float32, the dtype model files store: `train_model`
builds a float32 model and `Dataset` holds float32 arrays, so the file
saved from a trained model holds its weights exactly. A model passed in
through `model=` trains in its own dtype.

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
from .models import MODEL_KINDS, Model, build_model


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
    """Model inputs, target masks, and the degraded magnitudes the loss
    multiplies both masks against. First axis indexes examples.

    The arrays are held in float32, the training dtype: they are cast once
    here (a no-op for float32 arrays), so no batch mixes float64 data with
    float32 weights.
    """

    inputs: np.ndarray
    targets: np.ndarray
    mags: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float32)
        self.targets = np.asarray(self.targets, dtype=np.float32)
        self.mags = np.asarray(self.mags, dtype=np.float32)
        n = self.inputs.shape[0]
        if self.targets.shape[0] != n or self.mags.shape[0] != n:
            raise DataError("inputs, targets, and mags must align on axis 0")
        if self.targets.shape != self.mags.shape:
            raise DataError("targets and mags must have the same shape")
        if n < 1:
            raise DataError("dataset is empty")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def _eval_loss(model: Model, data: Dataset, batch_size: int) -> float:
    total = 0.0
    for i in range(0, len(data), batch_size):
        sl = slice(i, i + batch_size)
        pred = model.forward(data.inputs[sl], train=False)
        loss, _ = logmag_mse(pred, data.targets[sl], data.mags[sl])
        total += loss * (min(i + batch_size, len(data)) - i)
    return total / len(data)


def train_model(
    config: TrainConfig,
    train_data: Dataset,
    val_data: Dataset,
    model: Model | None = None,
) -> TrainResult:
    """Fit an estimator; returns the best-validation-epoch weights."""
    if model is None:
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
    val_evals = 0
    stopped_early = False
    eval_bs = max(config.batch_size, 256)

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_data))
        running = 0.0
        for i in range(0, len(order), config.batch_size):
            idx = order[i : i + config.batch_size]
            pred = model.forward(train_data.inputs[idx], train=True)
            loss, grad = logmag_mse(
                pred, train_data.targets[idx], train_data.mags[idx])
            model.zero_grads()
            model.backward(grad)
            adam.step(model.grads())
            running += loss * len(idx)
        train_loss = running / len(train_data)
        val_loss = _eval_loss(model, val_data, eval_bs)
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
