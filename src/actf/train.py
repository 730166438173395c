"""SGD with momentum and weight decay, plus a deterministic mini-batch loop.

Update rule per parameter:
    v <- momentum * v + grad + weight_decay * theta
    theta <- theta - lr * v
Batch gradients are means over the batch, so learning-rate semantics are
stable under batch-size changes.

Datasets are lists of (video Tensor, label) pairs. ``fit`` and ``predict``
stack one minibatch or chunk of videos at a time, never the whole list, so
a step holds one batch of videos on top of the dataset itself. A batch keeps
its samples' dtype, float32 from ``actf.data``; the model's first layer
widens it to float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from . import model as M
from .tensor import Tape, Tensor, cross_entropy


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 0.0001
    decay_factor: float = 0.1
    decay_epochs: tuple = ()
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.lr0 > 0:
            raise ConfigError("TrainConfig: lr0 must be > 0")
        if not 0 <= self.decay_factor < 1:
            raise ConfigError("TrainConfig: decay_factor must be in [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("TrainConfig: bad epochs/batch_size")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"TrainConfig: momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"TrainConfig: weight_decay must be >= 0, got {self.weight_decay}")
        if any(e < 0 for e in self.decay_epochs):
            raise ConfigError(f"TrainConfig: decay_epochs must be >= 0, got {self.decay_epochs}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: multiply by decay_factor at each listed epoch index."""
    drops = sum(1 for e in cfg.decay_epochs if e <= epoch)
    return cfg.lr0 * cfg.decay_factor ** drops


class SgdOptimizer:
    """Momentum SGD over a fixed registry of (name, tensor, decay?) triples.

    Each step updates the parameter and velocity arrays in place."""

    def __init__(self, parameters, cfg: TrainConfig):
        self.parameters = list(parameters)
        self.cfg = cfg
        self.velocity = {name: np.zeros_like(t.data) for name, t, _ in self.parameters}

    def step(self, lr: float) -> None:
        for name, t, decay in self.parameters:
            if t.grad is None:
                raise RuntimeError(
                    f"SgdOptimizer.step: registered parameter {name!r} has no gradient"
                )
            g = t.grad
            if decay and self.cfg.weight_decay:
                g = g + self.cfg.weight_decay * t.data
            v = self.velocity[name]
            v *= self.cfg.momentum
            v += g
            t.data -= lr * v
            t.grad = None


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss: float
    train_acc: float
    eval_acc: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # one EpochRecord per epoch
    # (epoch, batch) of the first minibatch whose loss or some gradient was not
    # finite, and the first tensor, in `named_tensors` order, whose gradient
    # there was not (None if only the loss was). Training runs on regardless.
    nonfinite_at: tuple | None = None
    nonfinite_tensor: str | None = None


# Videos per untaped forward in `predict`; bounds evaluation memory.
EVAL_CHUNK = 16


def predict(params: M.ModelParams, dataset) -> np.ndarray:
    """Logits (n, classes) of a list of (video, label) pairs: EVAL_CHUNK videos
    are stacked and run at a time, with no tape."""
    chunks = (dataset[i:i + EVAL_CHUNK] for i in range(0, len(dataset), EVAL_CHUNK))
    return np.concatenate([M.forward(Tensor(np.stack([video.data for video, _ in chunk])),
                                     params).data for chunk in chunks])


def evaluate(params: M.ModelParams, dataset) -> float:
    """Top-1 accuracy over a dataset (no tape, no gradients)."""
    if not dataset:
        raise ConfigError("evaluate: empty dataset")
    labels = np.array([label for _, label in dataset])
    return float(np.mean(np.argmax(predict(params, dataset), axis=1) == labels))


def fit(params: M.ModelParams, dataset, cfg: TrainConfig, eval_set=None) -> TrainReport:
    """Train in place; deterministic given config and seed (fixed shuffle order).

    Each minibatch is stacked from the dataset, then run as one batched
    forward and one backward of its mean loss. The first non-finite loss or
    gradient is recorded in the report, not raised.
    """
    if not dataset:
        raise ConfigError("fit: empty dataset")
    labels = np.array([label for _, label in dataset])
    rng = np.random.default_rng(cfg.seed)
    optimizer = SgdOptimizer(M.trainable_parameters(params), cfg)
    report = TrainReport()
    n = len(dataset)
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            with Tape() as tape:
                logits = M.forward(Tensor(np.stack([dataset[i][0].data for i in batch])), params)
                batch_loss = cross_entropy(logits, labels[batch])
                tape.backward(batch_loss)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == labels[batch]))
            total_loss += float(batch_loss.data) * len(batch)
            if report.nonfinite_at is None:
                bad = [name for name, t, _ in optimizer.parameters
                       if t.grad is not None and not np.isfinite(t.grad).all()]
                if bad or not np.isfinite(batch_loss.data):
                    report.nonfinite_at = (epoch, start // cfg.batch_size)
                    report.nonfinite_tensor = bad[0] if bad else None
            optimizer.step(lr)
        eval_acc = evaluate(params, eval_set) if eval_set else float("nan")
        report.epochs.append(EpochRecord(
            epoch=epoch, lr=lr, loss=total_loss / n,
            train_acc=correct / n, eval_acc=eval_acc,
        ))
    return report
