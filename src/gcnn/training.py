"""Training loop (minibatch SGD on mean squared error), SRMSE evaluation,
and closed-form linear/ridge baselines.

The loop carves a chronological validation tail out of the training
samples and returns the parameters from the epoch with the best
validation SRMSE; selection never sees the test split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .data import WindowedRegressionSet
from .errors import ConfigError, DataError, NumericalError
from .models import Model
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "HistoryEntry",
    "TrainResult",
    "EvalReport",
    "mse_loss",
    "srmse",
    "validation_carve",
    "train",
    "sgd_step",
    "evaluate",
    "linear_baseline",
]


@dataclass
class TrainConfig:
    """Optimization hyperparameters; defaults are decisions, not dogma."""

    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    momentum: float = 0.0
    seed: int = 0
    val_fraction: float = 0.1
    clip_norm: float = 10.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.epochs >= 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if not self.batch_size >= 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0.0:
            # zero is allowed: a no-op run is the cheapest sanity check
            raise ConfigError(f"learning_rate: must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction: must be in [0, 1), got {self.val_fraction}")
        if not self.clip_norm > 0.0:
            raise ConfigError(f"clip_norm: must be > 0, got {self.clip_norm}")


@dataclass
class HistoryEntry:
    epoch: int
    train_srmse: float
    val_srmse: float
    loss: float


@dataclass
class TrainResult:
    model: Model
    history: list[HistoryEntry]
    best_epoch: int
    best_val_srmse: float


@dataclass
class EvalReport:
    """Evaluation summary; srmse is NaN when the targets are constant."""

    srmse: float
    rmse: float
    se: float
    predictions: np.ndarray
    targets: np.ndarray
    times: np.ndarray
    target_name: str
    model_id: str = ""

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "target": self.target_name,
            "srmse": self.srmse,
            "rmse": self.rmse,
            "se": self.se,
            "samples": int(len(self.targets)),
        }


def mse_loss(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean squared residual, as one differentiable op."""
    if predictions.shape != targets.shape:
        raise DataError(f"prediction shape {predictions.shape} does not match targets {targets.shape}")
    return T.mean_squared_error(predictions, targets)


def srmse(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, float, float]:
    """(srmse, rmse, se): root mean squared error over the population
    standard deviation of the targets.  se = 0 gives srmse = NaN."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise DataError("predictions and targets must be equal-length and nonempty")
    rmse = float(np.sqrt(np.mean((targets - predictions) ** 2)))
    se = float(np.sqrt(np.mean((targets - np.mean(targets)) ** 2)))
    value = rmse / se if se > 0.0 else float("nan")
    return value, rmse, se


# samples per forward pass at prediction time: bounds the activations
# held at once, which a whole evaluation set would multiply
PREDICT_CHUNK = 32


def _predict_all(model: Model, wset: WindowedRegressionSet) -> np.ndarray:
    with T.no_grad():
        return np.concatenate([
            model.forward(Tensor(wset.inputs[lo : lo + PREDICT_CHUNK])).data[0]
            for lo in range(0, wset.n_samples, PREDICT_CHUNK)
        ])


def validation_carve(
    train_set: WindowedRegressionSet, val_fraction: float
) -> tuple[WindowedRegressionSet, WindowedRegressionSet]:
    """(fit, val): the validation set is the chronological tail holding
    ``val_fraction`` of the samples, at least one; empty at fraction 0."""
    n = train_set.n_samples
    n_val = max(1, int(n * val_fraction)) if val_fraction > 0.0 else 0
    return train_set.subset(range(n - n_val)), train_set.subset(range(n - n_val, n))


def train(
    model: Model,
    train_set: WindowedRegressionSet,
    config: TrainConfig | None = None,
    epoch_hook: Callable[[int, Model], None] | None = None,
) -> TrainResult:
    """Minibatch SGD; returns the best-on-validation parameters.

    The validation set is the chronological tail of ``train_set`` cut by
    :func:`validation_carve`; it must hold at least two distinct targets,
    or its SRMSE is undefined and no epoch could be selected.  Per epoch
    the history records the running train SRMSE (accumulated from
    minibatch predictions as the parameters move), a fresh validation
    SRMSE, and the mean squared error.  Training aborts with the epoch
    number if the loss or the gradient norm leaves fp64 range.  When no
    epoch's validation SRMSE (its training SRMSE, with no validation
    tail) is finite, no epoch can be returned, and it raises
    NumericalError; ``gcnn train`` then exits 4 and writes no checkpoint.

    Besides the model's parameter vector, a step holds one gradient vector
    and, when momentum > 0, a velocity; the gradient norm squares at most
    :data:`NORM_BLOCK` values at a time.  The best epoch's parameters are
    copied aside only when a later epoch follows it, and restored only
    when the last epoch is not the best.
    """
    config = config or TrainConfig()
    fit_set, val_set = validation_carve(train_set, config.val_fraction)
    n, n_fit, n_val = train_set.n_samples, fit_set.n_samples, val_set.n_samples
    if n_fit < 1:
        raise DataError(f"validation carve-out leaves no training samples ({n} total)")
    if n_val and np.ptp(val_set.targets) == 0.0:
        raise DataError(
            f"validation tail of {n_val} of {n} training samples needs at least 2 distinct "
            "targets to score SRMSE; supply more samples or a larger val_fraction")

    # the step's parameter-sized buffers, made once: the gradient (also the
    # update's scratch) and a velocity only when there is momentum to carry
    params = model.vector
    grad = np.empty_like(params)
    spans = model.param_views(grad)
    into = dict(zip((t for _, t in model.named_params()), spans))
    velocity = np.zeros_like(params) if config.momentum > 0.0 else None
    best = None  # the best epoch's parameters, once a later epoch could move past them
    rng = np.random.default_rng(config.seed)

    history: list[HistoryEntry] = []
    best_val = math.inf
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_fit)
        epoch_preds = np.empty(n_fit)
        sq_err_total = 0.0
        for lo in range(0, n_fit, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            preds = model.forward(Tensor(fit_set.inputs[idx]))
            loss = mse_loss(preds, Tensor(fit_set.targets[idx][None, :]))
            if not loss.is_finite():
                raise NumericalError(f"training diverged: non-finite loss at epoch {epoch}")
            epoch_preds[idx] = preds.data[0]
            sq_err_total += loss.item() * len(idx)
            T.backward(loss, leaves=into)  # consumes the graph
            del preds, loss
            if not math.isfinite(sgd_step(params, grad, spans, velocity, config)):
                raise NumericalError(f"training diverged: non-finite gradient at epoch {epoch}")
        train_srmse, _, _ = srmse(epoch_preds, fit_set.targets)
        if n_val:
            val_srmse, _, _ = srmse(_predict_all(model, val_set), val_set.targets)
        else:
            val_srmse = train_srmse
        history.append(HistoryEntry(epoch, train_srmse, val_srmse, sq_err_total / n_fit))
        if val_srmse < best_val:
            best_val = val_srmse
            best_epoch = epoch
            if epoch < config.epochs:
                if best is None:
                    best = np.empty_like(params)
                np.copyto(best, params)
        if epoch_hook is not None:
            epoch_hook(epoch, model)

    if not best_epoch:
        raise NumericalError(
            f"no epoch of {config.epochs} has a finite {'validation' if n_val else 'training'} SRMSE to select")
    if best_epoch < config.epochs:
        np.copyto(params, best)
    return TrainResult(model, history, best_epoch, best_val)


# the gradient norm squares at most this many values at a time
NORM_BLOCK = 1 << 16


def _sum_of_squares(g: np.ndarray) -> float:
    """``float((g * g).sum())`` of a C-contiguous ``g``, bit for bit, with
    no square of more than :data:`NORM_BLOCK` values.  numpy sums a
    contiguous array pairwise: a run of more than 128 values splits at
    ``n2 = n//2 - (n//2) % 8`` and the two sums are added.  A larger ``g``
    takes the same splits until each part fits the block."""
    n = g.size
    if n <= NORM_BLOCK:
        return float((g * g).sum())
    g = g.reshape(-1)
    n2 = n // 2 - (n // 2) % 8
    return _sum_of_squares(g[:n2]) + _sum_of_squares(g[n2:])


def sgd_step(
    params: np.ndarray, grad: np.ndarray, spans: list[np.ndarray], velocity: np.ndarray | None, config: TrainConfig
) -> float:
    """One clipped momentum-SGD step on the flat ``params``, in place;
    returns the gradient norm, and changes nothing when it is not finite.

    ``grad`` holds the gradient, laid out like ``params``, and ``spans``
    are its per-parameter views; it is also the update's scratch.  The
    squared norm adds one sum per span, in order, and ``g`` is scaled only
    when the norm exceeds ``clip_norm``, so the bits are those of a loop
    over the parameters doing ``v = momentum * v + g * scale`` and
    ``p -= learning_rate * v``.  ``velocity`` is None at momentum 0: the
    step is then ``learning_rate * (g * scale)``, which differs from
    ``0 * v + g * scale`` only in the sign of a zero, and so changes no
    parameter that is not -0.0 (and a trained parameter never is).
    Each span's sum of squares has those bits without a square as large
    as the span (see :func:`_sum_of_squares`).
    """
    gnorm = math.sqrt(sum(_sum_of_squares(g) for g in spans))
    if not math.isfinite(gnorm):
        return gnorm
    if gnorm > config.clip_norm:
        grad *= config.clip_norm / gnorm
    if velocity is not None:
        velocity *= config.momentum
        velocity += grad
        np.multiply(velocity, config.learning_rate, out=grad)
    else:
        grad *= config.learning_rate
    params -= grad
    return gnorm


def evaluate(model: Model, wset: WindowedRegressionSet, model_id: str = "") -> EvalReport:
    """SRMSE/RMSE of the model on a sample set (read-only); the windows
    go through the model as (B, C, W) batches of :data:`PREDICT_CHUNK`."""
    if wset.n_samples == 0:
        raise DataError("cannot evaluate on an empty set")
    preds = _predict_all(model, wset)
    value, rmse, se = srmse(preds, wset.targets)
    return EvalReport(value, rmse, se, preds, wset.targets.copy(), wset.times.copy(),
                      wset.target_name, model_id)


def linear_baseline(
    train_set: WindowedRegressionSet,
    test_set: WindowedRegressionSet,
    ridge_lambda: float = 0.0,
    model_id: str = "",
) -> EvalReport:
    """Least squares / ridge on flattened windows, intercept unpenalized.

    Solves (X'X + lambda*I)w = X'y with a dense solve; the identity is
    zeroed at the intercept coordinate.  A singular system at lambda = 0
    is reported with a pointer to ridge.
    """
    if ridge_lambda < 0.0:
        raise ConfigError(f"ridge penalty must be >= 0, got {ridge_lambda}")

    def design(wset: WindowedRegressionSet) -> np.ndarray:
        flat = wset.inputs.reshape(wset.n_samples, -1)
        return np.hstack([np.ones((wset.n_samples, 1)), flat])

    x = design(train_set)
    y = train_set.targets
    gram = x.T @ x
    if ridge_lambda > 0.0:
        penalty = np.eye(gram.shape[0]) * ridge_lambda
        penalty[0, 0] = 0.0  # keep the intercept unshrunk
        gram = gram + penalty
    try:
        weights = np.linalg.solve(gram, x.T @ y)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            "normal equations are singular; rerun with a ridge penalty > 0"
        ) from e
    preds = design(test_set) @ weights
    value, rmse, se = srmse(preds, test_set.targets)
    return EvalReport(value, rmse, se, preds, test_set.targets.copy(), test_set.times.copy(),
                      test_set.target_name, model_id)

