"""A small coordinate regressor as an alternative to homography fitting.

The forward pass, loss, gradient, and initializer are module-level
functions over a flat parameter vector so they can be exercised and
checked (for example against finite differences) without running the
training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, TrainingError, UsageError
from .geometry import PerspectiveTransform
from .types import PointPair

LR_FLOOR = 1e-15


def param_count(architecture: Sequence[int]) -> int:
    """Total weights plus biases for the given layer sizes."""
    sizes = tuple(int(s) for s in architecture)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise UsageError("architecture needs at least two positive layer sizes")
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


def init_params(architecture: Sequence[int], seed: int = 0) -> np.ndarray:
    """Glorot-scaled random weights, zero biases, as one flat vector."""
    rng = np.random.default_rng(seed)
    chunks = []
    sizes = tuple(int(s) for s in architecture)
    param_count(sizes)
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        chunks.append(rng.uniform(-limit, limit, size=n_in * n_out))
        chunks.append(np.zeros(n_out))
    return np.concatenate(chunks)


def _unpack(params: np.ndarray, sizes: tuple[int, ...]):
    layers = []
    pos = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = params[pos : pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        b = params[pos : pos + n_out]
        pos += n_out
        layers.append((w, b))
    if pos != len(params):
        raise UsageError("parameter vector length does not match architecture")
    return layers


def mlp_apply(params: np.ndarray, architecture: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Forward pass: tanh hidden layers, linear output layer."""
    sizes = tuple(int(s) for s in architecture)
    layers = _unpack(np.asarray(params, dtype=float), sizes)
    a = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(layers):
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.tanh(a)
    return a


def mlp_loss(params: np.ndarray, architecture: Sequence[int], x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error over every output element."""
    pred = mlp_apply(params, architecture, x)
    return float(np.mean((pred - np.asarray(y, dtype=float)) ** 2))


def mlp_loss_grad(
    params: np.ndarray, architecture: Sequence[int], x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and its gradient with respect to the flat parameter vector."""
    sizes = tuple(int(s) for s in architecture)
    params = np.asarray(params, dtype=float)
    layers = _unpack(params, sizes)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    activations = [x]
    a = x
    for i, (w, b) in enumerate(layers):
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.tanh(a)
        activations.append(a)

    pred = activations[-1]
    diff = pred - y
    loss = float(np.mean(diff**2))
    delta = 2.0 * diff / diff.size

    grads: list[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        a_prev = activations[i]
        grads.append(delta.sum(axis=0))
        grads.append((a_prev.T @ delta).ravel())
        if i > 0:
            delta = (delta @ w.T) * (1.0 - activations[i] ** 2)
    grads.reverse()
    return loss, np.concatenate(grads)


def point_rmse(predicted: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square of per-point euclidean errors."""
    diff = np.asarray(predicted, dtype=float) - np.asarray(targets, dtype=float)
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


@dataclass(frozen=True)
class TrainingConfig:
    """Gradient descent settings for fit_transform_net."""

    max_epochs: int = 3000
    learning_rate: float = 0.1
    growth: float = 1.2
    holdout_fraction: float = 0.2
    patience: int = 100

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive and finite")
        if not np.isfinite(self.growth) or self.growth < 1.0:
            raise ConfigError("growth must be at least 1 and finite")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie strictly between 0 and 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")


@dataclass(frozen=True)
class TransformNet:
    """Trained regressor plus the coordinate scaling it was fit under."""

    architecture: tuple[int, ...]
    params: np.ndarray
    in_center: np.ndarray
    in_scale: np.ndarray
    out_center: np.ndarray
    out_scale: np.ndarray

    def __post_init__(self):
        if len(self.params) != param_count(self.architecture):
            raise UsageError("parameter vector length does not match architecture")

    def predict(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        z = (pts - self.in_center) / self.in_scale
        out = mlp_apply(self.params, self.architecture, z)
        return out * self.out_scale + self.out_center


@dataclass(frozen=True)
class TransformNetResult:
    """Trained transform with the losses observed during fitting."""

    transform: PerspectiveTransform
    train_rmse: float
    holdout_rmse: float
    epochs: int
    loss_history: tuple[float, ...] = field(repr=False, default=())


def _center_scale(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = values.mean(axis=0)
    scale = values.std(axis=0)
    scale = np.where(scale <= 1e-12, 1.0, scale)
    return center, scale


def fit_transform_net(
    pairs: Sequence[PointPair],
    architecture: Sequence[int] = (2, 32, 32, 2),
    training_config: TrainingConfig | None = None,
    seed: int = 0,
) -> TransformNetResult:
    """Fit the regressor to point pairs by full-batch gradient descent.

    The step size halves whenever a step would increase the training
    loss, and the step is retried, so the accepted loss sequence never
    increases; accepted steps grow the step size back gently. A
    held-out split watches for overfitting: training stops once the
    held-out loss has not improved for ``patience`` accepted steps, and
    the parameters from the best held-out epoch are kept.
    """
    config = training_config or TrainingConfig()
    sizes = tuple(int(s) for s in architecture)
    n_params = param_count(sizes)
    needed = -(-n_params // 4)
    if len(pairs) < needed:
        raise UsageError(
            f"need at least {needed} pairs to fit {n_params} parameters"
        )

    src = np.array([p.source for p in pairs], dtype=float)
    dst = np.array([p.target for p in pairs], dtype=float)
    in_center, in_scale = _center_scale(src)
    out_center, out_scale = _center_scale(dst)
    x = (src - in_center) / in_scale
    y = (dst - out_center) / out_scale

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_hold = max(1, int(round(len(pairs) * config.holdout_fraction)))
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if len(train_idx) == 0:
        raise UsageError("holdout split leaves no training pairs")
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_ho, y_ho = x[hold_idx], y[hold_idx]

    params = init_params(sizes, seed=seed)
    loss, grad = mlp_loss_grad(params, sizes, x_tr, y_tr)
    if not np.isfinite(loss):
        raise TrainingError("initial loss is not finite")

    lr = config.learning_rate
    history = [loss]
    best_params = params
    best_holdout = mlp_loss(params, sizes, x_ho, y_ho)
    stall = 0
    epochs = 0

    while epochs < config.max_epochs:
        candidate = params - lr * grad
        new_loss, new_grad = mlp_loss_grad(candidate, sizes, x_tr, y_tr)
        if not np.isfinite(new_loss) or new_loss > loss:
            lr *= 0.5
            if lr < LR_FLOOR:
                raise TrainingError(
                    "training diverged: step size underflowed without improving the loss"
                )
            continue
        params, loss, grad = candidate, new_loss, new_grad
        lr = min(lr * config.growth, 1e12)
        epochs += 1
        history.append(loss)
        holdout_loss = mlp_loss(params, sizes, x_ho, y_ho)
        if holdout_loss < best_holdout - 1e-12:
            best_holdout = holdout_loss
            best_params = params
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    net = TransformNet(
        architecture=sizes,
        params=best_params,
        in_center=in_center,
        in_scale=in_scale,
        out_center=out_center,
        out_scale=out_scale,
    )
    transform = PerspectiveTransform(kind="learned", net=net)
    train_rmse = point_rmse(net.predict(src[train_idx]), dst[train_idx])
    holdout_rmse = point_rmse(net.predict(src[hold_idx]), dst[hold_idx])
    return TransformNetResult(
        transform=transform,
        train_rmse=train_rmse,
        holdout_rmse=holdout_rmse,
        epochs=epochs,
        loss_history=tuple(history),
    )
