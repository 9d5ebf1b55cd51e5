"""From-scratch classifiers: k-NN, linear SVM, MLP, and a 1-D CNN.

All training is plain mini-batch stochastic gradient descent with momentum,
fully seeded, in numpy.  Every differentiable model exposes
``loss_and_grads`` (dropout disabled) so its backward pass can be verified
against central finite differences with :func:`gradient_check`.

Trained models are immutable in practice (weights are not mutated after
training) and safe to share for inference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings shared by the gradient-trained models."""

    seed: int = 0
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _glorot_uniform(rng, fan_in: int, fan_out: int, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(logits.dtype).tiny
    loss = -np.mean(np.log(probs[np.arange(n), labels] + eps))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _sgd(params, n: int, config: TrainConfig, rng, step, name: str) -> None:
    """Mini-batch SGD with momentum, updating ``params`` in place.

    Each epoch visits the ``n`` training rows in a fresh permutation drawn
    from ``rng``.  ``step(idx)`` returns the loss on rows ``idx`` and one
    gradient per array of ``params``.
    """
    vel = [np.zeros_like(p) for p in params]
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            loss, grads = step(perm[start : start + config.batch_size])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"{name} loss diverged with {config}")
            for p, v, g in zip(params, vel, grads):
                v *= config.momentum
                v -= config.learning_rate * g
                p += v


def _training_set(train_x, train_y, name: str):
    """``(x, int64 labels, float dtype)`` of a training set with >= 2 classes.

    The dtype is ``x``'s own when it is float32 or float64, else float64.
    """
    x = np.asarray(train_x)
    y = np.asarray(train_y, dtype=np.int64)
    if np.unique(y).size < 2:
        raise ValueError(f"{name} training needs at least 2 classes")
    return x, y, x.dtype if x.dtype in (np.float32, np.float64) else np.float64


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

def _vote(labels_k: np.ndarray, num_classes: int) -> np.ndarray:
    """Majority vote per row; ties resolve to the smallest class index."""
    m = labels_k.shape[0]
    counts = np.zeros((m, num_classes), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(m), labels_k.shape[1]), labels_k.ravel()), 1)
    return counts.argmax(axis=1)


_KNN_CHUNK = 256  # query rows per distance block, bounding its memory


class KnnModel:
    """Euclidean k-nearest-neighbor classifier over flattened trials."""

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int = 7):
        train_x = np.asarray(train_x)
        train_y = np.asarray(train_y, dtype=np.int64)
        if train_x.ndim != 2 or train_x.shape[0] != train_y.shape[0]:
            raise ValueError("train_x must be (N, D) aligned with train_y")
        if train_x.shape[0] == 0:
            raise ValueError("empty training set")
        if not 1 <= k <= train_x.shape[0]:
            raise ValueError(f"k={k} out of range 1..{train_x.shape[0]}")
        self.x = train_x
        self.y = train_y
        self.k = k
        self.num_classes = int(train_y.max()) + 1
        self._sq_norms = np.einsum("nd,nd->n", train_x, train_x)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries))
        out = np.empty(queries.shape[0], dtype=np.int64)
        for start in range(0, queries.shape[0], _KNN_CHUNK):
            q = queries[start : start + _KNN_CHUNK]
            d2 = (
                np.einsum("md,md->m", q, q)[:, None]
                - 2.0 * (q @ self.x.T)
                + self._sq_norms[None, :]
            )
            # stable sort: equidistant neighbors resolve to lower trial index
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + _KNN_CHUNK] = _vote(self.y[nearest], self.num_classes)
        return out


# ---------------------------------------------------------------------------
# Linear model (one-vs-rest SVM)
# ---------------------------------------------------------------------------

class LinearModel:
    """Per-class linear scores; prediction is the argmax.

    ``loss_kind="hinge"`` is the one-vs-rest SVM objective used for
    training; ``loss_kind="squared"`` is the differentiable variant used by
    gradient checking.
    """

    def __init__(self, weights: np.ndarray, biases: np.ndarray,
                 l2: float = 0.0, loss_kind: str = "hinge"):
        if loss_kind not in ("hinge", "squared"):
            raise ValueError(f"unknown loss_kind {loss_kind!r}")
        self.w = np.asarray(weights)
        self.b = np.asarray(biases)
        self.l2 = float(l2)
        self.loss_kind = loss_kind

    @classmethod
    def zeros(cls, dim: int, classes: int, dtype=np.float64, **kw) -> "LinearModel":
        return cls(np.zeros((dim, classes), dtype=dtype),
                   np.zeros(classes, dtype=dtype), **kw)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w + self.b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.scores(x).argmax(axis=1)

    def param_arrays(self):
        return [self.w, self.b]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        loss, ds = _score_loss(self.scores(x), y, self.loss_kind)
        loss += 0.5 * self.l2 * float(np.einsum("dc,dc->", self.w, self.w))
        gw = x.T @ ds + self.l2 * self.w
        gb = ds.sum(axis=0)
        return float(loss), [gw, gb]


def _score_loss(s: np.ndarray, y: np.ndarray, kind: str):
    """Mean one-vs-rest loss of the (n, C) scores and d(loss)/d(scores)."""
    n = s.shape[0]
    targets = -np.ones(s.shape, dtype=s.dtype)
    targets[np.arange(n), y] = 1.0
    if kind == "hinge":
        margins = 1.0 - targets * s
        loss = np.maximum(margins, 0.0).sum(axis=1).mean()
        return loss, np.where(margins > 0, -targets, 0.0) / n
    diff = s - targets
    return 0.5 * np.einsum("nc,nc->", diff, diff) / n, diff / n


def train_svm(
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: TrainConfig,
    l2: float = 1e-4,
) -> LinearModel:
    """One-vs-rest linear SVM by mini-batch subgradient descent.

    Hinge loss summed over classes plus an explicit L2 penalty on the
    weights (biases unpenalized).  Deterministic under the config seed.

    When features outnumber training trials (``D > n``) the same momentum
    SGD runs in Gram space.  The weights start at zero, and every subgradient
    step adds a combination of training rows to them, so ``w = Xᵀa`` for an
    (n, C) coefficient matrix ``a`` at every step (the representer theorem).
    Batch scores are then ``K[idx] @ a + b`` with ``K = X Xᵀ`` built once
    from the training rows, the weight gradient ``Xᵀds + l2 w`` becomes
    ``l2 a`` plus ``ds`` on the batch rows, and the velocity is ``Xᵀva``.
    The iterates equal the primal ones step for step in exact arithmetic;
    in floating point they differ by rounding only.  Each step then costs
    O(batch·n·C) instead of O(batch·D·C), after O(n²·D) once to build ``K``,
    and needs O(n²) extra memory.  With ``D <= n`` the primal form is
    cheaper and is used.
    """
    train_x, train_y, dtype = _training_set(train_x, train_y, "SVM")
    classes = int(train_y.max()) + 1
    rng = np.random.default_rng(config.seed)
    n, dim = train_x.shape
    if dim <= n:
        model = LinearModel.zeros(dim, classes, dtype=dtype, l2=l2)
        _sgd(model.param_arrays(), n, config, rng,
             lambda idx: model.loss_and_grads(train_x[idx], train_y[idx]), "SVM")
        return model
    x = train_x.astype(dtype, copy=False)
    gram = x @ x.T
    coef = np.zeros((n, classes), dtype=dtype)
    bias = np.zeros(classes, dtype=dtype)

    def step(idx):
        loss, ds = _score_loss(gram[idx] @ coef + bias, train_y[idx], "hinge")
        # The loss only feeds the divergence check.  Its L2 term, 0.5·l2·tr(aᵀKa),
        # would cost n²·C per step, so check the coefficients themselves.
        if not np.isfinite(coef).all():
            loss = np.nan
        grad = l2 * coef
        grad[idx] += ds  # batch rows are distinct within one permutation
        return float(loss), [grad, ds.sum(axis=0)]

    _sgd([coef, bias], n, config, rng, step, "SVM")
    return LinearModel(x.T @ coef, bias, l2=l2)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MlpModel:
    """Two fully connected layers with a sigmoid after the first."""

    def __init__(self, w1, b1, w2, b2, weight_decay: float = 0.0):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.weight_decay = float(weight_decay)

    @classmethod
    def init(cls, dim: int, hidden: int, classes: int, seed: int,
             dtype=np.float64, weight_decay: float = 0.0) -> "MlpModel":
        rng = np.random.default_rng(seed)
        return cls(
            _glorot_uniform(rng, dim, hidden, (dim, hidden), dtype),
            np.zeros(hidden, dtype=dtype),
            _glorot_uniform(rng, hidden, classes, (hidden, classes), dtype),
            np.zeros(classes, dtype=dtype),
            weight_decay=weight_decay,
        )

    def param_arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(x @ self.w1 + self.b1) @ self.w2 + self.b2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        hidden = _sigmoid(x @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        loss, dlogits = _softmax_cross_entropy(logits, y)
        gw2 = hidden.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ self.w2.T) * hidden * (1.0 - hidden)
        gw1 = x.T @ dhidden
        gb1 = dhidden.sum(axis=0)
        if self.weight_decay:
            loss += 0.5 * self.weight_decay * (
                float(np.sum(self.w1**2)) + float(np.sum(self.w2**2))
            )
            gw1 += self.weight_decay * self.w1
            gw2 += self.weight_decay * self.w2
        return float(loss), [gw1, gb1, gw2, gb2]


def train_mlp(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hidden: int = 128,
    config: TrainConfig = TrainConfig(),
) -> MlpModel:
    """Train the two-layer sigmoid MLP with softmax cross-entropy."""
    train_x, train_y, dtype = _training_set(train_x, train_y, "MLP")
    classes = int(train_y.max()) + 1
    model = MlpModel.init(
        train_x.shape[1], hidden, classes, seed=config.seed, dtype=dtype,
        weight_decay=config.weight_decay,
    )
    rng = np.random.default_rng(config.seed + 1)  # shuffles; init used config.seed
    _sgd(model.param_arrays(), train_x.shape[0], config, rng,
         lambda idx: model.loss_and_grads(train_x[idx], train_y[idx]), "MLP")
    return model


# ---------------------------------------------------------------------------
# 1-D CNN
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cnn1dConfig:
    """Architecture of the per-channel 1-D CNN.

    Each channel is convolved by the same bank of ``kernels`` kernels of
    length ``kernel_len`` (stride 1), followed by ELU and dropout; a fully
    connected layer shared across time maps the channels x kernels features
    of each time point to class scores; average pooling (``pool_len``,
    ``pool_stride``) runs along time per class; dropout again; and a final
    fully connected layer maps the flattened pooled map to class logits.
    """

    kernels: int = 8
    kernel_len: int = 32
    dropout_p: float = 0.5
    pool_len: int = 128
    pool_stride: int = 64
    classes: int = 40

    def __post_init__(self):
        if self.kernel_len < 1 or self.kernels < 1:
            raise ValueError("kernels and kernel_len must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.pool_len < 1 or self.pool_stride < 1:
            raise ValueError("pool_len and pool_stride must be >= 1")

    def conv_length(self, width: int) -> int:
        if width < self.kernel_len:
            raise ValueError(f"window {width} shorter than kernel {self.kernel_len}")
        return width - self.kernel_len + 1

    def pooled_points(self, width: int) -> int:
        t1 = self.conv_length(width)
        if t1 < self.pool_len:
            raise ValueError(
                f"conv output {t1} shorter than pool length {self.pool_len}"
            )
        return (t1 - self.pool_len) // self.pool_stride + 1


class Cnn1dModel:
    """The 1-D CNN with explicit forward and backward passes."""

    def __init__(self, config: Cnn1dConfig, channels: int, width: int,
                 seed: int, dtype=np.float64, weight_decay: float = 0.0):
        self.config = config
        self.channels = channels
        self.width = width
        self.weight_decay = float(weight_decay)
        self.t1 = config.conv_length(width)
        self.pooled = config.pooled_points(width)
        k, L, c = config.kernels, config.kernel_len, config.classes
        feat = channels * k
        rng = np.random.default_rng(seed)
        self.conv_w = _glorot_uniform(rng, L, k, (k, L), dtype)
        self.conv_b = np.zeros(k, dtype=dtype)
        self.fc_time_w = _glorot_uniform(rng, feat, c, (feat, c), dtype)
        self.fc_time_b = np.zeros(c, dtype=dtype)
        self.fc_out_w = _glorot_uniform(rng, self.pooled * c, c,
                                        (self.pooled * c, c), dtype)
        self.fc_out_b = np.zeros(c, dtype=dtype)
        self._mask_rng = np.random.default_rng(seed + 1)

    def param_arrays(self):
        return [self.conv_w, self.conv_b, self.fc_time_w, self.fc_time_b,
                self.fc_out_w, self.fc_out_b]

    def _mask(self, shape, keep: float, dtype) -> np.ndarray:
        rand_dtype = np.float32 if dtype == np.float32 else np.float64
        raw = self._mask_rng.random(shape, dtype=rand_dtype)
        return (raw < keep).astype(dtype) * dtype.type(1.0 / keep)

    def _forward(self, x: np.ndarray, train: bool, need_grads: bool = True):
        cfg = self.config
        n, ch, w = x.shape
        if ch != self.channels or w != self.width:
            raise ValueError("input shape does not match the trained model")
        windows = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(x, cfg.kernel_len, axis=2)
        )  # (n, ch, t1, L); contiguous so the matmuls below hit BLAS
        conv = (
            windows.reshape(-1, cfg.kernel_len) @ self.conv_w.T
        ).reshape(n, ch, self.t1, cfg.kernels)
        conv += self.conv_b
        neg = conv < 0
        act = np.where(neg, np.expm1(conv), conv)  # ELU, alpha=1
        cache = {}
        if need_grads:
            # ELU'(z) = 1 for z > 0, exp(z) = elu(z) + 1 otherwise
            cache = {
                "windows": windows,
                "elu_deriv": np.where(neg, act + 1.0, 1.0),
            }
        if train and cfg.dropout_p > 0:
            mask1 = self._mask(act.shape, 1.0 - cfg.dropout_p, act.dtype)
            act = act * mask1
            cache["mask1"] = mask1
        feat = act.transpose(0, 2, 1, 3).reshape(n, self.t1, ch * cfg.kernels)
        cache["feat"] = feat
        scores_t = feat @ self.fc_time_w + self.fc_time_b  # (n, t1, C)
        pooled = np.empty((n, self.pooled, cfg.classes), dtype=x.dtype)
        for p in range(self.pooled):
            start = p * cfg.pool_stride
            pooled[:, p] = scores_t[:, start : start + cfg.pool_len].mean(axis=1)
        if train and cfg.dropout_p > 0:
            mask2 = self._mask(pooled.shape, 1.0 - cfg.dropout_p, pooled.dtype)
            pooled = pooled * mask2
            cache["mask2"] = mask2
        flat = pooled.reshape(n, self.pooled * cfg.classes)
        cache["flat"] = flat
        logits = flat @ self.fc_out_w + self.fc_out_b
        return logits, cache

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(x), train=False, need_grads=False)[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def _backward(self, x, dlogits, cache, train: bool):
        cfg = self.config
        n = x.shape[0]
        g_out_w = cache["flat"].T @ dlogits
        g_out_b = dlogits.sum(axis=0)
        dflat = dlogits @ self.fc_out_w.T
        dpooled = dflat.reshape(n, self.pooled, cfg.classes)
        if train and "mask2" in cache:
            dpooled = dpooled * cache["mask2"]
        dscores_t = np.zeros((n, self.t1, cfg.classes), dtype=x.dtype)
        for p in range(self.pooled):
            start = p * cfg.pool_stride
            dscores_t[:, start : start + cfg.pool_len] += (
                dpooled[:, p : p + 1] / cfg.pool_len
            )
        feat = cache["feat"]
        g_time_w = feat.reshape(-1, feat.shape[2]).T @ dscores_t.reshape(
            -1, cfg.classes
        )
        g_time_b = dscores_t.sum(axis=(0, 1))
        dfeat = dscores_t @ self.fc_time_w.T
        dact = dfeat.reshape(n, self.t1, self.channels, cfg.kernels).transpose(
            0, 2, 1, 3
        )
        if train and "mask1" in cache:
            dact = dact * cache["mask1"]
        windows = cache["windows"]
        dconv = dact * cache["elu_deriv"]
        g_conv_w = (
            dconv.reshape(-1, cfg.kernels).T
            @ windows.reshape(-1, cfg.kernel_len)
        )
        g_conv_b = dconv.sum(axis=(0, 1, 2))
        return [g_conv_w, g_conv_b, g_time_w, g_time_b, g_out_w, g_out_b]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, train: bool = False):
        """Cross-entropy loss and parameter gradients.

        ``train=True`` samples fresh dropout masks (advancing the model's
        mask stream); ``train=False`` is the deterministic path used by
        gradient checking.
        """
        x = np.asarray(x)
        y = np.asarray(y, dtype=np.int64)
        logits, cache = self._forward(x, train=train)
        loss, dlogits = _softmax_cross_entropy(logits, y)
        grads = self._backward(x, dlogits, cache, train=train)
        if self.weight_decay:
            for p, g in zip(self.param_arrays(), grads):
                if p.ndim > 1:  # weights only, not biases
                    loss += 0.5 * self.weight_decay * float(np.sum(p**2))
                    g += self.weight_decay * p
        return float(loss), grads


def train_cnn1d(
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: Cnn1dConfig,
    train_config: TrainConfig = TrainConfig(),
) -> Cnn1dModel:
    """Train the 1-D CNN on an (N, ch, W) trial stack."""
    x, y, dtype = _training_set(train_x, train_y, "CNN")
    model = Cnn1dModel(
        config, channels=x.shape[1], width=x.shape[2],
        seed=train_config.seed, dtype=dtype,
        weight_decay=train_config.weight_decay,
    )
    rng = np.random.default_rng(train_config.seed + 1)
    _sgd(model.param_arrays(), x.shape[0], train_config, rng,
         lambda idx: model.loss_and_grads(x[idx], y[idx], train=True), "CNN")
    return model


# ---------------------------------------------------------------------------
# Verification and evaluation
# ---------------------------------------------------------------------------

def gradient_check(
    model, x: np.ndarray, y: np.ndarray, epsilon: float = 1e-3,
    floor: float = 1e-8,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The instance must be small enough to perturb every parameter; dropout is
    disabled throughout.  Relative error for one parameter is
    ``|analytic - numeric| / max(|analytic|, |numeric|, floor)``.
    """
    _, grads = model.loss_and_grads(x, y)
    worst = 0.0
    for p, g in zip(model.param_arrays(), grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = model.loss_and_grads(x, y)[0]
            flat[i] = orig - epsilon
            down = model.loss_and_grads(x, y)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(gflat[i]), abs(numeric), floor)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def evaluate_accuracy(model, x: np.ndarray, y: np.ndarray,
                      num_classes: int | None = None):
    """Fraction correct plus the per-class confusion matrix (rows = truth)."""
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("empty test set")
    preds = model.predict(x)
    c = num_classes or int(max(y.max(), preds.max())) + 1
    confusion = _confusion(y, preds, c)
    return float(np.trace(confusion) / y.size), confusion


def _confusion(y: np.ndarray, preds: np.ndarray, num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts of (true, predicted) pairs."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    return confusion
