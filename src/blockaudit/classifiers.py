"""From-scratch classifiers: k-NN, linear SVM, MLP, and a 1-D CNN.

All training is plain mini-batch stochastic gradient descent with momentum,
fully seeded, in numpy.  Each model has at most one regularizer: the SVM's
L2 penalty and the CNN's dropout of 0.5; the MLP has none.  Every
gradient-trained model exposes ``loss_and_grads`` (dropout disabled) and
``param_arrays``, so its backward pass can be checked against central
finite differences.

Trained models are immutable in practice (weights are not mutated after
training) and safe to share for inference.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import stats
from ._checks import check_integer, check_real
from ._threads import worker_threads


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@functools.cache
def _openblas_thread_fns():
    """``(get, set)`` num-threads functions of numpy's bundled OpenBLAS, or
    None where there is none.  The library sits under ``numpy.libs``; its
    symbols are spelled by wheel: ``scipy_openblas_…64_``, ``openblas_…64_``
    or unprefixed."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# A product inside a hold gets the held-over OpenBLAS count back when it
# takes about 15 ms or more at one thread on 2 vCPUs: 2³⁰ multiply-adds in a
# Gram, or a matrix of 32 MiB streamed by a thin product, which takes about
# as long per byte read as a Gram takes for 32 multiply-adds.  Below that a
# second thread saves a few ms at most, and leaves a BLAS worker spinning
# for about 0.13 s after it.
_RELEASE_MACS = 2**30
_MACS_PER_BYTE = 32


class _OneBlasThread:
    """Holds numpy's OpenBLAS to one thread while any holder is inside, and
    restores the previous count when the last one leaves, on every exit path.
    Where no OpenBLAS function is found, BLAS threading is left alone.

    Inside a hold, :meth:`released` gives a large product the previous count
    for its duration; 1 comes back when the last release ends, also when it
    raises."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._releases = 0
        self._previous = 1

    def __enter__(self):
        fns = _openblas_thread_fns()
        if fns is not None:
            get, put = fns
            with self._lock:
                if self._holders == 0:
                    self._previous = get()
                    put(1)
                self._holders += 1

    def __exit__(self, *exc):
        fns = _openblas_thread_fns()
        if fns is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    fns[1](self._previous)

    @contextlib.contextmanager
    def released(self, macs: int, nbytes: int):
        """The held-over count for a product of ``macs`` multiply-adds that
        streams a matrix of ``nbytes``, when a hold is in force and
        ``max(macs, _MACS_PER_BYTE * nbytes)`` is at least ``_RELEASE_MACS``;
        otherwise the count in force."""
        fns = _openblas_thread_fns()  # found whenever a hold is in force
        cost = max(macs, _MACS_PER_BYTE * nbytes)
        with self._lock:
            release = self._holders > 0 and cost >= _RELEASE_MACS
            if release:
                self._releases += 1
                fns[1](self._previous)
        try:
            yield
        finally:
            if release:
                with self._lock:
                    self._releases -= 1
                    if self._releases == 0 and self._holders > 0:
                        fns[1](1)


# The CNN's chunk workers run their GEMMs side by side; a second BLAS thread
# would only spin between them while numpy runs the elementwise passes.  The
# grid holds it too, so that no idle BLAS worker spins under the filter's
# threads; only products past the size gate release it.
_one_blas_thread = _OneBlasThread()


# Bytes of CNN conv output per chunk of trials: a chunk's temporaries stay in
# a 2 MB L2 cache.  On a (64, 48, 225) float32 batch that is 3 trials; chunks
# of 2 to 8 trials timed alike and 16 trials lost most of the gain (2 vCPU).
_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings shared by the gradient-trained models."""

    seed: int = 0
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    momentum: float = 0.9

    def __post_init__(self):
        check_integer("seed", self.seed, 0)
        check_integer("epochs", self.epochs, 1)
        check_integer("batch_size", self.batch_size, 1)
        check_real("learning_rate", self.learning_rate, gt=0)
        check_real("momentum", self.momentum, ge=0, le=1)


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
    """``(x, int64 labels, float dtype)`` of a training set with one label
    per sample and >= 2 classes.

    The dtype is ``x``'s own when it is float32 or float64, else float64.
    """
    x = np.asarray(train_x)
    y = np.asarray(train_y, dtype=np.int64)
    if y.shape != (len(x),):
        raise ValueError(
            f"{name} training set has {len(x)} samples but {y.size} labels")
    if np.unique(y).size < 2:
        raise ValueError(f"{name} training needs at least 2 classes")
    return x, y, x.dtype if x.dtype in (np.float32, np.float64) else np.float64


def _fit_in_row_space(x: np.ndarray, fit, into: np.ndarray | None = None):
    """Weights ``Xᵀa`` of a linear map trained in the row space of ``x``.

    ``fit(gram)`` trains on the Gram matrix ``K = X Xᵀ`` of the (n, D)
    training rows and returns the (n, k) coefficients ``a``.  ``K``, and
    whatever ``fit`` built beside it, are dropped before the weights are
    recovered as ``(aᵀX)ᵀ``: that equals ``Xᵀa`` bit for bit in float32,
    and ``Xᵀa`` at 2 OpenBLAS threads faults in a 58 MB buffer at n = 400,
    D = 43,296.  The weights are added in place to ``into`` and it is
    returned when given; otherwise they come back as a new C-contiguous array.
    """
    with _one_blas_thread.released(len(x) * x.size, x.nbytes):
        gram = x @ x.T
    coef = fit(gram)
    del gram
    with _one_blas_thread.released(coef.shape[1] * x.size, x.nbytes):
        weights = (coef.T @ x).T
    if into is None:
        return np.ascontiguousarray(weights)
    into += weights
    return into


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

def _vote(labels_k: np.ndarray, num_classes: int) -> np.ndarray:
    """Majority vote per row; ties resolve to the smallest class index."""
    m, k = labels_k.shape
    rows = np.repeat(np.arange(m), k)
    return stats.tally(rows, labels_k.ravel(), (m, num_classes)).argmax(axis=1)


_KNN_CHUNK = 256  # query rows per distance block, bounding its memory


class KnnModel:
    """Euclidean k-nearest-neighbor classifier over flattened trials."""

    def __init__(self, train_x: np.ndarray, train_y: np.ndarray, k: int = 7):
        check_integer("k", k, 1)
        train_x = np.asarray(train_x)
        train_y = np.asarray(train_y, dtype=np.int64)
        if train_x.ndim != 2 or train_x.shape[0] != train_y.shape[0]:
            raise ValueError("train_x must be (N, D) aligned with train_y")
        if train_x.shape[0] == 0:
            raise ValueError("empty training set")
        if k > train_x.shape[0]:
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
            with _one_blas_thread.released(len(q) * self.x.size, self.x.nbytes):
                cross = q @ self.x.T
            d2 = (
                np.einsum("md,md->m", q, q)[:, None]
                - 2.0 * cross
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
    """Per-class linear scores; prediction is the argmax.  Its loss is the
    one-vs-rest SVM objective: hinge loss summed over classes plus
    ``0.5 * l2 * ||W||^2``."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray, l2: float = 0.0):
        self.w = np.asarray(weights)
        self.b = np.asarray(biases)
        self.l2 = float(l2)

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
        targets = _ovr_targets(y, self.w.shape[1],
                               np.result_type(x, self.w, self.b))
        return self._hinge_grads(x, targets)

    def _hinge_grads(self, x: np.ndarray, targets: np.ndarray):
        """:meth:`loss_and_grads` against the rows' ±1 ``targets``."""
        total, ds = _score_loss(self.scores(x), targets)
        loss = total / len(x)
        loss += 0.5 * self.l2 * float(np.einsum("dc,dc->", self.w, self.w))
        gw = x.T @ ds + self.l2 * self.w
        gb = ds.sum(axis=0)
        return float(loss), [gw, gb]


def _ovr_targets(y: np.ndarray, classes: int, dtype) -> np.ndarray:
    """(n, classes) one-vs-rest targets: +1 at each row's label, -1 elsewhere."""
    targets = -np.ones((len(y), classes), dtype=dtype)
    targets[np.arange(len(y)), y] = 1.0
    return targets


def _score_loss(s: np.ndarray, targets: np.ndarray):
    """Total one-vs-rest hinge loss of the (n, C) scores against their ±1
    ``targets``, and a subgradient of the mean loss d(loss/n)/d(scores)."""
    margins = 1.0 - targets * s
    total = np.maximum(margins, 0.0).sum()
    return total, np.where(margins > 0, -targets, 0.0) / s.shape[0]


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
    # built once per fit; each step takes its batch's rows
    targets = _ovr_targets(train_y, classes, dtype)
    if dim <= n:
        model = LinearModel.zeros(dim, classes, dtype=dtype, l2=l2)
        _sgd(model.param_arrays(), n, config, rng,
             lambda idx: model._hinge_grads(train_x[idx], targets[idx]), "SVM")
        return model
    bias = np.zeros(classes, dtype=dtype)

    def fit(gram):
        coef = np.zeros((n, classes), dtype=dtype)

        def step(idx):
            loss, ds = _score_loss(gram[idx] @ coef + bias, targets[idx])
            # The loss only feeds the divergence check.  Its L2 term,
            # 0.5·l2·tr(aᵀKa), would cost n²·C per step, so check the
            # coefficients themselves.
            if not np.isfinite(coef).all():
                loss = np.nan
            grad = l2 * coef
            grad[idx] += ds  # batch rows are distinct within one permutation
            return float(loss), [grad, ds.sum(axis=0)]

        _sgd([coef, bias], n, config, rng, step, "SVM")
        return coef

    weights = _fit_in_row_space(train_x.astype(dtype, copy=False), fit)
    return LinearModel(weights, bias, l2=l2)


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

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, dim: int, hidden: int, classes: int, seed: int,
             dtype=np.float64) -> "MlpModel":
        rng = np.random.default_rng(seed)
        return cls(
            _glorot_uniform(rng, dim, hidden, (dim, hidden), dtype),
            np.zeros(hidden, dtype=dtype),
            _glorot_uniform(rng, hidden, classes, (hidden, classes), dtype),
            np.zeros(classes, dtype=dtype),
        )

    def param_arrays(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(x @ self.w1 + self.b1) @ self.w2 + self.b2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        loss, dhidden, (gb1, gw2, gb2) = self._backprop(x @ self.w1, y)
        return float(loss), [x.T @ dhidden, gb1, gw2, gb2]

    def _backprop(self, pre: np.ndarray, y: np.ndarray):
        """Loss, d(loss)/d(pre) and the gradients of b1, w2 and b2, given the
        first layer's pre-activations ``pre = x @ w1`` (before ``b1``)."""
        hidden = _sigmoid(pre + self.b1)
        logits = hidden @ self.w2 + self.b2
        loss, dlogits = _softmax_cross_entropy(logits, y)
        gw2 = hidden.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        dhidden = (dlogits @ self.w2.T) * hidden * (1.0 - hidden)
        gb1 = dhidden.sum(axis=0)
        return loss, dhidden, (gb1, gw2, gb2)


def train_mlp(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hidden: int = 128,
    config: TrainConfig = TrainConfig(),
) -> MlpModel:
    """Train the two-layer sigmoid MLP with softmax cross-entropy.

    ``hidden`` must be an integer >= 1.  When features outnumber
    training trials (``D > n``) the first layer trains in Gram space, on the
    row-space path ``train_svm`` uses.  Every gradient step adds a
    combination of training rows to ``w1``, so ``w1 = w1₀ + Xᵀa`` at every
    step, with ``w1₀`` the Glorot init and ``a`` an (n, hidden) coefficient
    matrix starting at zero.  With ``K = X Xᵀ`` and ``P₀ = X w1₀`` built
    once, batch pre-activations are ``P₀[idx] + K[idx] @ a + b1``, and the
    ``w1`` gradient becomes the backpropagated batch rows of ``a``.  The
    iterates equal the primal ones step for step in exact arithmetic; in
    floating point they differ by rounding only.  Each step then costs
    O(batch·n·hidden) instead of O(batch·D·hidden) in the first layer,
    after O(n²·D + n·D·hidden) once.  ``w1`` is recovered in place in the
    init array.  With ``D <= n`` the primal form is used.
    """
    check_integer("hidden", hidden, 1)
    train_x, train_y, dtype = _training_set(train_x, train_y, "MLP")
    classes = int(train_y.max()) + 1
    n, dim = train_x.shape
    model = MlpModel.init(dim, hidden, classes, seed=config.seed, dtype=dtype)
    rng = np.random.default_rng(config.seed + 1)  # shuffles; init used config.seed
    if dim <= n:
        _sgd(model.param_arrays(), n, config, rng,
             lambda idx: model.loss_and_grads(train_x[idx], train_y[idx]), "MLP")
        return model
    x = train_x.astype(dtype, copy=False)

    def fit(gram):
        proj = x @ model.w1  # P₀
        coef = np.zeros((n, hidden), dtype=dtype)

        def step(idx):
            loss, dhidden, grads = model._backprop(
                proj[idx] + gram[idx] @ coef, train_y[idx])
            grad = np.zeros_like(coef)
            grad[idx] = dhidden  # batch rows are distinct within one permutation
            return float(loss), [grad, *grads]

        _sgd([coef, model.b1, model.w2, model.b2], n, config, rng, step, "MLP")
        return coef

    _fit_in_row_space(x, fit, into=model.w1)
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
    The code pools first and applies ``fc_time`` to the pooled features: both
    are linear, so it is the same function at a fraction of the cost.

    The convolution runs in tiles: the time axis is cut into overlapping
    tiles of ``2·kernel_len − 1`` samples at stride ``kernel_len``, and every
    tile is multiplied by one banded (Toeplitz) matrix of the kernels, which
    yields ``kernel_len`` output points per tile.  Only the tiles up to the
    end of the last pooling window are computed; the time axis is
    zero-padded only when the last of them runs past the window.  The
    convolution, ELU, dropout and pooling, and the backward pass through
    them, run a few trials at a time, so that each chunk's temporaries stay
    in cache.  In ``train_cnn1d`` and ``Cnn1dModel.logits`` the chunks run on
    up to 2 worker threads, never more than the usable CPUs (the worker rule
    ``dsp.apply_filter`` shares), with numpy's OpenBLAS held to one thread
    for the call; the results are bit-identical to one chunk after another.
    Dropout is 0.5 in training: a mask draws one random bit per element, an
    exact Bernoulli draw.  The first mask draws its bits over
    ``ceil(t1 / kernel_len)·kernel_len`` points per channel and uses those of
    the computed tiles, so a seeded mask stream does not depend on the pooling
    layout.
    """

    kernels: int = 8
    kernel_len: int = 32
    pool_len: int = 128
    pool_stride: int = 64
    classes: int = 40

    def __post_init__(self):
        for name in ("kernels", "kernel_len", "pool_len", "pool_stride"):
            check_integer(name, getattr(self, name), 1)
        check_integer("classes", self.classes, 2)

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
                 seed: int, dtype=np.float64):
        self.config = config
        self.channels = channels
        self.width = width
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
        # The conv output comes in tiles of L time points.  Only the points up
        # to the end of the last pooling window feed a class score, so the
        # model computes the first n_tiles·L >= used of them; a row of the
        # (n_tiles·L, P) averaging matrix is 1/pool_len on each window holding
        # its point, and points past ``used`` get zero rows.
        used = (self.pooled - 1) * config.pool_stride + config.pool_len
        self.n_tiles = -(-used // L)
        t = np.arange(self.n_tiles * L)[:, None]
        starts = np.arange(self.pooled) * config.pool_stride
        self._pool = ((t >= starts) & (t < starts + config.pool_len)).astype(
            dtype) / config.pool_len
        # dropout's 1/keep = 2 folded into the pooling: exact, a power of two
        self._pool_dropped = self._pool * 2
        self._chunk = max(1, _CHUNK_BYTES // (
            channels * self.n_tiles * L * k * np.dtype(dtype).itemsize))

    def param_arrays(self):
        return [self.conv_w, self.conv_b, self.fc_time_w, self.fc_time_b,
                self.fc_out_w, self.fc_out_b]

    def _mask_bytes(self, size: int) -> np.ndarray:
        """``size`` random bits packed into bytes: a dropout draw of one bit
        per element, an exact Bernoulli(1/2)."""
        return np.frombuffer(self._mask_rng.bytes(-(-size // 8)), dtype=np.uint8)

    def _mask(self, shape, dtype) -> np.ndarray:
        """Dropout mask: one random bit per element, scaled by 1/keep = 2."""
        size = int(np.prod(shape))
        bits = np.unpackbits(self._mask_bytes(size), count=size).reshape(shape)
        return np.multiply(bits, 2, dtype=dtype)

    def _band(self) -> np.ndarray:
        """(2L − 1, L·K) banded (Toeplitz) matrix of the conv weights: a tile
        of 2L − 1 samples times it is the conv output at the tile's first L
        time points, entry (s, r·K + k) being ``conv_w[k, s − r]``, or 0 when
        s − r is outside [0, L)."""
        L, K = self.config.kernel_len, self.config.kernels
        col = np.zeros((3 * L - 2, K), dtype=self.conv_w.dtype)
        col[L - 1 : 2 * L - 1] = self.conv_w.T
        row, item = col.strides
        # [s, r, k] -> col[L − 1 + s − r, k]
        band = np.lib.stride_tricks.as_strided(
            col[L - 1 :], (2 * L - 1, L, K), (row, -row, item), writeable=False
        )
        return band.reshape(2 * L - 1, L * K)

    def _checked_input(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1:] != (self.channels, self.width):
            raise ValueError(
                f"CNN input must be (N, channels, width) = (N, {self.channels}, "
                f"{self.width}), got shape {x.shape}")
        return x

    def _forward(self, x: np.ndarray, train: bool, need_grads: bool = True,
                 chunk_map=map):
        """Logits and the backward pass's cache.  ``chunk_map`` is ``map`` or
        an executor's ``map``: each chunk writes its own slices of ``feat``
        and ``deriv``."""
        cfg = self.config
        n, ch, w = x.shape
        L, K, points = cfg.kernel_len, cfg.kernels, self.n_tiles * cfg.kernel_len
        # tiles of 2L − 1 samples at stride L, zero-padded only past the end:
        # (n, ch, n_tiles, 2L − 1), contiguous so the matmuls below hit BLAS
        if points + L - 1 > w:
            x = np.pad(x, ((0, 0), (0, 0), (0, points + L - 1 - w)))
        tiles = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(x, 2 * L - 1, axis=2)[
                :, :, : points : L]
        )
        band = self._band()
        bias = np.tile(self.conv_b, L)  # per column of a (rows, L·K) conv block
        dtype = np.result_type(tiles, band)
        if train:
            # mask 1 draws bits for ceil(t1/L)·L points per channel and uses the
            # first n_tiles·L: the stream does not depend on the pooling layout
            per_trial = ch * -(-self.t1 // L) * L * K
            raw = self._mask_bytes(n * per_trial)
        pool = self._pool_dropped if train else self._pool
        feat = np.empty((n, self.pooled, ch, K), dtype=dtype)
        deriv = np.empty((n, ch, points, K), dtype=dtype) if need_grads else None
        # a few trials at a time, so that each chunk's conv output and its
        # temporaries stay in cache
        def forward_chunk(s):
            e = min(s + self._chunk, n)
            conv = tiles[s:e].reshape(-1, 2 * L - 1) @ band
            conv += bias
            # ELU (alpha=1) with no branch on the sign (it mispredicts on noisy
            # data) and no expm1 of large z (it overflows):
            # elu(z) = max(z, 0) + expm1(min(z, 0)), ELU'(z) = expm1(min(z, 0)) + 1
            neg = np.expm1(np.minimum(conv, 0))
            act = np.maximum(conv, 0, out=conv)
            act += neg
            act = act.reshape(e - s, ch, points, K)
            if train:
                # bits lo..hi of the stream, unpacked from the byte holding lo
                lo, hi = s * per_trial, e * per_trial
                bits = np.unpackbits(raw[lo // 8 :], count=hi - lo // 8 * 8)[lo % 8 :]
                bits = bits.reshape(e - s, ch, -1, K)[:, :, :points]
                act *= bits
            if need_grads:
                d = deriv[s:e]
                np.add(neg.reshape(d.shape), 1.0, out=d)
                if train:
                    d *= bits  # the backward pass needs only the product
            # pool over time: (chunk, ch, P, K) into (chunk, P, ch, K)
            feat[s:e] = np.matmul(pool.T, act).transpose(0, 2, 1, 3)

        # list() reads every result, so a worker's exception is raised
        list(chunk_map(forward_chunk, range(0, n, self._chunk)))
        feat = feat.reshape(n, self.pooled, ch * K)
        cache = {"tiles": tiles, "deriv": deriv, "pool": pool} if need_grads else {}
        cache["feat"] = feat
        # fc_time per pooled point: (n, P, ch·K) -> (n, P, C)
        pooled = feat @ self.fc_time_w + self.fc_time_b
        if train:
            mask2 = self._mask(pooled.shape, pooled.dtype)
            pooled *= mask2
            cache["mask2"] = mask2
        flat = pooled.reshape(n, self.pooled * cfg.classes)
        cache["flat"] = flat
        logits = flat @ self.fc_out_w + self.fc_out_b
        return logits, cache

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = self._checked_input(x)
        with _one_blas_thread, ThreadPoolExecutor(worker_threads()) as workers:
            return self._forward(x, False, False, workers.map)[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def _backward(self, x, dlogits, cache, chunk_map):
        cfg = self.config
        n = x.shape[0]
        g_out_w = cache["flat"].T @ dlogits
        g_out_b = dlogits.sum(axis=0)
        dpooled = (dlogits @ self.fc_out_w.T).reshape(n, self.pooled, cfg.classes)
        if "mask2" in cache:
            dpooled *= cache["mask2"]
        feat = cache["feat"]
        g_time_w = feat.reshape(-1, feat.shape[2]).T @ dpooled.reshape(
            -1, cfg.classes
        )
        g_time_b = dpooled.sum(axis=(0, 1))
        dfeat = (dpooled @ self.fc_time_w.T).reshape(
            n, self.pooled, self.channels, cfg.kernels
        ).transpose(0, 2, 1, 3)
        L, K = cfg.kernel_len, cfg.kernels
        tiles, deriv, pool = cache["tiles"], cache["deriv"], cache["pool"]
        g_band = np.zeros((2 * L - 1, L * K), dtype=deriv.dtype)
        g_bias = np.zeros(L * K, dtype=deriv.dtype)  # summed over the L rows below
        # a GEMV sums a chunk's rows about 3x faster than .sum(axis=0)
        ones = np.ones(self._chunk * self.channels * self.n_tiles, dtype=deriv.dtype)

        def backward_chunk(s):
            e = min(s + self._chunk, n)
            dconv = np.matmul(pool, dfeat[s:e])  # (chunk, ch, n_tiles·L, K)
            dconv *= deriv[s:e]
            dconv = dconv.reshape(-1, L * K)
            return (tiles[s:e].reshape(-1, 2 * L - 1).T @ dconv,
                    ones[: dconv.shape[0]] @ dconv)

        # summed in chunk order on this thread, so the sums do not depend on
        # which worker finished first
        for band_part, bias_part in chunk_map(backward_chunk, range(0, n, self._chunk)):
            g_band += band_part
            g_bias += bias_part
        # conv_w[k, l] feeds band entries (l + r, r·K + k): sum those diagonals
        row, item = g_band.strides
        diagonals = np.lib.stride_tricks.as_strided(
            g_band, (L, L, K), (row, row + K * item, item), writeable=False
        )  # [l, r, k] -> g_band[l + r, r·K + k]
        g_conv_w = diagonals.sum(axis=1).T
        g_conv_b = g_bias.reshape(L, K).sum(axis=0)
        return [g_conv_w, g_conv_b, g_time_w, g_time_b, g_out_w, g_out_b]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, train: bool = False):
        """Cross-entropy loss and parameter gradients.

        ``train=True`` samples fresh dropout masks (advancing the model's
        mask stream); ``train=False`` is the deterministic path used by
        gradient checking.  The chunks run one after another on the calling
        thread.
        """
        return self._loss_and_grads(x, y, train, map)

    def _loss_and_grads(self, x, y, train: bool, chunk_map):
        x = self._checked_input(x)
        y = np.asarray(y, dtype=np.int64)
        logits, cache = self._forward(x, train, True, chunk_map)
        loss, dlogits = _softmax_cross_entropy(logits, y)
        return float(loss), self._backward(x, dlogits, cache, chunk_map)


def train_cnn1d(
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: Cnn1dConfig,
    train_config: TrainConfig = TrainConfig(),
) -> Cnn1dModel:
    """Train the 1-D CNN on an (N, channels, width) trial stack.

    Each step's chunks run on up to 2 worker threads, never more than the
    usable CPUs (the worker rule ``dsp.apply_filter`` shares), and numpy's
    OpenBLAS is held to one thread for the fit, then restored.  The trained
    parameters are bit-identical to one chunk after another.  A stack that is
    not 3-D, or a label outside ``0..config.classes - 1``, raises
    ``ValueError`` before any worker starts.
    """
    x, y, dtype = _training_set(train_x, train_y, "CNN")
    if x.ndim != 3:
        raise ValueError(
            f"CNN input must be (N, channels, width), got shape {x.shape}")
    bad = (y < 0) | (y >= config.classes)
    if bad.any():
        raise ValueError(f"CNN label {y[bad][0]} is outside 0..{config.classes - 1}"
                         f" (config.classes={config.classes})")
    model = Cnn1dModel(
        config, channels=x.shape[1], width=x.shape[2],
        seed=train_config.seed, dtype=dtype,
    )
    rng = np.random.default_rng(train_config.seed + 1)
    with _one_blas_thread, ThreadPoolExecutor(worker_threads()) as workers:
        _sgd(model.param_arrays(), x.shape[0], train_config, rng,
             lambda idx: model._loss_and_grads(x[idx], y[idx], True, workers.map),
             "CNN")
    return model


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_accuracy(model, x: np.ndarray, y: np.ndarray,
                      num_classes: int | None = None):
    """Fraction correct plus the per-class confusion matrix (rows = truth)."""
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("empty test set")
    preds = model.predict(x)
    c = num_classes or int(max(y.max(), preds.max())) + 1
    confusion = stats.confusion(y, preds, c)
    return float(np.trace(confusion) / y.size), confusion
