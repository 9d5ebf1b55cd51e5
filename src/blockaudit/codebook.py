"""Random-codebook attack: regression targets with class structure but no
meaning, and the transfer comparison that shows they work just as well.

A codebook holds one base codeword per class (uniform in [0, 2]) and one
noisy clipped variant per (subject, stimulus).  Averaging variants across
subjects yields per-stimulus regression targets; a closed-form ridge
regressor maps classifier-output-like features onto them; and a linear SVM
trained on the regressed encodings of a disjoint-class dataset performs on
par with one trained on the raw features.

Pretrained image classifiers are out of scope: class-clustered synthetic
feature vectors stand in for their outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifiers as clf
from ._checks import check_integer, check_real


@dataclass(frozen=True)
class Codebook:
    """Per-class base codewords plus per-(subject, stimulus) noisy variants.

    ``class_codewords`` is (C, D) with elements in [0, 2];
    ``instance_codewords`` is (subjects, C, instances_per_class, D), clipped
    elementwise at zero.
    """

    class_codewords: np.ndarray
    instance_codewords: np.ndarray
    noise_variance: float

    def __post_init__(self):
        base = np.asarray(self.class_codewords, dtype=np.float64)
        inst = np.asarray(self.instance_codewords, dtype=np.float64)
        if base.ndim != 2 or inst.ndim != 4:
            raise ValueError("codeword arrays have wrong rank")
        if inst.shape[1] != base.shape[0] or inst.shape[3] != base.shape[1]:
            raise ValueError("instance codewords do not match class codewords")
        if base.min() < 0 or base.max() > 2:
            raise ValueError("class codewords outside [0, 2]")
        if inst.min() < 0:
            raise ValueError("instance codewords must be clipped nonnegative")
        base.setflags(write=False)
        inst.setflags(write=False)
        object.__setattr__(self, "class_codewords", base)
        object.__setattr__(self, "instance_codewords", inst)

    @property
    def classes(self) -> int:
        return self.class_codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.class_codewords.shape[1]

    @property
    def subjects(self) -> int:
        return self.instance_codewords.shape[0]

    @property
    def instances_per_class(self) -> int:
        return self.instance_codewords.shape[2]


@dataclass(frozen=True)
class FeatureSet:
    """Vectors standing in for classifier outputs, with labels and split tags."""

    vectors: np.ndarray
    labels: np.ndarray
    split_tags: np.ndarray  # "train" / "test" per row

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        tags = np.asarray(self.split_tags)
        if vecs.ndim != 2 or labels.shape != (vecs.shape[0],) or tags.shape != (
            vecs.shape[0],
        ):
            raise ValueError("vectors, labels, split_tags must align")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "split_tags", tags)

    def rows(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.split_tags == tag)


def generate_codebook(
    classes: int,
    instances_per_class: int,
    subjects: int,
    dim: int = 128,
    seed: int = 0,
    noise_variance: float = 4.0,
) -> Codebook:
    """Sample the codebook: uniform [0, 2] bases, Gaussian-perturbed variants.

    Per (subject, class, instance) the variant is the base plus i.i.d.
    N(0, noise_variance) noise, clipped at zero.  Defaults reproduce the
    40 x 50 x 6 x 128 layout (12,000 instance codewords).
    """
    check_integer("classes", classes, 1)
    check_integer("instances_per_class", instances_per_class, 1)
    check_integer("subjects", subjects, 1)
    check_integer("dim", dim, 1)
    check_real("noise_variance", noise_variance, ge=0)
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 2.0, size=(classes, dim))
    noise = rng.normal(
        0.0,
        np.sqrt(noise_variance),
        size=(subjects, classes, instances_per_class, dim),
    )
    inst = np.clip(base[None, :, None, :] + noise, 0.0, None)
    return Codebook(
        class_codewords=base,
        instance_codewords=inst,
        noise_variance=noise_variance,
    )


def average_over_subjects(codebook: Codebook) -> np.ndarray:
    """Per-stimulus codewords: the mean over subjects, shape (C * n, D)."""
    mean = codebook.instance_codewords.mean(axis=0)  # (C, n, D)
    return mean.reshape(codebook.classes * codebook.instances_per_class,
                        codebook.dim)


@dataclass(frozen=True)
class RidgeRegressor:
    """Closed-form linear map features -> codewords, bias unregularized."""

    weights: np.ndarray  # (F, D)
    bias: np.ndarray     # (D,)
    l2: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias


def train_ridge_regressor(
    features: np.ndarray, targets: np.ndarray, l2: float = 1e-2
) -> RidgeRegressor:
    """Solve the normal equations of MSE + l2 * ||W||^2 (bias excluded).

    Centering both sides removes the bias from the regularized solve; the
    bias is recovered as target_mean - feature_mean @ W.  A singular system
    at l2 = 0 raises with the advice to set l2 > 0.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must be aligned 2-D arrays")
    if x.shape[0] < 1:
        raise ValueError("need at least one training row")
    check_real("l2", l2, ge=0)
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + l2 * x.shape[0] * np.eye(x.shape[1])
    try:
        w = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "normal equations are singular; use l2 > 0"
        ) from exc
    if l2 == 0.0 and not np.allclose(gram @ w, xc.T @ yc, rtol=1e-6, atol=1e-8):
        raise ValueError("normal equations are singular; use l2 > 0")
    return RidgeRegressor(weights=w, bias=y_mean - x_mean @ w, l2=float(l2))


def make_clustered_features(
    classes: int,
    per_class: int,
    dim: int = 1000,
    noise_sigma: float = 0.25,
    seed: int = 0,
    train_fraction: float = 0.8,
) -> FeatureSet:
    """Synthetic classifier outputs: per-class uniform [0,1] mean + noise.

    Mimics the one property that matters: vectors of the same class are
    closer than vectors of different classes.  Rows are tagged train/test by
    a seeded per-class split.
    """
    check_integer("classes", classes, 2)
    check_integer("per_class", per_class, 2)
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(classes, dim))
    labels = np.repeat(np.arange(classes), per_class)
    vectors = means[labels] + rng.normal(0.0, noise_sigma, (labels.size, dim))
    tags = np.empty(labels.size, dtype=object)
    n_train = max(1, min(per_class - 1, int(round(train_fraction * per_class))))
    for c in range(classes):
        rows = np.flatnonzero(labels == c)
        perm = rng.permutation(rows)
        tags[perm[:n_train]] = "train"
        tags[perm[n_train:]] = "test"
    return FeatureSet(vectors=vectors, labels=labels, split_tags=tags)


def intra_inter_distances(
    vectors: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Mean intra-class and inter-class pairwise Euclidean distances."""
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    sq = np.einsum("nd,nd->n", x, x)
    d2 = np.maximum(sq[:, None] - 2.0 * (x @ x.T) + sq[None, :], 0.0)
    d = np.sqrt(d2)
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(labels.size, dtype=bool)
    return float(d[same & off].mean()), float(d[~same].mean())


def transfer_svm_compare(
    regressor: RidgeRegressor,
    target: FeatureSet,
    train_config: clf.TrainConfig | None = None,
    svm_l2: float = 1e-4,
) -> tuple[float, float]:
    """Accuracy of linear SVMs on raw features vs regressed encodings.

    The target's classes must be disjoint from whatever trained the
    regressor; both SVMs share the target's train/test tags, so the pair is
    directly comparable.
    """
    cfg = train_config or clf.TrainConfig(epochs=50, learning_rate=1e-4)
    train_rows, test_rows = target.rows("train"), target.rows("test")
    if train_rows.size == 0 or test_rows.size == 0:
        raise ValueError("target needs both train and test rows")
    y_train, y_test = target.labels[train_rows], target.labels[test_rows]
    if np.unique(y_train).size < 2:
        raise ValueError("degenerate single-class target")
    accs = []
    for transform in (lambda v: v, regressor.predict):
        x_train = transform(target.vectors[train_rows])
        x_test = transform(target.vectors[test_rows])
        model = clf.train_svm(x_train, y_train, cfg, l2=svm_l2)
        acc, _ = clf.evaluate_accuracy(model, x_test, y_test)
        accs.append(acc)
    return accs[0], accs[1]
