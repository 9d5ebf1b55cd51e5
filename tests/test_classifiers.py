import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from blockaudit import (
    Cnn1dConfig,
    Cnn1dModel,
    KnnModel,
    LinearModel,
    MlpModel,
    TrainConfig,
    evaluate_accuracy,
    train_cnn1d,
    train_mlp,
    train_svm,
)
from blockaudit import classifiers
from blockaudit.classifiers import _CHUNK_BYTES, TrainingDiverged

from conftest import gradient_check


class TestKnn:
    def test_single_point(self):
        x = np.array([[1.0, 2.0]])
        q = np.array([1.0, 2.0])
        assert KnnModel(x, np.array([3]), k=1).predict(q[None, :])[0] == 3

    def test_majority_vote_example(self):
        x = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0, 0, 1])
        q = np.array([0.5])
        assert KnnModel(x, y, k=3).predict(q[None, :])[0] == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 3, 40)
        queries = rng.standard_normal((25, 5))
        model = KnnModel(x, y, k=7)
        preds = model.predict(queries)
        for q, got in zip(queries, preds):
            dists = [(float(np.sum((q - xi) ** 2)), i) for i, xi in enumerate(x)]
            dists.sort()  # distance, then trial index
            votes = {}
            for _, i in dists[:7]:
                votes[y[i]] = votes.get(y[i], 0) + 1
            best = max(votes.values())
            want = min(c for c, v in votes.items() if v == best)
            assert got == want

    def test_vote_tie_smallest_class(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([5, 1])
        # both neighbors equally near -> one vote each -> class 1 wins
        q = np.array([1.0])
        assert KnnModel(x, y, k=2).predict(q[None, :])[0] == 1

    def test_distance_tie_lower_trial_index(self):
        x = np.array([[1.0], [-1.0], [-1.0]])
        y = np.array([2, 1, 0])
        # trials 1 and 2 are equidistant duplicates; k=1 takes index 1 first
        q = np.array([-1.0])
        assert KnnModel(x, y, k=1).predict(q[None, :])[0] == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8))
        y = rng.integers(0, 4, 50)
        q = rng.standard_normal((20, 8))
        base = KnnModel(x, y, k=5).predict(q)
        scaled = KnnModel(x * 37.5, y, k=5).predict(q * 37.5)
        np.testing.assert_array_equal(base, scaled)

    def test_k_validation(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k="):
            KnnModel(x, np.zeros(3, dtype=int), k=4)
        with pytest.raises(ValueError, match="empty"):
            KnnModel(np.zeros((0, 2)), np.zeros(0, dtype=int), k=1)


class TestSvm:
    def test_separable_blobs_perfect_training(self):
        # separability oracle: two well-separated Gaussian blobs in 2-D
        rng = np.random.default_rng(2)
        x = np.concatenate([
            rng.normal(-4.0, 0.5, (40, 2)), rng.normal(4.0, 0.5, (40, 2)),
        ]).astype(np.float64)
        y = np.repeat([0, 1], 40)
        model = train_svm(x, y, TrainConfig(seed=0, epochs=50,
                                            learning_rate=1e-2))
        acc, _ = evaluate_accuracy(model, x, y)
        assert acc == 1.0

    def test_uninformative_features_majority_rate(self):
        x = np.ones((30, 3))
        y = np.array([0] * 20 + [1] * 10)
        model = train_svm(x, y, TrainConfig(seed=0, epochs=20,
                                            learning_rate=1e-3))
        acc, _ = evaluate_accuracy(model, x, y)
        assert acc == pytest.approx(20 / 30)

    def test_multiclass_blobs(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(0, 10.0, (5, 4))
        y = np.repeat(np.arange(5), 30)
        x = centers[y] + rng.normal(0, 0.5, (150, 4))
        model = train_svm(x, y, TrainConfig(seed=1, epochs=80,
                                            learning_rate=1e-2))
        acc, confusion = evaluate_accuracy(model, x, y)
        assert acc >= 0.99
        assert confusion.sum() == 150

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_svm(np.zeros((4, 2)), np.zeros(4, dtype=int), TrainConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 6))
        y = rng.integers(0, 3, 60)
        cfg = TrainConfig(seed=9, epochs=10, learning_rate=1e-2)
        a = train_svm(x, y, cfg)
        b = train_svm(x, y, cfg)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)

    def test_gram_path_matches_primal(self):
        # 6 features for 60 trials trains in the primal; zero-padding the
        # features to 66 > 60 switches to Gram space without changing the
        # problem, so the two fits must agree up to rounding
        rng = np.random.default_rng(12)
        y = np.repeat(np.arange(3), 20)
        x = rng.standard_normal((60, 6)) + 2.0 * np.eye(3, 6)[y]
        cfg = TrainConfig(seed=3, epochs=30, batch_size=16, learning_rate=1e-2)
        primal = train_svm(x, y, cfg, l2=1e-2)
        padded = np.hstack([x, np.zeros((60, 60))])
        gram = train_svm(padded, y, cfg, l2=1e-2)
        np.testing.assert_allclose(gram.w[:6], primal.w, rtol=1e-9)
        np.testing.assert_allclose(gram.b, primal.b, rtol=1e-9)
        assert not gram.w[6:].any()
        np.testing.assert_array_equal(gram.predict(padded), primal.predict(x))

    @pytest.mark.parametrize("n, dim, classes", [
        (120, 3_000, 40),
        (400, 43_296, 10),  # c1_grid's within-block fit: 96 ch x 451 samples
    ], ids=["40_classes", "c1_grid"])
    def test_gram_weights_equal_the_direct_product(self, monkeypatch, n, dim,
                                                   classes):
        # the weights are recovered as (aᵀX)ᵀ; in float32 that must equal
        # Xᵀa bit for bit
        fits = []
        sgd = classifiers._sgd

        def keep_params(params, *args):
            sgd(params, *args)
            fits.append(params)

        monkeypatch.setattr(classifiers, "_sgd", keep_params)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((n, dim), dtype=np.float32)
        y = np.arange(n) % classes
        model = train_svm(x, y, TrainConfig(seed=1, epochs=1, batch_size=64,
                                            learning_rate=3e-5))
        coef = fits[0][0]
        assert coef.shape == (n, classes) and coef.any()
        assert model.w.dtype == np.float32 and model.w.flags.c_contiguous
        assert np.array_equal(model.w, x.T @ coef)

    @staticmethod
    def _per_step_targets_fit(x, y, config, l2):
        """``train_svm`` as it was when every step rebuilt its batch's ±1
        targets and took the loss as a mean of row sums."""
        def hinge(s, labels):
            n = s.shape[0]
            targets = -np.ones(s.shape, dtype=s.dtype)
            targets[np.arange(n), labels] = 1.0
            margins = 1.0 - targets * s
            loss = np.maximum(margins, 0.0).sum(axis=1).mean()
            return loss, np.where(margins > 0, -targets, 0.0) / n

        classes = int(y.max()) + 1
        rng = np.random.default_rng(config.seed)
        n, dim = x.shape
        b = np.zeros(classes, dtype=x.dtype)
        if dim <= n:
            w = np.zeros((dim, classes), dtype=x.dtype)

            def step(idx):
                loss, ds = hinge(x[idx] @ w + b, y[idx])
                loss += 0.5 * l2 * float(np.einsum("dc,dc->", w, w))
                return float(loss), [x[idx].T @ ds + l2 * w, ds.sum(axis=0)]

            classifiers._sgd([w, b], n, config, rng, step, "SVM")
            return w, b
        gram = x @ x.T
        coef = np.zeros((n, classes), dtype=x.dtype)

        def step(idx):
            loss, ds = hinge(gram[idx] @ coef + b, y[idx])
            grad = l2 * coef
            grad[idx] += ds
            return float(loss), [grad, ds.sum(axis=0)]

        classifiers._sgd([coef, b], n, config, rng, step, "SVM")
        return (coef.T @ x).T, b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("features", [6, 150], ids=["primal", "gram"])
    def test_equals_the_per_step_targets_fit_bit_for_bit(self, features, dtype):
        # the ±1 targets are built once per fit; every step must stay the same
        rng = np.random.default_rng(21)
        y = np.arange(70) % 4
        x = (rng.standard_normal((70, features))
             + 1.5 * np.eye(4, features)[y]).astype(dtype)
        cfg = TrainConfig(seed=5, epochs=15, batch_size=16, learning_rate=1e-2)
        model = train_svm(x, y, cfg, l2=1e-3)
        w, b = self._per_step_targets_fit(x, y, cfg, 1e-3)
        assert model.w.dtype == dtype
        assert np.array_equal(model.w, w) and np.array_equal(model.b, b)

    @pytest.mark.parametrize("features", [4, 64], ids=["primal", "gram"])
    def test_divergence_reported_with_config_echo(self, features):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((32, features))
        x[5, 0] = np.nan
        y = np.arange(32) % 2
        with pytest.raises(TrainingDiverged, match="epochs"):
            train_svm(x, y, TrainConfig(seed=0, epochs=5, batch_size=8,
                                        learning_rate=1e-2))


@pytest.mark.parametrize("name, train", [
    ("SVM", lambda x, y: train_svm(x, y, TrainConfig())),
    ("MLP", lambda x, y: train_mlp(x, y, hidden=2)),
    ("CNN", lambda x, y: train_cnn1d(
        x[:, :, None], y, Cnn1dConfig(kernel_len=1, pool_len=1, pool_stride=1))),
])
def test_every_trainer_rejects_one_class(name, train):
    with pytest.raises(ValueError, match=f"{name} training needs at least 2 classes"):
        train(np.zeros((4, 2), dtype=np.float32), np.zeros(4, dtype=int))


@pytest.mark.parametrize("name, train", [
    ("SVM", lambda x, y: train_svm(x, y, TrainConfig())),
    ("MLP", lambda x, y: train_mlp(x, y, hidden=2)),
    ("CNN", lambda x, y: train_cnn1d(
        x[:, :, None], y, Cnn1dConfig(kernel_len=1, pool_len=1, pool_stride=1))),
])
def test_every_trainer_rejects_misaligned_labels(name, train, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fit, a worker pool or the BLAS hold was started")

    monkeypatch.setattr(classifiers, "_sgd", refuse)
    monkeypatch.setattr(classifiers, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(classifiers._OneBlasThread, "__enter__", refuse)
    x = np.zeros((10, 2), dtype=np.float32)
    labels = np.arange(10) % 2
    with pytest.raises(ValueError, match=f"{name} training set has 6 samples "
                                         f"but 10 labels"):
        train(x[:6], labels)
    with pytest.raises(ValueError, match=f"{name} training set has 10 samples "
                                         f"but 6 labels"):
        train(x, labels[:6])


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", 0.0),
        ("learning_rate", float("inf")),
        ("momentum", 1.5), ("momentum", -0.5), ("momentum", float("nan")),
        ("seed", -1),
    ])
    def test_setting_outside_the_schema_rejected(self, field, value):
        # each used to fail late, once per cell, or train silently
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r}")):
            TrainConfig(**{field: value})

    def test_schema_edges_accepted(self):
        TrainConfig(momentum=0.0)
        TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", 2.0), ("epochs", float("nan")),
        ("batch_size", 1.5), ("batch_size", 16.0),
        ("batch_size", float("nan")), ("epochs", True), ("batch_size", True),
        ("seed", 2.5), ("seed", True),
    ])
    def test_non_integral_count_rejected(self, field, value):
        # a float used to pass and fail in the first fit of a grid, after
        # the session was segmented; NaN passed because nan < 1 is False;
        # a bool built, and a seed was checked only inside default_rng
        with pytest.raises(ValueError, match=re.escape(
                f"{field}={value!r} must be an integer")):
            TrainConfig(**{field: value})

    def test_integer_counts_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8))
        assert (cfg.epochs, cfg.batch_size) == (3, 8)
        TrainConfig(epochs=1, batch_size=1)


class TestMlp:
    def test_xor_learnable(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = train_mlp(
            x, y, hidden=8,
            config=TrainConfig(seed=3, epochs=5000, batch_size=4,
                               learning_rate=0.5, momentum=0.9),
        )
        acc, _ = evaluate_accuracy(model, x, y)
        assert acc == 1.0

    def test_untrained_model_near_chance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 10))
        y = rng.integers(0, 4, 400)
        model = MlpModel.init(10, 16, 4, seed=0)
        acc, _ = evaluate_accuracy(model, x, y)
        p = stats.binomtest(int(round(acc * 400)), 400, 0.25).pvalue
        assert p >= 0.01

    def test_divergence_reported_with_config_echo(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 4))
        x[0, 0] = np.nan  # poison one input: loss goes non-finite
        y = rng.integers(0, 2, 32)
        y[:2] = [0, 1]
        with pytest.raises(TrainingDiverged, match="epochs"):
            train_mlp(x, y, hidden=8,
                      config=TrainConfig(seed=0, epochs=5, batch_size=32,
                                         learning_rate=1e-2))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 5))
        y = rng.integers(0, 3, 50)
        cfg = TrainConfig(seed=11, epochs=5, learning_rate=1e-2)
        np.testing.assert_array_equal(
            train_mlp(x, y, 8, cfg).w1, train_mlp(x, y, 8, cfg).w1
        )

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_below_one_rejected(self, hidden):
        # a layer of no units trains a bias-only model that reads as chance
        x = np.random.default_rng(8).standard_normal((5, 3))
        with pytest.raises(ValueError,
                           match=f"hidden={hidden} must be an integer >= 1"):
            train_mlp(x, np.arange(5) % 2, hidden=hidden)

    @staticmethod
    def _primal_reference(x, y, hidden, cfg):
        model = MlpModel.init(x.shape[1], hidden, int(y.max()) + 1,
                              seed=cfg.seed, dtype=x.dtype)
        classifiers._sgd(model.param_arrays(), len(x), cfg,
                         np.random.default_rng(cfg.seed + 1),
                         lambda idx: model.loss_and_grads(x[idx], y[idx]), "MLP")
        return model

    def test_gram_path_matches_primal_reference(self, monkeypatch):
        # 300 features for 48 trials trains the first layer in Gram space;
        # the iterates and the step losses equal the primal ones up to rounding
        losses = []
        sgd = classifiers._sgd

        def keep_losses(params, n, config, rng, step, name):
            run = []
            losses.append(run)

            def logged(idx):
                loss, grads = step(idx)
                run.append(loss)
                return loss, grads

            sgd(params, n, config, rng, logged, name)

        monkeypatch.setattr(classifiers, "_sgd", keep_losses)
        rng = np.random.default_rng(15)
        y = np.arange(48) % 3
        x = rng.standard_normal((48, 300)) + 1.5 * np.eye(3, 300)[y]
        cfg = TrainConfig(seed=4, epochs=20, batch_size=16, learning_rate=5e-2)
        gram = train_mlp(x, y, hidden=8, config=cfg)
        primal = self._primal_reference(x, y, 8, cfg)
        for got, want in zip(gram.param_arrays(), primal.param_arrays()):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=1e-9)
        assert not np.allclose(primal.w1, MlpModel.init(
            300, 8, 3, seed=4, dtype=np.float64).w1, rtol=1e-3)
        np.testing.assert_array_equal(gram.predict(x), primal.predict(x))
        assert len(losses) == 2 and len(losses[0]) == 20 * 3
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-9)

    def test_primal_path_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((60, 60))
        y = np.arange(60) % 4
        cfg = TrainConfig(seed=2, epochs=5, batch_size=16, learning_rate=1e-2)
        model = train_mlp(x, y, hidden=6, config=cfg)
        reference = self._primal_reference(x, y, 6, cfg)
        for got, want in zip(model.param_arrays(), reference.param_arrays()):
            np.testing.assert_array_equal(got, want)

    def test_gram_path_divergence_reported(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((32, 64))
        x[5, 0] = np.nan
        y = np.arange(32) % 2
        with pytest.raises(TrainingDiverged, match="epochs"):
            train_mlp(x, y, hidden=8,
                      config=TrainConfig(seed=0, epochs=5, batch_size=8,
                                         learning_rate=1e-2))


class TestCnnShapes:
    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=field if value == 2.5 else f"{field}-True")
        for value in (2.5, True)
        for field in ("kernels", "kernel_len", "pool_len", "pool_stride",
                      "classes")
    ])
    def test_non_integral_field_named(self, field, value):
        # kernels=2.5 used to build and then fail train_cnn1d with a TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"{field}={value!r} must be an integer")):
            Cnn1dConfig(**{field: value})

    @pytest.mark.parametrize("field, value, low", [
        ("kernels", 0, 1), ("kernel_len", 0, 1), ("pool_len", 0, 1),
        ("pool_stride", -1, 1), ("classes", 1, 2), ("classes", 0, 2),
    ])
    def test_field_below_range_named(self, field, value, low):
        # classes=0 and classes=1 used to build
        with pytest.raises(ValueError, match=re.escape(
                f"{field}={value} must be an integer >= {low}")):
            Cnn1dConfig(**{field: value})

    def test_conv_length_440(self):
        cfg = Cnn1dConfig(classes=40)
        assert cfg.conv_length(440) == 409

    def test_pooled_points_440(self):
        cfg = Cnn1dConfig(classes=40)
        assert cfg.pooled_points(440) == 5

    def test_forward_shapes(self):
        cfg = Cnn1dConfig(classes=40)
        model = Cnn1dModel(cfg, channels=128, width=440, seed=0,
                           dtype=np.float32)
        assert model.t1 == 409
        assert model.pooled == 5
        x = np.random.default_rng(8).standard_normal((2, 128, 440)).astype(
            np.float32)
        assert model.logits(x).shape == (2, 40)

    def test_window_too_small_for_pool(self):
        cfg = Cnn1dConfig(classes=4)
        with pytest.raises(ValueError, match="pool"):
            Cnn1dModel(cfg, channels=4, width=100, seed=0)

    def test_inference_deterministic_despite_dropout(self):
        cfg = Cnn1dConfig(kernels=2, kernel_len=5, pool_len=8, pool_stride=4,
                          classes=3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3, 32))
        y = rng.integers(0, 3, 6)
        model = train_cnn1d(x, y, cfg, TrainConfig(seed=0, epochs=2,
                                                   learning_rate=1e-3))
        np.testing.assert_array_equal(model.logits(x), model.logits(x))

    def test_dropout_mask_is_fair_and_scaled(self):
        model = Cnn1dModel(Cnn1dConfig(classes=3), channels=1, width=160,
                           seed=3, dtype=np.float32)
        mask = model._mask((1000, 1000), np.dtype(np.float32))
        assert mask.shape == (1000, 1000) and mask.dtype == np.float32
        assert set(np.unique(mask)) == {0.0, 2.0}
        kept = np.count_nonzero(mask) / mask.size
        assert abs(kept - 0.5) < 5 * np.sqrt(0.25 / mask.size)

    def test_training_cache_holds_no_window_copy(self):
        cfg = Cnn1dConfig(kernels=4, kernel_len=32, pool_len=64,
                          pool_stride=32, classes=3)
        model = Cnn1dModel(cfg, channels=5, width=200, seed=0)
        x = np.random.default_rng(21).standard_normal((6, 5, 200))
        _, cache = model._forward(x, train=True)
        window_copy = 6 * 5 * model.t1 * cfg.kernel_len
        assert max(a.size for a in cache.values()) < window_copy / 2

    def test_training_masks_vary_by_step(self):
        cfg = Cnn1dConfig(kernels=2, kernel_len=5, pool_len=8, pool_stride=4,
                          classes=2)
        model = Cnn1dModel(cfg, channels=2, width=20, seed=0)
        x = np.random.default_rng(10).standard_normal((3, 2, 20))
        y = np.array([0, 1, 0])
        l1, _ = model.loss_and_grads(x, y, train=True)
        l2, _ = model.loss_and_grads(x, y, train=True)
        assert l1 != l2  # fresh masks per step


class TestCnnInputs:
    @pytest.fixture
    def no_workers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool or the BLAS hold was started")

        monkeypatch.setattr(classifiers, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(classifiers._OneBlasThread, "__enter__", refuse)

    def test_two_dimensional_training_stack_rejected(self, no_workers):
        with pytest.raises(ValueError, match=r"must be \(N, channels, width\), "
                                             r"got shape \(12, 300\)"):
            train_cnn1d(np.zeros((12, 300)), np.arange(12) % 3,
                        Cnn1dConfig(classes=3))

    def test_label_outside_config_classes_rejected(self, no_workers):
        x = np.zeros((6, 2, 200))
        with pytest.raises(ValueError, match=r"label 2 .*config\.classes=2"):
            train_cnn1d(x, np.array([0, 1, 2, 0, 1, 2]), Cnn1dConfig(classes=2))

    def test_two_dimensional_predict_input_rejected(self, no_workers):
        model = Cnn1dModel(Cnn1dConfig(classes=3), channels=2, width=200, seed=0)
        with pytest.raises(ValueError, match=r"\(N, channels, width\) = "
                                             r"\(N, 2, 200\), got shape \(3, 400\)"):
            model.predict(np.zeros((3, 400)))


def test_openblas_lookup_finds_the_bundled_library():
    # numpy's wheels bundle OpenBLAS under numpy.libs, each spelling its
    # symbols its own way; the CNN's one-thread hold needs them found
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not any(libs.glob("*openblas*")):
        pytest.skip("this numpy bundles no OpenBLAS")
    assert classifiers._openblas_thread_fns() is not None


class TestBlasRelease:
    """The size-gated release of the one-thread hold that ``audit.run_grid``
    and the CNN take: counts only, never timings."""

    GATE = classifiers._RELEASE_MACS
    # the bytes a thin product must stream to reach the gate
    GATE_BYTES = GATE // classifiers._MACS_PER_BYTE
    hold = classifiers._one_blas_thread

    @pytest.mark.parametrize("macs, nbytes", [
        (GATE, 0), (0, GATE_BYTES), (2 * GATE, 2 * GATE_BYTES),
    ], ids=["macs", "bytes", "both"])
    def test_large_product_gets_the_held_over_count(self, blas_count, macs,
                                                    nbytes):
        get, count = blas_count
        seen = []
        with self.hold:
            seen.append(get())
            with self.hold.released(macs, nbytes):
                seen.append(get())
            seen.append(get())
            with pytest.raises(RuntimeError), self.hold.released(macs, nbytes):
                seen.append(get())
                raise RuntimeError("product failed")
            seen.append(get())
        assert seen == [1, count, 1, count, 1] and get() == count

    def test_product_below_the_gate_stays_at_one_thread(self, blas_count):
        get, count = blas_count
        with self.hold, self.hold.released(self.GATE - 1, self.GATE_BYTES - 1):
            assert get() == 1
        assert get() == count

    def test_outside_any_hold_the_gate_changes_nothing(self, blas_count):
        get, count = blas_count
        for macs, nbytes in ((0, 0), (self.GATE, 0), (0, self.GATE_BYTES)):
            with self.hold.released(macs, nbytes):
                assert get() == count
            assert get() == count

    def test_nested_holds_and_overlapping_releases(self, blas_count):
        # the grid's hold around a CNN's; the count comes back to 1 only
        # when the last release ends, and to the previous count when the
        # last hold leaves
        get, count = blas_count
        with self.hold:
            with self.hold, self.hold.released(self.GATE, 0):
                with self.hold.released(0, self.GATE_BYTES):
                    assert get() == count
                assert get() == count
            assert get() == 1
        assert get() == count

    def test_product_sites_pass_their_sizes(self, monkeypatch):
        sizes = []
        hold = classifiers._one_blas_thread

        class Recorder:
            def released(self, macs, nbytes):
                sizes.append((macs, nbytes))
                return hold.released(macs, nbytes)

        monkeypatch.setattr(classifiers, "_one_blas_thread", Recorder())
        rng = np.random.default_rng(0)
        n, dim, classes = 12, 40, 3
        x = rng.standard_normal((n, dim)).astype(np.float32)
        y = np.arange(n) % classes
        train_svm(x, y, TrainConfig(epochs=1))
        # the Gram X Xᵀ, then the weights (aᵀX)ᵀ, each streaming X
        assert sizes == [(n * n * dim, x.nbytes), (classes * n * dim, x.nbytes)]
        sizes.clear()
        train_mlp(x, y, hidden=5, config=TrainConfig(epochs=1))
        assert sizes == [(n * n * dim, x.nbytes), (5 * n * dim, x.nbytes)]
        sizes.clear()
        KnnModel(x, y, k=1).predict(rng.standard_normal((300, dim)))
        # one distance product per chunk of 256 queries
        assert sizes == [(256 * n * dim, x.nbytes), (44 * n * dim, x.nbytes)]


class TestGradientChecks:
    def test_mlp_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        model = MlpModel.init(4, 6, 3, seed=1)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_gradients_shared(self):
        rng = np.random.default_rng(12)
        cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6, pool_stride=3,
                          classes=3)
        model = Cnn1dModel(cfg, channels=2, width=16, seed=2)
        x = rng.standard_normal((4, 2, 16))
        y = rng.integers(0, 3, 4)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_gradients_with_dropout(self):
        # every evaluation restores the mask stream, so it draws the same
        # masks and the loss is a smooth function of the parameters
        rng = np.random.default_rng(19)
        cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6, pool_stride=3,
                          classes=3)
        model = Cnn1dModel(cfg, channels=2, width=16, seed=5)
        x = rng.standard_normal((4, 2, 16))
        y = rng.integers(0, 3, 4)
        state = model._mask_rng.bit_generator.state

        class SameMasks:
            def param_arrays(self):
                return model.param_arrays()

            def loss_and_grads(self, x, y):
                model._mask_rng.bit_generator.state = state
                return model.loss_and_grads(x, y, train=True)

        assert SameMasks().loss_and_grads(x, y)[0] != model.loss_and_grads(x, y)[0]
        assert gradient_check(SameMasks(), x, y, epsilon=1e-3) < 1e-4

    def test_cnn_large_preactivations_stay_finite(self):
        cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6, pool_stride=3,
                          classes=3)
        model = Cnn1dModel(cfg, channels=2, width=16, seed=0, dtype=np.float32)
        x = np.full((2, 2, 16), 500.0, dtype=np.float32)
        # one kernel sees a pre-activation far past expm1's float32 overflow
        # (about 88.7), the other one far below zero
        pre = 500.0 * model.conv_w.sum(axis=1)
        assert pre.max() > 200 and pre.min() < -200
        # keep the logits within a few units, so that the softmax does not
        # underflow: this test is about the ELU
        model.fc_time_w *= 1e-3
        with np.errstate(all="raise"):
            _, grads = model.loss_and_grads(x, np.array([0, 1]))
        for g in grads:
            assert np.isfinite(g).all()

    def test_linear_hinge_loss_gradients(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 3, 6)
        model = LinearModel(rng.standard_normal((5, 3)),
                            rng.standard_normal(3), l2=1e-2)
        epsilon = 1e-4
        # the hinge is differentiable away from its kink, and a step of
        # epsilon in one parameter moves a score by at most epsilon * max|x|
        targets = np.where(np.arange(3) == y[:, None], 1.0, -1.0)
        margins = 1.0 - targets * model.scores(x)
        assert np.abs(margins).min() > 10 * epsilon * np.abs(x).max()
        assert gradient_check(model, x, y, epsilon=epsilon) < 1e-6

    def test_gradient_check_is_a_test_helper(self):
        # nothing outside the tests calls it, so the package does not ship it
        assert not hasattr(classifiers, "gradient_check")

    def test_zero_input_zero_first_layer_gradient(self):
        model = MlpModel.init(4, 6, 3, seed=4)
        x = np.zeros((3, 4))
        y = np.array([0, 1, 2])
        _, grads = model.loss_and_grads(x, y)
        np.testing.assert_array_equal(grads[0], 0.0)  # dW1 = x^T @ ...


def _fc_time_then_pool(model, x, y, masks=None):
    """Logits and the six gradients of ``model`` (float64) in the textbook
    order: ``fc_time`` at every time point, then the mean over each pooling
    window.  ``masks``, if given, are the two scaled dropout masks: (n, ch,
    t1, k) after the ELU and (n, P, C) after pooling."""
    cfg = model.config
    n, ch, _ = x.shape
    k, c, t1, points = cfg.kernels, cfg.classes, model.t1, model.pooled
    windows = np.lib.stride_tricks.sliding_window_view(x, cfg.kernel_len, axis=2)
    conv = windows @ model.conv_w.T + model.conv_b  # (n, ch, t1, k)
    elu = np.where(conv > 0, conv, np.expm1(np.minimum(conv, 0)))
    act = elu if masks is None else elu * masks[0]
    feat = act.transpose(0, 2, 1, 3).reshape(n, t1, ch * k)
    scores = feat @ model.fc_time_w + model.fc_time_b  # (n, t1, c)
    starts = [p * cfg.pool_stride for p in range(points)]
    pooled = np.stack([scores[:, s : s + cfg.pool_len].mean(axis=1)
                       for s in starts], axis=1)
    if masks is not None:
        pooled = pooled * masks[1]
    flat = pooled.reshape(n, points * c)
    logits = flat @ model.fc_out_w + model.fc_out_b

    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = (probs - np.eye(c)[y]) / n
    dpooled = (dlogits @ model.fc_out_w.T).reshape(n, points, c)
    if masks is not None:
        dpooled = dpooled * masks[1]
    dscores = np.zeros_like(scores)
    for p, s in enumerate(starts):
        dscores[:, s : s + cfg.pool_len] += dpooled[:, p : p + 1] / cfg.pool_len
    dact = (dscores @ model.fc_time_w.T).reshape(n, t1, ch, k).transpose(0, 2, 1, 3)
    if masks is not None:
        dact = dact * masks[0]
    dconv = dact * np.where(conv > 0, 1.0, elu + 1.0)
    grads = [
        np.einsum("nctk,nctl->kl", dconv, windows),
        dconv.sum(axis=(0, 1, 2)),
        feat.reshape(-1, ch * k).T @ dscores.reshape(-1, c),
        dscores.sum(axis=(0, 1)),
        flat.T @ dlogits,
        dlogits.sum(axis=0),
    ]
    return logits, grads


class TestCnnPoolFirst:
    @pytest.mark.parametrize("kernel_len, pool_len, pool_stride, width, tail", [
        (5, 4, 6, 30, 4),
        (3, 7, 2, 20, 1),
        (1, 1, 1, 9, 0),
        (8, 2, 2, 12, 1),
        (6, 1, 1, 6, 0),
    ], ids=["gaps", "overlap", "degenerate", "partial_tile", "one_point"])
    def test_same_function_as_fc_time_then_pool(
        self, kernel_len, pool_len, pool_stride, width, tail
    ):
        cfg = Cnn1dConfig(kernels=2, kernel_len=kernel_len, pool_len=pool_len,
                          pool_stride=pool_stride, classes=3)
        model = Cnn1dModel(cfg, channels=3, width=width, seed=4)
        # time points after the last pooling window feed no class score
        assert model.t1 - (model.pooled - 1) * pool_stride - pool_len == tail
        rng = np.random.default_rng(20)
        for p in model.param_arrays():
            p[...] = rng.standard_normal(p.shape)  # nonzero biases too
        x = rng.standard_normal((5, 3, width))
        y = np.array([0, 1, 2, 1, 0])
        want_logits, want_grads = _fc_time_then_pool(model, x, y)
        np.testing.assert_allclose(model.logits(x), want_logits,
                                   rtol=1e-12, atol=1e-12)
        _, grads = model.loss_and_grads(x, y)
        for got, want in zip(grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _mask_bits(rng, shape):
    """Dropout bits for ``shape`` as a model's mask stream draws them."""
    size = int(np.prod(shape))
    raw = np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=size).reshape(shape)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


class TestCnnChunks:
    # kernel 7, pooling windows of 16 at stride 12: 16 windows end at conv
    # point 196 = 28 tiles of 7 (t1 = 200, which ceil(t1/L)·L rounds to 203)
    CFG = dict(kernels=3, kernel_len=7, pool_len=16, pool_stride=12, classes=3)
    WIDTH, POINTS, POINTS_DRAWN = 206, 196, 203

    def chunked_model(self, n=7):
        """A float64 model whose n-trial batch spans 4 chunks of 2, 2, 2 and
        1 trials: a trial's conv output is just over a third of the budget."""
        cfg = Cnn1dConfig(**self.CFG)
        per_point = cfg.kernels * np.dtype(np.float64).itemsize
        ch = _CHUNK_BYTES // (2 * self.POINTS * per_point)
        assert _CHUNK_BYTES // (ch * self.POINTS * per_point) == 2
        model = Cnn1dModel(cfg, channels=ch, width=self.WIDTH, seed=6)
        assert model.n_tiles * cfg.kernel_len == self.POINTS
        rng = np.random.default_rng(23)
        for p in model.param_arrays():
            p[...] = 0.1 * rng.standard_normal(p.shape)  # nonzero biases too
        x = rng.standard_normal((n, ch, self.WIDTH))
        y = rng.integers(0, cfg.classes, n)
        return model, x, y

    def test_chunks_match_per_trial_step(self):
        model, x, y = self.chunked_model()
        logits = model.logits(x)
        _, grads = model.loss_and_grads(x, y)
        for i in range(len(y)):
            _assert_close(logits[i], model.logits(x[i : i + 1])[0])
        # the loss is the batch mean, so its gradient is the mean gradient
        per_trial = [model.loss_and_grads(x[i : i + 1], y[i : i + 1])[1]
                     for i in range(len(y))]
        for got, trial_grads in zip(grads, zip(*per_trial)):
            _assert_close(got, np.mean(trial_grads, axis=0))

    def test_train_step_uses_the_pinned_mask_stream(self):
        model, x, y = self.chunked_model()
        n, ch, _ = x.shape
        k, c = model.config.kernels, model.config.classes
        # mask 1 draws ceil(t1/L)·L points per channel, an odd bit count per
        # trial here, so chunks start inside a byte; mask 2 follows
        assert ch * self.POINTS_DRAWN * k % 8 != 0
        rng = np.random.default_rng(6 + 1)
        mask1 = 2.0 * _mask_bits(rng, (n, ch, self.POINTS_DRAWN, k))[:, :, : model.t1]
        mask2 = 2.0 * _mask_bits(rng, (n, model.pooled, c))
        loss, grads = model.loss_and_grads(x, y, train=True)
        assert model._mask_rng.bit_generator.state == rng.bit_generator.state
        want_logits, want_grads = _fc_time_then_pool(model, x, y, (mask1, mask2))
        probs = np.exp(want_logits - want_logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        _assert_close(loss, -np.log(probs[np.arange(n), y]).mean())
        for got, want in zip(grads, want_grads):
            _assert_close(got, want)

    @pytest.mark.parametrize("train", [False, True])
    def test_one_and_two_workers_are_bit_identical(self, monkeypatch, train):
        model, x, y = self.chunked_model()
        assert -(-len(y) // model._chunk) == 4
        state = model._mask_rng.bit_generator.state
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(classifiers, "worker_threads", lambda n=workers: n)
            model._mask_rng.bit_generator.state = state
            with ThreadPoolExecutor(workers) as pool:
                grads = model._loss_and_grads(x, y, train, pool.map)[1]
            trained = train_cnn1d(x, y, model.config, TrainConfig(seed=6, epochs=2))
            runs[workers] = [model.logits(x), *grads, *trained.param_arrays()]
        for one, two in zip(runs[1], runs[2]):
            assert np.array_equal(one, two)
        # the chunks one after another on this thread, as outside a fit
        model._mask_rng.bit_generator.state = state
        serial = model.loss_and_grads(x, y, train=train)[1]
        for threaded, want in zip(runs[2][1:7], serial):
            assert np.array_equal(threaded, want)

    @pytest.fixture
    def blas_threads(self):
        """numpy's OpenBLAS thread count getter, with the count set to 2 for
        the test and put back after it."""
        fns = classifiers._openblas_thread_fns()
        if fns is None:
            pytest.skip("no OpenBLAS thread-count function under numpy.libs")
        get, put = fns
        before = get()
        put(2)
        yield get
        put(before)

    def test_blas_held_to_one_thread_and_restored(self, monkeypatch, blas_threads):
        model, x, y = self.chunked_model()
        previous = blas_threads()
        seen = []
        step, forward = Cnn1dModel._loss_and_grads, Cnn1dModel._forward

        def spy_step(self, *args, diverge=False):
            seen.append(blas_threads())
            loss, grads = step(self, *args)
            return float("nan") if diverge else loss, grads

        def spy_forward(self, *args):
            seen.append(blas_threads())
            return forward(self, *args)

        monkeypatch.setattr(Cnn1dModel, "_loss_and_grads", spy_step)
        train_cnn1d(x, y, model.config, TrainConfig(epochs=2))
        assert seen == [1, 1] and blas_threads() == previous
        monkeypatch.setattr(Cnn1dModel, "_loss_and_grads",
                            lambda *args: spy_step(*args, diverge=True))
        with pytest.raises(TrainingDiverged):
            train_cnn1d(x, y, model.config, TrainConfig(epochs=2))
        assert seen == [1, 1, 1] and blas_threads() == previous
        monkeypatch.setattr(Cnn1dModel, "_forward", spy_forward)
        model.predict(x)
        assert seen == [1, 1, 1, 1] and blas_threads() == previous

    def test_concurrent_predictions_restore_the_blas_count(self, blas_threads):
        # overlapping holds: only the last one out restores the count
        model, x, _ = self.chunked_model()
        want = model.logits(x)
        previous = blas_threads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                got = list(callers.map(lambda _: model.logits(x), range(16),
                                       timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 16 and all(np.array_equal(g, want) for g in got)
        assert blas_threads() == previous

    def test_samples_past_the_last_pooling_window_feed_nothing(self):
        cfg = Cnn1dConfig(kernels=2, kernel_len=5, pool_len=7, pool_stride=9,
                          classes=3)
        model = Cnn1dModel(cfg, channels=2, width=44, seed=1)
        # t1 = 40; 4 windows end at conv point 34, fed by samples < 38; the
        # last tile reads samples up to 38
        used = (model.pooled - 1) * cfg.pool_stride + cfg.pool_len
        last = used + cfg.kernel_len - 1
        assert (model.t1, used, last) == (40, 34, 38)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3, 2, 44))
        y = np.array([0, 1, 2])
        state = model._mask_rng.bit_generator.state

        def run(x):
            model._mask_rng.bit_generator.state = state
            return [model.logits(x), *model.loss_and_grads(x, y)[1],
                    *model.loss_and_grads(x, y, train=True)[1]]

        want = run(x)
        tail = x.copy()
        tail[:, :, last:] = 1e3 * rng.standard_normal(tail[:, :, last:].shape)
        for got, expected in zip(run(tail), want):
            np.testing.assert_array_equal(got, expected)
        # the sample before them feeds the last pooling window
        tail[:, :, last - 1] += 1.0
        assert not np.array_equal(model.logits(tail), want[0])


class TestEvaluate:
    def test_perfect_model(self):
        rng = np.random.default_rng(15)
        x = np.concatenate([rng.normal(-5, 0.3, (20, 2)),
                            rng.normal(5, 0.3, (20, 2))])
        y = np.repeat([0, 1], 20)
        model = train_svm(x, y, TrainConfig(seed=0, epochs=40,
                                            learning_rate=1e-2))
        acc, confusion = evaluate_accuracy(model, x, y)
        assert acc == 1.0
        np.testing.assert_array_equal(confusion, [[20, 0], [0, 20]])

    def test_confusion_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((60, 4))
        y = rng.integers(0, 3, 60)
        model = KnnModel(x, y, k=3)
        _, confusion = evaluate_accuracy(model, x, y, num_classes=3)
        np.testing.assert_array_equal(confusion.sum(axis=1),
                                      np.bincount(y, minlength=3))

    def test_random_predictor_within_binomial_ci(self):
        # binomial oracle: a seeded random predictor on 40 classes
        rng = np.random.default_rng(17)

        class Random40:
            def predict(self, x):
                return rng.integers(0, 40, x.shape[0])

        y = np.repeat(np.arange(40), 30)  # balanced, n=1200
        acc, _ = evaluate_accuracy(Random40(), np.zeros((1200, 1)), y)
        p = stats.binomtest(int(round(acc * 1200)), 1200, 1 / 40).pvalue
        assert p >= 0.01

    def test_empty_test_set(self):
        model = KnnModel(np.zeros((2, 2)), np.array([0, 1]), k=1)
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestLabelPermutationSanity:
    def test_all_classifiers_at_chance_on_permuted_labels(self):
        rng = np.random.default_rng(18)
        classes = 4
        centers = rng.normal(0, 3.0, (classes, 6))
        y_true = np.repeat(np.arange(classes), 50)
        x = centers[y_true] + rng.normal(0, 0.5, (200, 6))
        y = rng.permutation(y_true)  # break the feature-label link
        x_test = centers[y_true][:100] + rng.normal(0, 0.5, (100, 6))
        y_test = rng.integers(0, classes, 100)
        cfg = TrainConfig(seed=0, epochs=30, learning_rate=1e-3)
        models = [
            KnnModel(x, y, k=7),
            train_svm(x, y, cfg),
            train_mlp(x, y, hidden=16, config=cfg),
        ]
        for model in models:
            acc, _ = evaluate_accuracy(model, x_test, y_test)
            p = stats.binomtest(int(round(acc * 100)), 100, 1 / classes).pvalue
            assert p >= 0.01
