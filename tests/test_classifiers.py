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
    gradient_check,
    knn_classify,
    load_model,
    save_model,
    train_cnn1d,
    train_mlp,
    train_svm,
)
from blockaudit.classifiers import TrainingDiverged


class TestKnn:
    def test_single_point(self):
        x = np.array([[1.0, 2.0]])
        assert knn_classify(x, np.array([3]), np.array([1.0, 2.0]), k=1) == 3

    def test_majority_vote_example(self):
        x = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0, 0, 1])
        assert knn_classify(x, y, np.array([0.5]), k=3) == 0

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
        assert knn_classify(x, y, np.array([1.0]), k=2) == 1

    def test_distance_tie_lower_trial_index(self):
        x = np.array([[1.0], [-1.0], [-1.0]])
        y = np.array([2, 1, 0])
        # trials 1 and 2 are equidistant duplicates; k=1 takes index 1 first
        assert knn_classify(x, y, np.array([-1.0]), k=1) == 1

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

    @pytest.mark.parametrize("features", [4, 64], ids=["primal", "gram"])
    def test_divergence_reported_with_config_echo(self, features):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((32, features))
        x[5, 0] = np.nan
        y = np.arange(32) % 2
        with pytest.raises(TrainingDiverged, match="epochs"):
            train_svm(x, y, TrainConfig(seed=0, epochs=5, batch_size=8,
                                        learning_rate=1e-2))


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


class TestCnnShapes:
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
                          classes=3, dropout_p=0.5)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3, 32))
        y = rng.integers(0, 3, 6)
        model = train_cnn1d(x, cfg, TrainConfig(seed=0, epochs=2,
                                                learning_rate=1e-3), labels=y)
        np.testing.assert_array_equal(model.logits(x), model.logits(x))

    def test_training_masks_vary_by_step(self):
        cfg = Cnn1dConfig(kernels=2, kernel_len=5, pool_len=8, pool_stride=4,
                          classes=2, dropout_p=0.5)
        model = Cnn1dModel(cfg, channels=2, width=20, seed=0)
        x = np.random.default_rng(10).standard_normal((3, 2, 20))
        y = np.array([0, 1, 0])
        l1, _ = model.loss_and_grads(x, y, train=True)
        l2, _ = model.loss_and_grads(x, y, train=True)
        assert l1 != l2  # fresh masks per step


class TestGradientChecks:
    def test_mlp_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        model = MlpModel.init(4, 6, 3, seed=1, weight_decay=1e-2)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_gradients_shared(self):
        rng = np.random.default_rng(12)
        cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6, pool_stride=3,
                          classes=3, dropout_p=0.0)
        model = Cnn1dModel(cfg, channels=2, width=16, seed=2,
                           weight_decay=1e-3)
        x = rng.standard_normal((4, 2, 16))
        y = rng.integers(0, 3, 4)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_cnn_gradients_per_channel(self):
        rng = np.random.default_rng(13)
        cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6, pool_stride=3,
                          classes=2, dropout_p=0.0, shared_channels=False)
        model = Cnn1dModel(cfg, channels=3, width=14, seed=3)
        x = rng.standard_normal((3, 3, 14))
        y = rng.integers(0, 2, 3)
        assert gradient_check(model, x, y, epsilon=1e-3) < 1e-4

    def test_linear_squared_loss_gradients(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 3, 6)
        model = LinearModel(rng.standard_normal((5, 3)),
                            rng.standard_normal(3), l2=1e-2,
                            loss_kind="squared")
        assert gradient_check(model, x, y, epsilon=1e-4) < 1e-6

    def test_zero_input_zero_first_layer_gradient(self):
        model = MlpModel.init(4, 6, 3, seed=4)
        x = np.zeros((3, 4))
        y = np.array([0, 1, 2])
        _, grads = model.loss_and_grads(x, y)
        np.testing.assert_array_equal(grads[0], 0.0)  # dW1 = x^T @ ...


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


class TestModelPersistence:
    @pytest.mark.parametrize("builder", ["knn", "linear", "mlp", "cnn"])
    def test_round_trip(self, tmp_path, builder):
        rng = np.random.default_rng(19)
        if builder == "cnn":
            cfg = Cnn1dConfig(kernels=2, kernel_len=4, pool_len=6,
                              pool_stride=3, classes=3)
            x = rng.standard_normal((5, 2, 16))
            y = rng.integers(0, 3, 5)
            model = train_cnn1d(x, cfg, TrainConfig(seed=0, epochs=2,
                                                    learning_rate=1e-3),
                                labels=y)
            queries = rng.standard_normal((4, 2, 16))
        else:
            x = rng.standard_normal((20, 6))
            y = rng.integers(0, 3, 20)
            y[:3] = [0, 1, 2]
            queries = rng.standard_normal((7, 6))
            cfg2 = TrainConfig(seed=0, epochs=3, learning_rate=1e-2)
            model = {
                "knn": lambda: KnnModel(x, y, k=3),
                "linear": lambda: train_svm(x, y, cfg2),
                "mlp": lambda: train_mlp(x, y, hidden=8, config=cfg2),
            }[builder]()
        path = tmp_path / "model.bmdl"
        save_model(model, path)
        clone = load_model(path)
        np.testing.assert_array_equal(model.predict(queries),
                                      clone.predict(queries))
        assert path.read_bytes()[:4] == b"BMDL"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)
