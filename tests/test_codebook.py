import re

import numpy as np
import pytest

from blockaudit import (
    TrainConfig,
    average_over_subjects,
    generate_codebook,
    intra_inter_distances,
    make_clustered_features,
    train_ridge_regressor,
    transfer_svm_compare,
)
from blockaudit import codebook
from conftest import ridge_objective_gradient_norm


class TestGenerateCodebook:
    def test_default_scale_has_12000_instances(self):
        cb = generate_codebook(40, 50, 6, dim=128, seed=0)
        assert cb.instance_codewords.shape == (6, 40, 50, 128)
        assert cb.subjects * cb.classes * cb.instances_per_class == 12000
        assert cb.class_codewords.min() >= 0.0
        assert cb.class_codewords.max() <= 2.0

    def test_clipping_invariant(self):
        cb = generate_codebook(10, 8, 4, dim=32, seed=1)
        assert cb.instance_codewords.min() >= 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_noise_variance_named(self, value):
        # NaN used to build a codebook of NaN codewords
        with pytest.raises(ValueError, match=re.escape(
                f"noise_variance={value!r} must be finite and >= 0")):
            generate_codebook(2, 2, 1, dim=3, noise_variance=value)

    def test_zero_noise_reproduces_base(self):
        cb = generate_codebook(6, 5, 3, dim=16, seed=2, noise_variance=0.0)
        for s in range(3):
            for c in range(6):
                np.testing.assert_array_equal(
                    cb.instance_codewords[s, c],
                    np.tile(cb.class_codewords[c], (5, 1)),
                )

    def test_intra_closer_than_inter(self):
        # Monte-Carlo oracle at the default noise level
        cb = generate_codebook(12, 20, 6, dim=128, seed=3)
        flat = cb.instance_codewords.transpose(1, 0, 2, 3).reshape(12, -1, 128)
        sub = flat[:, :40]
        vectors = sub.reshape(-1, 128)
        labels = np.repeat(np.arange(12), 40)
        intra, inter = intra_inter_distances(vectors, labels)
        assert intra < inter

    def test_deterministic(self):
        a = generate_codebook(4, 3, 2, dim=8, seed=7)
        b = generate_codebook(4, 3, 2, dim=8, seed=7)
        np.testing.assert_array_equal(a.instance_codewords,
                                      b.instance_codewords)


class TestAverageOverSubjects:
    def test_single_subject_identity(self):
        cb = generate_codebook(4, 3, 1, dim=8, seed=4)
        avg = average_over_subjects(cb)
        np.testing.assert_array_equal(
            avg, cb.instance_codewords[0].reshape(12, 8)
        )

    def test_symmetric_pair_averages_to_center(self):
        from blockaudit.codebook import Codebook

        base = np.full((1, 4), 1.0)
        v = np.array([[[[0.5, 1.5, 0.0, 2.0]]]])
        mirrored = 2.0 - v  # average must be exactly 1
        cb = Codebook(
            class_codewords=base,
            instance_codewords=np.concatenate([v, mirrored], axis=0),
            noise_variance=0.0,
        )
        np.testing.assert_allclose(average_over_subjects(cb), 1.0)

    def test_averaged_variance_shrinks_by_subject_count(self):
        # Monte-Carlo oracle: per element, the variance of the 6-subject mean
        # equals the clipped-noise variance divided by 6
        cb = generate_codebook(2, 4000, 6, dim=8, seed=5)
        inst = cb.instance_codewords  # (6, C, n, D)
        var_clipped = inst.var(axis=(0, 2))  # (C, D), i.i.d. over subj x inst
        var_avg = inst.mean(axis=0).var(axis=1)  # variance of subject means
        np.testing.assert_allclose(var_avg, var_clipped / 6.0, rtol=0.1)


class TestRidge:
    def test_recovers_linear_map(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 20))
        w_true = rng.standard_normal((20, 5))
        b_true = rng.standard_normal(5)
        y = x @ w_true + b_true
        reg = train_ridge_regressor(x, y, l2=1e-12)
        x_test = rng.standard_normal((50, 20))
        mse = np.mean((reg.predict(x_test) - (x_test @ w_true + b_true)) ** 2)
        assert mse < 1e-8

    def test_infinite_l2_shrinks_to_target_mean(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 10))
        y = rng.standard_normal((100, 3)) + 5.0
        reg = train_ridge_regressor(x, y, l2=1e12)
        assert np.abs(reg.weights).max() < 1e-6
        np.testing.assert_allclose(
            reg.predict(x), np.tile(y.mean(axis=0), (100, 1)), atol=1e-4
        )

    def test_gradient_norm_is_a_test_helper(self):
        # nothing outside the tests calls it, so the package does not ship it
        assert not hasattr(codebook, "ridge_objective_gradient_norm")

    def test_solution_is_stationary_point(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((80, 12))
        y = rng.standard_normal((80, 4))
        reg = train_ridge_regressor(x, y, l2=1e-2)
        assert ridge_objective_gradient_norm(reg, x, y) < 1e-8

    def test_singular_system_advises_l2(self):
        x = np.zeros((5, 3))
        x[:, 0] = np.arange(5)
        x[:, 1] = np.arange(5)  # duplicate column: singular at l2=0
        y = np.random.default_rng(9).standard_normal((5, 2))
        with pytest.raises(ValueError, match="l2 > 0"):
            train_ridge_regressor(x, y, l2=0.0)

    def test_bias_not_penalized(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 6))
        y = np.full((60, 2), 100.0)  # pure offset target
        reg = train_ridge_regressor(x, y, l2=10.0)
        np.testing.assert_allclose(reg.bias, 100.0, atol=1.0)


class TestClusteredFeatures:
    def test_shape_and_tags(self):
        fs = make_clustered_features(6, 10, dim=40, seed=11)
        assert fs.vectors.shape == (60, 40)
        assert set(fs.split_tags) == {"train", "test"}
        for c in range(6):
            rows = fs.labels == c
            assert (fs.split_tags[rows] == "train").sum() == 8

    def test_class_structure(self):
        fs = make_clustered_features(8, 12, dim=200, noise_sigma=0.25, seed=12)
        intra, inter = intra_inter_distances(fs.vectors, fs.labels)
        assert intra < inter


@pytest.fixture(scope="module")
def regressor():
    cb = generate_codebook(10, 12, 4, dim=32, seed=13)
    targets = average_over_subjects(cb)
    source = make_clustered_features(10, 12, dim=120, seed=14)
    return train_ridge_regressor(source.vectors[source.rows("train")],
                                 targets[source.rows("train")], l2=1e-2)


class TestTransferCompare:
    def test_raw_and_regressed_comparable(self, regressor):
        target = make_clustered_features(8, 15, dim=120, seed=15)
        cfg = TrainConfig(seed=0, epochs=60, learning_rate=1e-4)
        raw, reg = transfer_svm_compare(regressor, target, train_config=cfg)
        assert raw >= 0.9 and reg >= 0.9
        assert abs(raw - reg) <= 0.1

    def test_random_projection_also_comparable(self, regressor):
        # the same comparison with a meaning-free fixed projection
        from blockaudit.codebook import RidgeRegressor

        rng = np.random.default_rng(16)
        random_map = RidgeRegressor(
            weights=rng.standard_normal((120, 32)) / np.sqrt(120),
            bias=np.zeros(32), l2=0.0,
        )
        target = make_clustered_features(8, 15, dim=120, seed=17)
        cfg = TrainConfig(seed=0, epochs=60, learning_rate=1e-4)
        raw, reg = transfer_svm_compare(random_map, target, train_config=cfg)
        assert abs(raw - reg) <= 0.1

    def test_regressed_space_keeps_class_structure(self, regressor):
        target = make_clustered_features(8, 15, dim=120, seed=18)
        test_rows = target.rows("test")
        regressed = regressor.predict(target.vectors[test_rows])
        intra, inter = intra_inter_distances(regressed,
                                             target.labels[test_rows])
        assert intra < inter

    def test_single_class_target_rejected(self, regressor):
        from blockaudit.codebook import FeatureSet

        vecs = np.random.default_rng(19).standard_normal((10, 120))
        target = FeatureSet(
            vectors=vecs, labels=np.zeros(10, dtype=np.int64),
            split_tags=np.array(["train"] * 5 + ["test"] * 5, dtype=object),
        )
        with pytest.raises(ValueError, match="single-class"):
            transfer_svm_compare(regressor, target)
