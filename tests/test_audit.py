import re
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import blockaudit as ba
from blockaudit import (
    CellResult,
    FilterConfig,
    FilterSpec,
    GridResult,
    GridSpec,
    SplitSpec,
    VerdictStatus,
    highpass_ablation,
    issue_verdict,
    relabel_analysis,
    run_grid,
)
from blockaudit.audit import (
    LeakageError,
    _check_no_leakage,
    _error_cell,
    _evaluate_group,
)
from blockaudit import splits as sp
from blockaudit import audit as audit_mod, classifiers as clf, dsp, features
from blockaudit.config import ConfigError, build_grid_spec, load_config
from blockaudit.report import grid_csv_text
from blockaudit.stats import binomial_p_vs_chance

from conftest import make_session


TRAIN = ba.TrainConfig(seed=0, epochs=50, batch_size=64, learning_rate=3e-5)


def small_spec(rate, classifiers=("knn", "svm"), splits=None, windows=(440.0,),
               channels=(0,), seed=17):
    return GridSpec(
        classifiers=classifiers,
        windows_ms=windows,
        channel_counts=channels,
        splits=splits or (
            SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),
            SplitSpec(sp.BLOCK_DISJOINT, (0.5, 0.25, 0.25)),
        ),
        filter_configs=(FilterConfig(name="raw"),),
        seed=seed,
        train_config=TRAIN,
        svm_l2=1e-3,
    )


@pytest.fixture(scope="module")
def noise_session():
    # no drift and no evoked signal: kNN sits near chance, so its test
    # predictions hinge on every preprocessed sample
    schedule = ba.make_block_schedule(6, 20, 500.0, 1000.0, seed=5,
                                      blocks_per_class=4)
    return ba.generate_session(
        schedule, channels=16, sample_rate=256.0,
        drift=ba.DriftParams(0.0, 0.0, 1.0), evoked=ba.EvokedParams(),
        subject_id="s01", seed=5,
    )


NOTCH_ARM = FilterConfig(
    name="notch", filters=(FilterSpec.notch(49.0, 51.0, 256.0, 2),),
)


@pytest.fixture
def no_filter(monkeypatch):
    """Make every dsp.apply_filter call fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("dsp.apply_filter called")

    monkeypatch.setattr(dsp, "apply_filter", fail)


class TestRunGrid:
    @pytest.mark.parametrize("filters", [
        (), (FilterSpec.notch(49.0, 51.0, 256.0, 2),),
    ], ids=["raw", "notch"])
    def test_degenerate_grid_equals_direct_run(self, noise_session, filters):
        spec = replace(
            small_spec(256.0, classifiers=("knn",), channels=(4,),
                       splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),)),
            filter_configs=(FilterConfig(name="arm", filters=filters),),
        )
        result = run_grid(noise_session, spec)
        assert len(result.cells) == 1
        cell = next(iter(result.cells.values()))

        # direct single run on the grid's own plan, in the grid's one
        # order: filter the session, segment, z-score, rank, fit
        ((plan,),) = ba.audit.check_grid(noise_session, spec)
        session = noise_session
        for fspec in filters:
            session = dsp.apply_filter(dsp.design_filter(fspec), session)
        matrix = ba.segment(session, 40.0, 440.0)
        train, test = dsp.zscore(matrix, plan.train, plan.test)
        ranking = features.fisher_scores(train)
        train, test = (m.replace(trials=np.take(m.trials, ranking.order[:4], axis=1))
                       for m in (train, test))
        model = ba.KnnModel(
            train.trials.reshape(train.num_trials, -1), train.labels, k=7
        )
        acc, confusion = ba.evaluate_accuracy(
            model, test.trials.reshape(test.num_trials, -1), test.labels,
            matrix.num_classes,
        )
        assert cell.accuracy == pytest.approx(acc)
        np.testing.assert_array_equal(cell.confusion, confusion)

    def test_contamination_detected(self, drift_session):
        result = run_grid(drift_session, small_spec(256.0))
        wb = result.by_regime(sp.WITHIN_BLOCK)
        bd = result.by_regime(sp.BLOCK_DISJOINT)
        assert max(c.accuracy for c in wb.values()) >= 0.9
        assert all(c.block_p_value >= 0.01 for c in bd.values())
        assert issue_verdict(result).status is VerdictStatus.CONTAMINATED

    def test_genuine_signal_is_clean(self, evoked_session):
        result = run_grid(evoked_session, small_spec(256.0))
        verdict = issue_verdict(result)
        assert verdict.status is VerdictStatus.CLEAN_SIGNAL

    def test_pure_noise_is_no_signal(self):
        schedule = ba.make_block_schedule(4, 12, 500.0, 200.0, seed=2,
                                          blocks_per_class=3)
        session = ba.generate_session(
            schedule, channels=8, sample_rate=256.0,
            drift=ba.DriftParams(0.0, 0.0, 1.0), evoked=ba.EvokedParams(),
            subject_id="s01", seed=2,
        )
        result = run_grid(session, small_spec(256.0))
        assert issue_verdict(result).status is VerdictStatus.NO_SIGNAL

    def test_reproducible(self, drift_session):
        spec = small_spec(256.0, windows=(440.0, 100.0), channels=(0, 4))
        a = run_grid(drift_session, spec)
        b = run_grid(drift_session, spec)
        for key in a.cells:
            assert a.cells[key].accuracy == b.cells[key].accuracy
            assert a.cells[key].p_value == b.cells[key].p_value

    def test_cell_error_recorded_not_fatal(self, drift_session):
        # 1 ms at 256 Hz rounds to zero samples: recorded in-cell
        spec = small_spec(256.0, windows=(440.0, 1.0))
        result = run_grid(drift_session, spec)
        errored = [c for c in result.cells.values() if not c.ok]
        assert errored and all("empty" in c.error for c in errored)
        assert any(c.ok for c in result.cells.values())

    def test_channel_count_out_of_range_recorded(self, drift_session):
        spec = small_spec(256.0, channels=(0, 17))  # the session has 16
        result = run_grid(drift_session, spec)
        for key, cell in result.cells.items():
            if key[3] == 17:
                assert not cell.ok and "m=17 out of range 1..16" in cell.error
            else:
                assert cell.ok

    def test_all_channel_alias_evaluated_once(self, drift_session):
        # 0 and 16 both mean all 16 channels; 16 keeps its own seed index
        result = run_grid(drift_session, small_spec(256.0, channels=(0, 16)))
        assert result.channel_counts == (16,)
        assert sorted({k[3] for k in result.cells}) == [16]
        # one row per (filter, split, window), after the header
        assert len(grid_csv_text(result).splitlines()) == 1 + 2
        same_index = run_grid(drift_session, small_spec(256.0, channels=(4, 16)))
        for key, cell in result.cells.items():
            assert cell.accuracy == same_index.cells[key].accuracy
            assert cell.p_value == same_index.cells[key].p_value

    @pytest.mark.usefixtures("no_filter")
    def test_cnn_window_too_short_to_pool_raises_before_any_filter(
        self, drift_session
    ):
        # 200 ms at 256 Hz is 51 samples: 20 conv points for a 32-sample
        # kernel; 440 ms is 113 samples and 82 conv points
        spec = replace(
            small_spec(256.0, classifiers=("knn", "cnn1d"),
                       windows=(440.0, 200.0)),
            cnn_pool_len=64, cnn_pool_stride=32, filter_configs=(NOTCH_ARM,),
        )
        with pytest.raises(ValueError, match=(
            "cnn1d on the shortest window, 200 ms = 51 samples at 256 Hz: "
            "conv output 20 shorter than pool length 64"
        )):
            run_grid(drift_session, spec)
        ba.audit.check_grid(drift_session, replace(spec, windows_ms=(440.0,)))

    @pytest.mark.parametrize("trials_per_class, regime, message", [
        (12, sp.BLOCK_DISJOINT,
         "block-disjoint stratification needs >= 3 blocks per class; a class "
         "has only 1"),
        (2, sp.WITHIN_BLOCK, "block 0 has 2 trials; need >= 3 to stratify"),
        (12, sp.LEAVE_ONE_SUBJECT_OUT, "needs >= 2 subjects"),
        # 0.8/0.1/0.1 of a 3-trial block deals all 3 trials to train
        (3, sp.WITHIN_BLOCK, re.escape(
            "within_block split with fractions (0.8, 0.1, 0.1) leaves no test "
            "trial: a test share of 0.1 rounds to 0 on at most 3 trials per "
            "block")),
    ], ids=["blocks_per_class", "trials_per_block", "subjects", "test_trials"])
    @pytest.mark.usefixtures("no_filter")
    def test_unsplittable_design_raises_before_any_filter(
        self, trials_per_class, regime, message
    ):
        schedule = ba.make_block_schedule(4, trials_per_class, 500.0, 200.0,
                                          seed=2, blocks_per_class=1)
        session = ba.generate_session(
            schedule, channels=4, sample_rate=256.0,
            drift=ba.DriftParams(), evoked=ba.EvokedParams(),
            subject_id="s01", seed=2,
        )
        spec = replace(small_spec(256.0, splits=(SplitSpec(regime),)),
                       filter_configs=(NOTCH_ARM,))
        with pytest.raises(ValueError, match=message):
            run_grid(session, spec)

    def test_class_numbering_leaves_the_grid_unchanged(self, drift_session):
        # labels 1, 3, ..., 11 name the same six classes as 0..5, so chance
        # stays 1/6 and every cell is the same
        shifted = replace(drift_session, events=tuple(
            replace(ev, class_label=2 * ev.class_label + 1)
            for ev in drift_session.events
        ))
        spec = small_spec(256.0, classifiers=("knn", "svm", "mlp"))
        expected = run_grid(drift_session, spec).to_dict()
        assert {c["num_classes"] for c in expected["cells"]} == {6}
        assert run_grid(shifted, spec).to_dict() == expected

    @pytest.mark.usefixtures("no_filter")
    def test_cnn_kernel_longer_than_window_raises_before_any_filter(
        self, drift_session
    ):
        # 440 ms at 256 Hz is 113 samples; the kernel is checked against the
        # shortest window, and 460 ms (118 samples after the 10-sample offset)
        # still fits the 128-sample events
        spec = replace(
            small_spec(256.0, classifiers=("knn", "cnn1d"),
                       windows=(460.0, 440.0)),
            cnn_kernel_len=500, filter_configs=(NOTCH_ARM,),
        )
        with pytest.raises(ValueError, match="kernel of 500 samples .* 113 samples"):
            run_grid(drift_session, spec)
        # a grid without cnn1d may keep the short window
        ba.audit.check_grid(drift_session, replace(spec, classifiers=("knn",)))

    def test_bad_zscore_scope_raises_before_any_filter(self):
        # every arm z-scores with training statistics: the keyword accepts
        # that one value, and the arm is rejected before a grid can hold it
        for scope in ("per_trial_channel", "bogus"):
            with pytest.raises(ValueError,
                               match=f"zscore_scope='{scope}': every arm"):
                replace(NOTCH_ARM, zscore_scope=scope)
        arm = FilterConfig("x", zscore_scope="train_statistics")
        assert arm == FilterConfig("x")
        assert "zscore_scope" not in asdict(arm)

    @pytest.mark.usefixtures("no_filter")
    def test_knn_k_below_one_raises_before_any_filter(self, drift_session):
        # it used to pass filtering and then fail every kNN cell
        with pytest.raises(ValueError, match="knn_k=0 must be >= 1"):
            run_grid(drift_session, replace(
                small_spec(256.0), filter_configs=(NOTCH_ARM,), knn_k=0,
            ))

    @pytest.mark.parametrize("l2", [-1.0, float("nan"), float("inf")])
    def test_svm_l2_outside_the_schema_rejected(self, l2):
        # a negative penalty used to train the SVM silently
        with pytest.raises(ValueError, match=re.escape(f"svm_l2={l2!r}")):
            replace(small_spec(256.0), svm_l2=l2)

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_mlp_hidden_below_one_rejected(self, hidden):
        # a hidden layer of no units scores at chance and reads as no signal
        with pytest.raises(ValueError, match=f"mlp_hidden={hidden} must be >= 1"):
            replace(small_spec(256.0), mlp_hidden=hidden)

    @pytest.mark.usefixtures("no_filter")
    def test_window_longer_than_event_raises_before_any_filter(
        self, drift_session
    ):
        # 500 ms events at 256 Hz are 128 samples; 40 ms + 800 ms is 10 + 205
        spec = small_spec(256.0, windows=(440.0, 800.0))
        with pytest.raises(ValueError, match=(
            r"trial 0: window 10\+205 samples exceeds event length 128"
        )):
            run_grid(drift_session, spec)

    @pytest.mark.usefixtures("no_filter")
    def test_session_without_events_raises_before_any_filter(self):
        spec = replace(small_spec(100.0), filter_configs=(NOTCH_ARM,))
        with pytest.raises(ValueError, match="session has no events"):
            run_grid(make_session(events=()), spec)

    def test_channel_counts_that_differ_raise_before_any_filter(
        self, monkeypatch
    ):
        # it used to raise only after every session had been filtered
        calls = []

        def count(sos, data, *args):
            calls.append(data)
            return data

        monkeypatch.setattr(dsp, "apply_filter", count)
        sessions = [
            ba.generate_session(
                ba.make_block_schedule(3, 12, 500.0, 200.0, seed=seed,
                                       blocks_per_class=3),
                channels=channels, sample_rate=256.0, drift=ba.DriftParams(),
                evoked=ba.EvokedParams(), subject_id=subject, seed=seed,
            )
            for seed, channels, subject in ((1, 4, "a"), (2, 5, "b"))
        ]
        spec = replace(small_spec(256.0), filter_configs=(NOTCH_ARM,))
        with pytest.raises(ValueError, match="disagree on channels"):
            run_grid(sessions, spec)
        assert calls == []

    def test_check_grid_plans_are_the_segmented_matrix_plans(self):
        sessions = [
            ba.generate_session(
                ba.make_block_schedule(3, 12, 500.0, 200.0, seed=seed,
                                       blocks_per_class=3),
                channels=4, sample_rate=256.0, drift=ba.DriftParams(),
                evoked=ba.EvokedParams(), subject_id=subject, seed=seed,
            )
            for seed, subject in ((1, "b"), (2, "a"))
        ]
        spec = small_spec(256.0, splits=(
            SplitSpec(sp.BLOCK_DISJOINT, (0.5, 0.25, 0.25)),
            SplitSpec(sp.WITHIN_BLOCK, (0.6, 0.2, 0.2)),
            SplitSpec(sp.LEAVE_ONE_SUBJECT_OUT),
        ))
        matrix = ba.concat_trials([
            ba.segment(s, spec.start_offset_ms, 440.0) for s in sessions
        ])
        got = ba.audit.check_grid(sessions, spec)
        assert [len(plans) for plans in got] == [1, 1, 2]
        for si, (split, plans) in enumerate(zip(spec.splits, got)):
            seed = ba.audit._derive_seed(spec.seed, ba.audit._SEED_SPLIT, si)
            for plan, want in zip(
                plans, ba.audit._build_plans(matrix, split, seed), strict=True
            ):
                np.testing.assert_array_equal(plan.train, want.train)
                np.testing.assert_array_equal(plan.test, want.test)
                assert plan.num_trials == want.num_trials == matrix.num_trials
        # LOSO holds out each subject once, in sorted subject order
        assert [set(matrix.subject_ids[p.test]) for p in got[2]] == [
            {"a"}, {"b"}]

    def test_multi_session_loso(self):
        sessions = []
        for i, subject in enumerate(["a", "b", "c"]):
            schedule = ba.make_block_schedule(4, 8, 500.0, 200.0, seed=3 + i)
            sessions.append(ba.generate_session(
                schedule, channels=8, sample_rate=256.0,
                drift=ba.DriftParams(3.0, 0.05, 1.0), evoked=ba.EvokedParams(),
                subject_id=subject, seed=3 + i,
            ))
        spec = small_spec(
            256.0, classifiers=("knn",),
            splits=(SplitSpec(sp.LEAVE_ONE_SUBJECT_OUT),),
        )
        result = run_grid(sessions, spec)
        cell = next(iter(result.cells.values()))
        assert cell.n_test == 3 * 4 * 8  # every trial tested exactly once
        assert cell.block_p_value >= 0.01  # drift carries nothing across subjects


class TestGridSpec:
    @pytest.mark.parametrize("axis, values, shown", [
        ("classifiers", ("knn", "svm", "knn"), "'knn'"),
        ("windows_ms", (440.0, 100.0, 440.0), "440.0"),
        ("channel_counts", (0, 4, 4), "4"),
        ("splits", (SplitSpec(sp.WITHIN_BLOCK),
                    SplitSpec(sp.WITHIN_BLOCK, (0.6, 0.2, 0.2))), "'within_block'"),
        ("filter_configs", (NOTCH_ARM, replace(NOTCH_ARM, filters=())),
         "'notch'"),
    ], ids=["classifiers", "windows_ms", "channel_counts", "splits",
            "filter_configs"])
    def test_repeated_axis_entry_rejected(self, axis, values, shown):
        # a repeat would silently overwrite cells keyed by the same value
        with pytest.raises(ValueError, match=f"grid axis {axis} repeats {shown}"):
            replace(small_spec(256.0), **{axis: values})

    @pytest.mark.parametrize("classifiers", [("lda",), (), ("knn", "lda")])
    def test_unknown_classifier_message_lists_them_in_order(self, classifiers):
        # a set here printed its names in a PYTHONHASHSEED-dependent order
        with pytest.raises(ValueError) as exc:
            replace(small_spec(256.0), classifiers=classifiers)
        assert str(exc.value) == ("classifiers must be a non-empty subset of "
                                  "('knn', 'svm', 'mlp', 'cnn1d')")

    @pytest.mark.parametrize("axis, values, shown", [
        ("channel_counts", (0, -3), "-3"),
        ("channel_counts", (0, 2.5), "2.5"),
        ("windows_ms", (440.0, 0.0), "0.0"),
        ("windows_ms", (-5.0,), "-5.0"),
        ("windows_ms", (float("nan"),), "nan"),
        ("windows_ms", (float("inf"),), "inf"),
    ], ids=["negative_channels", "fractional_channels", "zero_window",
            "negative_window", "nan_window", "inf_window"])
    def test_bad_axis_value_rejected(self, axis, values, shown):
        # -3 used to mean all channels; a bad window failed mid-run
        with pytest.raises(ValueError, match=f"grid axis {axis} has {shown}"):
            replace(small_spec(256.0), **{axis: values})

    @pytest.mark.parametrize("name, value", [
        ("knn_k", 2.5), ("mlp_hidden", 2.5), ("cnn_kernels", 2.5),
        ("cnn_kernel_len", 32.0), ("cnn_pool_len", 2.5), ("cnn_pool_stride", 2.5),
    ])
    def test_non_integral_setting_rejected(self, name, value):
        # it used to build, then fail run_grid with a TypeError after filtering
        with pytest.raises(ValueError, match=re.escape(
                f"{name}={value!r} must be an integer")):
            replace(small_spec(256.0), **{name: value})

    @pytest.mark.parametrize("axis, value, where", [
        ("channel_counts", -3, "grid/channel_counts/0"),
        ("windows_ms", 0.0, "grid/windows_ms/0"),
        ("windows_ms", -5.0, "grid/windows_ms/0"),
    ], ids=["negative_channels", "zero_window", "negative_window"])
    def test_bad_axis_value_is_config_error(self, axis, value, where):
        grid = {axis: [value]}
        with pytest.raises(ConfigError, match=where):
            load_config("audit", None, {"inputs": ["x"], "out": "y",
                                        "grid": grid})
        # the builder rejects it too, for a grid that skipped the schema
        valid = load_config("audit", None, {"inputs": ["x"], "out": "y"})
        with pytest.raises(ConfigError, match=f"grid axis {axis} has"):
            build_grid_spec(dict(valid["grid"], **grid), 256.0, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_start_offset_rejected(self, value):
        # NaN and inf used to escape check_window as a conversion error
        with pytest.raises(ValueError, match=re.escape(
                f"start_offset_ms={value!r} must be finite and >= 0")):
            replace(small_spec(256.0), start_offset_ms=value)

    def test_bad_split_fractions_rejected(self):
        # they used to pass until the split ran, after filtering and cutting
        with pytest.raises(ValueError, match="fractions must be 3 positive"):
            SplitSpec(sp.WITHIN_BLOCK, (0.5, 0.5, 0.5))
        valid = load_config("audit", None, {"inputs": ["x"], "out": "y"})
        grid = dict(valid["grid"], splits=[
            {"regime": sp.BLOCK_DISJOINT, "fractions": [0.8, 0.3, -0.1]},
        ])
        with pytest.raises(ConfigError, match="at grid: fractions"):
            build_grid_spec(grid, 256.0, seed=0)


class TestLeakageGuard:
    def test_overlap_raises(self):
        with pytest.raises(LeakageError, match="test trial"):
            _check_no_leakage({1, 2, 3}, np.array([3, 4]))

    def test_disjoint_passes(self):
        _check_no_leakage({1, 2}, np.array([3, 4]))

    def test_rigged_plan_trips_the_guard(self, drift_session):
        matrix = ba.segment(drift_session, 40.0, 440.0)
        rigged = SimpleNamespace(
            train=np.arange(matrix.num_trials),  # includes the test rows
            test=np.arange(10),
        )
        spec = small_spec(256.0, classifiers=("knn",))
        with pytest.raises(LeakageError):
            _evaluate_group(
                matrix, [rigged], spec, 440.0,
                crop_seed=0, train_seeds={(0, "knn"): 0},
                num_classes=matrix.num_classes,
            )


    def test_widened_fit_input_is_caught(self, drift_session, monkeypatch):
        # every trial of the session, test trials included, as run_grid cuts
        # it for a 440 ms grid
        every_trial = ba.segment(drift_session, 40.0, 440.0)
        select = features.select_channels
        monkeypatch.setattr(
            features, "select_channels",
            lambda trials, m: select(every_trial, m),
        )
        spec = small_spec(256.0, classifiers=("knn",))
        with pytest.raises(LeakageError, match="test trial"):
            run_grid(drift_session, spec)


class TestChannelPermutation:
    @pytest.mark.parametrize("fixture", ["drift_session", "evoked_session"])
    def test_permuted_channel_rows_give_the_same_grid(self, fixture, request):
        # the Fisher ranking orders the channels, so the order they are
        # recorded in must not reach any cell
        session = request.getfixturevalue(fixture)
        spec = small_spec(256.0, windows=(440.0, 100.0), channels=(0, 4))
        want = run_grid(session, spec).to_dict()
        channels = session.samples.shape[0]
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(channels)
            permuted = replace(session, samples=session.samples[order])
            assert run_grid(permuted, spec).to_dict() == want


class TestBlasHold:
    """``run_grid`` holds numpy's OpenBLAS to one thread for its whole body
    and puts the previous count back on every exit path."""

    def test_fits_run_at_one_thread_and_the_count_comes_back(
        self, drift_session, monkeypatch, blas_count
    ):
        get, count = blas_count
        seen = []
        train_svm = clf.train_svm

        def spy(*args, **kwargs):
            seen.append(get())
            return train_svm(*args, **kwargs)

        monkeypatch.setattr(clf, "train_svm", spy)
        run_grid(drift_session, small_spec(256.0))
        assert len(seen) == 2 and set(seen) == {1}
        assert get() == count

    def test_count_comes_back_after_leakage_error(
        self, drift_session, monkeypatch, blas_count
    ):
        get, count = blas_count
        every_trial = ba.segment(drift_session, 40.0, 440.0)
        monkeypatch.setattr(features, "select_channels",
                            lambda trials, m: every_trial)
        with pytest.raises(LeakageError):
            run_grid(drift_session, small_spec(256.0, classifiers=("knn",)))
        assert get() == count

    def test_count_comes_back_after_check_grid_rejects(self, blas_count):
        get, count = blas_count
        session = make_session()  # two one-trial blocks
        with pytest.raises(ValueError, match="need >= 3 to stratify"):
            run_grid(session, small_spec(100.0, windows=(100.0,)))
        assert get() == count


class TestChannelOrderInPlace:
    """The grid puts each plan's z-scored stacks in ranking order in place and
    fits every channel count on a prefix of them."""

    def _plan(self, matrix):
        (plan,) = sp.split_within_block(matrix, (0.8, 0.1, 0.1), seed=3)
        return plan

    def test_fit_inputs_equal_take_of_the_zscored_stacks(self, drift_session,
                                                         monkeypatch):
        matrix = ba.segment(drift_session, 40.0, 440.0)
        plan = self._plan(matrix)
        train, test = dsp.zscore(matrix, plan.train, plan.test)
        order = features.fisher_scores(train).order
        seen = {}
        fit_and_score = audit_mod._CellAccumulator.fit_and_score

        def record(cell, fit, held_out, spec):
            seen[fit.channels] = (fit.trials.copy(), held_out.trials.copy())
            fit_and_score(cell, fit, held_out, spec)

        monkeypatch.setattr(audit_mod._CellAccumulator, "fit_and_score", record)
        spec = small_spec(256.0, classifiers=("knn",))
        _evaluate_group(
            matrix, [plan], spec, 440.0, crop_seed=0,
            train_seeds={(16, "knn"): 0, (8, "knn"): 1, (1, "knn"): 2},
            num_classes=matrix.num_classes,
        )
        assert sorted(seen) == [1, 8, 16]
        for m, (fit, held_out) in seen.items():
            assert np.array_equal(fit, np.take(train.trials, order[:m], axis=1))
            assert np.array_equal(held_out, np.take(test.trials, order[:m], axis=1))

    def test_full_width_window_leaves_base_unchanged(self, drift_session):
        matrix = ba.segment(drift_session, 40.0, 440.0)
        before = matrix.trials.tobytes()
        spec = small_spec(256.0, classifiers=("knn",))
        cells = _evaluate_group(
            matrix, [self._plan(matrix)], spec, 440.0, crop_seed=0,
            train_seeds={(16, "knn"): 0, (8, "knn"): 1},
            num_classes=matrix.num_classes,
        )
        assert all(cell.ok for cell in cells.values())
        assert matrix.trials.tobytes() == before
        assert not matrix.trials.flags.writeable

    def test_all_channels_cell_copies_no_stack(self):
        # numpy reports its buffers to tracemalloc; reordering in place keeps
        # the call's peak near one copy of the z-scored stacks, where a
        # gathered all-channels input would hold a second.  32 channels at
        # 1,024 Hz make the stacks (4 MB) large beside zscore's fixed
        # 0.5 MB statistics buffer.
        schedule = ba.make_block_schedule(4, 20, 500.0, 1000.0, seed=6,
                                          blocks_per_class=4)
        session = ba.generate_session(
            schedule, channels=32, sample_rate=1024.0,
            drift=ba.DriftParams(), evoked=ba.EvokedParams(),
            subject_id="s01", seed=6,
        )
        matrix = ba.segment(session, 40.0, 440.0)
        plan = self._plan(matrix)
        stack_bytes = sum(
            m.trials.nbytes for m in
            dsp.zscore(matrix, plan.train, plan.test)
        )
        spec = small_spec(1024.0, classifiers=("knn",))
        tracemalloc.start()
        try:
            cells = _evaluate_group(
                matrix, [plan], spec, 440.0, crop_seed=0,
                train_seeds={(32, "knn"): 0},
                num_classes=matrix.num_classes,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells[(32, "knn")].ok
        assert peak < 1.5 * stack_bytes, (peak, stack_bytes)


@pytest.fixture(scope="module")
def rapid_session():
    schedule = ba.make_rapid_event_schedule(6, 20, 10, 500.0, 500.0, seed=4)
    return ba.generate_session(
        schedule, channels=16, sample_rate=256.0,
        drift=ba.DriftParams(5.0, 0.05, 1.0), evoked=ba.EvokedParams(),
        subject_id="s01", seed=4,
    )


class TestRelabelAnalysis:
    def test_block_labels_near_perfect(self, rapid_session):
        spec = small_spec(256.0, classifiers=("svm",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        result = relabel_analysis(rapid_session, spec)
        cell = next(iter(result.cells.values()))
        assert cell.num_classes == 10  # block count, not stimulus classes
        assert cell.accuracy >= 0.9

    def test_noise_only_at_chance(self):
        schedule = ba.make_rapid_event_schedule(6, 10, 6, 500.0, 200.0, seed=5)
        session = ba.generate_session(
            schedule, channels=8, sample_rate=256.0,
            drift=ba.DriftParams(0.0, 0.0, 1.0), evoked=ba.EvokedParams(),
            subject_id="s01", seed=5,
        )
        spec = small_spec(256.0, classifiers=("knn",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        result = relabel_analysis(session, spec)
        cell = next(iter(result.cells.values()))
        assert cell.chance_p >= 0.01

    def test_two_sessions_one_label_per_block(self, monkeypatch):
        sessions = [
            ba.generate_session(
                ba.make_block_schedule(3, 10, 500.0, 200.0, seed=seed,
                                       blocks_per_class=2),
                channels=4, sample_rate=256.0, drift=ba.DriftParams(),
                evoked=ba.EvokedParams(), subject_id=subject, seed=seed,
            )
            for seed, subject in ((1, "a"), (2, "b"))
        ]
        designs = []
        real = sp.split_within_block

        def spy(trials, *args, **kwargs):
            designs.append(trials)
            return real(trials, *args, **kwargs)

        monkeypatch.setattr(sp, "split_within_block", spy)
        spec = small_spec(256.0, classifiers=("knn",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.6, 0.2, 0.2)),))
        result = relabel_analysis(sessions, spec)
        cell = next(iter(result.cells.values()))
        assert cell.ok and cell.num_classes == 12  # 6 blocks per session
        (design,) = designs
        labels = [set(design.labels[design.subject_ids == s]) for s in "ab"]
        assert len(labels[0]) == len(labels[1]) == 6
        assert labels[0].isdisjoint(labels[1])

    def test_single_block_rejected(self):
        schedule = ba.make_block_schedule(2, 4, 500.0, 0.0, seed=6,
                                          blocks_per_class=1)
        # two blocks exist; fuse them by relabeling onto one block id
        session = ba.generate_session(
            schedule, channels=4, sample_rate=256.0,
            drift=ba.DriftParams(), evoked=ba.EvokedParams(),
            subject_id="s01", seed=6,
        )
        single = ba.Session(
            samples=session.samples, sample_rate=session.sample_rate,
            subject_id="s01",
            events=tuple(
                ba.TrialEvent(e.trial_id, e.class_label, 0, e.onset_sample,
                              e.length_samples)
                for e in session.events
            ),
        )
        with pytest.raises(ValueError, match="2 blocks"):
            relabel_analysis(single, small_spec(256.0))


class TestHighpassAblation:
    def test_drift_collapses_under_highpass(self, drift_session):
        spec = small_spec(256.0, classifiers=("svm",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        ablation = highpass_ablation(drift_session, [14.0], spec)
        deltas = ablation.delta(14.0)
        assert max(deltas.values()) >= 0.4

    def test_genuine_signal_survives(self, evoked_session):
        spec = small_spec(256.0, classifiers=("svm",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        ablation = highpass_ablation(evoked_session, [5.0], spec)
        deltas = ablation.delta(5.0)
        assert abs(max(deltas.values())) <= 0.05

    def test_highpass_never_helps_drift(self, drift_session):
        # one-sided check: filtered accuracy not significantly above baseline
        spec = small_spec(256.0)
        ablation = highpass_ablation(drift_session, [14.0], spec)
        hp = ablation.by_cutoff[14.0]
        for key, base_cell in ablation.baseline.cells.items():
            hp_cell = hp.cells[key]
            if not (base_cell.ok and hp_cell.ok):
                continue
            from scipy import stats

            p0 = max(base_cell.accuracy, base_cell.chance)
            p_better = stats.binomtest(
                hp_cell.n_correct, hp_cell.n_test, p0, alternative="greater"
            ).pvalue
            assert p_better >= 0.01

    def test_ablated_arms_keep_their_settings(self, drift_session, monkeypatch):
        arms = (NOTCH_ARM, FilterConfig(name="raw"))
        spec = replace(small_spec(256.0), filter_configs=arms)
        seen = []
        monkeypatch.setattr(ba.audit, "run_grid",
                            lambda data, s: seen.append(s.filter_configs))
        highpass_ablation(drift_session, [14.0], spec)
        baseline, ablated = seen
        assert baseline == arms
        for base, arm in zip(arms, ablated):
            assert arm == replace(base, filters=arm.filters[:1] + base.filters)

    def test_cutoff_validation(self, drift_session):
        with pytest.raises(ValueError, match="Nyquist"):
            highpass_ablation(drift_session, [1000.0], small_spec(256.0))

    def test_repeated_cutoff_rejected_before_any_grid(self, drift_session,
                                                      monkeypatch):
        monkeypatch.setattr(ba.audit, "run_grid", None)  # must not be reached
        with pytest.raises(ValueError, match="cutoff 14.0 Hz repeats"):
            highpass_ablation(drift_session, [14, 14.0], small_spec(256.0))


def _cell(acc, n, classes, blocks=None):
    correct = int(round(acc * n))
    kw = {}
    if blocks is not None:
        kw = dict(
            n_test_blocks=blocks[0], n_blocks_correct=blocks[1],
            block_p_value=binomial_p_vs_chance(blocks[1], blocks[0],
                                               1.0 / classes),
        )
    return CellResult(
        accuracy=acc, n_test=n, n_correct=correct,
        p_value=binomial_p_vs_chance(correct, n, 1.0 / classes),
        num_classes=classes, **kw,
    )


def _grid(cells):
    return GridResult(
        cells=cells, windows_ms=(440.0,), channel_counts=(8,),
        classifiers=("svm",), filter_names=("raw",),
        regimes=(sp.WITHIN_BLOCK, sp.BLOCK_DISJOINT), seed=0,
    )


class TestVerdictRules:
    KEY_WB = ("raw", sp.WITHIN_BLOCK, 440.0, 8, "svm")
    KEY_BD = ("raw", sp.BLOCK_DISJOINT, 440.0, 8, "svm")

    def test_contaminated(self):
        grid = _grid({
            self.KEY_WB: _cell(0.95, 200, 10),
            self.KEY_BD: _cell(0.10, 200, 10, blocks=(20, 2)),
        })
        v = issue_verdict(grid)
        assert v.status is VerdictStatus.CONTAMINATED
        assert any(f.name == "rule" for f in v.evidence)

    def test_clean_signal(self):
        grid = _grid({
            self.KEY_WB: _cell(0.92, 200, 10),
            self.KEY_BD: _cell(0.88, 200, 10, blocks=(20, 18)),
        })
        assert issue_verdict(grid).status is VerdictStatus.CLEAN_SIGNAL

    def test_no_signal(self):
        grid = _grid({
            self.KEY_WB: _cell(0.10, 200, 10),
            self.KEY_BD: _cell(0.11, 200, 10, blocks=(20, 2)),
        })
        assert issue_verdict(grid).status is VerdictStatus.NO_SIGNAL

    def test_inconclusive_on_mixed(self):
        # both above chance but far apart: neither contaminated nor clean
        grid = _grid({
            self.KEY_WB: _cell(0.95, 200, 10),
            self.KEY_BD: _cell(0.50, 200, 10, blocks=(20, 10)),
        })
        assert issue_verdict(grid).status is VerdictStatus.INCONCLUSIVE

    def test_missing_regime_inconclusive(self):
        grid = _grid({self.KEY_WB: _cell(0.95, 200, 10)})
        v = issue_verdict(grid)
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert v.evidence[0].name == "missing_analyses"

    def test_failed_cells_named_last(self):
        key_wb2 = ("raw", sp.WITHIN_BLOCK, 440.0, 8, "knn")
        ok = {
            self.KEY_WB: _cell(0.95, 200, 10),
            self.KEY_BD: _cell(0.10, 200, 10, blocks=(20, 2)),
        }
        clean = issue_verdict(_grid(ok))
        assert "failed_cells" not in {f.name for f in clean.evidence}

        failed = dict(ok)
        failed[key_wb2] = _error_cell(10, ValueError("boom"))
        v = issue_verdict(_grid(failed))
        assert v.status is clean.status
        assert v.evidence[:-1] == clean.evidence
        assert v.evidence[-1].name == "failed_cells"
        assert v.evidence[-1].value == 1
        assert v.evidence[-1].detail == (
            "first: knn w=440.0ms ch=8 [raw] within_block: ValueError: boom"
        )

    def test_failed_cells_named_when_a_regime_is_missing(self):
        grid = _grid({
            self.KEY_WB: _cell(0.95, 200, 10),
            self.KEY_BD: _error_cell(10, ValueError("too short")),
            ("raw", sp.BLOCK_DISJOINT, 440.0, 8, "knn"): _error_cell(
                10, ValueError("too long")),
        })
        v = issue_verdict(grid)
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert [f.name for f in v.evidence] == ["missing_analyses", "failed_cells"]
        assert v.evidence[1].value == 2
        assert v.evidence[1].detail.endswith("block_disjoint: ValueError: too long")

    def test_evidence_includes_optional_analyses(self, drift_session):
        spec = small_spec(256.0)
        result = run_grid(drift_session, spec)
        v = issue_verdict(result, vlf_fraction=0.93)
        names = {f.name for f in v.evidence}
        assert "vlf_fraction" in names and "within_block_best" in names

    def test_verdict_requires_evidence(self):
        from blockaudit.audit import Verdict

        with pytest.raises(ValueError, match="evidence"):
            Verdict(status=VerdictStatus.NO_SIGNAL, evidence=())

    @pytest.mark.parametrize("name, value", [
        ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1.0),
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", 2.0),
        ("high_multiple", float("nan")), ("high_multiple", float("inf")),
        ("high_multiple", -3), ("high_multiple", 0.0),
        ("comparable_points", float("nan")),
        ("comparable_points", float("inf")), ("comparable_points", -1),
    ])
    def test_verdict_config_rejects_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name}={value!r} must")):
            ba.VerdictConfig(**{name: value})

    def test_verdict_config_accepts_range_edges(self):
        ba.VerdictConfig(alpha=0.999, high_multiple=0.5, comparable_points=0.0)


class TestSerialization:
    def test_grid_result_to_dict(self, drift_session):
        result = run_grid(drift_session, small_spec(256.0,
                                                    classifiers=("knn",)))
        doc = result.to_dict()
        assert doc["classifiers"] == ["knn"]
        assert len(doc["cells"]) == len(result.cells)
        cell = doc["cells"][0]
        assert {"accuracy", "p_value", "block_p_value", "error"} <= cell.keys()
