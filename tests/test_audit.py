from dataclasses import replace
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
    _evaluate_group,
    binomial_p_vs_chance,
)
from blockaudit import splits as sp
from blockaudit import dsp, features


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


class TestRunGrid:
    def test_degenerate_grid_equals_direct_run(self, drift_session):
        spec = small_spec(256.0, classifiers=("knn",),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        result = run_grid(drift_session, spec)
        assert len(result.cells) == 1
        cell = next(iter(result.cells.values()))

        # direct single run with the same derived seeds
        from blockaudit.audit import _derive_seed, _SEED_SPLIT

        matrix = ba.segment(drift_session, 40.0, 440.0)
        plan = sp.split_within_block(
            matrix, (0.8, 0.1, 0.1), _derive_seed(spec.seed, _SEED_SPLIT, 0)
        )
        z = dsp.zscore(matrix, "train_statistics", train_indices=plan.train)
        ranking = features.fisher_scores(z.take(plan.train))
        z = features.select_channels(z, ranking, z.channels)
        x = z.trials.reshape(z.num_trials, -1)
        model = ba.KnnModel(x[plan.train], z.labels[plan.train], k=7)
        acc, _ = ba.evaluate_accuracy(model, x[plan.test], z.labels[plan.test])
        assert cell.accuracy == pytest.approx(acc)

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

    def test_reproducible_and_thread_invariant(self, drift_session):
        spec = small_spec(256.0, windows=(440.0, 100.0), channels=(0, 4))
        a = run_grid(drift_session, spec)
        b = run_grid(drift_session, spec)
        c = run_grid(drift_session, spec, threads=2)
        for key in a.cells:
            assert a.cells[key].accuracy == b.cells[key].accuracy
            assert a.cells[key].accuracy == c.cells[key].accuracy
            assert a.cells[key].p_value == b.cells[key].p_value

    def test_cell_error_recorded_not_fatal(self, drift_session):
        # 1 ms at 256 Hz rounds to zero samples: recorded in-cell
        spec = small_spec(256.0, windows=(440.0, 1.0))
        result = run_grid(drift_session, spec)
        errored = [c for c in result.cells.values() if not c.ok]
        assert errored and all("empty" in c.error for c in errored)
        assert any(c.ok for c in result.cells.values())

    def test_cnn_too_short_window_recorded(self, drift_session):
        spec = small_spec(256.0, classifiers=("cnn1d",), windows=(200.0,),
                          splits=(SplitSpec(sp.WITHIN_BLOCK, (0.8, 0.1, 0.1)),))
        result = run_grid(drift_session, spec)
        cell = next(iter(result.cells.values()))
        assert not cell.ok and "pool" in cell.error

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
            validation=np.array([], dtype=np.int64),
            test=np.arange(10),
            regime=sp.WITHIN_BLOCK,
        )
        spec = small_spec(256.0, classifiers=("knn",))
        with pytest.raises(LeakageError):
            _evaluate_group(
                matrix, [rigged], spec, spec.filter_configs[0], 440.0,
                crop_seed=0, train_seeds={(0, "knn"): 0},
                num_classes=matrix.num_classes,
            )


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
        arms = (FilterConfig(name="pre", zscore_stage="before_filter",
                             mode="causal"),
                FilterConfig(name="post"))
        spec = replace(small_spec(256.0), filter_configs=arms)
        seen = []
        monkeypatch.setattr(ba.audit, "run_grid", lambda data, s, threads=1:
                            seen.append(s.filter_configs))
        highpass_ablation(drift_session, [14.0], spec)
        baseline, ablated = seen
        assert baseline == arms
        for base, arm in zip(arms, ablated):
            assert arm.zscore_stage == base.zscore_stage
            assert arm == replace(base, filters=arm.filters[:1] + base.filters)

    def test_cutoff_validation(self, drift_session):
        with pytest.raises(ValueError, match="Nyquist"):
            highpass_ablation(drift_session, [1000.0], small_spec(256.0))


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


class TestSerialization:
    def test_grid_result_to_dict(self, drift_session):
        result = run_grid(drift_session, small_spec(256.0,
                                                    classifiers=("knn",)))
        doc = result.to_dict()
        assert doc["classifiers"] == ["knn"]
        assert len(doc["cells"]) == len(result.cells)
        cell = doc["cells"][0]
        assert {"accuracy", "p_value", "block_p_value", "error"} <= cell.keys()
