import re
from dataclasses import fields

import numpy as np
import pytest

from blockaudit import (
    DesignKind,
    DriftParams,
    EvokedParams,
    FilterSpec,
    apply_filter,
    design_filter,
    generate_session,
    make_block_schedule,
    make_rapid_event_schedule,
    power_spectrum,
    segment,
    vlf_fraction,
)
from blockaudit.synthgen import Schedule


class TestBlockSchedule:
    def test_paper_scale_layout(self):
        s = make_block_schedule(40, 50, 500.0, 10000.0, seed=0)
        assert s.num_blocks == 40
        assert all(len(labels) == 50 for _, labels in s.blocks)
        assert all(len(set(labels)) == 1 for _, labels in s.blocks)

    def test_video_style(self):
        s = make_block_schedule(12, 32, 4000.0, 10000.0, seed=0)
        assert s.num_blocks == 12
        assert all(len(labels) == 32 for _, labels in s.blocks)

    def test_two_singleton_blocks(self):
        s = make_block_schedule(2, 1, 100.0, 0.0, seed=0)
        assert s.num_blocks == 2
        assert sorted(labels[0] for _, labels in s.blocks) == [0, 1]

    def test_blocks_per_class(self):
        s = make_block_schedule(4, 10, 100.0, 50.0, seed=1, blocks_per_class=5)
        assert s.num_blocks == 20
        counts = {}
        for _, labels in s.blocks:
            assert len(labels) == 2
            counts[labels[0]] = counts.get(labels[0], 0) + 1
        assert counts == {0: 5, 1: 5, 2: 5, 3: 5}

    def test_shuffle_depends_on_seed(self):
        a = make_block_schedule(8, 4, 100.0, 0.0, seed=1)
        b = make_block_schedule(8, 4, 100.0, 0.0, seed=2)
        assert [l[0] for _, l in a.blocks] != [l[0] for _, l in b.blocks]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_block_schedule(1, 5, 100.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="divide"):
            make_block_schedule(4, 10, 100.0, 0.0, seed=0, blocks_per_class=3)

    @pytest.mark.parametrize("stimulus_ms, blank_ms, want", [
        (float("nan"), 0.0, "stimulus_ms=nan must be finite and > 0"),
        (100.0, float("inf"), "blank_ms=inf must be finite and >= 0"),
    ])
    def test_non_finite_timing_named(self, stimulus_ms, blank_ms, want):
        # a NaN stimulus used to fail unnamed while the session was rendered
        with pytest.raises(ValueError, match=re.escape(want)):
            make_block_schedule(2, 2, stimulus_ms, blank_ms, seed=0)


class TestRapidEventSchedule:
    def test_each_stimulus_once(self):
        s = make_rapid_event_schedule(40, 50, 40, 500.0, 10000.0, seed=0)
        assert s.num_blocks == 40
        assert all(len(labels) == 50 for _, labels in s.blocks)
        pooled = [c for _, labels in s.blocks for c in labels]
        counts = np.bincount(pooled, minlength=40)
        np.testing.assert_array_equal(counts, 50)

    def test_blocks_are_mixed(self):
        s = make_rapid_event_schedule(12, 32, 12, 4000.0, 10000.0, seed=3)
        assert any(len(set(labels)) > 1 for _, labels in s.blocks)

    def test_deterministic(self):
        a = make_rapid_event_schedule(6, 10, 5, 100.0, 0.0, seed=4)
        b = make_rapid_event_schedule(6, 10, 5, 100.0, 0.0, seed=4)
        assert a == b

    def test_block_count_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            make_rapid_event_schedule(6, 10, 7, 100.0, 0.0, seed=0)


class TestScheduleInvariants:
    def test_trial_count_enforced(self):
        with pytest.raises(ValueError, match="trials"):
            Schedule(DesignKind.BLOCK, classes=2, trials_per_class=2,
                     blocks=((0, (0,)), (1, (1,))), stimulus_ms=100.0,
                     blank_ms=0.0)

    def test_block_design_single_class_blocks(self):
        with pytest.raises(ValueError, match="single-class"):
            Schedule(DesignKind.BLOCK, classes=2, trials_per_class=1,
                     blocks=((0, (0, 1)),), stimulus_ms=100.0, blank_ms=0.0)


class TestGenerateSession:
    def test_deterministic_bit_identical(self):
        sched = make_block_schedule(3, 4, 200.0, 100.0, seed=2)
        kw = dict(channels=4, sample_rate=256.0,
                  drift=DriftParams(2.0, 0.1, 1.0),
                  evoked=EvokedParams(amplitude=1.0),
                  subject_id="s01", seed=11)
        a = generate_session(sched, **kw)
        b = generate_session(sched, **kw)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.events == b.events

    def test_events_follow_schedule(self):
        sched = make_block_schedule(3, 4, 200.0, 100.0, seed=2)
        ses = generate_session(sched, 2, 100.0, DriftParams(0, 0, 1),
                               EvokedParams(), "s01", 0)
        assert len(ses.events) == 12
        block_label = {}
        for ev in ses.events:  # one class per block
            assert block_label.setdefault(ev.block_id, ev.class_label) == ev.class_label
        stim = 20  # 200 ms at 100 Hz
        for ev in ses.events:
            assert ev.length_samples == stim
        # blanks between blocks: 4 trials then 10 blank samples
        assert ses.events[4].onset_sample == 4 * stim + 10

    def test_contaminant_is_label_blind(self):
        # with evoked off the rendered signal never reads class labels:
        # permuting the classes across blocks reproduces identical samples
        sched = make_block_schedule(4, 3, 100.0, 50.0, seed=3)
        permuted = Schedule(
            design=sched.design, classes=sched.classes,
            trials_per_class=sched.trials_per_class,
            blocks=tuple(
                (b, tuple((c + 1) % sched.classes for c in labels))
                for b, labels in sched.blocks
            ),
            stimulus_ms=sched.stimulus_ms, blank_ms=sched.blank_ms,
        )
        kw = dict(channels=3, sample_rate=128.0,
                  drift=DriftParams(4.0, 0.2, 1.0), evoked=EvokedParams(),
                  subject_id="s", seed=7)
        a = generate_session(sched, **kw)
        b = generate_session(permuted, **kw)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_pure_noise_statistics(self):
        sched = make_block_schedule(2, 10, 500.0, 0.0, seed=0)
        ses = generate_session(sched, 8, 256.0, DriftParams(0.0, 0.0, 1.0),
                               EvokedParams(), "s", seed=1)
        assert abs(ses.samples.mean()) < 0.02
        assert abs(ses.samples.std() - 1.0) < 0.02

    def test_drift_concentrates_power_at_vlf(self):
        sched = make_block_schedule(4, 10, 500.0, 1000.0, seed=1)
        ses = generate_session(sched, 4, 256.0, DriftParams(5.0, 0.1, 1.0),
                               EvokedParams(), "s", seed=2)
        spec = power_spectrum(ses, 1024, 0.5)
        assert vlf_fraction(spec, 5.0) > 0.8

    def test_evoked_energy_in_band(self):
        # the template survives a 5 Hz highpass nearly untouched
        sched = make_block_schedule(2, 6, 500.0, 200.0, seed=4)
        evoked = EvokedParams(amplitude=5.0, template_ms=150.0,
                              center_hz=30.0)
        ses = generate_session(sched, 4, 512.0, DriftParams(0, 0, 0.001),
                               evoked, "s", seed=3)
        hp = design_filter(FilterSpec.highpass(5.0, 512.0, 2))
        filtered = apply_filter(hp, ses)
        tm = segment(ses, 0.0, 400.0)
        tmf = segment(filtered, 0.0, 400.0)
        ratio = np.linalg.norm(tmf.trials) / np.linalg.norm(tm.trials)
        assert ratio > 0.95

    def test_evoked_template_must_fit_stimulus(self):
        sched = make_block_schedule(2, 2, 100.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="template longer"):
            generate_session(
                sched, 2, 256.0, DriftParams(),
                EvokedParams(amplitude=1.0, template_ms=200.0),
                "s", seed=0,
            )

    def test_invalid_params(self):
        sched = make_block_schedule(2, 2, 100.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="channels"):
            generate_session(sched, 0, 100.0, DriftParams(), EvokedParams(),
                             "s", 0)
        with pytest.raises(ValueError, match=">= 0"):
            DriftParams(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("walk_sigma", float("nan")), ("dc_sigma", float("inf")),
        ("noise_sigma", True),
    ])
    def test_non_finite_drift_named(self, field, value):
        # min() skipped a NaN, which surfaced later as a non-finite sample
        with pytest.raises(ValueError, match=re.escape(
                f"{field}={value!r} must be finite and >= 0")):
            DriftParams(**{field: value})


class TestEvokedParams:
    def test_no_enabled_field(self):
        assert [f.name for f in fields(EvokedParams)] == [
            "amplitude", "template_ms", "center_hz"]

    def test_templates_drawn_exactly_when_amplitude_positive(self):
        sched = make_block_schedule(2, 4, 200.0, 100.0, seed=2)

        def render(amplitude):
            return generate_session(
                sched, 3, 256.0, DriftParams(0.0, 0.0, 1.0),
                EvokedParams(amplitude=amplitude), "s", seed=4,
            ).samples

        quiet = generate_session(sched, 3, 256.0, DriftParams(0.0, 0.0, 1.0),
                                 EvokedParams(), "s", seed=4).samples
        assert render(0.0).tobytes() == quiet.tobytes()
        assert render(1.0).tobytes() != quiet.tobytes()

    @pytest.mark.parametrize("field, value, want", [
        ("center_hz", float("nan"), "finite and > 0"),
        ("center_hz", -30.0, "finite and > 0"),
        ("amplitude", float("inf"), "finite and >= 0"),
    ])
    def test_bad_burst_named(self, field, value, want):
        # each used to build
        with pytest.raises(ValueError, match=re.escape(
                f"{field}={value!r} must be {want}")):
            EvokedParams(**{field: value})

    @pytest.mark.parametrize("amplitude", [0.0, 1.0])
    @pytest.mark.parametrize("template_ms", [0.0, -5.0, float("nan")])
    def test_template_ms_must_be_positive_whatever_the_amplitude(
        self, amplitude, template_ms
    ):
        with pytest.raises(ValueError, match=re.escape(
                f"template_ms={template_ms!r} must be finite and > 0")):
            EvokedParams(amplitude=amplitude, template_ms=template_ms)
