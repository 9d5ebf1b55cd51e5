import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockaudit import (
    Session,
    TrialEvent,
    concat_trials,
    load_session,
    save_session,
    segment,
)
from blockaudit.dataset import MAGIC, ContainerError, read_container

from conftest import make_session


class TestContainerRoundTrip:
    def test_minimal_file(self, tmp_path, tiny_session):
        path = tmp_path / "s.baud"
        save_session(tiny_session, path)
        loaded = load_session(path)
        assert loaded.channels == tiny_session.channels
        assert loaded.sample_rate == tiny_session.sample_rate
        assert loaded.subject_id == tiny_session.subject_id
        assert loaded.events == tiny_session.events
        np.testing.assert_array_equal(loaded.samples, tiny_session.samples)

    def test_round_trip_bytes_identical(self, tmp_path):
        # oracle: the byte stream itself must reproduce after save+load+save
        session = make_session(channels=96, total=500, rate=4096.0, seed=3)
        p1, p2 = tmp_path / "a.baud", tmp_path / "b.baud"
        save_session(session, p1)
        save_session(load_session(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_arithmetic(self, tmp_path):
        # header + channels * samples * 4 payload bytes, exactly
        session = make_session(channels=2, total=10, events=(
            TrialEvent(0, 0, 0, 0, 10),))
        path = tmp_path / "s.baud"
        save_session(session, path)
        raw = path.read_bytes()
        magic, version, header_len = struct.unpack("<4sHI", raw[:10])
        assert magic == MAGIC
        assert len(raw) == 10 + header_len + 2 * 10 * 4

    def test_empty_events_ok(self, tmp_path):
        session = make_session(events=())
        path = tmp_path / "s.baud"
        save_session(session, path)
        assert load_session(path).events == ()

    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.integers(1, 4),
        total=st.integers(8, 40),
        rate=st.sampled_from([100.0, 256.0, 1024.0]),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_property(self, tmp_path_factory, channels, total, rate, seed):
        path = tmp_path_factory.mktemp("rt") / "s.baud"
        events = (TrialEvent(0, 0, 0, 1, total - 2),) if total > 3 else ()
        session = make_session(channels, total, rate, events=events, seed=seed)
        save_session(session, path)
        loaded = load_session(path)
        np.testing.assert_array_equal(loaded.samples, session.samples)
        assert loaded.events == session.events


class TestContainerErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ContainerError, match="magic"):
            load_session(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"BA")
        with pytest.raises(ContainerError, match="truncated"):
            load_session(path)

    def test_malformed_header_json(self, tmp_path):
        header = b"{not json"
        path = tmp_path / "bad"
        path.write_bytes(struct.pack("<4sHI", MAGIC, 1, len(header)) + header)
        with pytest.raises(ContainerError, match="malformed header"):
            load_session(path)

    def test_payload_size_mismatch(self, tmp_path, tiny_session):
        path = tmp_path / "s.baud"
        save_session(tiny_session, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ContainerError, match="payload"):
            load_session(path)

    @pytest.mark.parametrize("onset, length, message", [
        (100, 5, "out of bounds"),
        (0, 0, "trial 0: length_samples must be > 0"),
    ], ids=["out_of_bounds", "zero_length"])
    def test_bad_event_in_file_names_path(self, tmp_path, onset, length, message):
        header = json.dumps({
            "channels": 1, "sample_rate_hz": 100.0, "subject_id": "x",
            "num_samples": 50,
            "events": [{"trial_id": 0, "class_label": 0, "block_id": 0,
                        "onset_sample": onset, "length_samples": length}],
        }).encode()
        payload = np.zeros(50, dtype="<f4").tobytes()
        path = tmp_path / "bad"
        path.write_bytes(struct.pack("<4sHI", MAGIC, 1, len(header)) + header + payload)
        with pytest.raises(ValueError, match=message) as info:
            load_session(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_infinite_rate_in_file_names_path(self, tmp_path):
        # it used to load, then fail later with an OverflowError traceback
        header = json.dumps({
            "channels": 1, "sample_rate_hz": float("inf"), "subject_id": "x",
            "num_samples": 50,
            "events": [{"trial_id": 0, "class_label": 0, "block_id": 0,
                        "onset_sample": 0, "length_samples": 10}],
        }).encode()
        assert b"Infinity" in header
        payload = np.zeros(50, dtype="<f4").tobytes()
        path = tmp_path / "bad"
        path.write_bytes(struct.pack("<4sHI", MAGIC, 1, len(header)) + header + payload)
        with pytest.raises(ValueError, match="sample_rate=inf must be finite") as info:
            load_session(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack("<4sHI", MAGIC, 99, 2) + b"{}")
        with pytest.raises(ContainerError, match="version"):
            load_session(path)


class TestSessionInvariants:
    def test_rejects_overlapping_events(self):
        with pytest.raises(ValueError, match="overlap"):
            make_session(events=(
                TrialEvent(0, 0, 0, 0, 20),
                TrialEvent(1, 1, 0, 10, 20),
            ))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_session(events=(TrialEvent(0, 0, 0, 60, 20),))

    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="sample_rate"):
                make_session(rate=rate)

    def test_rejects_noncontiguous_block(self):
        with pytest.raises(ValueError, match="contiguous"):
            make_session(events=(
                TrialEvent(0, 0, 0, 0, 10),
                TrialEvent(1, 1, 1, 20, 10),
                TrialEvent(2, 0, 0, 40, 10),
            ))

    def test_rejects_zero_length_event(self):
        with pytest.raises(ValueError, match="length_samples"):
            TrialEvent(0, 0, 0, 0, 0)

    def test_rejects_negative_block_id(self):
        # concat_trials offsets each session's ids by the previous one's
        # max + 1, so a negative id would merge blocks across sessions
        with pytest.raises(ValueError, match="trial 3: block_id must be >= 0"):
            TrialEvent(3, 0, -1, 0, 10)

    def test_rejects_non_finite_sample(self):
        samples = np.zeros((3, 50), dtype=np.float32)
        samples[2, 17] = np.inf
        with pytest.raises(ValueError,
                           match="non-finite sample inf at channel 2, sample 17"):
            Session(samples=samples, sample_rate=100.0, subject_id="s01",
                    events=())

    def test_samples_read_only(self, tiny_session):
        with pytest.raises(ValueError):
            tiny_session.samples[0, 0] = 1.0

    def test_refuses_invalid_before_write(self, tmp_path):
        # constructing the invalid session already fails, nothing is written
        with pytest.raises(ValueError):
            save_session(
                make_session(events=(TrialEvent(0, 0, 0, 60, 20),)),
                tmp_path / "never",
            )
        assert not (tmp_path / "never").exists()


class TestSegment:
    def test_window_samples_at_1khz(self):
        # 440 ms at 1 kHz -> 440 samples
        events = tuple(
            TrialEvent(i, i % 2, i, i * 500, 500) for i in range(4)
        )
        session = make_session(channels=3, total=2000, rate=1000.0, events=events)
        tm = segment(session, 40.0, 440.0)
        assert tm.window_samples == 440
        assert tm.num_trials == 4
        np.testing.assert_array_equal(tm.labels, [0, 1, 0, 1])

    def test_single_sample_window(self):
        events = (TrialEvent(0, 0, 0, 0, 500),)
        session = make_session(channels=1, total=600, rate=1000.0, events=events)
        assert segment(session, 0.0, 1.0).window_samples == 1

    def test_full_event_window(self, tiny_session):
        tm = segment(tiny_session, 0.0, 200.0)  # 20 samples at 100 Hz
        assert tm.window_samples == 20
        np.testing.assert_array_equal(
            tm.trials[0], tiny_session.samples[:, 4:24]
        )

    def test_window_exceeding_event_rejected(self, tiny_session):
        with pytest.raises(ValueError, match="exceeds"):
            segment(tiny_session, 0.0, 210.0)

    def test_empty_events_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            segment(make_session(events=()), 0.0, 10.0)

    def test_never_aliases_session(self, tiny_session):
        tm = segment(tiny_session, 0.0, 100.0)
        assert not np.shares_memory(tm.trials, tiny_session.samples)

    def test_metadata_carried(self, tiny_session):
        tm = segment(tiny_session, 0.0, 100.0)
        np.testing.assert_array_equal(tm.block_ids, [0, 1])
        assert set(tm.subject_ids) == {"s01"}
        np.testing.assert_array_equal(tm.trial_indices, [0, 1])


class TestConcat:
    def test_pools_and_rebases(self, tiny_session):
        other = make_session(seed=1, subject="s02")
        a = segment(tiny_session, 0.0, 100.0)
        b = segment(other, 0.0, 100.0)
        pooled = concat_trials([a, b])
        assert pooled.num_trials == 4
        np.testing.assert_array_equal(pooled.trial_indices, [0, 1, 2, 3])
        # block ids from the second session must not collide with the first
        assert set(pooled.block_ids[:2]) & set(pooled.block_ids[2:]) == set()
        assert list(pooled.subject_ids) == ["s01", "s01", "s02", "s02"]

    def test_single_matrix_returned_as_is(self, tiny_session):
        tm = segment(tiny_session, 0.0, 100.0)
        assert concat_trials([tm]) is tm

    def test_rejects_mismatched_windows(self, tiny_session):
        a = segment(tiny_session, 0.0, 100.0)
        b = segment(tiny_session, 0.0, 50.0)
        with pytest.raises(ValueError, match="window"):
            concat_trials([a, b])


def test_non_session_container_rejected(tmp_path):
    from blockaudit.dataset import write_container

    path = tmp_path / "other.baud"
    write_container(path, {"role": "codebook"}, b"")
    header, _ = read_container(path)  # generic read is fine
    assert header["role"] == "codebook"
    with pytest.raises(ContainerError, match="missing"):
        load_session(path)
