"""Unit tests for channel events, messages and the metrics recorder."""

import pickle

import pytest

from repro.sim.events import ChannelEvent, Message, SlotState, idle_event
from repro.sim.metrics import MetricsRecorder


class TestChannelEvent:
    def test_state_predicates(self):
        assert idle_event(0).is_idle()
        success = ChannelEvent(slot=1, state=SlotState.SUCCESS, payload="x", writer=3)
        assert not success.is_idle()
        collision = ChannelEvent(slot=2, state=SlotState.COLLISION)
        assert not collision.is_idle()

    def test_message_repr_mentions_endpoints(self):
        message = Message(sender=1, receiver=2, payload="p", round_sent=3)
        text = repr(message)
        assert "1" in text and "2" in text


class TestMessage:
    def test_four_named_fields(self):
        message = Message(sender=1, receiver=2, payload="p", round_sent=3)
        assert Message._fields == ("sender", "receiver", "payload", "round_sent")
        assert (message.sender, message.receiver) == (1, 2)
        assert (message.payload, message.round_sent) == ("p", 3)

    def test_immutable(self):
        message = Message(1, 2, "p", 3)
        with pytest.raises(AttributeError):
            message.payload = "q"

    def test_pickle_round_trip(self):
        message = Message("a", "b", ("aggregate", (1, 2)), 7)
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message and type(clone) is Message

    def test_repr_unchanged(self):
        assert repr(Message(1, 2, "p", 3)) == "Message(1->2 @r3: 'p')"


class TestMetricsRecorder:
    def test_round_and_message_counting(self):
        recorder = MetricsRecorder()
        recorder.record_round(3)
        recorder.record_messages(5)
        assert recorder.rounds == 3
        assert recorder.point_to_point_messages == 5

    def test_negative_counts_rejected(self):
        recorder = MetricsRecorder()
        with pytest.raises(ValueError):
            recorder.record_round(-1)
        with pytest.raises(ValueError):
            recorder.record_messages(-1)

    def test_slot_counting_by_state(self):
        recorder = MetricsRecorder()
        recorder.record_slot(SlotState.IDLE, 0)
        recorder.record_slot(SlotState.SUCCESS, 1)
        recorder.record_slot(SlotState.COLLISION, 3)
        assert recorder.channel_slots == 3
        assert recorder.channel_idle == 1
        assert recorder.channel_success == 1
        assert recorder.channel_collision == 1
        assert recorder.channel_write_attempts == 4

    def test_phase_attribution(self):
        recorder = MetricsRecorder()
        recorder.set_phase("local")
        recorder.record_messages(4)
        recorder.record_round(2)
        recorder.set_phase("global")
        recorder.record_round(1)
        snapshot = recorder.snapshot()
        assert snapshot.phase_messages == {"local": 4}
        assert snapshot.phase_rounds == {"local": 2, "global": 1}

    def test_snapshot_is_immutable_copy(self):
        recorder = MetricsRecorder()
        recorder.record_messages(1)
        snapshot = recorder.snapshot()
        recorder.record_messages(10)
        assert snapshot.point_to_point_messages == 1
