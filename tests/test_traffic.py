"""Unit tests for interconnect traffic accounting."""

import json
import random

import pytest

from repro.interconnect.traffic import (
    CONTROL_BYTES,
    DATA_BYTES,
    PARTIAL_BYTES,
    MessageClass,
    TrafficMeter,
)


class TestTrafficMeter:
    def test_starts_empty(self):
        meter = TrafficMeter()
        assert meter.total_bytes == 0

    def test_control_message_size(self):
        meter = TrafficMeter()
        meter.control(MessageClass.PROCESSOR)
        assert meter.bytes_for(MessageClass.PROCESSOR) == CONTROL_BYTES

    def test_data_message_size(self):
        meter = TrafficMeter()
        meter.data(MessageClass.WRITEBACK)
        assert meter.bytes_for(MessageClass.WRITEBACK) == DATA_BYTES

    def test_partial_message_size(self):
        meter = TrafficMeter()
        meter.partial(MessageClass.COHERENCE)
        assert meter.bytes_for(MessageClass.COHERENCE) == PARTIAL_BYTES

    def test_count_multiplier(self):
        meter = TrafficMeter()
        meter.control(MessageClass.COHERENCE, count=5)
        assert meter.bytes_for(MessageClass.COHERENCE) == 5 * CONTROL_BYTES
        assert meter.messages_for(MessageClass.COHERENCE) == 5

    def test_classes_are_independent(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        assert meter.bytes_for(MessageClass.WRITEBACK) == 0
        assert meter.bytes_for(MessageClass.COHERENCE) == 0

    def test_total_is_sum(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        meter.control(MessageClass.WRITEBACK)
        meter.partial(MessageClass.COHERENCE)
        assert meter.total_bytes == DATA_BYTES + CONTROL_BYTES + PARTIAL_BYTES

    def test_clear_zeroes_in_place(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        meter.clear()
        assert meter.total_bytes == 0
        assert meter.messages_for(MessageClass.PROCESSOR) == 0

    def test_as_dict_keys(self):
        meter = TrafficMeter()
        assert set(meter.as_dict()) == {"processor", "writeback", "coherence"}

    def test_dump_load_roundtrip(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR, count=3)
        meter.control(MessageClass.COHERENCE, count=2)
        clone = TrafficMeter.load(meter.dump())
        assert clone.as_dict() == meter.as_dict()
        assert clone.messages_for(MessageClass.COHERENCE) == 2

    def test_data_message_carries_block_plus_header(self):
        assert DATA_BYTES == 64 + CONTROL_BYTES

    def test_dump_keeps_the_cached_wire_format(self):
        # The format result-cache entries hold, key order included.
        cached = {
            "bytes": {"processor": 152, "writeback": 80, "coherence": 26},
            "messages": {"processor": 3, "writeback": 2, "coherence": 3},
        }
        meter = TrafficMeter.load(cached)
        assert json.dumps(meter.dump()) == json.dumps(cached)
        for cls in MessageClass:
            assert meter.bytes_for(cls) == cached["bytes"][cls.value]
            assert meter.messages_for(cls) == cached["messages"][cls.value]



class ReferenceMeter:
    """The two-list meter :class:`TrafficMeter` replaced: every message
    adds its size to its class's bytes and one to its messages."""

    def __init__(self) -> None:
        self.bytes = [0] * len(MessageClass)
        self.messages = [0] * len(MessageClass)

    def record(self, message_class, size_bytes, count=1):
        self.bytes[message_class.slot] += size_bytes * count
        self.messages[message_class.slot] += count

    def control(self, message_class, count=1):
        self.record(message_class, CONTROL_BYTES, count)

    def data(self, message_class, count=1):
        self.record(message_class, DATA_BYTES, count)

    def partial(self, message_class, count=1):
        self.record(message_class, PARTIAL_BYTES, count)

    def clear(self):
        self.bytes = [0] * len(MessageClass)
        self.messages = [0] * len(MessageClass)

    def dump(self):
        return {
            "bytes": {cls.value: self.bytes[cls.slot] for cls in MessageClass},
            "messages": {cls.value: self.messages[cls.slot] for cls in MessageClass},
        }

    @classmethod
    def load(cls, payload):
        meter = cls()
        for name, value in payload["bytes"].items():
            meter.bytes[MessageClass(name).slot] = value
        for name, value in payload["messages"].items():
            meter.messages[MessageClass(name).slot] = value
        return meter


class TestAgainstTheReferenceMeter:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_read_the_same(self, seed):
        rng = random.Random(seed)
        meter, reference = TrafficMeter(), ReferenceMeter()
        for _ in range(400):
            op = rng.choice(
                ("control", "data", "partial", "control", "data", "record",
                 "clear", "load")
            )
            cls = rng.choice(list(MessageClass))
            count = rng.choice((1, 1, 1, 2, 5, 0))
            if op == "record":
                size = rng.randrange(1, 200, 2)  # odd sizes
                meter.record(cls, size, count)
                reference.record(cls, size, count)
            elif op == "clear":
                meter.clear()
                reference.clear()
            elif op == "load":
                # A result-cache entry written before the change.
                payload = json.loads(json.dumps(reference.dump()))
                meter = TrafficMeter.load(payload)
                reference = ReferenceMeter.load(payload)
            else:
                getattr(meter, op)(cls, count)
                getattr(reference, op)(cls, count)
            expected = reference.dump()
            assert json.dumps(meter.dump()) == json.dumps(expected)
            assert meter.as_dict() == expected["bytes"]
            assert meter.total_bytes == sum(reference.bytes)
            for message_class in MessageClass:
                assert meter.messages_for(message_class) == (
                    reference.messages[message_class.slot]
                )
                assert meter.bytes_for(message_class) == (
                    reference.bytes[message_class.slot]
                )
