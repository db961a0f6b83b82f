"""Unit tests for interconnect traffic accounting."""

import json

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

