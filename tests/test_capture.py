"""Property-based tests (hypothesis) on the ``.rtrace`` capture format.

The format's contract is simple to state and worth pinning hard: any
per-core streams of ``(addr, kind, gap)`` tuples round-trip exactly
through save/load, element by element and type by type; re-saving a
committed corpus capture reproduces its bytes, so the layout has not
moved; and any structurally damaged file — truncated anywhere, wrong
magic, wrong version, corrupt header, trailing bytes — is rejected with
:class:`TraceError`, never decoded into silently wrong streams.
"""

import dataclasses
import json
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import TraceError
from repro.types import AccessKind
from repro.workloads.capture import (
    CAPTURE_VERSION,
    MAGIC,
    _encode_varints,
    _read_varints,
    load_capture,
    save_capture,
)
from repro.workloads.profiles import profile
from repro.workloads.scenarios import SCENARIOS
from test_stream_format import CORPUS_DIR, assert_exact_format

FORMAT = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH])

# Addresses span the generator's real regions (up to ~2^37) plus small
# values, so zigzag deltas cover multi-byte varints in both directions.
record_strategy = st.tuples(
    st.integers(min_value=0, max_value=1 << 38),
    kinds,
    st.integers(min_value=0, max_value=500),
)

streams_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda cores: st.lists(
        st.lists(record_strategy, min_size=0, max_size=60),
        min_size=cores,
        max_size=cores,
    )
)


# ----------------------------------------------------------------------
# Encoding primitives
# ----------------------------------------------------------------------

@given(value=st.integers(min_value=-(1 << 62), max_value=1 << 62))
def test_zigzag_round_trip(value, tmp_path_factory):
    # An address delta of ``value`` is zigzag-folded onto an unsigned
    # varint on the way out and unfolded on the way back.
    path = tmp_path_factory.getbasetemp() / "zigzag.rtrace"
    first = 1 << 62
    stream = [(first, AccessKind.READ, 0), (first + value, AccessKind.READ, 0)]
    save_capture(path, [stream])
    assert load_capture(path)[0] == [stream]


@given(values=st.lists(st.integers(min_value=0, max_value=1 << 70), max_size=8))
def test_varint_round_trip(values):
    assert _read_varints(_encode_varints(values)) == values


def test_varint_rejects_negative():
    with pytest.raises(TraceError, match="negative value -1"):
        _encode_varints([5, -1])


def test_varint_rejects_truncation():
    buf = _encode_varints([1 << 40])
    with pytest.raises(TraceError, match="truncated varint"):
        _read_varints(buf[:-1])


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

@FORMAT
@given(streams=streams_strategy)
def test_round_trip_arbitrary_streams(streams, tmp_path):
    path = tmp_path / "trace.rtrace"
    save_capture(path, streams, seed=3)
    loaded, header = load_capture(path)
    assert loaded == streams
    assert_exact_format(loaded)
    assert header["num_cores"] == len(streams)
    assert header["seed"] == 3
    assert header["format_version"] == CAPTURE_VERSION


def test_round_trip_empty_streams(tmp_path):
    path = tmp_path / "empty.rtrace"
    streams = [[], [], []]
    save_capture(path, streams)
    loaded, header = load_capture(path)
    assert loaded == streams
    assert header["num_cores"] == 3


def test_round_trip_single_access(tmp_path):
    path = tmp_path / "one.rtrace"
    streams = [[(123456789, AccessKind.WRITE, 7)]]
    save_capture(path, streams)
    loaded, _header = load_capture(path)
    assert loaded == streams


def test_header_provenance_round_trip(tmp_path):
    path = tmp_path / "prov.rtrace"
    app = profile("barnes")
    save_capture(
        path,
        [[(1, AccessKind.READ, 0)]],
        profile=app,
        seed=9,
        total_accesses=1,
        geometry={"num_cores": 1, "l1_kb": 1, "l2_kb": 4},
        meta={"note": "hello"},
    )
    _streams, header = load_capture(path)
    # JSON carries the profile's tuples as lists.
    assert header["profile"] == json.loads(json.dumps(dataclasses.asdict(app)))
    assert header["seed"] == 9
    assert header["total_accesses"] == 1
    assert header["geometry"] == {"num_cores": 1, "l1_kb": 1, "l2_kb": 4}
    assert header["meta"] == {"note": "hello"}


# ----------------------------------------------------------------------
# Damage rejection
# ----------------------------------------------------------------------

@FORMAT
@given(streams=streams_strategy, cut=st.floats(min_value=0.0, max_value=1.0))
def test_any_truncation_is_rejected(streams, cut, tmp_path):
    path = tmp_path / "whole.rtrace"
    save_capture(path, streams)
    blob = path.read_bytes()
    keep = min(int(len(blob) * cut), len(blob) - 1)
    broken = tmp_path / "broken.rtrace"
    broken.write_bytes(blob[:keep])
    with pytest.raises(TraceError):
        load_capture(broken)


def test_trailing_bytes_are_rejected(tmp_path):
    # A capture padded by a bad copy, or another file concatenated to
    # it, decodes its frames fine; the bytes after the last one are not
    # part of any capture.
    padded = tmp_path / "padded.rtrace"
    padded.write_bytes((CORPUS_DIR / "private-heavy.rtrace").read_bytes() + b"\x00junk")
    with pytest.raises(TraceError, match="5 trailing bytes after its last frame"):
        load_capture(padded)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.rtrace"
    good = tmp_path / "good.rtrace"
    save_capture(good, [[(1, AccessKind.READ, 0)]])
    blob = good.read_bytes()
    path.write_bytes(b"NOPE" + blob[len(MAGIC):])
    with pytest.raises(TraceError, match="bad magic"):
        load_capture(path)


def test_future_version_is_rejected(tmp_path):
    path = tmp_path / "future.rtrace"
    good = tmp_path / "good.rtrace"
    save_capture(good, [[(1, AccessKind.READ, 0)]])
    blob = good.read_bytes()
    future = (CAPTURE_VERSION + 1).to_bytes(2, "big")
    path.write_bytes(blob[:4] + future + blob[6:])
    with pytest.raises(TraceError, match="format version"):
        load_capture(path)


def test_corrupt_header_is_rejected(tmp_path):
    path = tmp_path / "header.rtrace"
    junk = zlib.compress(b"not json at all")
    path.write_bytes(
        MAGIC
        + CAPTURE_VERSION.to_bytes(2, "big")
        + len(junk).to_bytes(4, "big")
        + junk
    )
    with pytest.raises(TraceError, match="corrupt header"):
        load_capture(path)


def test_invalid_core_count_is_rejected(tmp_path):
    path = tmp_path / "cores.rtrace"
    header = zlib.compress(
        json.dumps({"format_version": CAPTURE_VERSION, "num_cores": 0}).encode()
    )
    path.write_bytes(
        MAGIC
        + CAPTURE_VERSION.to_bytes(2, "big")
        + len(header).to_bytes(4, "big")
        + header
    )
    with pytest.raises(TraceError, match="core count"):
        load_capture(path)


def test_missing_file_is_a_trace_error(tmp_path):
    with pytest.raises(TraceError, match="cannot read"):
        load_capture(tmp_path / "nope.rtrace")


def _one_frame_capture(path, count: int, values) -> None:
    """A one-core capture whose frame declares ``count`` records and
    holds the varints ``values``, however many that is."""
    header = zlib.compress(
        json.dumps({"format_version": CAPTURE_VERSION, "num_cores": 1}).encode()
    )
    payload = zlib.compress(_encode_varints(values))
    path.write_bytes(
        MAGIC
        + CAPTURE_VERSION.to_bytes(2, "big")
        + len(header).to_bytes(4, "big")
        + header
        + _encode_varints([count, len(payload)])
        + payload
    )


def test_frame_varints_must_match_its_record_count(tmp_path):
    path = tmp_path / "count.rtrace"
    # One record is two varints: (gap << 2) | kind, then the address delta.
    _one_frame_capture(path, 1, [(3 << 2) | 1, 8])
    assert load_capture(path)[0] == [[(4, AccessKind.WRITE, 3)]]
    for count, values in ((2, [0, 8]), (1, [0, 8, 0]), (1, [0])):
        _one_frame_capture(path, count, values)
        with pytest.raises(TraceError, match="varints for"):
            load_capture(path)


def test_unknown_kind_code_is_rejected(tmp_path):
    path = tmp_path / "kind.rtrace"
    _one_frame_capture(path, 2, [0, 2, (1 << 2) | 3, 2])
    with pytest.raises(TraceError, match="unknown access kind code 3"):
        load_capture(path)


# ----------------------------------------------------------------------
# Writer discipline
# ----------------------------------------------------------------------

def test_writer_rejects_negative_gap(tmp_path):
    with pytest.raises(TraceError, match="negative access gap -1"):
        save_capture(tmp_path / "gap.rtrace", [[(5, AccessKind.READ, -1)]])
    assert list(tmp_path.iterdir()) == []  # neither the file nor a .tmp


@pytest.mark.parametrize(
    "streams, problem",
    [
        ([], "at least one core stream"),
        ([[(5, AccessKind.READ, 0), (6, "write", 0)]], "unknown access kind 'write'"),
    ],
    ids=["no-streams", "unknown-kind"],
)
def test_writer_rejects_what_it_cannot_encode(tmp_path, streams, problem):
    with pytest.raises(TraceError, match=problem):
        save_capture(tmp_path / "bad.rtrace", streams)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_resaving_a_corpus_capture_reproduces_its_bytes(tmp_path, name):
    committed = CORPUS_DIR / f"{name}.rtrace"
    streams, header = load_capture(committed)
    resaved = save_capture(
        tmp_path / committed.name,
        streams,
        profile=header["profile"],
        seed=header["seed"],
        total_accesses=header["total_accesses"],
        geometry=header["geometry"],
        meta=header["meta"],
    )
    assert resaved.read_bytes() == committed.read_bytes()
