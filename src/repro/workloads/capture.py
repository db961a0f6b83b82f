"""Versioned, compact on-disk access-trace format (``.rtrace``).

This is the durable, dependency-free trace format used by the
differential harness and the scenario corpus. A capture file carries
everything a later process needs to re-run the identical access stream
on any scheme:

* a **header** with the format version and full provenance — machine
  geometry (cores, L1/L2 sizes), the generating profile (name plus the
  complete parameter record, so even custom profiles round-trip), the
  seed and requested trace length, and a free-form ``meta`` dict (the
  differential harness stores fault plans and parent-trace provenance
  there);
* one **frame per core**: the core's access records varint-encoded
  (zigzag address deltas, gap and kind packed into one integer) and
  zlib-compressed, so a few thousand accesses land well under 50 KB.

A frame's index is its core, so a record carries no core id: streams
go in and come out as the simulator holds them, one list per core of
exact ``(addr, kind, gap)`` tuples. A capture is small, so
:func:`save_capture` and :func:`load_capture` handle it whole, and each
frame is encoded and decoded in bulk, with no Python call per access.
Streams read back with :func:`load_capture` replay bit-identically to
the live generation that recorded them.

Layout::

    magic   b"RTRC"
    version u16 big-endian (currently 1)
    header  u32 big-endian length + zlib(JSON)
    frames  num_cores x [varint count][varint payload_len][zlib payload]

Record encoding, inside a decompressed frame payload: per access, one
varint ``(gap << 2) | kind_code`` followed by the zigzag-varint delta
of the block address from the previous record's address (starting
from 0). The kind codes are the indices of :data:`KINDS`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from itertools import accumulate
from pathlib import Path

from repro.errors import ArtifactWriteError, TraceError
from repro.types import AccessKind

#: File magic; deliberately distinct from any common archive format.
MAGIC = b"RTRC"

#: Capture format version. Bump on any incompatible layout change.
CAPTURE_VERSION = 1

#: The access kinds, indexed by their code; code 3 is invalid.
KINDS = (AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH)

#: zlib level, pinned so identical content always produces identical
#: frames within one environment (the corpus staleness check compares
#: decoded content, never raw bytes, so zlib-build drift cannot bite).
_ZLIB_LEVEL = 6


def _encode_varints(values) -> bytes:
    """Every integer of ``values`` as LEB128, back to back."""
    out = bytearray()
    append = out.append
    try:
        for value in values:
            while value > 0x7F:
                append(value & 0x7F | 0x80)
                value >>= 7
            append(value)
    except ValueError:
        # bytearray.append refuses the negative value that ends a loop.
        raise TraceError(f"cannot varint-encode negative value {value}") from None
    return bytes(out)


def _read_varints(buf: bytes) -> "list[int]":
    """Decode every LEB128 integer of ``buf``, back to back."""
    values = []
    append = values.append
    value = shift = 0
    for byte in buf:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            append(value)
            value = shift = 0
    if shift:
        raise TraceError("truncated varint")
    return values


def _encode_frame(stream) -> bytes:
    """One core's frame: record count, payload length and payload."""
    values = [0] * (2 * len(stream))
    if stream:
        addrs, kinds, gaps = zip(*stream)
        if min(gaps) < 0:
            raise TraceError(f"negative access gap {min(gaps)}")
        read, write, ifetch = KINDS
        codes = [
            0 if kind is read else 1 if kind is write else 2 if kind is ifetch
            else 3
            for kind in kinds
        ]
        if 3 in codes:
            raise TraceError(f"unknown access kind {kinds[codes.index(3)]!r}")
        values[::2] = [(gap << 2) | code for gap, code in zip(gaps, codes)]
        # Zigzag folds each signed address delta onto the unsigned
        # integers: 0, -1, 1, -2 -> 0, 1, 2, 3.
        deltas = [addr - previous for addr, previous in zip(addrs, (0, *addrs))]
        values[1::2] = [
            delta << 1 if delta >= 0 else (-delta << 1) - 1 for delta in deltas
        ]
    payload = zlib.compress(_encode_varints(values), _ZLIB_LEVEL)
    return _encode_varints((len(stream), len(payload))) + payload


def _profile_payload(profile):
    """Serialize a profile for the header: full record, or pass a dict."""
    if profile is None:
        return None
    if isinstance(profile, dict):
        return dict(profile)
    return dataclasses.asdict(profile)


def save_capture(
    path,
    streams: "list[list[tuple]]",
    *,
    profile=None,
    seed: "int | None" = None,
    total_accesses: "int | None" = None,
    geometry: "dict | None" = None,
    meta: "dict | None" = None,
) -> Path:
    """Write per-core ``streams`` to ``path``; returns the path.

    The file is written whole to a sibling ``.tmp`` file, synced and
    moved into place, so no reader ever sees a partial capture. An
    ``OSError`` on the way (``ENOSPC`` and friends) raises
    :class:`~repro.errors.ArtifactWriteError` once the temp file is
    gone; the target is left as it was.
    """
    if not streams:
        raise TraceError("a trace needs at least one core stream")
    header = {
        "format_version": CAPTURE_VERSION,
        "num_cores": len(streams),
        "profile": _profile_payload(profile),
        "seed": seed,
        "total_accesses": total_accesses,
        "geometry": dict(geometry) if geometry else None,
        "meta": dict(meta) if meta else {},
    }
    blob = zlib.compress(json.dumps(header, sort_keys=True).encode(), _ZLIB_LEVEL)
    data = b"".join([
        MAGIC,
        CAPTURE_VERSION.to_bytes(2, "big"),
        len(blob).to_bytes(4, "big"),
        blob,
        *map(_encode_frame, streams),
    ])
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(tmp, "wb")
    except OSError as err:
        raise ArtifactWriteError(
            f"cannot create trace file {path}: {err}", path=str(path)
        ) from err
    try:
        try:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise ArtifactWriteError(
                f"cannot write trace file {path}: {err}", path=str(path)
            ) from err
        raise
    return path


def _take(data: bytes, pos: int, size: int, path, what: str) -> bytes:
    """``size`` bytes of ``data`` from ``pos``, or a truncation error."""
    chunk = data[pos:pos + size]
    if len(chunk) != size:
        raise TraceError(f"trace file {path} is truncated ({what})")
    return chunk


def _varint_at(data: bytes, pos: int, path, what: str) -> "tuple[int, int]":
    """The LEB128 integer at ``data[pos]`` and the position after it."""
    value = shift = 0
    for pos in range(pos, len(data)):
        byte = data[pos]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos + 1
        shift += 7
    raise TraceError(f"trace file {path} is truncated ({what})")


def load_capture(path) -> "tuple[list[list[tuple]], dict]":
    """Read a capture written by :func:`save_capture`.

    Returns ``(streams, header)``. Every structural problem — an
    unreadable file, bad magic, another format version, truncation
    anywhere, a corrupt header or frame, an unknown kind code, bytes
    after the last frame — raises :class:`~repro.errors.TraceError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise TraceError(f"cannot read trace file {path}: {err}") from err
    magic = data[:len(MAGIC)]
    if magic != MAGIC:
        raise TraceError(f"{path} is not a repro trace file (bad magic {magic!r})")
    version = int.from_bytes(_take(data, 4, 2, path, "format version"), "big")
    if version != CAPTURE_VERSION:
        raise TraceError(
            f"trace file {path} has format version {version}; this "
            f"build reads version {CAPTURE_VERSION}"
        )
    header_len = int.from_bytes(_take(data, 6, 4, path, "header length"), "big")
    try:
        header = json.loads(
            zlib.decompress(_take(data, 10, header_len, path, "header")).decode()
        )
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise TraceError(f"trace file {path} has a corrupt header: {err}") from err
    num_cores = header.get("num_cores")
    if not isinstance(num_cores, int) or num_cores <= 0:
        raise TraceError(
            f"trace file {path} declares invalid core count {num_cores!r}"
        )
    pos = 10 + header_len
    streams = []
    for core in range(num_cores):
        count, pos = _varint_at(data, pos, path, "frame record count")
        size, pos = _varint_at(data, pos, path, "frame payload length")
        payload = _take(data, pos, size, path, f"core {core} frame")
        pos += size
        try:
            values = _read_varints(zlib.decompress(payload))
        except zlib.error as err:
            raise TraceError(
                f"trace file {path}: core {core} frame is corrupt: {err}"
            ) from err
        if len(values) != 2 * count:
            raise TraceError(
                f"trace file {path}: core {core} frame holds "
                f"{len(values)} varints for {count} records"
            )
        packed = values[::2]
        try:
            kinds = [KINDS[code & 0x3] for code in packed]
        except IndexError:
            raise TraceError(
                f"trace file {path}: unknown access kind code 3"
            ) from None
        # Each address is the running sum of the unzigzagged deltas.
        addrs = accumulate([(delta >> 1) ^ -(delta & 1) for delta in values[1::2]])
        streams.append(list(zip(addrs, kinds, [code >> 2 for code in packed])))
    if pos != len(data):
        raise TraceError(
            f"trace file {path} has {len(data) - pos} trailing bytes after "
            f"its last frame"
        )
    return streams, header
