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

Reading and writing both stream frame-by-frame — a reader never holds
more than one decompressed core stream beyond what it yields, and a
writer flushes each core as it is handed over. Convenience wrappers
(:func:`save_capture` / :func:`load_capture`) cover the common
whole-trace case; :func:`load_capture` is what
:func:`repro.workloads.generator.generate_streams` uses under
``REPRO_TRACE_FILE``, making replayed runs bit-identical to live
generation.

Layout::

    magic   b"RTRC"
    version u16 big-endian (currently 1)
    header  u32 big-endian length + zlib(JSON)
    frames  num_cores x [varint count][varint payload_len][zlib payload]

Record encoding, inside a decompressed frame payload: per access, one
varint ``(gap << 2) | kind_code`` followed by the zigzag-varint delta
of the block address from the previous record's address (starting
from 0).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib
from pathlib import Path

from repro.errors import ArtifactWriteError, TraceError
from repro.types import Access, AccessKind

#: File magic; deliberately distinct from any common archive format.
MAGIC = b"RTRC"

#: Capture format version. Bump on any incompatible layout change.
CAPTURE_VERSION = 1

#: Integer encoding of access kinds.
KIND_CODES = {AccessKind.READ: 0, AccessKind.WRITE: 1, AccessKind.IFETCH: 2}
KIND_DECODE = {code: kind for kind, code in KIND_CODES.items()}

#: zlib level, pinned so identical content always produces identical
#: frames within one environment (the corpus staleness check compares
#: decoded content, never raw bytes, so zlib-build drift cannot bite).
_ZLIB_LEVEL = 6


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (unsigned) as LEB128."""
    if value < 0:
        raise TraceError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf: bytes, pos: int) -> "tuple[int, int]":
    """Decode one LEB128 integer at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    length = len(buf)
    while True:
        if pos >= length:
            raise TraceError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    """Fold a signed integer onto unsigned: 0, -1, 1, -2 -> 0, 1, 2, 3."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# Streaming writer
# ----------------------------------------------------------------------

class TraceWriter:
    """Streams per-core access frames into an ``.rtrace`` file.

    Frames must be written in core order ``0 .. num_cores - 1`` (one
    :meth:`write_stream` call per core, empty streams included);
    :meth:`close` verifies every frame was written. The file is written
    to a sibling temp path and moved into place on close, so a crashed
    writer never leaves a truncated trace behind.
    """

    def __init__(
        self,
        path,
        num_cores: int,
        *,
        profile=None,
        seed: "int | None" = None,
        total_accesses: "int | None" = None,
        geometry: "dict | None" = None,
        meta: "dict | None" = None,
    ) -> None:
        if num_cores <= 0:
            raise TraceError("a trace needs at least one core stream")
        self.path = Path(path)
        self.num_cores = num_cores
        self._next_core = 0
        self._closed = False
        header = {
            "format_version": CAPTURE_VERSION,
            "num_cores": num_cores,
            "profile": _profile_payload(profile),
            "seed": seed,
            "total_accesses": total_accesses,
            "geometry": dict(geometry) if geometry else None,
            "meta": dict(meta) if meta else {},
        }
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._tmp, "wb")
        except OSError as err:
            raise ArtifactWriteError(
                f"cannot create trace file {self.path}: {err}",
                path=str(self.path),
            ) from err
        try:
            self._file.write(MAGIC)
            self._file.write(CAPTURE_VERSION.to_bytes(2, "big"))
            blob = zlib.compress(
                json.dumps(header, sort_keys=True).encode(), _ZLIB_LEVEL
            )
            self._file.write(len(blob).to_bytes(4, "big"))
            self._file.write(blob)
        except OSError as err:
            # Disk full (ENOSPC) and friends: remove the partial temp
            # file and surface a structured, catchable error instead of
            # littering ``*.tmp`` next to the target.
            self._abort()
            raise ArtifactWriteError(
                f"cannot write trace file {self.path}: {err}",
                path=str(self.path),
            ) from err
        except BaseException:
            self._abort()
            raise

    def write_stream(self, core: int, accesses) -> None:
        """Encode and append one core's access stream."""
        if self._closed:
            raise TraceError("writer is closed")
        if core != self._next_core:
            raise TraceError(
                f"frames must be written in core order: expected core "
                f"{self._next_core}, got {core}"
            )
        records = bytearray()
        previous_addr = 0
        count = 0
        for acc in accesses:
            if acc.core != core:
                raise TraceError(
                    f"stream {core} contains an access issued by core "
                    f"{acc.core}"
                )
            if acc.gap < 0:
                raise TraceError(f"negative access gap {acc.gap}")
            _write_varint(records, (acc.gap << 2) | KIND_CODES[acc.kind])
            _write_varint(records, _zigzag(acc.addr - previous_addr))
            previous_addr = acc.addr
            count += 1
        payload = zlib.compress(bytes(records), _ZLIB_LEVEL)
        frame = bytearray()
        _write_varint(frame, count)
        _write_varint(frame, len(payload))
        try:
            self._file.write(bytes(frame))
            self._file.write(payload)
        except OSError as err:
            self._abort()
            raise ArtifactWriteError(
                f"cannot write trace file {self.path}: {err}",
                path=str(self.path),
            ) from err
        except BaseException:
            self._abort()
            raise
        self._next_core += 1

    def close(self) -> None:
        """Finish the file; raises if any core frame is missing."""
        if self._closed:
            return
        if self._next_core != self.num_cores:
            self._abort()
            raise TraceError(
                f"trace writer closed after {self._next_core} of "
                f"{self.num_cores} core frames"
            )
        self._closed = True
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            os.replace(self._tmp, self.path)
        except OSError as err:
            self._abort()
            raise ArtifactWriteError(
                f"cannot finalize trace file {self.path}: {err}",
                path=str(self.path),
            ) from err

    def _abort(self) -> None:
        self._closed = True
        try:
            self._file.close()
        finally:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._abort()


# ----------------------------------------------------------------------
# Streaming reader
# ----------------------------------------------------------------------

class TraceReader:
    """Reads an ``.rtrace`` file frame by frame.

    The header is parsed eagerly (so provenance is available before any
    records are decoded); core streams are decoded lazily by iterating
    :meth:`streams`. Every structural problem — bad magic, unsupported
    version, truncation anywhere, unknown kind codes — raises
    :class:`~repro.errors.TraceError`.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as err:
            raise TraceError(f"cannot read trace file {path}: {err}") from err
        try:
            magic = self._file.read(len(MAGIC))
            if magic != MAGIC:
                raise TraceError(
                    f"{path} is not a repro trace file (bad magic {magic!r})"
                )
            version_raw = self._read_exact(2, "format version")
            version = int.from_bytes(version_raw, "big")
            if version != CAPTURE_VERSION:
                raise TraceError(
                    f"trace file {path} has format version {version}; this "
                    f"build reads version {CAPTURE_VERSION}"
                )
            header_len = int.from_bytes(self._read_exact(4, "header length"), "big")
            blob = self._read_exact(header_len, "header")
            try:
                self.header = json.loads(zlib.decompress(blob).decode())
            except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as err:
                raise TraceError(
                    f"trace file {path} has a corrupt header: {err}"
                ) from err
            self.num_cores = self.header.get("num_cores")
            if not isinstance(self.num_cores, int) or self.num_cores <= 0:
                raise TraceError(
                    f"trace file {path} declares invalid core count "
                    f"{self.num_cores!r}"
                )
        except BaseException:
            self._file.close()
            raise
        self._frames_read = 0

    def _read_exact(self, n: int, what: str) -> bytes:
        data = self._file.read(n)
        if len(data) != n:
            raise TraceError(f"trace file {self.path} is truncated ({what})")
        return data

    def _read_frame_varint(self, what: str) -> int:
        result = 0
        shift = 0
        while True:
            byte = self._read_exact(1, what)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def streams(self):
        """Yield ``(core, list[Access])`` for each frame, in core order."""
        while self._frames_read < self.num_cores:
            core = self._frames_read
            count = self._read_frame_varint("frame record count")
            payload_len = self._read_frame_varint("frame payload length")
            payload = self._read_exact(payload_len, f"core {core} frame")
            try:
                records = zlib.decompress(payload)
            except zlib.error as err:
                raise TraceError(
                    f"trace file {self.path}: core {core} frame is corrupt: "
                    f"{err}"
                ) from err
            stream = []
            pos = 0
            previous_addr = 0
            for _ in range(count):
                packed, pos = _read_varint(records, pos)
                kind_code = packed & 0x3
                try:
                    kind = KIND_DECODE[kind_code]
                except KeyError:
                    raise TraceError(
                        f"trace file {self.path}: unknown access kind code "
                        f"{kind_code}"
                    ) from None
                delta, pos = _read_varint(records, pos)
                previous_addr += _unzigzag(delta)
                stream.append(Access(core, previous_addr, kind, packed >> 2))
            if pos != len(records):
                raise TraceError(
                    f"trace file {self.path}: core {core} frame has "
                    f"{len(records) - pos} trailing bytes"
                )
            self._frames_read += 1
            yield core, stream

    def read_all(self) -> "list[list[Access]]":
        """Decode every remaining frame into per-core streams."""
        return [stream for _, stream in self.streams()]

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# Whole-trace conveniences
# ----------------------------------------------------------------------

def _profile_payload(profile):
    """Serialize a profile for the header: full record, or pass a dict."""
    if profile is None:
        return None
    if isinstance(profile, dict):
        return dict(profile)
    return dataclasses.asdict(profile)


def save_capture(
    path,
    streams: "list[list[Access]]",
    *,
    profile=None,
    seed: "int | None" = None,
    total_accesses: "int | None" = None,
    geometry: "dict | None" = None,
    meta: "dict | None" = None,
) -> Path:
    """Write per-core ``streams`` to ``path``; returns the path."""
    with TraceWriter(
        path,
        len(streams),
        profile=profile,
        seed=seed,
        total_accesses=total_accesses,
        geometry=geometry,
        meta=meta,
    ) as writer:
        for core, stream in enumerate(streams):
            writer.write_stream(core, stream)
    return Path(path)


def load_capture(path) -> "tuple[list[list[Access]], dict]":
    """Read a capture written by :class:`TraceWriter`.

    Returns ``(streams, header)``; raises :class:`TraceError` on any
    malformed, truncated, or version-incompatible file.
    """
    with TraceReader(path) as reader:
        return reader.read_all(), reader.header


def profile_from_header(header: dict):
    """Rebuild the generating :class:`WorkloadProfile` from a header.

    Returns None when the trace carries no profile provenance.
    """
    from repro.workloads.profiles import WorkloadProfile

    payload = header.get("profile")
    if not payload:
        return None
    # JSON round-trips tuples as lists; restore them so the rebuilt
    # (frozen) profile stays hashable and compares equal to the original.
    fields = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    return WorkloadProfile(**fields)


def trace_fingerprint(path) -> str:
    """Content hash of a trace file (sha256 hex digest).

    This is what keys the per-process workload cache for replayed
    traces: two files with the same path but different bytes never
    alias, and the same content is recognized wherever it lives.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as err:
        raise TraceError(f"cannot read trace file {path}: {err}") from err
    return digest.hexdigest()
