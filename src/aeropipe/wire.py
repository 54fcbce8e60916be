"""Compact operator telemetry: binary report messages and stream framing.

Wire layout, all little-endian:

    header (27 bytes)
        magic      u16   0xAE70
        version    u8    1
        flags      u8
        frame_id   u32
        timestamp  u64   ms; `run_frame` stamps frame_id * frame_period_ms
        drone_lat  i32   fixed-point 1e-7 degrees
        drone_lon  i32   fixed-point 1e-7 degrees
        drone_alt  u16   decimeters
        count      u8    number of detection entries, at most 31
    entries (15 bytes each)
        box        4 x u16  (x0, y0, x1, y1)
        track_id   u32
        primary    u8    action class index
        secondary  u8
        confidence u8    round(value * 255)
    crc32 (4 bytes)  IEEE polynomial over all preceding bytes

Total size is 31 + 15 * count bytes, at most 496. Stream framing prefixes
each message with a u16 length. The unframer reads a stream in one scan:
it takes each message at the next magic that decodes, sized by its header
count. A length prefix that matches the message counts as framing; every
other byte passed over is reported as skipped.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from .annotations import check_frame_id

MAGIC = 0xAE70
VERSION = 1
MAX_ENTRIES = 31

_HEADER = struct.Struct("<HBBIQiiHB")
_ENTRY = struct.Struct("<4HIBBB")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size
ENTRY_SIZE = _ENTRY.size
CRC_SIZE = _CRC.size
_MAGIC_BYTES = struct.pack("<H", MAGIC)


class WireError(ValueError):
    """Base class for report decode failures."""


class BadMagicError(WireError):
    pass


class BadVersionError(WireError):
    pass


class LengthMismatchError(WireError):
    pass


class ChecksumError(WireError):
    pass


class BadCountError(WireError):
    """The header declares more entries than a report may carry."""


@dataclass(frozen=True, init=False)
class ReportEntry:
    box: tuple[int, int, int, int]
    track_id: int
    primary_action: int
    secondary_action: int
    confidence_q: int

    def __init__(self, box, track_id, primary_action, secondary_action, confidence_q) -> None:
        # Packing into the wire struct proves every field an integer in range.
        # A value that does not pack gets the checks that name the bad field;
        # one that passes them (a float, a box of 3 or 5 coordinates) is
        # rejected as a whole.
        try:
            _ENTRY.pack(*box, track_id, primary_action, secondary_action, confidence_q)
        except struct.error as exc:
            for coord in box:
                if not 0 <= coord <= 0xFFFF:
                    raise ValueError(f"box coordinate {coord} does not fit u16") from None
            if not 0 <= track_id <= 0xFFFFFFFF:
                raise ValueError(f"track id {track_id} does not fit u32") from None
            for value in (primary_action, secondary_action, confidence_q):
                if not 0 <= value <= 0xFF:
                    raise ValueError(f"byte field value {value} out of range") from None
            raise ValueError(f"report entry does not pack: {exc}") from None
        _store(self, box, track_id, primary_action, secondary_action, confidence_q)

    @property
    def confidence(self) -> float:
        return self.confidence_q / 255.0


def _store(entry, box, track_id, primary_action, secondary_action, confidence_q):
    """Write an entry's fields past the frozen dataclass's __setattr__."""
    d = entry.__dict__
    d["box"] = box
    d["track_id"] = track_id
    d["primary_action"] = primary_action
    d["secondary_action"] = secondary_action
    d["confidence_q"] = confidence_q
    return entry


@dataclass(frozen=True)
class ReportMessage:
    frame_id: int
    timestamp_ms: int
    drone_lat_e7: int
    drone_lon_e7: int
    drone_alt_dm: int
    entries: tuple[ReportEntry, ...] = field(default_factory=tuple)
    flags: int = 0

    def __post_init__(self) -> None:
        if len(self.entries) > MAX_ENTRIES:
            raise ValueError(f"{len(self.entries)} entries exceed the cap of {MAX_ENTRIES}")

    @property
    def encoded_size(self) -> int:
        return message_size(len(self.entries))


def message_size(count: int) -> int:
    """Encoded byte length for a given entry count: 31 + 15 * count."""
    return HEADER_SIZE + ENTRY_SIZE * count + CRC_SIZE


def encode_message(msg: ReportMessage) -> bytes:
    body = bytearray(
        _HEADER.pack(
            MAGIC,
            VERSION,
            msg.flags,
            msg.frame_id,
            msg.timestamp_ms,
            msg.drone_lat_e7,
            msg.drone_lon_e7,
            msg.drone_alt_dm,
            len(msg.entries),
        )
    )
    for e in msg.entries:
        body += _ENTRY.pack(*e.box, e.track_id, e.primary_action, e.secondary_action, e.confidence_q)
    body += _CRC.pack(zlib.crc32(bytes(body)))
    return bytes(body)


def decode_message(data: bytes) -> ReportMessage:
    """Strict decode: magic, version, entry count, exact length, then CRC."""
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise LengthMismatchError(f"{len(data)} bytes is shorter than any valid message")
    magic, version, flags, frame_id, ts, lat, lon, alt, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"magic 0x{magic:04X} != 0x{MAGIC:04X}")
    if version != VERSION:
        raise BadVersionError(f"version {version} unsupported")
    if count > MAX_ENTRIES:
        raise BadCountError(f"count {count} exceeds the cap of {MAX_ENTRIES}")
    expected = message_size(count)
    if len(data) != expected:
        raise LengthMismatchError(f"{len(data)} bytes but count {count} implies {expected}")
    (crc_stored,) = _CRC.unpack_from(data, expected - CRC_SIZE)
    crc_actual = zlib.crc32(data[: expected - CRC_SIZE])
    if crc_stored != crc_actual:
        raise ChecksumError(f"crc 0x{crc_stored:08X} != computed 0x{crc_actual:08X}")
    # An _ENTRY row holds ints in exactly the ranges _ENTRY.pack accepts, so
    # the check in ReportEntry.__init__ cannot fail here and is not run.
    new = object.__new__
    entries = [
        _store(new(ReportEntry), (x0, y0, x1, y1), track_id, primary, secondary, conf_q)
        for x0, y0, x1, y1, track_id, primary, secondary, conf_q in _ENTRY.iter_unpack(
            data[HEADER_SIZE : expected - CRC_SIZE]
        )
    ]
    return ReportMessage(
        frame_id=frame_id,
        timestamp_ms=ts,
        drone_lat_e7=lat,
        drone_lon_e7=lon,
        drone_alt_dm=alt,
        entries=tuple(entries),
        flags=flags,
    )


def check_header(frame_id: int, drone_lat: float, drone_lon: float, drone_alt_m: float) -> None:
    """Raise ValueError naming the first field `build_report` cannot put in a
    header: a frame id outside u32, a non-finite altitude, or a latitude or
    longitude whose 1e-7 degree fixed point is non-finite or outside i32."""
    check_frame_id(frame_id, "report header")
    if not math.isfinite(drone_alt_m):
        raise ValueError(f"drone_alt_m must be finite, got {drone_alt_m}")
    for name, degrees in (("drone_lat", drone_lat), ("drone_lon", drone_lon)):
        if not (math.isfinite(degrees) and -(2**31) <= round(degrees * 1e7) < 2**31):
            raise ValueError(f"{name} {degrees} does not fit the header's i32 of 1e-7 degrees")


def build_report(
    frame_id: int,
    detections,
    timestamp_ms: int,
    drone_lat: float = 0.0,
    drone_lon: float = 0.0,
    drone_alt_m: float = 0.0,
) -> ReportMessage:
    """Convert pipeline detections into a report message.

    When a frame holds more than the 31-entry cap, only the
    highest-confidence detections are carried (flag bit 0 marks the
    truncation).
    """
    ordered = sorted(detections, key=lambda d: -d.confidence)
    truncated = len(ordered) > MAX_ENTRIES
    entries = tuple(
        ReportEntry(
            box=d.box.as_tuple(),
            track_id=max(d.track_id, 0),
            primary_action=max(d.primary_action, 0),
            secondary_action=max(d.secondary_action, 0),
            confidence_q=int(round(min(max(d.confidence, 0.0), 1.0) * 255)),
        )
        for d in ordered[:MAX_ENTRIES]
    )
    return ReportMessage(
        frame_id=frame_id,
        timestamp_ms=timestamp_ms,
        drone_lat_e7=int(round(drone_lat * 1e7)),
        drone_lon_e7=int(round(drone_lon * 1e7)),
        drone_alt_dm=min(max(int(round(drone_alt_m * 10)), 0), 0xFFFF),
        entries=entries,
        flags=1 if truncated else 0,
    )


# ---------------------------------------------------------------------------
# Stream framing
# ---------------------------------------------------------------------------


def frame_payload(payload: bytes) -> bytes:
    """One encoded message prefixed with its u16 length."""
    return struct.pack("<H", len(payload)) + payload


def frame_stream(messages: Iterable[ReportMessage]) -> bytes:
    """Concatenate messages, each framed by `frame_payload`."""
    return b"".join(frame_payload(encode_message(msg)) for msg in messages)


def unframe_stream(data: bytes) -> tuple[list[ReportMessage], int]:
    """Recover framed messages; returns (messages, skipped byte count).

    One scan: from the current position, find the next magic whose message
    (sized by the count in its header) decodes, and take that message. A
    u16 length prefix right before it that equals its size is framing;
    every other byte passed over counts as skipped.
    """
    messages: list[ReportMessage] = []
    skipped = 0
    pos = scan = 0
    n = len(data)
    while True:
        idx = data.find(_MAGIC_BYTES, scan)
        if idx < 0 or idx + HEADER_SIZE > n:
            break
        scan = idx + 1
        end = idx + message_size(data[idx + HEADER_SIZE - 1])
        if end > n:
            continue
        try:
            msg = decode_message(data[idx:end])
        except WireError:
            continue
        start = idx - 2
        if start < pos or struct.unpack_from("<H", data, start)[0] != end - idx:
            start = idx
        skipped += start - pos
        messages.append(msg)
        pos = scan = end
    return messages, skipped + n - pos


def parse_address(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise ValueError(f"expected host:port, got {addr!r}")
    # getaddrinfo would wrap a larger port modulo 65536 without a sign.
    if int(port) > 0xFFFF:
        raise ValueError(f"port {port} outside 0..65535: {addr!r}")
    return host, int(port)
