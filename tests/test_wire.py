import struct
import zlib

import numpy as np
import pytest

from aeropipe import wire
from aeropipe.wire import (
    BadCountError,
    BadMagicError,
    BadVersionError,
    ChecksumError,
    LengthMismatchError,
    ReportEntry,
    ReportMessage,
    WireError,
    decode_message,
    encode_message,
    frame_stream,
    message_size,
    parse_address,
    unframe_stream,
)


def _random_message(rng, count=None):
    if count is None:
        count = int(rng.integers(0, 32))
    entries = []
    for _ in range(count):
        x0, y0 = rng.integers(0, 60000, size=2)
        entries.append(
            ReportEntry(
                box=(int(x0), int(y0), int(rng.integers(0, 65536)), int(rng.integers(0, 65536))),
                track_id=int(rng.integers(0, 2**32)),
                primary_action=int(rng.integers(0, 256)),
                secondary_action=int(rng.integers(0, 256)),
                confidence_q=int(rng.integers(0, 256)),
            )
        )
    return ReportMessage(
        frame_id=int(rng.integers(0, 2**32)),
        timestamp_ms=int(rng.integers(0, 2**63)),
        drone_lat_e7=int(rng.integers(-(2**31), 2**31)),
        drone_lon_e7=int(rng.integers(-(2**31), 2**31)),
        drone_alt_dm=int(rng.integers(0, 2**16)),
        entries=tuple(entries),
        flags=int(rng.integers(0, 256)),
    )


def _crafted_report(count):
    """A report declaring `count` entries, with matching length and valid CRC."""
    body = struct.pack("<HBBIQiiHB", wire.MAGIC, wire.VERSION, 0, 1, 2, 3, 4, 5, count)
    body += bytes(wire.ENTRY_SIZE * count)
    return body + struct.pack("<I", zlib.crc32(body))


class TestMessageCodec:
    def test_empty_message_is_31_bytes(self):
        msg = ReportMessage(frame_id=0, timestamp_ms=0, drone_lat_e7=0, drone_lon_e7=0, drone_alt_dm=0)
        assert len(encode_message(msg)) == 31

    def test_size_law(self):
        rng = np.random.default_rng(0)
        for count in range(32):
            msg = _random_message(rng, count=count)
            payload = encode_message(msg)
            assert len(payload) == 31 + 15 * count == message_size(count)
        assert message_size(5) == 106
        assert message_size(31) == 496 <= 500

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            msg = _random_message(rng)
            assert decode_message(encode_message(msg)) == msg

    def test_count_cap_enforced(self):
        rng = np.random.default_rng(2)
        entries = tuple(_random_message(rng, count=1).entries[0] for _ in range(32))
        with pytest.raises(ValueError, match="cap"):
            ReportMessage(0, 0, 0, 0, 0, entries=entries)

    def test_crafted_count_over_cap_is_wire_error(self):
        for count in (32, 255):
            with pytest.raises(BadCountError):
                decode_message(_crafted_report(count))

    def test_entry_field_validation(self):
        with pytest.raises(ValueError, match="u16"):
            ReportEntry((70000, 0, 1, 1), 0, 0, 0, 0)
        with pytest.raises(ValueError, match="u32"):
            ReportEntry((0, 0, 1, 1), -1, 0, 0, 0)
        with pytest.raises(ValueError, match="byte"):
            ReportEntry((0, 0, 1, 1), 0, 300, 0, 0)

    def test_bad_magic(self):
        data = bytearray(encode_message(ReportMessage(1, 2, 3, 4, 5)))
        data[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            decode_message(bytes(data))

    def test_bad_version(self):
        data = bytearray(encode_message(ReportMessage(1, 2, 3, 4, 5)))
        data[2] = 9
        # keep the CRC check from firing first: version is checked earlier anyway
        with pytest.raises(BadVersionError):
            decode_message(bytes(data))

    def test_truncated_buffer(self):
        payload = encode_message(ReportMessage(1, 2, 3, 4, 5))
        with pytest.raises(LengthMismatchError):
            decode_message(payload[:-1])
        with pytest.raises(LengthMismatchError):
            decode_message(payload[:10])

    def test_crc_failure(self):
        data = bytearray(encode_message(ReportMessage(1, 2, 3, 4, 5)))
        data[10] ^= 0x01
        with pytest.raises(ChecksumError):
            decode_message(bytes(data))

    def test_single_byte_corruptions_all_caught(self):
        rng = np.random.default_rng(3)
        msg = _random_message(rng, count=4)
        payload = encode_message(msg)
        for pos in range(len(payload)):
            corrupted = bytearray(payload)
            corrupted[pos] ^= 0x5A
            with pytest.raises(WireError):
                decode_message(bytes(corrupted))


class TestBuildReport:
    def test_quantization_and_pose(self):
        from aeropipe.evaluate import Detection
        from aeropipe.geometry import BBox

        det = Detection(box=BBox(3, 4, 13, 24), confidence=0.5, track_id=7, frame_id=2)
        msg = wire.build_report(
            frame_id=2,
            detections=[det],
            timestamp_ms=1234,
            drone_lat=35.1,
            drone_lon=139.7,
            drone_alt_m=42.25,
        )
        assert msg.drone_lat_e7 == round(35.1 * 1e7)
        assert msg.drone_lon_e7 == round(139.7 * 1e7)
        assert msg.drone_alt_dm == 422 or msg.drone_alt_dm == 423
        entry = msg.entries[0]
        assert entry.box == (3, 4, 13, 24)
        assert entry.track_id == 7
        assert entry.confidence_q == 128

    def test_truncates_to_cap_keeping_strongest(self):
        from aeropipe.evaluate import Detection
        from aeropipe.geometry import BBox

        dets = [
            Detection(box=BBox(i, 0, i + 5, 10), confidence=i / 50.0, track_id=i, frame_id=0)
            for i in range(40)
        ]
        msg = wire.build_report(0, dets, timestamp_ms=0)
        assert len(msg.entries) == 31
        assert msg.flags & 1
        assert {e.track_id for e in msg.entries} == set(range(9, 40))


class TestFraming:
    def test_roundtrip_three_messages(self):
        rng = np.random.default_rng(4)
        msgs = [_random_message(rng) for _ in range(3)]
        back, skipped = unframe_stream(frame_stream(msgs))
        assert back == msgs
        assert skipped == 0

    def test_empty_stream(self):
        assert unframe_stream(b"") == ([], 0)

    def test_garbage_prefix_resync(self):
        rng = np.random.default_rng(5)
        msgs = [_random_message(rng, count=2), _random_message(rng, count=1)]
        garbage = bytes([0x13, 0x37, 0x00, 0xFF, 0x42])
        data = garbage + frame_stream(msgs)
        back, skipped = unframe_stream(data)
        assert back == msgs
        assert skipped == len(garbage)

    def test_mid_stream_corruption_skips_one_message(self):
        rng = np.random.default_rng(6)
        msgs = [_random_message(rng, count=1) for _ in range(3)]
        stream = bytearray(frame_stream(msgs))
        # corrupt a payload byte of the second message
        first_len = 2 + message_size(1)
        stream[first_len + 2 + 20] ^= 0xAA
        back, skipped = unframe_stream(bytes(stream))
        assert back[0] == msgs[0]
        assert msgs[2] in back
        assert skipped > 0

    def test_crafted_count_frame_skipped(self):
        msg = _random_message(np.random.default_rng(10), count=1)
        crafted = _crafted_report(32)
        data = struct.pack("<H", len(crafted)) + crafted + frame_stream([msg])
        back, skipped = unframe_stream(data)
        assert back == [msg]
        assert skipped == 2 + len(crafted)

    def test_trailing_garbage_counted(self):
        rng = np.random.default_rng(7)
        msgs = [_random_message(rng, count=0)]
        data = frame_stream(msgs) + b"\x01\x02\x03"
        back, skipped = unframe_stream(data)
        assert back == msgs
        assert skipped == 3

    def test_random_corruption_never_yields_wrong_message(self):
        rng = np.random.default_rng(8)
        msgs = [_random_message(rng, count=2) for _ in range(4)]
        clean = frame_stream(msgs)
        for _ in range(200):
            data = bytearray(clean)
            pos = int(rng.integers(0, len(data)))
            data[pos] ^= int(rng.integers(1, 256))
            back, skipped = unframe_stream(bytes(data))
            for msg in back:
                assert msg in msgs
            assert len(back) >= len(msgs) - 1


class TestStreamEndpoints:
    def test_send_receive_over_socketpair(self):
        import socket

        rng = np.random.default_rng(9)
        msgs = [_random_message(rng) for _ in range(5)]
        a, b = socket.socketpair()
        with a, b:
            writer = a.makefile("wb")
            wire.send_stream(writer, msgs)
            writer.close()
            a.shutdown(socket.SHUT_WR)
            back, skipped = wire.receive_stream(b.makefile("rb"))
        assert back == msgs
        assert skipped == 0

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        with pytest.raises(ValueError):
            parse_address("nope")
        with pytest.raises(ValueError):
            parse_address("host:")


def test_header_layout_is_bit_exact():
    msg = ReportMessage(
        frame_id=0x01020304,
        timestamp_ms=0x1112131415161718,
        drone_lat_e7=-5,
        drone_lon_e7=6,
        drone_alt_dm=0x2122,
        flags=0x7,
    )
    payload = encode_message(msg)
    assert payload[:2] == struct.pack("<H", 0xAE70)
    assert payload[2] == 1
    assert payload[3] == 0x7
    assert payload[4:8] == struct.pack("<I", 0x01020304)
    assert payload[8:16] == struct.pack("<Q", 0x1112131415161718)
    assert payload[16:20] == struct.pack("<i", -5)
    assert payload[20:24] == struct.pack("<i", 6)
    assert payload[24:26] == struct.pack("<H", 0x2122)
    assert payload[26] == 0
    import zlib

    assert payload[27:31] == struct.pack("<I", zlib.crc32(payload[:27]))
