import dataclasses
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aeropipe import wire
from aeropipe.wire import (
    BadCountError,
    BadMagicError,
    BadVersionError,
    ChecksumError,
    MAX_ENTRIES,
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
from reference import _reference_decode_message, _reference_entry, _reference_unframe_stream


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

    def test_entry_that_does_not_pack_is_rejected(self):
        """In-range floats and boxes of 3 or 5 coordinates were accepted, and
        encode_message then raised struct.error, which is no ValueError."""
        for fields in [
            ((1.0, 2, 3, 4), 0, 0, 0, 0),
            ((1, 2, 3), 0, 0, 0, 0),
            ((1, 2, 3, 4, 5), 0, 0, 0, 0),
            ((1, 2, 3, 4), 0, 0, 0, 0.5),
        ]:
            with pytest.raises(ValueError, match="report entry does not pack"):
                ReportEntry(*fields)

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
        from aeropipe.annotations import AnnotationRecord
        from aeropipe.geometry import BBox

        det = AnnotationRecord(frame_id=2, box=BBox(3, 4, 13, 24), track_id=7, confidence=0.5)
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
        from aeropipe.annotations import AnnotationRecord
        from aeropipe.geometry import BBox

        dets = [
            AnnotationRecord(frame_id=0, box=BBox(i, 0, i + 5, 10), track_id=i, confidence=i / 50.0)
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
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        with pytest.raises(ValueError):
            parse_address("nope")
        with pytest.raises(ValueError):
            parse_address("host:")

    def test_parse_address_bounds_the_port(self):
        assert parse_address("h:0") == ("h", 0)
        assert parse_address("h:65535") == ("h", 65535)
        # getaddrinfo would take these as ports 0 and 34463.
        for addr in ("h:65536", "h:99999"):
            with pytest.raises(ValueError, match="outside 0..65535"):
                parse_address(addr)

    @pytest.mark.parametrize("addr", ["h:\u0663", "h:\uff11\uff12", "h:\u00b2"])
    def test_parse_address_takes_only_ascii_digits(self, addr):
        # Arabic-Indic three, full-width twelve, superscript two.
        with pytest.raises(ValueError, match="expected host:port"):
            parse_address(addr)


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


# ---------------------------------------------------------------------------
# The single-scan receiver against the two-path receiver it replaced
# ---------------------------------------------------------------------------

# The two-path receiver (framed fast path plus magic resync) in
# `reference.py` is what the single scan must equal on every input.
_MAGIC_BYTES = wire._MAGIC_BYTES
HEADER_SIZE = wire.HEADER_SIZE


_u = st.integers
_ENTRIES = st.builds(
    ReportEntry,
    st.tuples(_u(0, 0xFFFF), _u(0, 0xFFFF), _u(0, 0xFFFF), _u(0, 0xFFFF)),
    _u(0, 2**32 - 1),
    _u(0, 255),
    _u(0, 255),
    _u(0, 255),
)
_MESSAGES = st.builds(
    ReportMessage,
    frame_id=_u(0, 2**32 - 1),
    timestamp_ms=_u(0, 2**64 - 1),
    drone_lat_e7=_u(-(2**31), 2**31 - 1),
    drone_lon_e7=_u(-(2**31), 2**31 - 1),
    drone_alt_dm=_u(0, 0xFFFF),
    entries=st.lists(_ENTRIES, max_size=MAX_ENTRIES).map(tuple),
    flags=_u(0, 255),
)
# (kind, position as a fraction of the stream, value)
_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "drop", "magic", "prefix"]), st.floats(0, 1), _u(1, 255)),
    max_size=6,
)


def _corrupt(messages: list[ReportMessage], edits) -> bytes:
    """Frame `messages`, then flip bytes, drop spans of up to 64 bytes,
    insert magic bytes, or overwrite a length prefix with the magic."""
    prefixes = []
    data = bytearray()
    for msg in messages:
        prefixes.append(len(data))
        data += frame_stream([msg])
    for kind, where, value in edits:
        if kind == "prefix":
            if prefixes:
                at = prefixes[int(where * (len(prefixes) - 1))]
                data[at : at + 2] = _MAGIC_BYTES
            continue
        at = int(where * len(data))
        if kind == "magic":
            data[at:at] = _MAGIC_BYTES
        elif at < len(data):
            if kind == "flip":
                data[at] ^= value
            else:
                del data[at : at + value % 64 + 1]
    return bytes(data)


# Arbitrary bytes, also spliced with magic bytes and whole framed messages
# so that the resync paths are reached.
_CHUNKS = st.one_of(
    st.binary(max_size=40),
    st.just(_MAGIC_BYTES),
    st.just(_MAGIC_BYTES + bytes([wire.VERSION])),
    _MESSAGES.map(lambda m: frame_stream([m])),
    _MESSAGES.map(encode_message),
)
_SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.one_of(st.binary(max_size=600), st.lists(_CHUNKS, max_size=8).map(b"".join)))
def test_unframe_matches_reference_on_arbitrary_bytes(data):
    assert unframe_stream(data) == _reference_unframe_stream(data)


@_SETTINGS
@given(st.lists(_MESSAGES, max_size=5), _EDITS)
@example([ReportMessage(1, 2, 3, 4, 5)] * 3, [("prefix", 0.5, 1)])
@example([ReportMessage(1, 2, 3, 4, 5)] * 2, [("drop", 0.0, 1), ("magic", 0.0, 1)])
def test_unframe_matches_reference_on_corrupted_streams(messages, edits):
    data = _corrupt(messages, edits)
    assert unframe_stream(data) == _reference_unframe_stream(data)


@_SETTINGS
@given(st.lists(_MESSAGES, max_size=5), _EDITS)
def test_unframe_returns_only_sent_messages(messages, edits):
    back, skipped = unframe_stream(_corrupt(messages, edits))
    assert all(msg in messages for msg in back)
    if not edits:
        assert (back, skipped) == (messages, 0)


@_SETTINGS
@given(
    st.one_of(
        st.binary(max_size=600),
        # Magic, version and a count below and above the cap, padded to the
        # exact length that count implies, so the CRC check is reached.
        st.tuples(st.binary(min_size=23, max_size=23), _u(0, 40), st.binary(max_size=40)).map(
            lambda t: _MAGIC_BYTES
            + bytes([wire.VERSION])
            + t[0]
            + bytes([t[1]])
            + (t[2] * 700)[: max(message_size(t[1]) - HEADER_SIZE, 0)]
        ),
    )
)
def test_decode_message_raises_only_wire_error(data):
    try:
        msg = decode_message(data)
    except WireError:
        return
    assert encode_message(msg) == data


# ---------------------------------------------------------------------------
# Entries checked by their wire struct against the field-by-field checks
# ---------------------------------------------------------------------------


# The field checks and the decode that entries had before they were checked
# by packing (`reference.py`) are what the struct-checked constructor and
# the one-call unpack must equal on every input.
ENTRY_SIZE = wire.ENTRY_SIZE
_ENTRY = wire._ENTRY


def _outcome(fn, *args):
    """What a call did: ("ok", result), or the exception class with the
    message of a ValueError."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc), None


_NP_INTS = st.sampled_from(
    ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64", "bool"]
).flatmap(lambda name: hnp.from_dtype(np.dtype(name)))


def _field(top):
    """A field value for a field whose range is 0..top."""
    return st.one_of(
        st.sampled_from([-1, 0, top, top + 1]),
        st.integers(),
        st.booleans(),
        _NP_INTS,
        st.floats(),
        st.sampled_from([float("nan"), -0.5, top + 0.5]),
    )


_BOXES = st.integers(3, 5).flatmap(lambda n: st.tuples(*[_field(0xFFFF)] * n)).flatmap(
    lambda box: st.sampled_from([box, list(box)])
)


@settings(max_examples=1000, deadline=None)
@given(_BOXES, _field(0xFFFFFFFF), _field(0xFF), _field(0xFF), _field(0xFF))
@example((0, 0, 1, 1), 0, 0, 0, 0)
@example((1.5, 0, 1, 1), 2**32, 0, 0, 0)
@example((70000, 0, 1), 0, 0, 0, 0)
@example((0, 0, 1, 1, 2), 0, 0, float("nan"), 0)
def test_entry_accepts_exactly_what_the_field_checks_accept(box, track_id, primary, secondary, conf_q):
    fields = (box, track_id, primary, secondary, conf_q)
    expected = _outcome(_reference_entry, *fields)
    got = _outcome(ReportEntry, *fields)
    if expected[0] == "ok":
        assert got[0] == "ok"
        entry = got[1]
        stored = (entry.box, entry.track_id, entry.primary_action, entry.secondary_action, entry.confidence_q)
        assert all(a is b for a, b in zip(stored, fields))
    else:
        assert got == expected


_BOUNDARY_ENTRIES = st.builds(
    ReportEntry,
    st.tuples(*[st.one_of(st.sampled_from([0, 0xFFFF]), _u(0, 0xFFFF))] * 4),
    st.one_of(st.sampled_from([0, 2**32 - 1]), _u(0, 2**32 - 1)),
    *[st.one_of(st.sampled_from([0, 255]), _u(0, 255))] * 3,
)
_BOUNDARY_MESSAGES = st.builds(
    ReportMessage,
    frame_id=st.sampled_from([0, 2**32 - 1]),
    timestamp_ms=st.sampled_from([0, 2**64 - 1]),
    drone_lat_e7=st.sampled_from([-(2**31), 2**31 - 1]),
    drone_lon_e7=st.sampled_from([-(2**31), 2**31 - 1]),
    drone_alt_dm=st.sampled_from([0, 0xFFFF]),
    entries=st.lists(_BOUNDARY_ENTRIES, max_size=MAX_ENTRIES).map(tuple),
    flags=st.sampled_from([0, 255]),
)


def _edit(data: bytes, kind: str, amount: int) -> bytes:
    """Cut `amount` bytes off the end, append `amount` zero bytes, or flip
    the byte at `amount` (modulo the length)."""
    if kind == "cut":
        return data[:-amount]
    if kind == "pad":
        return data + bytes(amount)
    out = bytearray(data)
    out[amount % len(out)] ^= 0x5A
    return bytes(out)


@_SETTINGS
@given(
    st.one_of(
        st.binary(max_size=600),
        _BOUNDARY_MESSAGES.map(encode_message),
        st.builds(
            _edit,
            _BOUNDARY_MESSAGES.map(encode_message),
            st.sampled_from(["cut", "pad", "flip"]),
            _u(1, 2 * ENTRY_SIZE),
        ),
    )
)
def test_decode_matches_reference_decode(data):
    assert _outcome(decode_message, data) == _outcome(_reference_decode_message, data)


def test_entry_keeps_its_dataclass_behaviour():
    entry = ReportEntry((1, 2, 3, 4), 5, 6, 7, 8)
    same = ReportEntry(box=(1, 2, 3, 4), track_id=5, primary_action=6, secondary_action=7, confidence_q=8)
    assert entry == same and hash(entry) == hash(same)
    assert entry != ReportEntry((1, 2, 3, 4), 5, 6, 7, 9)
    assert repr(entry) == (
        "ReportEntry(box=(1, 2, 3, 4), track_id=5, primary_action=6, secondary_action=7, confidence_q=8)"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.track_id = 9
    assert dataclasses.replace(entry, track_id=9) == ReportEntry((1, 2, 3, 4), 9, 6, 7, 8)
    with pytest.raises(ValueError, match="track id 4294967296 does not fit u32"):
        dataclasses.replace(entry, track_id=2**32)
    assert pickle.loads(pickle.dumps(entry)) == entry
    assert entry.confidence == 8 / 255.0


def test_decode_builds_entries_without_the_checked_constructor(monkeypatch):
    rng = np.random.default_rng(12)
    msgs = [_random_message(rng, count=count) for count in (0, 1, MAX_ENTRIES)]
    stream = frame_stream(msgs)
    calls = []
    checked_init = ReportEntry.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(ReportEntry, "__init__", spy)
    assert unframe_stream(stream) == (msgs, 0)
    assert [decode_message(encode_message(m)) for m in msgs] == msgs
    assert calls == []
    ReportEntry((1, 2, 3, 4), 5, 6, 7, 8)
    assert len(calls) == 1


def _edge_or_any(top):
    return st.one_of(st.sampled_from([0, top]), _u(0, top))


_ENTRY_FIELDS = st.tuples(
    st.tuples(*[_edge_or_any(0xFFFF)] * 4),
    _edge_or_any(2**32 - 1),
    *[_edge_or_any(0xFF)] * 3,
)


@_SETTINGS
@given(st.lists(_ENTRY_FIELDS, max_size=MAX_ENTRIES))
def test_decoded_entries_equal_checked_entries(rows):
    data = encode_message(ReportMessage(1, 2, 3, 4, 5, entries=tuple(ReportEntry(*f) for f in rows)))
    decoded = decode_message(data).entries
    assert len(decoded) == len(rows)
    for k, (entry, fields) in enumerate(zip(decoded, rows)):
        checked = ReportEntry(*fields)
        assert entry == checked and hash(entry) == hash(checked) and repr(entry) == repr(checked)
        assert pickle.loads(pickle.dumps(entry)) == checked
        assert type(entry.box) is tuple
        stored = (*entry.box, entry.track_id, entry.primary_action, entry.secondary_action, entry.confidence_q)
        assert all(type(value) is int for value in stored)
        offset = HEADER_SIZE + k * ENTRY_SIZE
        assert _ENTRY.pack(*stored) == data[offset : offset + ENTRY_SIZE]
