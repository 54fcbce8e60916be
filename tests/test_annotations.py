import math
import re

import pytest

from aeropipe.annotations import (
    AnnotationRecord,
    group_by_frame,
    parse_float,
    parse_line,
    read_annotations,
    write_annotations,
)
from aeropipe.geometry import BBox


def test_line_roundtrip():
    rec = AnnotationRecord(3, BBox(4, 5, 20, 30), track_id=7, primary_action=1, secondary_action=2)
    assert rec.to_line() == "3 4 5 20 30 7 1 2"
    assert parse_line(rec.to_line()) == rec


def test_confidence_column_optional():
    rec = parse_line("0 1 1 9 9 -1 -1 -1")
    assert rec.confidence == 1.0
    rec9 = parse_line("0 1 1 9 9 -1 -1 -1 0.25")
    assert rec9.confidence == 0.25
    assert rec9.to_line(with_confidence=True).endswith(" 0.250000")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="8 or 9 fields"):
        parse_line("1 2 3")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_confidence_rejected(value):
    with pytest.raises(ValueError, match="non-finite confidence"):
        parse_line(f"0 1 1 9 9 -1 -1 -1 {value}")


@pytest.mark.parametrize("frame_id", [-1, -7, 2**32, 2**70])
def test_frame_id_outside_u32_rejected(frame_id):
    line = f"{frame_id} 1 1 9 9 -1 -1 -1"
    with pytest.raises(ValueError, match=f"frame id {frame_id} outside 0..4294967295: '{line}'"):
        parse_line(line)


@pytest.mark.parametrize(
    "line", ["1_0 8 6 30 28 -1 -1 -1", "1 8 6 30 2_8 -1 -1 -1", "\u0663 8 6 30 28 -1 -1 -1", "+1 8 6 30 28 -1 -1 -1"]
)
def test_integers_outside_ascii_digits_rejected(line):
    """`int()` takes `_` separators, non-ASCII digits and a `+` sign; a
    record's integers are ASCII `-?[0-9]+` only."""
    with pytest.raises(ValueError, match=f"expected an integer in ASCII digits, got .*: {re.escape(repr(line))}"):
        parse_line(line)


@pytest.mark.parametrize("value", ["0_5", "\u0660.5", "\uff10.5", "x"])
def test_confidence_outside_ascii_rejected(value):
    """`float()` once read a confidence of "0_5" as 5.0."""
    line = f"0 1 1 9 9 -1 -1 -1 {value}"
    with pytest.raises(ValueError, match=re.escape(f"expected a number in ASCII characters, got {value!r}: {line!r}")):
        parse_line(line)


@pytest.mark.parametrize("text, value", [("0.5", 0.5), ("-1e3", -1000.0), (" 2 ", 2.0), ("1E-2", 0.01)])
def test_parse_float_takes_ascii_numbers(text, value):
    assert parse_float(text, "here") == value


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_parse_float_passes_non_finite_values_to_the_range_checks(text):
    assert not math.isfinite(parse_float(text, "here"))


def test_frame_id_u32_bounds_accepted():
    assert parse_line("0 1 1 9 9 -1 -1 -1").frame_id == 0
    assert parse_line(f"{2**32 - 1} 1 1 9 9 -1 -1 -1").frame_id == 2**32 - 1


def test_file_roundtrip_with_comments(tmp_path):
    path = str(tmp_path / "ann.txt")
    records = [
        AnnotationRecord(0, BBox(0, 0, 10, 10), 0, 1, 2, confidence=0.5),
        AnnotationRecord(1, BBox(5, 5, 25, 15), 1, 0, 0, confidence=0.75),
    ]
    write_annotations(path, records, with_confidence=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# trailing comment\n\n")
    back = read_annotations(path)
    assert back == records


def test_group_by_frame_preserves_order():
    records = [
        AnnotationRecord(1, BBox(0, 0, 4, 4)),
        AnnotationRecord(0, BBox(0, 0, 4, 4)),
        AnnotationRecord(1, BBox(8, 8, 12, 12)),
    ]
    frames = group_by_frame(records)
    assert list(frames) == [1, 0]
    assert len(frames[1]) == 2
