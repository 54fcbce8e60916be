"""Shared annotation text format.

One record per line, space-separated:

    frame_id x0 y0 x1 y1 track_id primary_action secondary_action

Track and action fields use -1 as the "unknown" sentinel. Prediction files
may append a ninth column with the detection confidence; ground-truth files
omit it and readers default it to 1.0.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, TextIO

from .geometry import BBox


@dataclass(frozen=True)
class AnnotationRecord:
    frame_id: int
    box: BBox
    track_id: int = -1
    primary_action: int = -1
    secondary_action: int = -1
    confidence: float = 1.0

    def to_line(self, with_confidence: bool = False) -> str:
        fields = [
            self.frame_id,
            self.box.x0,
            self.box.y0,
            self.box.x1,
            self.box.y1,
            self.track_id,
            self.primary_action,
            self.secondary_action,
        ]
        line = " ".join(str(v) for v in fields)
        if with_confidence:
            line += f" {self.confidence:.6f}"
        return line


def check_frame_id(frame_id: int, where: str) -> int:
    """`frame_id` if it is an integer that fits the report header's u32,
    else ValueError naming `where`."""
    if not isinstance(frame_id, numbers.Integral):
        raise ValueError(f"frame id {frame_id!r} is not an integer: {where}")
    if not 0 <= frame_id <= 0xFFFFFFFF:
        raise ValueError(f"frame id {frame_id} outside 0..{0xFFFFFFFF}: {where}")
    return frame_id


def parse_int(text: str, where: str) -> int:
    """`text` as an integer if it is ASCII `-?[0-9]+`, else ValueError naming
    `where` (`int()` also takes `_`, non-ASCII digits, `+` and spaces)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}: {where}")
    return int(text)


def parse_line(line: str) -> AnnotationRecord:
    parts = line.split()
    if len(parts) not in (8, 9):
        raise ValueError(f"expected 8 or 9 fields, got {len(parts)}: {line!r}")
    ints = [parse_int(p, repr(line)) for p in parts[:8]]
    conf = float(parts[8]) if len(parts) == 9 else 1.0
    if not math.isfinite(conf):
        raise ValueError(f"non-finite confidence: {line!r}")
    return AnnotationRecord(
        frame_id=check_frame_id(ints[0], repr(line)),
        box=BBox(ints[1], ints[2], ints[3], ints[4]),
        track_id=ints[5],
        primary_action=ints[6],
        secondary_action=ints[7],
        confidence=conf,
    )


def read_annotations(path: str) -> list[AnnotationRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            records.append(parse_line(line))
    return records


def write_annotations(
    path: str, records: Iterable[AnnotationRecord], with_confidence: bool = False
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        append_annotations(fh, records, with_confidence)


def append_annotations(fh: TextIO, records: Iterable[AnnotationRecord], with_confidence: bool = False) -> None:
    """Write the records' lines to an open file and flush them."""
    fh.writelines(rec.to_line(with_confidence) + "\n" for rec in records)
    fh.flush()


def group_by_frame(records: Iterable[AnnotationRecord]) -> dict[int, list[AnnotationRecord]]:
    frames: dict[int, list[AnnotationRecord]] = {}
    for rec in records:
        frames.setdefault(rec.frame_id, []).append(rec)
    return frames
