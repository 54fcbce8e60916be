"""Binary tensor files with the `AERO` tag.

Single-tensor layout (used for dense map files):

    magic   4 bytes  b"AERO"
    version u8       currently 1
    dtype   u8       0 = float32, 1 = float64
    rank    u8
    dims    rank x u32 little-endian
    payload row-major little-endian values

Named-container layout (used for model parameter files) keeps the same
per-tensor record encoding, preceded by a record count and a name per
record:

    magic   4 bytes  b"AERO"
    version u8
    count   u32 little-endian
    records count x (name_len u16, name utf-8, dtype u8, rank u8,
                     dims u32..., payload)
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"AERO"
VERSION = 1

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR_KIND = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class TensorFormatError(ValueError):
    """Raised on malformed or unsupported tensor files."""


def _write_record(fh: BinaryIO, array: np.ndarray) -> None:
    tag = _TAG_FOR_KIND.get(array.dtype)
    if tag is None:
        raise TensorFormatError(f"unsupported dtype {array.dtype}")
    fh.write(struct.pack("<BB", tag, array.ndim))
    fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
    fh.write(np.ascontiguousarray(array, dtype=_DTYPE_TAGS[tag]).tobytes())


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TensorFormatError(f"truncated tensor file: wanted {n} bytes, got {len(data)}")
    return data


def _read_record(fh: BinaryIO) -> np.ndarray:
    tag, rank = struct.unpack("<BB", _read_exact(fh, 2))
    if tag not in _DTYPE_TAGS:
        raise TensorFormatError(f"unknown dtype tag {tag}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    dtype = _DTYPE_TAGS[tag]
    size = math.prod(dims) * dtype.itemsize
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if size > left:
        raise TensorFormatError(f"truncated tensor file: dims {dims} need {size} bytes, {left} left")
    try:
        array = np.empty(dims, dtype=dtype)
    except ValueError:
        raise TensorFormatError(f"rank {rank} exceeds the dimensions numpy supports") from None
    got = fh.readinto(array)
    if got != size:
        raise TensorFormatError(f"truncated tensor file: wanted {size} bytes, got {got}")
    return array


def _check_header(fh: BinaryIO) -> None:
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}")
    (version,) = struct.unpack("<B", _read_exact(fh, 1))
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}")


def save_tensor(path: str, array: np.ndarray) -> None:
    """Write one tensor in the single-tensor layout."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        _write_record(fh, array)


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        _check_header(fh)
        array = _read_record(fh)
        if fh.read(1):
            raise TensorFormatError("trailing bytes after tensor payload")
        return array


def save_named_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write a named-container file; iteration order of `tensors` is kept."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BI", VERSION, len(tensors)))
        for name, array in tensors.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            _write_record(fh, array)


def load_named_tensors(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        _check_header(fh)
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            try:
                name = _read_exact(fh, name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TensorFormatError(f"record name is not utf-8: {exc}") from None
            if name in out:
                raise TensorFormatError(f"duplicate record name {name!r}")
            out[name] = _read_record(fh)
        if fh.read(1):
            raise TensorFormatError("trailing bytes after last record")
    return out
