import io
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeropipe import tensorio


def test_single_tensor_roundtrip(tmp_path):
    path = str(tmp_path / "t.aero")
    array = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    tensorio.save_tensor(path, array)
    back = tensorio.load_tensor(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, array)


def test_float64_tag(tmp_path):
    path = str(tmp_path / "t.aero")
    array = np.linspace(0, 1, 7)
    tensorio.save_tensor(path, array)
    back = tensorio.load_tensor(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, array)


def test_named_container_roundtrip(tmp_path):
    path = str(tmp_path / "params.aero")
    tensors = {
        "w": np.random.default_rng(0).random((8, 4)),
        "b": np.zeros(4, dtype=np.float32),
        "scalarish": np.array([3.5]),
    }
    tensorio.save_named_tensors(path, tensors)
    back = tensorio.load_named_tensors(path)
    assert list(back) == list(tensors)  # order kept
    for key in tensors:
        np.testing.assert_array_equal(back[key], tensors[key])


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.aero")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + bytes(16))
    with pytest.raises(tensorio.TensorFormatError, match="magic"):
        tensorio.load_tensor(path)


@pytest.mark.parametrize("named", [False, True])
@pytest.mark.parametrize(
    "data", [b"junk", b"AERO\x01", tensorio.MAGIC + bytes([tensorio.VERSION, 5, 1])], ids=["magic", "version", "short-body"]
)
def test_format_error_names_the_file(tmp_path, named, data):
    path = _write(tmp_path / "bad.aero", data)
    load = tensorio.load_named_tensors if named else tensorio.load_tensor
    with pytest.raises(tensorio.TensorFormatError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")


def test_truncated_payload(tmp_path):
    path = str(tmp_path / "t.aero")
    tensorio.save_tensor(path, np.ones((4, 4), dtype=np.float32))
    data = Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(data[:-8])
    with pytest.raises(tensorio.TensorFormatError, match="truncated"):
        tensorio.load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "t.aero")
    tensorio.save_tensor(path, np.ones(3, dtype=np.float32))
    with open(path, "ab") as fh:
        fh.write(b"x")
    with pytest.raises(tensorio.TensorFormatError, match="trailing"):
        tensorio.load_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(tensorio.TensorFormatError, match="dtype"):
        tensorio.save_tensor(str(tmp_path / "t.aero"), np.ones(3, dtype=np.int32))


def test_dense_maps_file_layout(tmp_path):
    """The normative header: magic, version, f32 tag, rank, u32 dims."""
    path = str(tmp_path / "t.aero")
    tensorio.save_tensor(path, np.zeros((3, 5, 2), dtype=np.float32))
    raw = Path(path).read_bytes()
    assert raw[:4] == b"AERO"
    assert raw[4] == 2  # version
    assert raw[5] == 0  # dtype tag f32
    assert raw[6] == 3  # rank
    dims = np.frombuffer(raw[7:19], dtype="<u4")
    assert tuple(dims) == (3, 5, 2)
    assert len(raw) == 19 + 3 * 5 * 2 * 4


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return str(path)


def test_dims_product_past_int64_is_format_error(tmp_path):
    # 65536**4 == 2**64: an int64 product wraps to 0 elements.
    data = tensorio.MAGIC + bytes([tensorio.VERSION, 0, 4]) + struct.pack("<4I", *[65536] * 4)
    assert len(data) == 23
    with pytest.raises(tensorio.TensorFormatError, match="truncated"):
        tensorio.load_tensor(_write(tmp_path / "huge.aero", data))


@pytest.mark.parametrize("named", [False, True])
def test_rank_numpy_cannot_build_is_format_error(tmp_path, named):
    # 65 dims of 1 and one float32: more dims than an ndarray holds.
    record = bytes([0, 65]) + struct.pack("<65I", *[1] * 65) + bytes(4)
    if named:
        data = tensorio.MAGIC + struct.pack("<BIH", tensorio.VERSION, 1, 1) + b"w" + record
        load = tensorio.load_named_tensors
    else:
        data = tensorio.MAGIC + bytes([tensorio.VERSION]) + record
        load = tensorio.load_tensor
    with pytest.raises(tensorio.TensorFormatError, match="rank 65"):
        load(_write(tmp_path / "deep.aero", data))


class _ReadGuard(io.BytesIO):
    """Fails any read asking for more bytes than are left."""

    def read(self, n=-1):
        assert n <= len(self.getbuffer()) - self.tell(), f"read of {n} bytes requested"
        return super().read(n)


def test_declared_size_checked_before_reading():
    record = bytes([1, 2]) + struct.pack("<2I", 2**31, 2**31) + bytes(16)
    with pytest.raises(tensorio.TensorFormatError, match="truncated"):
        tensorio._read_record(_ReadGuard(record))


def test_repeated_record_name_is_format_error(tmp_path):
    def record(value):  # name "a", float64, one dim of 1
        return struct.pack("<H", 1) + b"a" + bytes([1, 1]) + struct.pack("<Id", 1, value)

    data = tensorio.MAGIC + struct.pack("<BI", tensorio.VERSION, 2) + record(2.0) + record(3.0)
    with pytest.raises(tensorio.TensorFormatError, match="duplicate record name 'a'"):
        tensorio.load_named_tensors(_write(tmp_path / "params.aero", data))


def test_non_utf8_record_name_is_format_error(tmp_path):
    path = str(tmp_path / "params.aero")
    tensorio.save_named_tensors(path, {"w": np.ones(2)})
    data = bytearray(Path(path).read_bytes())
    data[11] = 0xFF  # the one-byte name "w"
    with pytest.raises(tensorio.TensorFormatError, match="utf-8"):
        tensorio.load_named_tensors(_write(path, bytes(data)))


# Arbitrary bytes, and bytes behind a valid header so that the record
# parsing (dtype tag, rank, dims, names) is reached too.
_HEADER = tensorio.MAGIC + bytes([tensorio.VERSION])
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: _HEADER + b),
    st.tuples(st.integers(0, 2), st.integers(0, 5), st.binary(max_size=64)).map(
        lambda t: _HEADER + bytes(t[:2]) + t[2]
    ),
    st.tuples(st.integers(0, 3), st.binary(max_size=8), st.binary(max_size=64)).map(
        lambda t: _HEADER + struct.pack("<IH", t[0], len(t[1])) + t[1] + t[2]
    ),
)


@settings(max_examples=300, deadline=None)
@given(_FILE_BYTES)
def test_load_tensor_raises_only_format_error(tmp_path_factory, data):
    path = _write(tmp_path_factory.getbasetemp() / "arbitrary_tensor.aero", data)
    try:
        tensorio.load_tensor(path)
    except tensorio.TensorFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(_FILE_BYTES)
def test_load_named_tensors_raises_only_format_error(tmp_path_factory, data):
    path = _write(tmp_path_factory.getbasetemp() / "arbitrary_named.aero", data)
    try:
        tensorio.load_named_tensors(path)
    except tensorio.TensorFormatError:
        pass
