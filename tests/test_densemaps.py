import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aeropipe import tensorio
from aeropipe.densemaps import (
    REG0_CHANNEL,
    REG1_CHANNEL,
    SEG_CHANNEL,
    DenseMaps,
    decode_pixel,
    encode,
    load_maps,
    save_maps,
    zero_maps,
)
from aeropipe.geometry import BBox


def _random_box(rng, grid=(64, 64), max_side=30):
    w = int(rng.integers(2, max_side))
    h = int(rng.integers(2, max_side))
    x0 = int(rng.integers(0, grid[0] - w))
    y0 = int(rng.integers(0, grid[1] - h))
    return BBox(x0, y0, x0 + w, y0 + h)


class TestEncode:
    def test_empty_scene_is_zero(self):
        maps = encode([], (16, 12))
        assert maps.seg.shape == (12, 16)
        assert not maps.seg.any()
        assert not maps.reg.any()

    def test_corner_values(self):
        maps = encode([BBox(0, 0, 10, 10)], (20, 20))
        assert decode_pixel(maps, (0, 0)) == (1.0, 1.0, 0.0)
        assert decode_pixel(maps, (10, 10)) == (1.0, 0.0, 1.0)

    def test_hand_computed_interior_pixel(self):
        # box (0,0,10,10): theta = pi/4, alpha = sqrt(200)
        # r0(2,7) = (8 + 3) * (sqrt(2)/2) / sqrt(200) = 0.55
        maps = encode([BBox(0, 0, 10, 10)], (20, 20))
        s, r0, r1 = decode_pixel(maps, (2, 7))
        assert s == 1.0
        assert r0 == pytest.approx(0.55, abs=1e-12)
        assert r1 == pytest.approx(0.45, abs=1e-12)

    def test_center_pixel_is_half(self):
        maps = encode([BBox(0, 0, 10, 10)], (20, 20))
        s, r0, r1 = decode_pixel(maps, (5, 5))
        assert (s, r0, r1) == (1.0, 0.5, 0.5)

    def test_segmentation_is_inclusive(self):
        maps = encode([BBox(2, 3, 5, 6)], (10, 10))
        expected = np.zeros((10, 10))
        expected[3:7, 2:6] = 1.0
        np.testing.assert_array_equal(maps.seg, expected)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            encode([BBox(0, 0, 10, 10)], (10, 10))
        with pytest.raises(ValueError, match="outside"):
            encode([BBox(-1, 0, 5, 5)], (10, 10))

    def test_validate_passes_on_clean_encoding(self):
        rng = np.random.default_rng(0)
        maps = encode([_random_box(rng) for _ in range(4)], (64, 64))
        assert maps.seg.shape == (64, 64) and maps.reg.shape == (2, 64, 64)
        assert np.all((maps.seg == 0) | (maps.seg == 1))
        assert maps.reg.min() >= 0.0 and maps.reg.max() <= 1.0
        assert not np.any(maps.reg[:, maps.seg == 0])


class TestRegressionIdentities:
    def test_sum_identity_exhaustive(self):
        """r0 + r1 = 1 on every in-box pixel, 100 random isolated boxes."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            box = _random_box(rng)
            maps = encode([box], (64, 64))
            inside = maps.seg > 0
            total = maps.reg[0][inside] + maps.reg[1][inside]
            assert np.abs(total - 1.0).max() < 1e-9

    def test_peaks_exactly_at_corners(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            box = _random_box(rng)
            maps = encode([box], (64, 64))
            assert maps.reg[0, box.y0, box.x0] == 1.0
            assert maps.reg[1, box.y1, box.x1] == 1.0
            # unique maximum: every other pixel is strictly below 1
            r0 = maps.reg[0].copy()
            r0[box.y0, box.x0] = 0.0
            assert r0.max() < 1.0
            r1 = maps.reg[1].copy()
            r1[box.y1, box.x1] = 0.0
            assert r1.max() < 1.0

    def test_monotone_along_diagonal(self):
        box = BBox(4, 6, 24, 36)
        maps = encode([box], (40, 48))
        steps = np.linspace(0.0, 1.0, 15)
        xs = np.round(box.x0 + steps * box.width).astype(int)
        ys = np.round(box.y0 + steps * box.height).astype(int)
        r0 = maps.reg[0, ys, xs]
        r1 = maps.reg[1, ys, xs]
        assert np.all(np.diff(r0) < 0)
        assert np.all(np.diff(r1) > 0)

    def test_mask_consistency(self):
        rng = np.random.default_rng(44)
        maps = encode([_random_box(rng) for _ in range(5)], (64, 64))
        outside = maps.seg == 0
        assert not maps.reg[0][outside].any()
        assert not maps.reg[1][outside].any()


class TestOverlapAssignment:
    def test_nearest_center_wins(self):
        a = BBox(0, 0, 10, 10)   # center (5, 5)
        b = BBox(6, 0, 16, 10)   # center (11, 5)
        maps = encode([a, b], (20, 20))
        # pixel (7,5) is closer to a's center; (9,5) closer to b's
        _, r0, _ = decode_pixel(maps, (7, 5))
        assert r0 == pytest.approx((a.x1 - 7) * 10 / 200 + (a.y1 - 5) * 10 / 200)
        _, r0_b, _ = decode_pixel(maps, (9, 5))
        assert r0_b == pytest.approx((b.x1 - 9) * 10 / 200 + (b.y1 - 5) * 10 / 200)

    def test_tie_prefers_smaller_box(self):
        big = BBox(0, 0, 12, 12)    # center (6, 6)
        small = BBox(8, 2, 16, 10)  # center (12, 6)
        # pixel (9, 6) is equidistant (3 px) from both centers
        maps = encode([big, small], (24, 24))
        _, r0, r1 = decode_pixel(maps, (9, 6))
        alpha_sq = small.width**2 + small.height**2
        expected = ((small.x1 - 9) * small.width + (small.y1 - 6) * small.height) / alpha_sq
        assert r0 == pytest.approx(expected, abs=1e-12)

    def test_assignment_order_invariance(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(6, 0, 16, 10)
        forward = encode([a, b], (20, 20))
        # swapping equal-area boxes changes only the tie pixels' input-order
        backward = encode([b, a], (20, 20))
        ties = np.abs(forward.reg - backward.reg) > 0
        np.testing.assert_array_equal(forward.seg, backward.seg)
        # differences may only occur where center distances tie
        ys, xs = np.nonzero(ties.any(axis=0))
        for x, y in zip(xs, ys):
            da = (x - 5) ** 2 + (y - 5) ** 2
            db = (x - 11) ** 2 + (y - 5) ** 2
            assert da == db


class TestDecodePixel:
    def test_outside_pixel(self):
        maps = encode([BBox(4, 4, 8, 8)], (16, 16))
        assert decode_pixel(maps, (0, 0)) == (0.0, 0.0, 0.0)

    def test_out_of_grid_rejected(self):
        maps = zero_maps((8, 8))
        with pytest.raises(ValueError):
            decode_pixel(maps, (8, 0))
        with pytest.raises(ValueError):
            decode_pixel(maps, (0, -1))


class TestMapsFile:
    def test_roundtrip_through_file(self, tmp_path):
        rng = np.random.default_rng(9)
        maps = encode([_random_box(rng, grid=(64, 48)) for _ in range(3)], (64, 48))
        path = str(tmp_path / "maps.aero")
        save_maps(path, maps)
        back = load_maps(path)
        assert (back.width, back.height) == (64, 48)
        np.testing.assert_array_equal(back.seg, maps.seg)
        # file narrows to float32; compare at that precision
        np.testing.assert_array_equal(
            back.reg.astype(np.float32), maps.reg.astype(np.float32)
        )

    def test_dims_are_3_w_h(self, tmp_path):
        from aeropipe import tensorio

        maps = zero_maps((10, 6))
        path = str(tmp_path / "maps.aero")
        save_maps(path, maps)
        assert tensorio.load_tensor(path).shape == (3, 10, 6)

    def test_rejects_wrong_rank(self, tmp_path):
        from aeropipe import tensorio

        path = str(tmp_path / "bad.aero")
        tensorio.save_tensor(path, np.zeros((2, 4, 4), dtype=np.float32))
        with pytest.raises(tensorio.TensorFormatError):
            load_maps(path)

    def test_size_follows_the_w_h_dims(self, tmp_path):
        path = str(tmp_path / "maps.aero")
        tensorio.save_tensor(path, np.zeros((3, 7, 4), dtype=np.float32))
        maps = load_maps(path)
        assert (maps.width, maps.height) == (7, 4)
        assert maps.seg.shape == (4, 7) and maps.reg.shape == (2, 4, 7)

    @pytest.mark.parametrize("dims", [(3, 0, 5), (3, 5, 0), (3, 0, 0)])
    def test_rejects_a_zero_grid_dimension(self, tmp_path, dims):
        path = str(tmp_path / "empty.aero")
        tensorio.save_tensor(path, np.zeros(dims, dtype=np.float32))
        with pytest.raises(tensorio.TensorFormatError, match=f"map grid {dims[1]}x{dims[2]} has a zero dimension"):
            load_maps(path)


def _load_tensor_reference(path: str) -> np.ndarray:
    """A well-formed single-tensor file decoded from its bytes in one piece."""
    raw = Path(path).read_bytes()
    tag, rank = raw[5], raw[6]
    dims = struct.unpack_from(f"<{rank}I", raw, 7)
    dtype = np.dtype("<f4") if tag == 0 else np.dtype("<f8")
    return np.frombuffer(raw, dtype=dtype, offset=7 + 4 * rank).reshape(dims).copy()


def _load_maps_reference(path: str) -> DenseMaps:
    """The loader that converted all three channels, then copied again."""
    tensor = _load_tensor_reference(path)
    if tensor.ndim != 3 or tensor.shape[0] != 3:
        raise tensorio.TensorFormatError(f"expected dims (3, W, H), got {tensor.shape}")
    grids = tensor.transpose(0, 2, 1).astype(np.float64)
    return DenseMaps(
        seg=np.ascontiguousarray(grids[SEG_CHANNEL]),
        reg=np.ascontiguousarray(grids[[REG0_CHANNEL, REG1_CHANNEL]]),
    )


@st.composite
def _map_tensors(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (3, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return draw(hnp.arrays(dtype, shape, elements=st.floats(width=np.dtype(dtype).itemsize * 8)))


@settings(max_examples=200, deadline=None)
@given(_map_tensors())
def test_load_maps_equals_reference_loader(tmp_path_factory, tensor):
    path = str(tmp_path_factory.getbasetemp() / "generated_maps.aero")
    tensorio.save_tensor(path, tensor)
    maps, reference = load_maps(path), _load_maps_reference(path)
    assert (maps.width, maps.height) == tensor.shape[1:]
    for got, want in ((maps.seg, reference.seg), (maps.reg, reference.reg)):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def _encode_two_pass(boxes, grid):
    """The two-pass `encode` (assign every pixel, then fill), kept verbatim
    as the reference for the one-pass version."""
    width, height = grid
    for b in boxes:
        if not b.within_grid(width, height):
            raise ValueError(f"box {b.as_tuple()} outside {width}x{height} grid")

    maps = zero_maps(grid)
    if not boxes:
        return maps

    # Assignment pass: nearest box center wins each contested pixel.
    owner = np.full((height, width), -1, dtype=np.int32)
    best_d2 = np.full((height, width), np.inf, dtype=np.float64)
    best_area = np.full((height, width), np.inf, dtype=np.float64)
    for k, b in enumerate(boxes):
        ys = np.arange(b.y0, b.y1 + 1, dtype=np.float64)
        xs = np.arange(b.x0, b.x1 + 1, dtype=np.float64)
        cx = (b.x0 + b.x1) / 2.0
        cy = (b.y0 + b.y1) / 2.0
        d2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
        win = (slice(b.y0, b.y1 + 1), slice(b.x0, b.x1 + 1))
        closer = d2 < best_d2[win]
        tie_smaller = (d2 == best_d2[win]) & (b.area < best_area[win])
        take = closer | tie_smaller
        owner[win][take] = k
        best_d2[win][take] = d2[take]
        best_area[win][take] = b.area

    # Fill pass: write each box's projections on the pixels it owns.
    # cos(theta) = W / alpha and sin(theta) = H / alpha, so each channel is
    # an integer numerator over the integer W^2 + H^2: corner peaks come
    # out exactly 1.0 and values never leave [0, 1].
    for k, b in enumerate(boxes):
        alpha_sq = float(b.width**2 + b.height**2)
        ys = np.arange(b.y0, b.y1 + 1, dtype=np.float64)
        xs = np.arange(b.x0, b.x1 + 1, dtype=np.float64)
        r0 = ((b.x1 - xs)[None, :] * b.width + (b.y1 - ys)[:, None] * b.height) / alpha_sq
        r1 = ((xs - b.x0)[None, :] * b.width + (ys - b.y0)[:, None] * b.height) / alpha_sq
        win = (slice(b.y0, b.y1 + 1), slice(b.x0, b.x1 + 1))
        mine = owner[win] == k
        maps.reg[0][win][mine] = r0[mine]
        maps.reg[1][win][mine] = r1[mine]

    maps.seg[owner >= 0] = 1.0
    return maps


@st.composite
def _box_scenes(draw):
    """0-12 boxes on a small grid, so most overlap. Sides come from a short
    range, so equal areas and equidistant centers are common; positions
    reach both grid edges."""
    width, height = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        w = draw(st.integers(2, min(width - 1, 8)))
        h = draw(st.integers(2, min(height - 1, 8)))
        x0 = draw(st.integers(0, width - 1 - w))
        y0 = draw(st.integers(0, height - 1 - h))
        boxes.append(BBox(x0, y0, x0 + w, y0 + h))
    return boxes, (width, height)


@settings(max_examples=400, deadline=None)
@given(_box_scenes())
# Equidistant pixels between a larger and a smaller box, in both orders.
@example(([BBox(0, 0, 12, 12), BBox(8, 2, 16, 10)], (24, 24)))
@example(([BBox(8, 2, 16, 10), BBox(0, 0, 12, 12)], (24, 24)))
# Equal areas with equidistant pixels: input order decides.
@example(([BBox(0, 0, 10, 10), BBox(6, 0, 16, 10)], (20, 20)))
# The same box three times, and boxes on all four grid edges.
@example(([BBox(2, 2, 6, 6)] * 3, (9, 9)))
@example(([BBox(0, 0, 5, 8), BBox(3, 0, 8, 8), BBox(0, 4, 8, 8)], (9, 9)))
def test_one_pass_encode_equals_two_pass(scene):
    boxes, grid = scene
    got, want = encode(boxes, grid), _encode_two_pass(boxes, grid)
    assert got.seg.tobytes() == want.seg.tobytes()
    assert got.reg.tobytes() == want.reg.tobytes()
