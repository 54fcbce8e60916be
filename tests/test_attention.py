import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from aeropipe import attention
from aeropipe.attention import (
    CROP_SHAPE,
    CROP_SIDE,
    LOCAL_WINDOW,
    STUB_SCALES,
    AttentionConfig,
    attention_map,
    crop_and_resize,
    expanded_window,
)
from aeropipe.geometry import BBox, center
from aeropipe import pipeline
from aeropipe.pipeline import _downsample, _sweep_rows, feature_stub
from reference import (
    _crop_and_resize_reference,
    _dense,
    _feature_stub_reference,
    _grid,
    _reshape_mean_reference,
    _stacked_stub_reference,
    _two_temporary_crop_reference,
)


def _scalar_attention(box, cfg, ix, iy):
    """Independent per-pixel evaluation of the crop weighting."""
    if box.x0 <= ix <= box.x1 and box.y0 <= iy <= box.y1:
        return 1.0
    cx, cy = center(box)
    q = ((ix - cx) / (cfg.sigma_scale * box.width)) ** 2 + (
        (iy - cy) / (cfg.sigma_scale * box.height)
    ) ** 2
    return math.exp(-0.5 * q)


class TestExpandedWindow:
    def test_ceiling_formula(self):
        assert expanded_window(BBox(0, 0, 10, 10), AttentionConfig(expand_ratio=1.5)).size == 15
        assert expanded_window(BBox(0, 0, 10, 6), AttentionConfig(expand_ratio=1.0)).size == 10
        assert expanded_window(BBox(0, 0, 7, 3), AttentionConfig(expand_ratio=1.5)).size == 11

    def test_window_is_centered(self):
        win = expanded_window(BBox(0, 0, 10, 10), AttentionConfig(expand_ratio=1.5))
        # center (5,5), M = 15: window spans -2..12 on both axes
        assert (win.x0, win.y0) == (-2, -2)
        assert (win.x1, win.y1) == (12, 12)

    def test_may_extend_past_frame(self):
        win = expanded_window(BBox(0, 0, 4, 4), AttentionConfig(expand_ratio=2.0))
        assert win.x0 < 0 and win.y0 < 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttentionConfig(expand_ratio=0.9)
        with pytest.raises(ValueError):
            AttentionConfig(sigma_scale=0.0)


class TestAttentionMap:
    def test_interior_is_exactly_one(self):
        box = BBox(4, 4, 12, 10)
        attn = attention_map(box, AttentionConfig())
        win = attn.window
        for wy in range(win.size):
            for wx in range(win.size):
                if box.contains(win.x0 + wx, win.y0 + wy):
                    assert attn.values[wy, wx] == 1.0

    def test_hand_computed_off_box_value(self):
        # sigma_scale * width = 2 for a 2-px-wide box with sigma_scale 1:
        # offset (2, 0) from center gives exp(-1/2 * 4/4) = exp(-0.5)
        cfg = AttentionConfig(expand_ratio=2.5, sigma_scale=1.0)
        box = BBox(0, 0, 2, 2)
        attn = attention_map(box, cfg)
        win = attn.window
        value = attn.values[1 - win.y0, 3 - win.x0]  # pixel (3, 1): offset (2, 0)
        assert value == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert value == pytest.approx(0.60653, abs=1e-5)

    def test_symmetry_about_center(self):
        cfg = AttentionConfig(expand_ratio=3.0)
        box = BBox(10, 10, 14, 14)  # center (12, 12)
        attn = attention_map(box, cfg)
        win = attn.window
        for d in (3, 4, 5):
            left = attn.values[12 - win.y0, 12 - d - win.x0]
            right = attn.values[12 - win.y0, 12 + d - win.x0]
            assert left == right

    def test_matches_scalar_reference_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w, h = rng.integers(2, 30, size=2)
            box = BBox(5, 7, 5 + int(w), 7 + int(h))
            cfg = AttentionConfig(expand_ratio=float(rng.uniform(1.0, 2.0)))
            attn = attention_map(box, cfg)
            win = attn.window
            for _ in range(20):
                wy = int(rng.integers(0, win.size))
                wx = int(rng.integers(0, win.size))
                expected = _scalar_attention(box, cfg, win.x0 + wx, win.y0 + wy)
                assert abs(attn.values[wy, wx] - expected) < 1e-12

    def test_radial_monotonicity_on_axis_rays(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w, h = rng.integers(2, 24, size=2)
            box = BBox(30, 30, 30 + int(w), 30 + int(h))
            attn = attention_map(box, AttentionConfig(expand_ratio=2.0))
            values = attn.values
            cy = int(round((box.y0 + box.y1) / 2)) - attn.window.y0
            cx = int(round((box.x0 + box.x1) / 2)) - attn.window.x0
            row = values[cy, :]
            assert np.all(np.diff(row[cx:]) <= 1e-15)
            assert np.all(np.diff(row[: cx + 1]) >= -1e-15)
            col = values[:, cx]
            assert np.all(np.diff(col[cy:]) <= 1e-15)
            assert np.all(np.diff(col[: cy + 1]) >= -1e-15)

    def test_values_in_unit_interval(self):
        attn = attention_map(BBox(0, 0, 20, 4), AttentionConfig(expand_ratio=2.0))
        assert attn.values.min() > 0.0
        assert attn.values.max() == 1.0

    def test_box_window_placement(self):
        box = BBox(8, 8, 12, 12)
        attn = attention_map(box, AttentionConfig(expand_ratio=1.5))
        bx0, by0, bx1, by1 = attn.box_window
        assert (bx1 - bx0, by1 - by0) == (box.width, box.height)
        assert attn.values[by0, bx0] == 1.0


class TestCropAndResize:
    def test_constant_grid_stays_constant(self):
        features = np.ones((3, 40, 40))
        crop = crop_and_resize(_grid(features), BBox(10, 10, 20, 18), AttentionConfig())
        assert crop.tensor.shape == (4, 16, 16)
        np.testing.assert_allclose(crop.tensor[:3], 1.0, atol=1e-12)

    def test_identity_resize(self):
        rng = np.random.default_rng(5)
        features = rng.random((2, 40, 40))
        box = BBox(10, 10, 26, 26)  # 16x16 box, ratio 1 -> M = 16 = CROP_SIDE
        cfg = AttentionConfig(expand_ratio=1.0)
        crop = crop_and_resize(_grid(features), box, cfg)
        win_y = slice(11, 27)  # window origin from round-half-up centering
        win_x = slice(11, 27)
        np.testing.assert_array_equal(crop.tensor[0], features[0][win_y, win_x])

    def test_zero_fill_matches_padded_reference(self):
        rng = np.random.default_rng(6)
        features = rng.random((2, 20, 20))
        box = BBox(0, 0, 6, 6)  # expanded window sticks out of the frame
        cfg = AttentionConfig(expand_ratio=2.0)
        crop = crop_and_resize(_grid(features), box, cfg)

        pad = 32
        padded = np.zeros((2, 20 + 2 * pad, 20 + 2 * pad))
        padded[:, pad : pad + 20, pad : pad + 20] = features
        shifted = BBox(box.x0 + pad, box.y0 + pad, box.x1 + pad, box.y1 + pad)
        reference = crop_and_resize(_grid(padded), shifted, cfg)
        np.testing.assert_allclose(crop.tensor, reference.tensor, atol=1e-12)

    def test_bilinear_matches_scalar_reference(self):
        """Windows below and above the crop side, M = 10 and M = 23."""
        rng = np.random.default_rng(7)
        features = rng.random((1, 40, 40))
        cfg = AttentionConfig(expand_ratio=1.0)
        n = CROP_SIDE
        for m in (10, 23):
            box = BBox(8, 8, 8 + m, 8 + m)  # ratio 1 -> M = m
            crop = crop_and_resize(_grid(features), box, cfg)
            w0 = expanded_window(box, cfg).x0
            win = features[0][w0 : w0 + m, w0 : w0 + m]
            for oy in range(n):
                for ox in range(n):
                    sy = min(max((oy + 0.5) * m / n - 0.5, 0.0), m - 1.0)
                    sx = min(max((ox + 0.5) * m / n - 0.5, 0.0), m - 1.0)
                    y0, x0 = int(sy), int(sx)
                    y1, x1 = min(y0 + 1, m - 1), min(x0 + 1, m - 1)
                    fy, fx = sy - y0, sx - x0
                    expected = (
                        win[y0, x0] * (1 - fy) * (1 - fx)
                        + win[y1, x0] * fy * (1 - fx)
                        + win[y0, x1] * (1 - fy) * fx
                        + win[y1, x1] * fy * fx
                    )
                    assert abs(crop.tensor[0, oy, ox] - expected) < 1e-12

    def test_attention_is_last_channel(self):
        features = np.zeros((3, 40, 40))
        box = BBox(10, 10, 26, 26)  # width 16 -> M = 16 = CROP_SIDE
        cfg = AttentionConfig(expand_ratio=1.0)
        crop = crop_and_resize(_grid(features), box, cfg)
        attn = attention_map(box, cfg)
        np.testing.assert_allclose(crop.tensor[3], attn.values, atol=1e-12)

    def test_output_always_square_fixed_size(self):
        features = np.zeros((1, 60, 60))
        for box in (BBox(5, 5, 45, 12), BBox(5, 5, 12, 45), BBox(20, 20, 24, 24)):
            crop = crop_and_resize(_grid(features), box, AttentionConfig())
            assert crop.tensor.shape == (2, CROP_SIDE, CROP_SIDE)


# ---------------------------------------------------------------------------
# The stub and crops against the dense-tensor path (`reference.py`): the
# stub upsampled every scale to a (D, H, W) tensor; crops copied the whole
# expanded window and resized it.
# ---------------------------------------------------------------------------


# Frames from 1x1 up, with sides below the largest scale, in C order, in
# Fortran order or as a strided view, with continuous values or plateaus
# (where the local variance rounds below zero).
_FRAMES = st.tuples(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["C", "F", "strided"]),
    st.booleans(),
)


def _frame(h: int, w: int, seed: int, layout: str, plateaus: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, size=(h, w)) * 0.1 if plateaus else rng.random((h, w))
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        return np.asfortranarray(np.repeat(values, 2, axis=0))[::2]
    return values


@st.composite
def _crops(draw):
    """A box anywhere from wholly inside to wholly outside a frame of up to
    40 px, and an attention config; a quarter of them have a window side M
    equal to CROP_SIDE, the rest windows below or above it."""
    if draw(st.integers(0, 3)) == 0:
        w, h = CROP_SIDE, draw(st.integers(2, CROP_SIDE))
        w, h = (w, h) if draw(st.booleans()) else (h, w)
        cfg = AttentionConfig(expand_ratio=1.0)
    else:
        w, h = draw(st.integers(2, 40)), draw(st.integers(2, 40))
        cfg = AttentionConfig(expand_ratio=draw(st.floats(1.0, 2.5)), sigma_scale=draw(st.floats(0.1, 2.0)))
    x0, y0 = draw(st.integers(-50, 45)), draw(st.integers(-50, 45))
    return BBox(x0, y0, x0 + w, y0 + h), cfg


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(_FRAMES)
    def test_dense_stub_is_the_reference_stub(self, frame_spec):
        frame = _frame(*frame_spec)
        grid = feature_stub(frame)
        reference = _feature_stub_reference(frame)
        assert grid.depth == len(reference) == CROP_SHAPE[0] - 1
        assert np.array_equal(_dense(grid), reference)

    @settings(max_examples=300, deadline=None)
    @given(_FRAMES, st.lists(_crops(), min_size=1, max_size=3))
    def test_crops_equal_the_reference_crops(self, frame_spec, crops):
        frame = _frame(*frame_spec)
        grid = feature_stub(frame)
        dense = _feature_stub_reference(frame)
        for box, attention in crops:
            reference = _crop_and_resize_reference(dense, box, attention).tensor
            assert reference.shape == CROP_SHAPE
            assert np.array_equal(crop_and_resize(grid, box, attention).tensor, reference)
            assert np.array_equal(crop_and_resize(_grid(dense), box, attention).tensor, reference)


def test_crops_equal_the_reference_crops_at_every_offset():
    """Windows slid one pixel at a time across the frame and past each edge."""
    frame = np.random.default_rng(8).random((21, 26))
    grid, dense = feature_stub(frame), _feature_stub_reference(frame)
    # Windows of M = 14, 16 and 18, below, at and above CROP_SIDE.
    for attention in (AttentionConfig(), AttentionConfig(expand_ratio=16 / 9), AttentionConfig(expand_ratio=2.0)):
        for y0 in range(-14, 30):
            for x0 in range(-14, 35):
                box = BBox(x0, y0, x0 + 9, y0 + 6)
                reference = _crop_and_resize_reference(dense, box, attention).tensor
                assert np.array_equal(crop_and_resize(grid, box, attention).tensor, reference)


# ---------------------------------------------------------------------------
# The strided block sum against the reshape-mean `_downsample` it replaced
# (`reference.py`): byte for byte, signed zeros included, not only under
# `np.array_equal`.
# ---------------------------------------------------------------------------


@st.composite
def _block_frames(draw):
    """A frame of 1x1 to 60x60 px in C order, Fortran order or as a strided
    view of either, and a scale of 1-12 (pairwise summation starts at 8).
    Widths sit near the one-column fallback as often as anywhere. Values are
    signed with magnitudes 1e-5 to 1e5, or plateaus, and some blocks hold
    only -0.0 (the reshape-mean gives +0.0 for them)."""
    factor = draw(st.integers(1, 12))
    h = draw(st.integers(1, 60))
    w = draw(st.one_of(st.integers(max(1, factor - 1), factor + 1), st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.uniform(-1.0, 1.0, (h, w)) * 10.0 ** rng.uniform(-5.0, 5.0, (h, w))
    else:
        values = rng.integers(-3, 4, size=(h, w)) * 0.1
    if draw(st.booleans()):
        coarse = rng.random((-(-h // factor), -(-w // factor))) < 0.5
        blocks = np.repeat(np.repeat(coarse, factor, axis=0), factor, axis=1)[:h, :w]
        values[blocks] = -0.0
    layout = draw(st.sampled_from(["C", "F", "C-strided", "F-strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "C-strided":
        values = np.repeat(values, 2, axis=1)[:, ::2]
    elif layout == "F-strided":
        values = np.asfortranarray(np.repeat(values, 2, axis=0))[::2]
    return values, factor


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=1000, deadline=None)
@given(_block_frames())
def test_block_mean_is_the_reshape_mean_byte_for_byte(case):
    frame, factor = case
    _assert_same_bytes(_downsample(frame, factor), _reshape_mean_reference(frame, factor))


def test_block_mean_on_a_full_frame_is_the_reshape_mean():
    frame = np.random.default_rng(9).random((360, 640))
    for factor in range(1, 13):
        _assert_same_bytes(_downsample(frame, factor), _reshape_mean_reference(frame, factor))


@settings(max_examples=200, deadline=None)
@given(_block_frames())
def test_stub_levels_are_the_two_call_levels_byte_for_byte(case):
    """Each level equals the block mean filtered and squared-then-filtered
    by two separate 2-D calls, as the stub did before one stacked call."""
    frame, _ = case
    grid = feature_stub(frame)
    assert [scale for scale, _ in grid.levels] == list(STUB_SCALES)
    for scale, level in grid.levels:
        down = _reshape_mean_reference(np.asarray(frame, dtype=np.float64), scale)
        mean = ndimage.uniform_filter(down, size=LOCAL_WINDOW, mode="nearest")
        var = ndimage.uniform_filter(down * down, size=LOCAL_WINDOW, mode="nearest")
        var -= mean * mean
        np.clip(var, 0.0, None, out=var)
        _assert_same_bytes(level, np.stack([down, mean, var]))


# ---------------------------------------------------------------------------
# The row sweep against the stub before levels took their vertical pass
# from `_sweep_rows`, one stacked scipy call per level (`reference.py`):
# byte for byte, signed zeros included.
# ---------------------------------------------------------------------------


def _signed_values(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Signed values with magnitudes 1e-5 to 1e5, some runs of -0.0."""
    values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    values[..., rng.random(shape[-1]) < 0.2] = -0.0
    return values


@st.composite
def _wide_frames(draw):
    """A frame 1-12 px high and 1-1024 px wide in C order, Fortran order or
    as a strided view."""
    w = draw(st.integers(1, 1024))
    h = draw(st.integers(1, 12))
    values = _signed_values(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (h, w))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        values = np.repeat(values, 2, axis=1)[:, ::2]
    return values


@settings(max_examples=200, deadline=None)
@given(_wide_frames())
def test_stub_is_the_stacked_call_stub_byte_for_byte(frame):
    grid, reference = feature_stub(frame), _stacked_stub_reference(frame)
    assert grid.shape == reference.shape
    for (scale, level), (ref_scale, ref_level) in zip(grid.levels, reference.levels, strict=True):
        assert scale == ref_scale
        _assert_same_bytes(level, ref_level)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 40), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_row_sweep_is_scipys_vertical_pass(channels, h, w, window, seed):
    """Heights below the window clamp both ends of one window. A scipy whose
    running sum adds in another order fails here."""
    stack = _signed_values(np.random.default_rng(seed), (channels, h, w))
    expected = ndimage.uniform_filter1d(stack, window, axis=1, mode="nearest")
    _sweep_rows(stack, window)
    _assert_same_bytes(stack, expected)


def test_row_sweep_on_non_finite_values_warns_nothing():
    stack = np.random.default_rng(10).random((2, 9, 7))
    stack[0, 2, 1] = np.nan
    stack[0, 4, 3], stack[1, 6, 3] = np.inf, -np.inf
    stack[1, 1:5, 5] = 1.7e308
    stack[1, 3, 6] = -1.7e308
    for window in (2, 3, 4):
        expected = ndimage.uniform_filter1d(stack, window, axis=1, mode="nearest")
        swept = stack.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sweep_rows(swept, window)
        _assert_same_bytes(swept, expected)


def test_every_level_is_swept(monkeypatch):
    calls = []

    def counted(stack, size):
        calls.append((stack.shape, size))
        _sweep_rows(stack, size)

    monkeypatch.setattr(pipeline, "_sweep_rows", counted)
    frame = np.random.default_rng(11).random((360, 640))
    feature_stub(frame)
    # The levels are swept on two threads, so only the multiset is fixed.
    assert Counter(calls) == Counter([((2, 360, 640), 3), ((2, 180, 320), 3), ((2, 90, 160), 3)])


# ---------------------------------------------------------------------------
# The crops against `crop_and_resize` before it took its taps from
# `_resize_taps`, its gather index became one `np.add.outer` and each resize
# pass one product plus an in-place add (`reference.py`): byte for byte,
# signed zeros included, not only under `np.array_equal`.
# ---------------------------------------------------------------------------


@st.composite
def _resize_crops(draw):
    """A signed-value frame of 1x1 to 40x40 px with -0.0 runs and a box
    whose window side M is below, equal to or above CROP_SIDE, placed
    anywhere from inside the frame to past any edge."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    frame = _signed_values(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (h, w))
    n = CROP_SIDE
    relation = draw(st.sampled_from(["below", "equal", "above"]))
    if relation == "below":
        side = draw(st.integers(2, n - 1))
    elif relation == "equal":
        side = n
    else:
        side = draw(st.integers(n + 1, n + 40))
    other = draw(st.integers(2, side))
    bw, bh = (side, other) if draw(st.booleans()) else (other, side)
    x0 = draw(st.integers(-bw - 10, w + 10))
    y0 = draw(st.integers(-bh - 10, h + 10))
    # expand_ratio 1 makes M = max(width, height) = side, so M keeps the
    # drawn relation; 1.5 adds wider windows.
    ratio = draw(st.sampled_from([1.0, 1.0, 1.5])) if relation != "equal" else 1.0
    cfg = AttentionConfig(expand_ratio=ratio, sigma_scale=draw(st.floats(0.1, 2.0)))
    return frame, BBox(x0, y0, x0 + bw, y0 + bh), cfg


@settings(max_examples=400, deadline=None)
@given(_resize_crops())
def test_crops_are_the_two_temporary_crops_byte_for_byte(case):
    frame, box, cfg = case
    grid = feature_stub(frame)
    _assert_same_bytes(
        crop_and_resize(grid, box, cfg).tensor, _two_temporary_crop_reference(grid, box, cfg).tensor
    )


def test_resize_taps_are_read_only_and_bounded():
    plan = attention._resize_taps
    maxsize = plan.cache_info().maxsize
    assert maxsize == 1024
    for m in range(2, maxsize + 100):
        if m == 16:
            continue
        taps, low, high = plan(m, 16)
        assert taps.shape == (32,) and low.shape == high.shape == (16,)
        for array in (taps, low, high):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            low[0] = 0.0
    assert plan.cache_info().currsize <= maxsize
