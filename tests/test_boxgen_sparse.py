"""The support-only decode against the full-grid decode it replaced.

The `_full_grid_*` functions in `reference.py` are the full-grid
implementation: a maximum filter and a labelling pass over the whole grid
per channel, a summed-area table and a Python loop over corner pairs. The
decode must return exactly what they return, on maps built to stress the
support-only paths: support on every grid edge, tied plateaus, regression
noise, segmentation bit flips and empty maps. The peak window, peak
floor and patch area are constants of `aeropipe.boxgen`; the tests patch
them to reach other values.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from aeropipe import boxgen
from aeropipe.boxgen import (
    BoxGeneratorConfig,
    CornerCandidates,
    box_generator,
    find_peaks,
    generate_boxes,
    mask_maps,
    remove_noise,
)
from aeropipe.densemaps import DenseMaps, encode
from aeropipe.geometry import BBox
from aeropipe.synth import SceneConfig, SceneGenerationError, generate_scene
from reference import (
    _full_grid_box_generator,
    _full_grid_find_peaks,
    _full_grid_generate_boxes,
    _full_grid_remove_noise,
    _knobs,
)


@st.composite
def _boxes(draw, width, height):
    """Boxes anywhere in the grid, edges included; they may overlap."""
    x0 = draw(st.integers(0, width - 3))
    y0 = draw(st.integers(0, height - 3))
    x1 = draw(st.integers(x0 + 2, width - 1))
    y1 = draw(st.integers(y0 + 2, height - 1))
    return BBox(x0, y0, x1, y1)


@st.composite
def _decode_inputs(draw):
    """Encoded boxes, then optional noise, quantisation, bit flips and a
    support frame around the whole grid; plus a decode config and values
    for the decode's constants."""
    width = draw(st.integers(8, 48))
    height = draw(st.integers(8, 40))
    boxes = draw(st.lists(_boxes(width, height), max_size=6))
    maps = encode(boxes, (width, height))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.sampled_from([0.0, 0.05, 0.3]))
    reg = np.clip(maps.reg + rng.uniform(-amplitude, amplitude, maps.reg.shape), 0.0, 1.0)
    levels = draw(st.sampled_from([0, 1, 3, 8]))
    if levels:  # few distinct values: wide plateaus and equal peaks within a window
        reg = np.round(reg * levels) / levels
    seg = maps.seg.copy()
    flips = rng.random(seg.shape) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    seg[flips] = 1.0 - seg[flips]
    if draw(st.booleans()):  # support along all four grid edges
        edge = np.ones_like(seg, dtype=bool)
        edge[1:-1, 1:-1] = False
        seg[edge] = 1.0
        reg[:, edge] = np.round(rng.random((2, int(edge.sum()))) * 4) / 4
    cfg = BoxGeneratorConfig(delta=draw(st.sampled_from([0.5, 0.9, 1.0])))
    knobs = _knobs(
        window=draw(st.sampled_from([3, 5, 13, 21, 101])),
        area=draw(st.sampled_from([1, 9])),
        floor=draw(st.sampled_from([0.0, 0.3, 0.5])),
    )
    return DenseMaps(seg=seg, reg=reg), cfg, knobs


_EMPTY = (encode([], (20, 12)), BoxGeneratorConfig(), _knobs())
_SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(_decode_inputs())
@example(_EMPTY)
def test_remove_noise_matches_full_grid(inputs):
    maps, _, knobs = inputs
    masked = mask_maps(maps)
    before = masked.copy()
    out = remove_noise(masked, knobs["MIN_PATCH_AREA"])
    np.testing.assert_array_equal(masked, before)
    np.testing.assert_array_equal(out, _full_grid_remove_noise(masked, knobs["MIN_PATCH_AREA"]))


@_SETTINGS
@given(_decode_inputs())
@example(_EMPTY)
def test_find_peaks_matches_full_grid(inputs):
    maps, _, knobs = inputs
    masked = remove_noise(mask_maps(maps), knobs["MIN_PATCH_AREA"])
    before = masked.copy()
    with mock.patch.multiple(boxgen, **knobs):
        found = find_peaks(masked)
    assert found == _full_grid_find_peaks(masked, knobs["PEAK_WINDOW"], knobs["PEAK_FLOOR"])
    np.testing.assert_array_equal(masked, before)


@_SETTINGS
@given(_decode_inputs(), st.data())
def test_generate_boxes_matches_full_grid(inputs, data):
    """Arbitrary corner lists, repeats included."""
    maps, cfg, _ = inputs
    corner = st.tuples(st.integers(0, maps.width - 1), st.integers(0, maps.height - 1))
    cands = CornerCandidates(
        p1=data.draw(st.lists(corner, max_size=12)), p2=data.draw(st.lists(corner, max_size=12))
    )
    assert generate_boxes(cands, maps.seg, cfg) == _full_grid_generate_boxes(cands, maps.seg, cfg)


@_SETTINGS
@given(_decode_inputs())
@example(_EMPTY)
def test_box_generator_matches_full_grid(inputs):
    maps, cfg, knobs = inputs
    with mock.patch.multiple(boxgen, **knobs):
        decoded = box_generator(maps, cfg)
    assert decoded == _full_grid_box_generator(maps, cfg, knobs)


@pytest.mark.parametrize("window", [13, 21, 41])
@pytest.mark.parametrize("direction", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_higher_pixel_exactly_half_a_window_away(window, direction):
    """The pixel that suppresses a would-be peak sits on the edge of its
    window and is itself suppressed by one a further half window on, so the
    would-be peak cannot hide in another peak's plateau group. Every
    position within a 16-px span, in each direction."""
    half = window // 2
    dy, dx = direction
    for offset in range(16):
        values = np.zeros((120, 120))
        y, x = 55 + dy * offset, 55 + dx * offset
        for step, value in enumerate((0.7, 0.8, 0.9)):
            values[y + dy * half * step, x + dx * half * step] = value
        masked = np.stack([values, values.T])
        with mock.patch.multiple(boxgen, **_knobs(window=window)):
            found = find_peaks(masked)
        assert found == _full_grid_find_peaks(masked, window, boxgen.PEAK_FLOOR)


@pytest.mark.parametrize("window", [3, 13, 101])
def test_ring_gathered_in_small_pieces(monkeypatch, window):
    """Rings split into pieces of a few offsets give the same peaks."""
    monkeypatch.setattr(boxgen, "_GATHER_LIMIT", 7)
    monkeypatch.setattr(boxgen, "PEAK_WINDOW", window)
    monkeypatch.setattr(boxgen, "PEAK_FLOOR", 0.3)
    rng = np.random.default_rng(window)
    for levels in (2, 8, 0):
        values = rng.random((2, 30, 44))
        if levels:
            values = np.round(values * levels) / levels
        assert find_peaks(values) == _full_grid_find_peaks(values, window, 0.3)


def test_window_far_wider_than_the_grid():
    """A window of 10**6 + 1 on a 40x36 map: the ring test stops at the
    grid's extent and plateau grouping at the candidates' row span, so the
    decode returns the full-grid candidates in well under the seconds a
    half-window loop would take."""
    rng = np.random.default_rng(16)
    values = np.round(rng.random((2, 36, 40)) * 4) / 4
    start = time.perf_counter()
    with mock.patch.multiple(boxgen, **_knobs(window=10**6 + 1)):
        found = find_peaks(values)
    assert time.perf_counter() - start < 5.0
    assert found == _full_grid_find_peaks(values, 10**6 + 1, boxgen.PEAK_FLOOR)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.tuples(st.integers(96, 200), st.integers(64, 150)),
    count=st.integers(0, 6),
)
def test_encode_then_decode_returns_the_scene(seed, grid, count):
    """Valid scenes: sides 8-24 px (diagonals below half the grid diagonal)
    and the generator's gap and cross-fill rules."""
    try:
        scene = generate_scene(SceneConfig(grid=grid, box_count=(count, count), side_range=(8, 24)), seed)
    except SceneGenerationError:  # too many boxes for the grid
        assume(False)
    expected = sorted(scene.boxes, key=lambda b: (b.y0, b.x0, b.y1, b.x1))
    assert box_generator(encode(scene.boxes, grid)) == expected
