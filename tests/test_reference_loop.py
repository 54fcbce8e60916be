"""`Pipeline.run_frame` against `reference_run_frame`, frame by frame.

What a frame outputs depends on the track state earlier frames left, so
the loop is compared across whole generated sequences: after every frame
the payload bytes, the detections, the track store (ids, hidden and cell
state bytes, last boxes, ages) and the last frame id must equal the
reference loop's. This is the exactness gate for a speedup anywhere in the
frame loop. A second property inserts frames `run_frame` must reject and
checks that the loop comes out of each untouched.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from aeropipe.attention import CROP_SHAPE, AttentionConfig
from aeropipe.boxgen import BoxGeneratorConfig
from aeropipe.densemaps import DenseMaps, encode
from aeropipe.geometry import BBox
from aeropipe.pipeline import AssociateConfig, FrameRecord, NmsConfig, Pipeline, PipelineConfig
from aeropipe.synth import SceneConfig, SceneGenerationError, corrupt_maps, generate_sequence, render_intensity
from aeropipe.temporal import ActivityModel
from reference import LoopState, reference_run_frame

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@functools.lru_cache(maxsize=None)
def _seeded_model(seed: int) -> ActivityModel:
    """A seeded cell with random heads, so the crops reach the confidences,
    the actions and the track state. Nothing in the frame loop writes to a
    model, so one copy serves every example."""
    model = ActivityModel.build(math.prod(CROP_SHAPE), seed=seed)
    rng = np.random.default_rng(seed)
    for array in model.heads.parameters().values():
        array[...] = rng.normal(0.0, 100.0, array.shape)
    return model


@st.composite
def _configs(draw) -> PipelineConfig:
    """Drawn values for every config key but `pipeline.frame_period_ms`;
    the defaults and the bounds of the checks come up often."""

    def unit(*common):
        return draw(st.one_of(st.sampled_from(common), st.floats(0.0, 1.0)))

    return PipelineConfig(
        boxgen=BoxGeneratorConfig(delta=draw(st.one_of(st.sampled_from([0.9, 1.0]), st.floats(0.5, 1.0)))),
        attention=AttentionConfig(expand_ratio=draw(st.floats(1.0, 2.5)), sigma_scale=draw(st.floats(0.1, 2.0))),
        nms=NmsConfig(iou_threshold=unit(0.0, 0.5, 1.0), score_floor=unit(0.0, 0.3, 0.5)),
        associate=AssociateConfig(max_dist=draw(st.floats(0.0, 80.0)), max_age=draw(st.integers(0, 3))),
    )


@st.composite
def _loops(draw):
    """A config, the built-in zero model (every confidence 0.5, so the order
    of NMS and of the report rests on tie-breaks) or a seeded one, and 1-6
    frames of a generated sequence with 0-40 boxes on a grid of 48-200 x
    40-150 px, often as many as the grid holds (past 31, reports truncate).
    Each frame keeps a random subset of the tracks, so tracks
    spawn and retire; maps carry regression noise and segmentation flips."""
    cfg = draw(_configs())
    model = draw(st.one_of(st.none(), st.integers(0, 3).map(_seeded_model)))
    grid = width, height = draw(st.integers(48, 200)), draw(st.integers(40, 150))
    most = min(40, width * height // 600)
    count = draw(st.one_of(st.just(most), st.integers(0, most)))
    top = draw(st.integers(8, min(40, min(grid) - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        scenes = generate_sequence(SceneConfig(grid=grid, box_count=(count, count), side_range=(8, top)), draw(st.integers(1, 6)), seed)
    except SceneGenerationError:  # too many boxes for this grid and side range
        assume(False)
    rng = np.random.default_rng(seed)
    keep = draw(st.sampled_from([1.0, 0.8, 0.5]))
    amplitude = draw(st.sampled_from([0.0, 0.05, 0.2, 0.3]))
    flips = draw(st.sampled_from([0.0, 0.01, 0.05]))
    rendered = draw(st.integers(0, 3)) > 0
    frame_id = draw(st.integers(0, 1000))
    header = {
        "drone_lat": draw(st.floats(-90.0, 90.0)),
        "drone_lon": draw(st.floats(-180.0, 180.0)),
        "drone_alt_m": draw(st.floats(0.0, 7000.0)),
    }
    frames = []
    for k, scene in enumerate(scenes):
        records = [r for r in scene.records if rng.random() < keep]
        maps = corrupt_maps(encode([r.box for r in records], grid), amplitude, flips, seed + k)
        intensity = render_intensity(records, grid) if rendered else None
        frames.append(FrameRecord(frame_id, maps, intensity, **header))
        frame_id += int(rng.integers(1, 4))
    return cfg, model, frames


def _store(tracks) -> list[tuple]:
    return [(t.track_id, t.h.tobytes(), t.c.tobytes(), t.last_box, t.age) for t in tracks]


def _run_both(pipeline: Pipeline, state: LoopState, frame: FrameRecord) -> None:
    result = pipeline.run_frame(frame)
    detections, payload = reference_run_frame(state, pipeline.cfg, pipeline.model, frame)
    assert result.payload == payload
    assert result.detections == detections
    assert _store(pipeline.store.tracks) == _store(state.tracks)
    assert pipeline.last_frame_id == state.last_frame_id


@settings(_SETTINGS, max_examples=40)
@given(_loops())
def test_run_frame_is_the_reference_loop(loop):
    cfg, model, frames = loop
    pipeline, state = Pipeline(cfg, model), LoopState()
    for frame in frames:
        _run_both(pipeline, state, frame)


@functools.lru_cache(maxsize=1)
def _wide_maps() -> DenseMaps:
    """A 65537-px-wide grid with a box past x = 65535, which a report box
    (u16) cannot hold."""
    return encode([BBox(65524, 2, 65536, 14)], (65537, 17))


def _bad_frame(kind: str, template: FrameRecord, frame_id: int) -> FrameRecord:
    """`template` at `frame_id`, broken one way `run_frame` must reject."""
    frame = dataclasses.replace(template, frame_id=frame_id)
    height, width = template.maps.seg.shape
    if kind == "nan_reg":
        reg = template.maps.reg.copy()
        reg[1, height // 2, width // 3] = np.nan
        return dataclasses.replace(frame, maps=DenseMaps(seg=template.maps.seg, reg=reg))
    if kind == "intensity_shape":
        return dataclasses.replace(frame, intensity=np.zeros((height, width + 1)))
    if kind == "intensity_inf":
        intensity = np.zeros((height, width))
        intensity[height - 1, 0] = np.inf
        return dataclasses.replace(frame, intensity=intensity)
    if kind == "latitude":
        return dataclasses.replace(frame, drone_lat=215.0)
    if kind == "wide_grid":
        return dataclasses.replace(frame, maps=_wide_maps(), intensity=None)
    assert kind == "stale_id"
    return frame


_BAD_KINDS = ["nan_reg", "intensity_shape", "intensity_inf", "stale_id", "latitude", "wide_grid"]


@settings(_SETTINGS, max_examples=10)
@given(_loops(), st.data())
def test_rejected_frames_leave_the_loop_untouched(loop, data):
    """One bad frame of each kind at a drawn place in the sequence. It takes
    the id of the frame it precedes, so that frame retries the id; a stale
    id repeats or undercuts the last one. The rest of the sequence must
    still equal the reference, which skips the bad frames."""
    cfg, model, frames = loop
    places = {kind: data.draw(st.integers(kind == "stale_id", len(frames)), label=kind) for kind in _BAD_KINDS}
    pipeline, state = Pipeline(cfg, model), LoopState()
    for at in range(len(frames) + 1):
        for kind in _BAD_KINDS:
            if places[kind] != at:
                continue
            if kind == "stale_id":
                frame_id = data.draw(st.integers(0, pipeline.last_frame_id))
            else:
                frame_id = frames[at].frame_id if at < len(frames) else frames[-1].frame_id + 1
            before = pipeline.last_frame_id, _store(pipeline.store.tracks)
            with pytest.raises(ValueError):
                pipeline.run_frame(_bad_frame(kind, frames[min(at, len(frames) - 1)], frame_id))
            assert (pipeline.last_frame_id, _store(pipeline.store.tracks)) == before
        if at < len(frames):
            _run_both(pipeline, state, frames[at])
