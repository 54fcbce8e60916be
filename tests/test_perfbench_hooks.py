"""The benchmark harness's hook contract with the frame loop.

`perfbench/spans.py` wraps the loop's functions at the names their callers
look up and counts on each firing a set number of times per frame. This
loads that file as it is and checks that contract, so a change to a
wrapped name or call shape shows here rather than in a benchmark run.
"""

import importlib.util
import pathlib
from collections import Counter

import numpy as np
import pytest

from aeropipe import boxgen, pipeline, temporal
from aeropipe.densemaps import zero_maps
from aeropipe.pipeline import FrameRecord, Pipeline, PipelineConfig
from aeropipe.synth import SceneConfig, corrupt_maps, generate_sequence, render_intensity

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Every attribute `install_frame_layers` replaces.
_WRAPPED = [
    (pipeline, "feature_stub"),
    (pipeline, "box_generator"),
    (boxgen, "mask_maps"),
    (boxgen, "remove_noise"),
    (boxgen, "find_peaks"),
    (boxgen, "generate_boxes"),
    (pipeline, "crop_and_resize"),
    (temporal.TrackStore, "step"),
    (pipeline, "predict"),
    (pipeline, "nms"),
    (pipeline, "build_report"),
    (pipeline, "encode_message"),
]


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Setting each attribute to itself records it, so the wrappers the
    # tracer installs are undone at teardown.
    for owner, attr in _WRAPPED:
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    return module


def test_frame_layers_fire_once_per_frame_and_once_per_box(spans):
    grid = (160, 120)
    scenes = list(generate_sequence(SceneConfig(grid=grid, box_count=(4, 4)), 6, 7))
    frames = [FrameRecord(s.frame_id, s.maps, render_intensity(s.records, grid)) for s in scenes[:3]]
    # A frame with no boxes, where predict must not fire.
    frames.append(FrameRecord(3, zero_maps(grid), np.zeros((grid[1], grid[0]))))
    # Noisy maps move, split or drop boxes, so tracks spawn after frame 0;
    # max_age + 1 empty frames then retire every track before a clean frame.
    for fid, scene in enumerate(scenes[3:5], start=4):
        maps = corrupt_maps(scene.maps, 0.4, 0.05, fid)
        frames.append(FrameRecord(fid, maps, render_intensity(scene.records, grid)))
    max_age = PipelineConfig().associate.max_age
    for fid in range(6, 7 + max_age):
        frames.append(FrameRecord(fid, zero_maps(grid), None))
    frames.append(FrameRecord(7 + max_age, scenes[5].maps, render_intensity(scenes[5].records, grid)))

    tracer = spans.Tracer()
    finish_frame = spans.install_frame_layers(tracer, grid)
    loop = Pipeline()
    derived = {}
    for frame in frames:
        before = {t.track_id for t in loop.store.tracks}
        tracer.frame_id = frame.frame_id
        loop.run_frame(frame)
        finish_frame(0, 0.0)
        after = {t.track_id for t in loop.store.tracks}
        boxes = tracer.counts[frame.frame_id]["boxgen.boxes"]
        derived[frame.frame_id] = {
            "temporal.tracks_matched": boxes - len(after - before),
            "temporal.tracks_spawned": len(after - before),
            "temporal.tracks_retired": len(before - after),
        }

    boxes = [tracer.counts[f.frame_id]["boxgen.boxes"] for f in frames]
    assert boxes[:4] == [4, 4, 4, 0] and boxes[-1] == 4
    for frame, count in zip(frames, boxes):
        counts = tracer.counts[frame.frame_id]
        calls = Counter(span[0] for span in tracer.spans if span[4] == frame.frame_id)
        assert {name: calls[name] for name in spans.ONCE_PER_FRAME} == dict.fromkeys(spans.ONCE_PER_FRAME, 1)
        assert calls["crop_and_resize"] == counts.get("attention.crops", 0) == count
        assert calls["predict"] == (1 if count else 0)
        assert (counts["attention.window_frac"] > 0.0) == (count > 0)
        assert {key: counts[key] for key in derived[frame.frame_id]} == derived[frame.frame_id], frame.frame_id
    assert sum(derived[fid]["temporal.tracks_spawned"] for fid in (4, 5)) > 0
    assert sum(d["temporal.tracks_retired"] for d in derived.values()) > 0
    assert derived[frames[-1].frame_id]["temporal.tracks_spawned"] == 4


def test_the_wrapped_list_is_every_name_the_frame_layers_replace(spans):
    """An attribute the tracer wraps but `_WRAPPED` leaves out would stay
    wrapped after the test that traced it, and leak into later tests."""
    owners = (pipeline, boxgen, temporal.TrackStore)
    before = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    spans.install_frame_layers(spans.Tracer(), (16, 16))
    after = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    changed = {key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)}
    for owner, attr in changed - set(_WRAPPED):
        setattr(owner, attr, before[owner, attr])
    assert changed == set(_WRAPPED)
