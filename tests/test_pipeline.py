import dataclasses
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from aeropipe.annotations import AnnotationRecord, read_annotations, write_annotations
from aeropipe.attention import CROP_SHAPE, crop_and_resize
from aeropipe.boxgen import box_generator
from aeropipe.evaluate import nms
from aeropipe.geometry import iou
from aeropipe.pipeline import (
    FrameRecord,
    LoopConfig,
    Pipeline,
    PipelineConfig,
    bench_frames,
    config_from_mapping,
    config_keys,
    feature_stub,
    parse_config_file,
)
from aeropipe.densemaps import encode, zero_maps
from aeropipe.geometry import BBox
from aeropipe.synth import SceneConfig, corrupt_maps, generate_scene, generate_sequence, render_intensity
from aeropipe.temporal import ActivityModel, TrackStore, predict
from aeropipe.wire import decode_message
from reference import _dense


def _stub_reference(frame, scales, window):
    """Scalar re-implementation: block average, clamped-window statistics."""
    h, w = frame.shape
    channels = []
    for s in scales:
        dh, dw = -(-h // s), -(-w // s)
        down = np.zeros((dh, dw))
        for y in range(dh):
            for x in range(dw):
                vals = [
                    frame[min(y * s + dy, h - 1), min(x * s + dx, w - 1)]
                    for dy in range(s)
                    for dx in range(s)
                ]
                down[y, x] = sum(vals) / len(vals)
        half = window // 2
        mean = np.zeros_like(down)
        var = np.zeros_like(down)
        for y in range(dh):
            for x in range(dw):
                vals = [
                    down[min(max(y + dy, 0), dh - 1), min(max(x + dx, 0), dw - 1)]
                    for dy in range(-half, half + 1)
                    for dx in range(-half, half + 1)
                ]
                m = sum(vals) / len(vals)
                mean[y, x] = m
                var[y, x] = max(sum(v * v for v in vals) / len(vals) - m * m, 0.0)
        for grid in (down, mean, var):
            up = np.repeat(np.repeat(grid, s, axis=0), s, axis=1)[:h, :w]
            channels.append(up)
    return np.stack(channels)


class TestFeatureStub:
    def test_constant_frame(self):
        frame = np.full((24, 32), 0.4)
        features = _dense(feature_stub(frame))
        assert features.shape == (9, 24, 32)
        for k in range(0, 9, 3):
            np.testing.assert_allclose(features[k], 0.4, atol=1e-12)      # intensity
            np.testing.assert_allclose(features[k + 1], 0.4, atol=1e-12)  # local mean
            np.testing.assert_allclose(features[k + 2], 0.0, atol=1e-12)  # local variance

    def test_scale_one_intensity_is_input(self):
        rng = np.random.default_rng(0)
        frame = rng.random((20, 28))
        features = _dense(feature_stub(frame))
        np.testing.assert_array_equal(features[0], frame)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        frame = rng.random((11, 14))  # not divisible by the scales
        features = feature_stub(frame)
        reference = _stub_reference(frame, (1, 2, 4), 3)
        np.testing.assert_allclose(_dense(features), reference, atol=1e-6)


class TestRunFrame:
    def test_zero_maps_frame(self):
        pipeline = Pipeline(PipelineConfig())
        result = pipeline.run_frame(FrameRecord(frame_id=0, maps=zero_maps((64, 48))))
        assert result.detections == []
        assert len(result.payload) == 31
        assert decode_message(result.payload).frame_id == 0

    def test_clean_scene_detections_match_ground_truth(self):
        scene = generate_scene(SceneConfig(box_count=(5, 5)), 21)
        pipeline = Pipeline(PipelineConfig())
        frame = FrameRecord(
            frame_id=0, maps=scene.maps, intensity=render_intensity(scene.records, (640, 360))
        )
        result = pipeline.run_frame(frame)
        assert len(result.detections) == 5
        for det in result.detections:
            assert max(iou(det.box, g) for g in scene.boxes) >= 0.9
        message = decode_message(result.payload)
        assert len(message.entries) == 5

    def test_identical_consecutive_frames_keep_track_ids(self):
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 22)
        pipeline = Pipeline(PipelineConfig())
        first = pipeline.run_frame(FrameRecord(frame_id=0, maps=scene.maps))
        second = pipeline.run_frame(FrameRecord(frame_id=1, maps=scene.maps))
        assert [d.box for d in first.detections] == [d.box for d in second.detections]
        assert [d.track_id for d in first.detections] == [d.track_id for d in second.detections]

    @pytest.mark.parametrize("shape", [(10, 10), (48, 64, 3), (64, 48)])
    def test_intensity_must_have_the_maps_grid(self, monkeypatch, shape):
        pipeline = Pipeline(PipelineConfig())
        maps = zero_maps((64, 48))
        with monkeypatch.context() as patch:
            for stage in ("box_generator", "feature_stub"):
                patch.setattr(f"aeropipe.pipeline.{stage}", mock.Mock(side_effect=AssertionError(stage)))
            message = rf"intensity shape \({shape[0]}, .*\) != maps \(height, width\) \(48, 64\)"
            with pytest.raises(ValueError, match=message):
                pipeline.run_frame(FrameRecord(frame_id=0, maps=maps, intensity=np.zeros(shape)))
        # The rejected frame took no frame id; a matching or absent intensity runs.
        pipeline.run_frame(FrameRecord(frame_id=0, maps=maps, intensity=np.zeros((48, 64))))
        assert pipeline.run_frame(FrameRecord(frame_id=1, maps=maps)).detections == []

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 2.0**501, -(2.0**501)], ids=["nan", "inf", "-inf", "2**501", "-2**501"]
    )
    def test_intensity_must_be_finite_and_bounded(self, monkeypatch, value):
        """One such pixel in a box used to spread through the stub's running
        sums, and its NaN confidences emptied this frame and every later one."""
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 22)
        intensity = render_intensity(scene.records, (640, 360))
        box = scene.boxes[0]
        bad = intensity.copy()
        bad[box.y0 + 1, box.x0 + 1] = value
        pipeline = Pipeline(PipelineConfig())
        with monkeypatch.context() as patch:
            for stage in ("box_generator", "feature_stub"):
                patch.setattr(f"aeropipe.pipeline.{stage}", mock.Mock(side_effect=AssertionError(stage)))
            with pytest.raises(ValueError, match=r"intensity must be finite and within \+-2\*\*500"):
                pipeline.run_frame(FrameRecord(frame_id=0, maps=scene.maps, intensity=bad))
        # The rejected frame took no frame id, and magnitudes up to 2**500 run
        # with finite confidences.
        for fid, top in enumerate([2.0**500, -(2.0**500), 0.5]):
            intensity[box.y0 + 1, box.x0 + 1] = top
            result = pipeline.run_frame(FrameRecord(frame_id=fid, maps=scene.maps, intensity=intensity))
            assert len(result.detections) == 4
            assert all(math.isfinite(d.confidence) for d in result.detections)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"frame_id": 2**32}, "frame id 4294967296 outside 0..4294967295"),
            ({"frame_id": -1}, "frame id -1 outside 0..4294967295"),
            ({"frame_id": 1.5}, "frame id 1.5 is not an integer"),
            ({"drone_lon": 300.0}, "drone_lon 300.0 does not fit"),
            ({"drone_lat": math.nan}, "drone_lat nan does not fit"),
            ({"drone_lat": -214.7483649}, "drone_lat -214.7483649 does not fit"),
            ({"drone_lon": -214.7483649}, "drone_lon -214.7483649 does not fit"),
        ],
        ids=["frame-id-2**32", "frame-id-neg", "frame-id-1.5", "lon-300", "lat-nan", "lat-below-i32", "lon-below-i32"],
    )
    def test_header_fields_are_checked_before_any_stage(self, monkeypatch, fields, message):
        """Each once failed only in `encode_message` (`struct.error`, or an
        unnamed ValueError for NaN), after the track store had spawned the
        frame's tracks and the frame had taken its id."""
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 22)
        pipeline = Pipeline(PipelineConfig())
        with monkeypatch.context() as patch:
            for stage in ("box_generator", "feature_stub"):
                patch.setattr(f"aeropipe.pipeline.{stage}", mock.Mock(side_effect=AssertionError(stage)))
            with pytest.raises(ValueError, match=message):
                pipeline.run_frame(FrameRecord(**{"frame_id": 0, "maps": scene.maps, **fields}))
        assert pipeline.last_frame_id is None
        assert pipeline.store.tracks == [] and pipeline.store._next_id == 0
        # The i32's lowest value is a valid latitude and longitude.
        edge = {"drone_lat": -214.7483648, "drone_lon": -214.7483648}
        result = pipeline.run_frame(FrameRecord(frame_id=0, maps=scene.maps, **edge))
        assert len(result.detections) == 4
        header = decode_message(result.payload)
        assert header.drone_lat_e7 == header.drone_lon_e7 == -(2**31)

    def test_maps_the_decode_rejects_leave_the_frame_id_free(self):
        """Such a frame once took its id, so a retry with good maps failed
        "frame ids must increase"."""
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 22)
        bad = dataclasses.replace(scene.maps, reg=scene.maps.reg.copy())
        bad.reg[1, 5, 7] = np.nan
        pipeline = Pipeline(PipelineConfig())
        pipeline.run_frame(FrameRecord(frame_id=4, maps=scene.maps))
        tracks = [(t.track_id, t.last_box, t.age) for t in pipeline.store.tracks]
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.run_frame(FrameRecord(frame_id=5, maps=bad))
        assert pipeline.last_frame_id == 4
        assert [(t.track_id, t.last_box, t.age) for t in pipeline.store.tracks] == tracks
        assert len(pipeline.run_frame(FrameRecord(frame_id=5, maps=scene.maps)).detections) == 4

    @pytest.mark.parametrize("grid", [(10, 0), (0, 0), (0, 10)], ids=["10x0", "0x0", "0x10"])
    def test_map_grid_with_a_zero_side_is_rejected(self, monkeypatch, grid):
        """`load_maps` rejects these grids; at `run_frame` they once raised
        IndexError, a numpy indexing ValueError, or ran."""
        pipeline = Pipeline(PipelineConfig())
        with monkeypatch.context() as patch:
            for stage in ("box_generator", "feature_stub"):
                patch.setattr(f"aeropipe.pipeline.{stage}", mock.Mock(side_effect=AssertionError(stage)))
            with pytest.raises(ValueError, match=f"map grid {grid[0]}x{grid[1]} has a zero side"):
                pipeline.run_frame(FrameRecord(frame_id=0, maps=zero_maps(grid)))
        assert pipeline.last_frame_id is None

    def test_map_grid_wider_than_a_report_box_is_rejected(self):
        """Report boxes are u16. A wider grid (`.aero` dims are u32) once
        took the frame id and spawned tracks, then failed in the report."""
        pipeline = Pipeline(PipelineConfig())
        maps = encode([BBox(4, 2, 16, 14)], (40, 20))
        pipeline.run_frame(FrameRecord(frame_id=4, maps=maps))
        tracks = [(t.track_id, t.last_box, t.age) for t in pipeline.store.tracks]
        wide = encode([BBox(65600, 2, 65612, 14)], (65700, 20))
        with pytest.raises(ValueError, match="map grid 65700x20 has a zero side or one above 65536 px"):
            pipeline.run_frame(FrameRecord(frame_id=5, maps=wide))
        assert pipeline.last_frame_id == 4
        assert [(t.track_id, t.last_box, t.age) for t in pipeline.store.tracks] == tracks
        assert [d.box for d in pipeline.run_frame(FrameRecord(frame_id=5, maps=maps)).detections] == [BBox(4, 2, 16, 14)]

    @pytest.mark.parametrize(
        "stage", ["feature_stub", "crop_and_resize", "predict", "nms", "build_report", "encode_message"]
    )
    def test_a_frame_that_raises_in_any_stage_leaves_the_loop_as_it_was(self, monkeypatch, stage):
        """Such a frame once took its id after the decode and stepped the
        tracks in place, so its retry failed "frame ids must increase" and
        the next frames read half of its effects."""
        grid = (160, 120)
        scenes = generate_sequence(SceneConfig(grid=grid, box_count=(4, 4)), 3, 5)
        frames = [FrameRecord(s.frame_id, s.maps, render_intensity(s.records, grid)) for s in scenes]
        uninterrupted = Pipeline(PipelineConfig())
        payloads = [uninterrupted.run_frame(f).payload for f in frames]

        def loop_state(p):
            tracks = [(t.track_id, t.last_box, t.age, t.h.tobytes(), t.c.tobytes()) for t in p.store.tracks]
            return p.last_frame_id, p.store._next_id, tracks

        pipeline = Pipeline(PipelineConfig())
        assert pipeline.run_frame(frames[0]).payload == payloads[0]
        state = loop_state(pipeline)
        with monkeypatch.context() as patch:
            patch.setattr(f"aeropipe.pipeline.{stage}", mock.Mock(side_effect=MemoryError(stage)))
            with pytest.raises(MemoryError, match=stage):
                pipeline.run_frame(frames[1])
        assert loop_state(pipeline) == state
        assert [pipeline.run_frame(f).payload for f in frames[1:]] == payloads[1:]

    def test_map_grid_of_65536_px_reports_its_last_column(self):
        maps = encode([BBox(65520, 2, 65535, 14)], (65536, 17))
        result = Pipeline(PipelineConfig()).run_frame(FrameRecord(frame_id=0, maps=maps))
        assert [e.box for e in decode_message(result.payload).entries] == [(65520, 2, 65535, 14)]

    def test_model_with_more_action_labels_than_a_report_byte_is_rejected(self):
        """Report actions are u8. A model whose argmax passed 255 once took
        the frame id and spawned tracks, then failed in the report."""
        size = math.prod(CROP_SHAPE)

        def model(primary, secondary):
            built = ActivityModel.build(size, hidden_size=2, n_primary=primary, n_secondary=secondary)
            built.heads.b_primary[-1] = built.heads.b_secondary[-1] = 1.0
            return built

        for primary, secondary in ((300, 5), (4, 257)):
            with pytest.raises(ValueError, match=f"model has {primary} and {secondary} action labels"):
                Pipeline(PipelineConfig(), model(primary, secondary))
        result = Pipeline(PipelineConfig(), model(256, 256)).run_frame(
            FrameRecord(frame_id=0, maps=encode([BBox(4, 2, 16, 14)], (40, 20)))
        )
        [entry] = decode_message(result.payload).entries
        assert (entry.primary_action, entry.secondary_action) == (255, 255)

    def test_frame_working_set_stays_under_six_frame_arrays(self):
        # A seeded crowd_noisy frame, built as perfbench/gen.py builds it.
        cfg = SceneConfig(grid=(640, 360), box_count=(27, 27))
        scene = next(generate_sequence(cfg, 1, 71))
        maps = corrupt_maps(scene.maps, 0.05, 0.01, 71 + 1000)
        intensity = render_intensity(scene.records, cfg.grid)
        pipeline = Pipeline(PipelineConfig())
        pipeline.run_frame(FrameRecord(frame_id=0, maps=maps, intensity=intensity))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = pipeline.run_frame(FrameRecord(frame_id=1, maps=maps, intensity=intensity))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(result.detections) > 20
        # Decode runs first and frees its grids (masked maps, denoised copy,
        # labels, padded peak channels) before the stub starts, so the most
        # any stage holds is the stub's: its scale-1 level (3 frame-sized
        # float64 arrays) plus its row-sweep buffer (2) while the worker
        # thread takes the coarser block means (0.5), then that level, the
        # caller's variance temporary (1) and the coarser block means and
        # levels (1.25) while the worker sweeps the scale-2 level (0.5).
        # Measured at 5.5 to 5.8; with the stub first the two stages'
        # arrays overlapped, at 8.7.
        assert peak <= 6 * 360 * 640 * 8

    def test_frame_order_enforced(self):
        pipeline = Pipeline(PipelineConfig())
        pipeline.run_frame(FrameRecord(frame_id=3, maps=zero_maps((32, 32))))
        with pytest.raises(ValueError, match="increase"):
            pipeline.run_frame(FrameRecord(frame_id=3, maps=zero_maps((32, 32))))

    def test_matches_manual_stage_chain(self):
        scene = generate_scene(SceneConfig(box_count=(6, 6)), 23)
        cfg = PipelineConfig()
        intensity = render_intensity(scene.records, (640, 360))
        # Random head weights, so the predicted labels are not all class 0.
        model = ActivityModel.build(math.prod(CROP_SHAPE), seed=5)
        rng = np.random.default_rng(3)
        for w in (model.heads.w_primary, model.heads.w_secondary):
            w[...] = rng.normal(size=w.shape)

        pipeline = Pipeline(cfg, model=model)
        result = pipeline.run_frame(FrameRecord(frame_id=0, maps=scene.maps, intensity=intensity))

        manual = Pipeline(cfg, model=model)  # same model, fresh state
        features = feature_stub(intensity)
        boxes = box_generator(scene.maps, cfg.boxgen)
        store = TrackStore(model.cell.hidden_size, cfg.associate.max_dist, cfg.associate.max_age)
        tracks = store.step(boxes)
        x = np.stack(
            [crop_and_resize(features, b, cfg.attention).tensor.reshape(-1) for b in boxes]
        )
        h_prev = np.stack([t.h for t in tracks])
        c_prev = np.stack([t.c for t in tracks])
        a_p, a_s, conf, _, _ = predict(manual.model, x, h_prev, c_prev)
        manual_dets = [
            AnnotationRecord(frame_id=0, box=b, confidence=float(conf[i]), primary_action=int(np.argmax(a_p[i])),
                             secondary_action=int(np.argmax(a_s[i])), track_id=tracks[i].track_id)
            for i, b in enumerate(boxes)
        ]
        manual_kept = nms(manual_dets, cfg.nms.iou_threshold, cfg.nms.score_floor)

        assert [d.box for d in result.detections] == [d.box for d in manual_kept]
        labels = [(d.primary_action, d.secondary_action) for d in result.detections]
        assert labels == [(d.primary_action, d.secondary_action) for d in manual_kept]
        assert {label for pair in labels for label in pair} != {0}
        assert all(type(label) is int for pair in labels for label in pair)
        np.testing.assert_allclose(
            [d.confidence for d in result.detections],
            [d.confidence for d in manual_kept],
            atol=0,
        )

    def test_end_to_end_determinism(self):
        scenes = list(generate_sequence(SceneConfig(box_count=(4, 4)), frames=5, seed=24))
        payloads = []
        for _ in range(2):
            pipeline = Pipeline(model=ActivityModel.build(math.prod(CROP_SHAPE), seed=9))
            run = []
            for scene in scenes:
                frame = FrameRecord(
                    frame_id=scene.frame_id,
                    maps=scene.maps,
                    intensity=render_intensity(scene.records, (640, 360)),
                )
                run.append(pipeline.run_frame(frame).payload)
            payloads.append(b"".join(run))
        assert payloads[0] == payloads[1]

    def test_pipelines_on_several_threads_match_serial_runs(self):
        """Three pipelines on three threads, more than the cores, share the
        one worker thread, whose tasks then queue; none may wait on another's
        task or read another's arrays."""
        grid = (320, 180)
        sequences = [list(generate_sequence(SceneConfig(grid=grid, box_count=(5, 5)), frames=4, seed=s)) for s in (31, 32, 33)]

        def run(scenes):
            pipeline = Pipeline(model=ActivityModel.build(math.prod(CROP_SHAPE), seed=9))
            return [
                pipeline.run_frame(FrameRecord(s.frame_id, s.maps, render_intensity(s.records, grid))).payload
                for s in scenes
            ]

        together: list = [None] * len(sequences)
        threads = [
            threading.Thread(target=lambda i=i: together.__setitem__(i, run(sequences[i])), daemon=True)
            for i in range(len(sequences))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == [run(scenes) for scenes in sequences]

    def test_detections_are_annotation_records_that_round_trip(self, tmp_path):
        scenes = generate_sequence(SceneConfig(box_count=(4, 4)), frames=4, seed=26)
        pipeline = Pipeline(model=ActivityModel.build(math.prod(CROP_SHAPE), seed=9))
        detections = []
        for scene in scenes:
            intensity = render_intensity(scene.records, (640, 360))
            detections += pipeline.run_frame(FrameRecord(scene.frame_id, scene.maps, intensity)).detections
        assert detections and all(type(d) is AnnotationRecord for d in detections)
        path = str(tmp_path / "predictions.txt")
        write_annotations(path, detections, with_confidence=True)
        # The prediction file keeps six decimals of each confidence.
        expected = [dataclasses.replace(d, confidence=float(f"{d.confidence:.6f}")) for d in detections]
        assert read_annotations(path) == expected

    def test_every_report_decodes(self):
        scenes = generate_sequence(SceneConfig(box_count=(3, 3)), frames=6, seed=25)
        pipeline = Pipeline(PipelineConfig())
        for scene in scenes:
            result = pipeline.run_frame(FrameRecord(frame_id=scene.frame_id, maps=scene.maps))
            message = decode_message(result.payload)
            assert message.frame_id == scene.frame_id
            assert len(message.entries) == len(result.detections)


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text(
            "# comment\n"
            "boxgen.delta = 0.8\n"
            "attention.sigma_scale = 0.75\n"
            "nms.iou_threshold = 0.4\n"
        )
        cfg = config_from_mapping(parse_config_file(str(path)))
        assert cfg.boxgen.delta == 0.8
        assert cfg.attention.sigma_scale == 0.75
        assert cfg.nms.iou_threshold == 0.4

    def test_derived_keys(self):
        assert sorted(config_keys()) == sorted([
            "boxgen.delta",
            "attention.expand_ratio",
            "attention.sigma_scale",
            "nms.iou_threshold",
            "nms.score_floor",
            "associate.max_dist",
            "associate.max_age",
            "pipeline.frame_period_ms",
        ])

    def test_default_values_round_trip(self):
        defaults = PipelineConfig()
        for key in config_keys():
            section, _, attr = key.partition(".")
            value = getattr(getattr(defaults, section), attr)
            cfg = config_from_mapping({key: str(value)})
            got = getattr(getattr(cfg, section), attr)
            assert got == value and type(got) is type(value), key
            assert cfg == defaults, key

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"nope.nope": "1"})

    @pytest.mark.parametrize(
        "key", ["boxgen.max_filter_window", "boxgen.min_patch_area", "boxgen.max_box_diag", "boxgen.peak_floor"]
    )
    def test_decode_constants_have_no_key(self, key):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            config_from_mapping({key: "13"})

    def test_frame_period_keeps_every_u32_frame_timestamp_in_u64(self):
        top = config_from_mapping({"pipeline.frame_period_ms": "4294967297"})
        pipeline = Pipeline(top)
        result = pipeline.run_frame(FrameRecord(frame_id=2**32 - 1, maps=zero_maps((32, 32))))
        assert decode_message(result.payload).timestamp_ms == (2**32 - 1) * 4294967297 == 2**64 - 1
        with pytest.raises(ValueError, match="pipeline.frame_period_ms must be in 0..4294967297"):
            config_from_mapping({"pipeline.frame_period_ms": "4294967298"})

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+3", " 3", "3.0"])
    @pytest.mark.parametrize("key", ["pipeline.frame_period_ms", "associate.max_age"])
    def test_integer_keys_take_only_ascii_digits(self, key, value):
        """`int()` once read "1_0" as 10 and "\u0663" as 3."""
        with pytest.raises(ValueError, match=re.escape(f"expected an integer in ASCII digits, got {value!r}: {key}")):
            config_from_mapping({key: value})
        assert config_from_mapping({key: "3"}) == config_from_mapping({key: "03"})

    @pytest.mark.parametrize("value", ["4_0", "\u0663", "\uff14.0", "1e1_0"])
    @pytest.mark.parametrize("key", ["associate.max_dist", "boxgen.delta"])
    def test_float_keys_take_only_ascii_characters(self, key, value):
        """`float()` once read "4_0" as 40.0 and "\u0663" as 3.0."""
        with pytest.raises(ValueError, match=re.escape(f"expected a number in ASCII characters, got {value!r}: {key}")):
            config_from_mapping({key: value})

    def test_nan_reaches_the_range_check_that_names_it(self):
        with pytest.raises(ValueError, match="max_dist must be >= 0, got nan"):
            config_from_mapping({"associate.max_dist": "nan"})

    def test_key_given_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("boxgen.delta = 0.9\n# comment\nnms.iou_threshold = 0.4\n boxgen.delta=0.8\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: config key 'boxgen.delta' is already set on line 1")):
            parse_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("boxgen.delta 0.8\n")
        with pytest.raises(ValueError, match="expected"):
            parse_config_file(str(path))


class TestBench:
    def test_smoke_and_csv_shape(self):
        report = bench_frames(PipelineConfig(), frames=5, boxes=3, grid=(160, 120), seed=1, warmup=1)
        assert report.frames == 5
        lines = report.csv_lines()
        assert lines[0] == "stage,mean_ms,p95_ms"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == ["features", "decode", "attention", "temporal", "nms", "wire", "total"]
        for line in lines[1:]:
            _, mean_ms, p95_ms = line.split(",")
            assert float(mean_ms) >= 0.0
            assert float(p95_ms) >= float(mean_ms) * 0.5

    def test_latest_only_can_skip(self):
        cfg = PipelineConfig(pipeline=LoopConfig(frame_period_ms=0))
        report = bench_frames(cfg, frames=6, boxes=2, grid=(160, 120), seed=2, warmup=1, latest_only=True)
        # zero-length frame period means every later frame already arrived
        assert report.frames + report.skipped == 6
