import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeropipe import synth
from aeropipe.densemaps import encode
from aeropipe.geometry import BBox, iou, separation
from aeropipe.rng import SplitMix64
from aeropipe.synth import (
    MIN_GAP,
    SceneConfig,
    SceneGenerationError,
    _cross_fill_ok,
    corrupt_maps,
    crop_dataset,
    generate_scene,
    generate_sequence,
    read_manifest,
    render_intensity,
    write_manifest,
)
from reference import _reference_cross_fill_ok


# Small coordinates so that drawn boxes often overlap, touch or align.
_boxes = st.lists(
    st.builds(
        lambda x0, y0, w, h: BBox(x0, y0, x0 + w, y0 + h),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(2, 24),
        st.integers(2, 24),
    ),
    max_size=20,
)


class TestCrossFill:
    @pytest.mark.parametrize("block", [synth._SPAN_BLOCK, 7])
    @settings(max_examples=300, deadline=None)
    @given(boxes=_boxes)
    # Touching boxes whose span (0, 0)-(4, 7) holds 34 of its 40 pixels: a
    # fill of exactly 0.85, which fails the certificate.
    @example(boxes=[BBox(0, 0, 2, 2), BBox(0, 3, 4, 7)])
    def test_matches_the_pairwise_loop(self, block, boxes):
        with mock.patch.object(synth, "_SPAN_BLOCK", block):
            assert _cross_fill_ok(boxes) == _reference_cross_fill_ok(boxes, 0.85)

    def test_fixtures_match_the_pairwise_loop(self):
        def scenes():
            sequence = list(generate_sequence(SceneConfig(box_count=(27, 27)), 3, 71))
            return sequence + [generate_scene(SceneConfig(), seed) for seed in range(5)]

        ours = scenes()
        with mock.patch.object(synth, "_cross_fill_ok", lambda boxes: _reference_cross_fill_ok(boxes, 0.85)):
            theirs = scenes()
        assert len(ours[0].records) == 27
        for a, b in zip(ours, theirs, strict=True):
            assert a.records == b.records
            assert a.maps.seg.tobytes() == b.maps.seg.tobytes()
            assert a.maps.reg.tobytes() == b.maps.reg.tobytes()


class TestSplitMix:
    def test_scalar_vector_stream_identity(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(32)] == b.fill_u64(32).tolist()

    def test_uniform_range(self):
        rng = SplitMix64(5)
        xs = rng.random_array((10000,))
        assert xs.min() >= 0.0 and xs.max() < 1.0
        assert abs(xs.mean() - 0.5) < 0.02

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(6)
        values = {rng.randint(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_normals_standardish(self):
        rng = SplitMix64(7)
        xs = rng.normal_array((20000,))
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.0) < 0.03


class TestGenerateScene:
    def test_zero_boxes(self):
        cfg = SceneConfig(box_count=(0, 0))
        scene = generate_scene(cfg, seed=1)
        assert scene.records == []
        assert not scene.maps.seg.any()

    @pytest.mark.parametrize("box_count", [(-1, -1), (-1, 3), (5, 2)])
    def test_rejects_a_negative_or_inverted_box_count(self, box_count):
        with pytest.raises(ValueError, match=r"box_count .* must be a range 0 <= low <= high"):
            SceneConfig(box_count=box_count)

    def test_rejects_more_boxes_than_the_grid_holds_before_packing(self):
        # Minimum boxes, extended by MIN_GAP right and down, tile the
        # extended grid at best: 643 * 363 // 12**2 = 1620 at 640x360.
        assert SceneConfig(box_count=(0, 1620)).box_count == (0, 1620)
        with mock.patch.object(synth, "_place_boxes", side_effect=AssertionError("packer ran")) as packer:
            message = r"box_count \(1621, 1621\) exceeds 1620, the most boxes a 640x360 grid holds"
            with pytest.raises(ValueError, match=message) as info:
                synth.generate_scene(SceneConfig(box_count=(1621, 1621)), 0)
            with pytest.raises(ValueError, match="exceeds 7, the most boxes a 64x64 grid holds"):
                SceneConfig(grid=(64, 64), box_count=(0, 8), side_range=(20, 20))
        assert not isinstance(info.value, SceneGenerationError)
        packer.assert_not_called()

    def test_rejects_a_min_side_below_8(self):
        with pytest.raises(ValueError, match="min side >= 8"):
            SceneConfig(side_range=(6, 20))

    @pytest.mark.parametrize(
        "grid, side_range",
        [((20, 20), (8, 48)), ((640, 360), (8, 4)), ((640, 360), (6, 20)), ((640, 360), (8, 360))],
    )
    def test_rejects_a_side_range_the_grid_cannot_hold(self, grid, side_range):
        """Each failed inside `randint` on an empty range before the check."""
        with mock.patch.object(synth, "_place_boxes", side_effect=AssertionError("packer ran")) as packer:
            with pytest.raises(ValueError, match=rf"side_range \({side_range[0]}, {side_range[1]}\) must be"):
                synth.generate_scene(SceneConfig(grid=grid, side_range=side_range), 0)
        packer.assert_not_called()

    def test_largest_side_range_the_grid_holds(self):
        """Sides up to the grid's shorter side less 1 leave room to place."""
        scene = generate_scene(SceneConfig(grid=(20, 20), box_count=(1, 1), side_range=(19, 19)), 0)
        ((box,),) = [scene.boxes]
        assert box.within_grid(20, 20) and (box.width, box.height) == (19, 19)

    def test_deterministic_per_seed(self):
        a = generate_scene(SceneConfig(), 99)
        b = generate_scene(SceneConfig(), 99)
        assert [r.box for r in a.records] == [r.box for r in b.records]
        assert [(r.primary_action, r.secondary_action) for r in a.records] == [
            (r.primary_action, r.secondary_action) for r in b.records
        ]
        np.testing.assert_array_equal(a.maps.reg, b.maps.reg)

    def test_pairwise_gap_brute_force(self):
        cfg = SceneConfig(box_count=(10, 10))
        scene = generate_scene(cfg, 3)
        boxes = scene.boxes
        assert len(boxes) == 10
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert separation(a, b) >= MIN_GAP
                assert iou(a, b) == 0.0

    def test_labels_within_vocabulary(self):
        scene = generate_scene(SceneConfig(box_count=(12, 12)), 4)
        for r in scene.records:
            assert 0 <= r.primary_action < 4
            assert 0 <= r.secondary_action < 5

    def test_infeasible_packing_raises(self):
        cfg = SceneConfig(grid=(64, 64), box_count=(7, 7), side_range=(20, 20), max_attempts=500)
        with pytest.raises(SceneGenerationError, match="failed to pack"):
            generate_scene(cfg, 1)

    def test_packing_failure_is_a_data_error(self):
        cfg = SceneConfig(grid=(120, 100), box_count=(12, 12), max_attempts=300)
        with pytest.raises(SceneGenerationError, match="after 300 attempts") as info:
            generate_scene(cfg, 0)
        assert isinstance(info.value, ValueError)

    def test_cross_fill_certificate_holds(self):
        cfg = SceneConfig(box_count=(12, 12))
        for seed in range(5):
            boxes = generate_scene(cfg, seed).boxes
            assert _cross_fill_ok(boxes)

    def test_maps_match_direct_encode(self):
        scene = generate_scene(SceneConfig(), 11)
        direct = encode(scene.boxes, (640, 360))
        np.testing.assert_array_equal(scene.maps.seg, direct.seg)
        np.testing.assert_array_equal(scene.maps.reg, direct.reg)


class TestGenerateSequence:
    def test_zero_velocity_static_frames(self):
        cfg = SceneConfig(box_count=(4, 4), velocity_range=(0.0, 0.0))
        scenes = list(generate_sequence(cfg, frames=5, seed=2))
        first = [r.box for r in scenes[0].records]
        for scene in scenes[1:]:
            assert [r.box for r in scene.records] == first

    def test_track_ids_and_labels_persist(self):
        scenes = list(generate_sequence(SceneConfig(box_count=(5, 5)), frames=10, seed=3))
        base = {r.track_id: (r.primary_action, r.secondary_action) for r in scenes[0].records}
        for scene in scenes:
            assert {r.track_id for r in scene.records} == set(base)
            for r in scene.records:
                assert base[r.track_id] == (r.primary_action, r.secondary_action)

    def test_every_frame_keeps_scene_invariants(self):
        cfg = SceneConfig(box_count=(8, 8))
        scenes = generate_sequence(cfg, frames=30, seed=4)
        for scene in scenes:
            boxes = scene.boxes
            for b in boxes:
                assert b.within_grid(640, 360)
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    assert separation(a, b) >= MIN_GAP
            assert _cross_fill_ok(boxes)

    def test_boxes_actually_move(self):
        scenes = list(generate_sequence(SceneConfig(box_count=(3, 3)), frames=8, seed=5))
        first = [r.box for r in scenes[0].records]
        last = [r.box for r in scenes[-1].records]
        assert first != last


    def test_packing_failure_raises_at_the_call(self):
        cfg = SceneConfig(grid=(64, 64), box_count=(7, 7), side_range=(20, 20), max_attempts=500)
        with pytest.raises(SceneGenerationError, match="failed to pack"):
            generate_sequence(cfg, 3, 1)

    def test_iterating_holds_a_few_frames_of_maps(self):
        # Each frame is encoded as the iterator reaches it and dropped when
        # the caller moves on; holding the whole run took 30.7 frames here.
        tracemalloc.start()
        try:
            for _ in generate_sequence(SceneConfig(box_count=(10, 10)), frames=30, seed=6):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 3 * 640 * 360 * 8


class TestCorruptMaps:
    def test_zero_noise_is_identity(self):
        scene = generate_scene(SceneConfig(box_count=(3, 3)), 6)
        out = corrupt_maps(scene.maps, 0.0, 0.0, seed=1)
        np.testing.assert_array_equal(out.reg, scene.maps.reg)
        np.testing.assert_array_equal(out.seg, scene.maps.seg)

    def test_full_flip_inverts_segmentation(self):
        scene = generate_scene(SceneConfig(box_count=(3, 3)), 7)
        out = corrupt_maps(scene.maps, 0.0, 1.0, seed=2)
        np.testing.assert_array_equal(out.seg, 1.0 - scene.maps.seg)

    def test_noise_amplitude_bound_exhaustive(self):
        scene = generate_scene(SceneConfig(box_count=(5, 5)), 8)
        out = corrupt_maps(scene.maps, 0.05, 0.0, seed=3)
        delta = np.abs(out.reg - scene.maps.reg)
        assert delta.max() <= 0.05
        assert out.reg.min() >= 0.0 and out.reg.max() <= 1.0

    def test_deterministic_per_seed(self):
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 9)
        a = corrupt_maps(scene.maps, 0.05, 0.01, seed=4)
        b = corrupt_maps(scene.maps, 0.05, 0.01, seed=4)
        np.testing.assert_array_equal(a.reg, b.reg)
        np.testing.assert_array_equal(a.seg, b.seg)

    def test_flip_probability_rate(self):
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 10)
        out = corrupt_maps(scene.maps, 0.0, 0.01, seed=5)
        flipped = (out.seg != scene.maps.seg).mean()
        assert 0.005 < flipped < 0.015


def _class_means(seed, dim=10 * 16 * 16):
    """The 5 x 5 class-mean patterns that `crop_dataset` draws first from its seed."""
    return SplitMix64(seed).random_array((25, dim)) * 2.0 - 1.0


class TestCropDataset:
    def test_deterministic(self):
        a = crop_dataset(seed=11, n_samples=50)
        b = crop_dataset(seed=11, n_samples=50)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.primary_labels, b.primary_labels)

    def test_zero_noise_exactly_separable(self):
        ds = crop_dataset(seed=12, n_samples=80, noise=0.0)
        ped = ds.pedestrian
        flat = ds.features.reshape(len(ds.features), -1)
        pair = ds.primary_labels[ped] * 5 + ds.secondary_labels[ped]
        means = _class_means(12)
        for row, cls in zip(flat[ped], pair):
            np.testing.assert_array_equal(row, means[cls])

    def test_nearest_mean_classifier_is_exact(self):
        """The separability certificate: nearest class mean scores 100%."""
        ds = crop_dataset(seed=13)
        ped = ds.pedestrian
        flat = ds.features.reshape(len(ds.features), -1)[ped]
        pair = ds.primary_labels[ped] * 5 + ds.secondary_labels[ped]
        d = ((flat[:, None, :] - _class_means(13)[None, :, :]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == pair).all()

    def test_background_fraction(self):
        ds = crop_dataset(seed=14, n_samples=400, background_fraction=0.25)
        frac = 1.0 - ds.pedestrian.mean()
        assert 0.15 < frac < 0.35
        assert (ds.primary_labels[~ds.pedestrian] == -1).all()


class TestRenderAndManifest:
    def test_render_intensity_range_and_marks(self):
        scene = generate_scene(SceneConfig(box_count=(4, 4)), 15)
        frame = render_intensity(scene.records, (640, 360))
        assert frame.shape == (360, 640)
        assert frame.min() >= 0.0 and frame.max() <= 1.0
        for r in scene.records:
            assert frame[r.box.y0, r.box.x0] > 0.25

    def test_manifest_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        entries = [(0, "a.txt", "f0.aero"), (1, "a.txt", "f1.aero")]
        write_manifest(path, 42, (640, 360), entries)
        seed, grid, back = read_manifest(path)
        assert (seed, grid, back) == (42, (640, 360), entries)

    def test_manifest_skips_blank_and_comment_lines_and_rejects_other_words(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# fixture\n\nseed 2\ngrid 4 3\nframe 0 a.txt f.aero\n")
        assert read_manifest(str(path)) == (2, (4, 3), [(0, "a.txt", "f.aero")])
        path.write_text("seed 2\nframes 0 a.txt f.aero\n")
        with pytest.raises(ValueError, match="line 2: 'frames 0 a.txt f.aero' is not a seed, grid or frame line"):
            read_manifest(str(path))
        path.write_text("seed 2\nframe 0 a.txt f.aero\n")
        with pytest.raises(ValueError, match="no 'grid' line"):
            read_manifest(str(path))

    @pytest.mark.parametrize("frame_id", [-7, 2**32])
    def test_manifest_frame_id_outside_u32_rejected(self, tmp_path, frame_id):
        path = tmp_path / "manifest.txt"
        path.write_text(f"seed 1\nframe 0 a.txt f0.aero\nframe {frame_id} a.txt f1.aero\n")
        with pytest.raises(ValueError, match=f"frame id {frame_id} outside 0..4294967295: .* line 3"):
            read_manifest(str(path))

    @pytest.mark.parametrize(
        "line", ["grid 7_2 48", "grid 72 \u0664\u0668", "frame 1_0 a.txt f.aero", "frame \u0663 a.txt f.aero", "seed 1_0"]
    )
    def test_manifest_integers_outside_ascii_digits_rejected(self, tmp_path, line):
        path = tmp_path / "manifest.txt"
        path.write_text(f"seed 1\ngrid 72 48\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected an integer in ASCII digits, got .*: .* line 3"):
            read_manifest(str(path))

    def test_manifest_takes_the_largest_u32_frame_id(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        write_manifest(path, 1, (64, 48), [(2**32 - 1, "a.txt", "f.aero")])
        assert read_manifest(path)[2] == [(2**32 - 1, "a.txt", "f.aero")]
