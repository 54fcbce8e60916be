import math
import warnings

import numpy as np
import pytest

from aeropipe.boxgen import (
    PEAK_FLOOR,
    BoxGeneratorConfig,
    CornerCandidates,
    box_generator,
    find_peaks,
    generate_boxes,
    mask_maps,
    remove_noise,
)
from aeropipe.densemaps import encode, zero_maps
from aeropipe.geometry import BBox, iou
from aeropipe.synth import SceneConfig, corrupt_maps, generate_scene


def _brute_force_components(support):
    """Reference 8-connected labeling by flood fill."""
    h, w = support.shape
    seen = np.zeros_like(support, dtype=bool)
    components = []
    for y in range(h):
        for x in range(w):
            if not support[y, x] or seen[y, x]:
                continue
            stack = [(y, x)]
            seen[y, x] = True
            pixels = []
            while stack:
                cy, cx = stack.pop()
                pixels.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and support[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            components.append(pixels)
    return components


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxGeneratorConfig(delta=0.0)
        BoxGeneratorConfig(delta=1.0)


class TestMaskMaps:
    def test_zero_segmentation_zeroes_everything(self):
        maps = zero_maps((8, 8))
        maps.reg[:, :, :] = 0.7
        maps.seg[:, :] = 0.0
        assert not mask_maps(maps).any()

    def test_full_segmentation_is_identity(self):
        maps = zero_maps((8, 8))
        maps.reg[0] = np.random.default_rng(0).random((8, 8))
        maps.seg[:, :] = 1.0
        np.testing.assert_array_equal(mask_maps(maps), maps.reg)

    def test_encoded_box_masks_to_itself(self):
        maps = encode([BBox(2, 2, 8, 8)], (12, 12))
        masked = mask_maps(maps)
        np.testing.assert_array_equal(masked, maps.reg)


class TestNonFiniteMaps:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_regression_rejected(self, bad):
        maps = encode([BBox(8, 6, 30, 28)], (40, 36))
        maps.reg[1, 12, 12] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mask_maps(maps)
        with pytest.raises(ValueError, match="non-finite"):
            box_generator(maps)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_segmentation_rejected(self, bad):
        maps = encode([BBox(8, 6, 30, 28)], (40, 36))
        maps.seg[0, 0] = bad  # outside the box, where the regression is 0
        with pytest.raises(ValueError, match="non-finite"):
            box_generator(maps)


    @pytest.mark.parametrize("channel", [0, 1])
    @pytest.mark.parametrize(
        "reg, seg",
        [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (np.inf, 0.0), (1e200, 1e200), (-1e200, 1e200)],
        ids=["nan", "inf", "-inf", "inf-times-0", "overflow", "-overflow"],
    )
    def test_non_finite_product_rejected_without_a_warning(self, channel, reg, seg):
        """Each channel's product is taken on its own thread, each under
        its own errstate, so neither may warn."""
        maps = encode([BBox(8, 6, 30, 28)], (40, 36))
        maps.reg[channel, 12, 12] = reg
        maps.seg[12, 12] = seg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                mask_maps(maps)


class TestRemoveNoise:
    def test_single_speck_removed(self):
        grid = np.zeros((2, 16, 16))
        grid[0, 5, 5] = 0.9
        out = remove_noise(grid, min_patch_area=9)
        assert not out.any()

    def test_large_support_untouched(self):
        maps = encode([BBox(0, 0, 19, 19)], (24, 24))
        masked = mask_maps(maps)
        np.testing.assert_array_equal(remove_noise(masked, 9), masked)

    def test_component_size_threshold(self):
        grid = np.zeros((2, 24, 24))
        grid[0, 0:2, 0:2] = 0.5    # area 4 patch
        grid[1, 10:14, 10:14] = 0.5  # area 16 patch
        out = remove_noise(grid, min_patch_area=9)
        assert not out[0, 0:2, 0:2].any()
        assert out[1, 10:14, 10:14].all()
        # cross-check areas against the flood-fill reference
        support = (grid[0] > 0) | (grid[1] > 0)
        sizes = sorted(len(c) for c in _brute_force_components(support))
        assert sizes == [4, 16]

    def test_input_not_modified(self):
        grid = np.zeros((2, 16, 16))
        grid[0, 5, 5] = 0.9
        grid[1, 8:12, 8:12] = 0.5
        before = grid.copy()
        out = remove_noise(grid, min_patch_area=9)
        np.testing.assert_array_equal(grid, before)
        assert not out[0].any() and out[1, 8:12, 8:12].all()

    def test_removal_clears_both_channels(self):
        grid = np.zeros((2, 16, 16))
        grid[0, 3, 3] = 0.2
        grid[1, 3, 4] = 0.2  # same 8-connected patch, area 2
        out = remove_noise(grid, min_patch_area=3)
        assert not out.any()


class TestFindPeaks:
    def test_single_box_single_peak_per_channel(self):
        box = BBox(5, 7, 25, 30)
        maps = encode([box], (40, 40))
        cands = find_peaks(mask_maps(maps))
        assert cands.p1 == [(box.x0, box.y0)]
        assert cands.p2 == [(box.x1, box.y1)]

    def test_zero_grid_no_candidates(self):
        cands = find_peaks(np.zeros((2, 20, 20)))
        assert cands.p1 == [] and cands.p2 == []

    def test_two_disjoint_boxes(self):
        a = BBox(2, 2, 14, 14)
        b = BBox(24, 20, 36, 34)
        maps = encode([a, b], (48, 48))
        cands = find_peaks(mask_maps(maps))
        assert sorted(cands.p1) == sorted([(a.x0, a.y0), (b.x0, b.y0)])
        assert sorted(cands.p2) == sorted([(a.x1, a.y1), (b.x1, b.y1)])

    def test_peak_floor_rejects_low_values(self):
        grid = np.zeros((2, 20, 20))
        grid[0, 10, 10] = PEAK_FLOOR
        assert find_peaks(grid).p1 == []
        grid[0, 10, 10] = np.nextafter(PEAK_FLOOR, 1.0)
        assert find_peaks(grid).p1 == [(10, 10)]

    def test_plateau_keeps_lexicographically_smallest(self):
        grid = np.zeros((2, 20, 20))
        grid[0, 8, 9:12] = 0.8  # flat 3-pixel plateau
        cands = find_peaks(grid)
        assert cands.p1 == [(9, 8)]


class TestGenerateBoxes:
    def test_fully_segmented_box_kept(self):
        maps = encode([BBox(4, 4, 20, 18)], (32, 32))
        cands = CornerCandidates(p1=[(4, 4)], p2=[(20, 18)])
        out = generate_boxes(cands, maps.seg, BoxGeneratorConfig())
        assert out == [BBox(4, 4, 20, 18)]

    def test_cross_combinations_fail_delta(self):
        a = BBox(2, 2, 14, 14)
        b = BBox(40, 40, 52, 52)
        # On 160x160 the cross pair (diagonal 70.7) passes the diagonal test.
        maps = encode([a, b], (160, 160))
        cands = CornerCandidates(
            p1=[(a.x0, a.y0), (b.x0, b.y0)], p2=[(a.x1, a.y1), (b.x1, b.y1)]
        )
        out = generate_boxes(cands, maps.seg, BoxGeneratorConfig())
        assert out == [a, b]

    def test_reversed_pair_skipped(self):
        maps = encode([BBox(4, 4, 20, 18)], (32, 32))
        cands = CornerCandidates(p1=[(20, 18)], p2=[(4, 4)])
        assert generate_boxes(cands, maps.seg, BoxGeneratorConfig()) == []

    def test_delta_fraction_matches_brute_force(self):
        rng = np.random.default_rng(5)
        # Padded to 80x80 so that every pair passes the diagonal test.
        seg = np.pad(rng.random((30, 30)) < 0.7, (0, 50)).astype(float)
        cfg = BoxGeneratorConfig(delta=0.72)
        p1 = [(2, 3), (10, 1)]
        p2 = [(25, 27), (14, 9)]
        out = generate_boxes(CornerCandidates(p1, p2), seg, cfg)
        expected = []
        for ax, ay in p1:
            for bx, by in p2:
                if bx - ax < 2 or by - ay < 2:
                    continue
                total = occupied = 0
                for y in range(ay, by + 1):
                    for x in range(ax, bx + 1):
                        total += 1
                        occupied += seg[y, x] > 0
                if occupied / total >= cfg.delta:
                    expected.append(BBox(ax, ay, bx, by))
        assert out == sorted(expected, key=lambda b: (b.y0, b.x0, b.y1, b.x1))

    def test_diagonal_cap(self):
        """The box's diagonal, 42.4, exceeds half of 40x40's (28.3) and not
        half of 64x64's (45.3)."""
        cands = CornerCandidates(p1=[(0, 0)], p2=[(30, 30)])
        for side, decoded in ((40, []), (64, [BBox(0, 0, 30, 30)])):
            maps = encode([BBox(0, 0, 30, 30)], (side, side))
            assert generate_boxes(cands, maps.seg, BoxGeneratorConfig()) == decoded

    def test_diagonal_cap_is_inclusive_to_the_last_bit(self):
        # np.hypot(17, 27) rounds one ulp above math.hypot(17, 27), which is
        # exactly half the diagonal of a 34x54 grid.
        assert math.hypot(34, 54) / 2 == math.hypot(17, 27)
        box = BBox(3, 2, 20, 29)
        maps = encode([box], (34, 54))
        cands = CornerCandidates(p1=[(3, 2)], p2=[(20, 29)])
        assert generate_boxes(cands, maps.seg, BoxGeneratorConfig()) == [box]


class TestBoxGenerator:
    def test_zero_maps_empty(self):
        assert box_generator(zero_maps((32, 32))) == []

    def test_roundtrip_small_batch(self):
        cfg = SceneConfig()
        for seed in range(25):
            scene = generate_scene(cfg, seed)
            decoded = box_generator(scene.maps)
            assert len(decoded) == len(scene.boxes)
            matched = set()
            for d in decoded:
                best = max(range(len(scene.boxes)), key=lambda i: iou(d, scene.boxes[i]))
                assert iou(d, scene.boxes[best]) >= 0.9
                assert best not in matched
                matched.add(best)

    def test_determinism(self):
        scene = generate_scene(SceneConfig(), 77)
        first = box_generator(scene.maps)
        second = box_generator(scene.maps)
        assert first == second

    def test_delta_monotonicity(self):
        scene = generate_scene(SceneConfig(box_count=(6, 6)), 3)
        noisy = corrupt_maps(scene.maps, 0.05, 0.01, seed=99)
        loose = set(b.as_tuple() for b in box_generator(noisy, BoxGeneratorConfig(delta=0.6)))
        tight = set(b.as_tuple() for b in box_generator(noisy, BoxGeneratorConfig(delta=0.9)))
        assert tight <= loose

    def test_noisy_recovery_smoke(self):
        hits = total = 0
        for seed in range(20):
            scene = generate_scene(SceneConfig(box_count=(4, 8)), 1000 + seed)
            noisy = corrupt_maps(scene.maps, 0.05, 0.01, seed=seed)
            decoded = box_generator(noisy)
            for g in scene.boxes:
                total += 1
                if any(iou(d, g) >= 0.8 for d in decoded):
                    hits += 1
        assert hits / total >= 0.9
