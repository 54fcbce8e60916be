import numpy as np
import pytest

from aeropipe.geometry import BBox, center, iou, separation


class TestBBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BBox(5, 5, 5, 9)
        with pytest.raises(ValueError):
            BBox(5, 5, 9, 5)
        with pytest.raises(ValueError):
            BBox(5, 5, 4, 9)

    def test_rejects_below_min_side(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, 1)
        BBox(0, 0, 2, 2)  # smallest accepted

    def test_contains_inclusive(self):
        b = BBox(2, 3, 6, 8)
        assert b.contains(2, 3) and b.contains(6, 8)
        assert not b.contains(1, 3) and not b.contains(7, 8)


class TestIou:
    def test_identity(self):
        b = BBox(4, 4, 30, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 5, 5), BBox(10, 10, 20, 20)) == 0.0

    def test_hand_computed_overlap(self):
        # overlap 9x9 = 81, union 100 + 100 - 81 = 119
        value = iou(BBox(0, 0, 10, 10), BBox(1, 1, 11, 11))
        assert value == pytest.approx(81.0 / 119.0, abs=1e-12)

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            x0, y0 = rng.integers(0, 50, size=2)
            a = BBox(x0, y0, x0 + rng.integers(2, 40), y0 + rng.integers(2, 40))
            x0, y0 = rng.integers(0, 50, size=2)
            b = BBox(x0, y0, x0 + rng.integers(2, 40), y0 + rng.integers(2, 40))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0


class TestCenter:
    def test_cases(self):
        assert center(BBox(0, 0, 10, 10)) == (5.0, 5.0)
        assert center(BBox(2, 4, 6, 8)) == (4.0, 6.0)
        assert center(BBox(0, 0, 3, 5)) == (1.5, 2.5)


class TestSeparation:
    def test_gap_counts_empty_pixels(self):
        a = BBox(0, 0, 10, 10)
        assert separation(a, BBox(14, 0, 24, 10)) == 3
        assert separation(a, BBox(11, 0, 21, 10)) == 0
        assert separation(a, BBox(5, 5, 15, 15)) < 0
        assert separation(a, BBox(0, 20, 10, 30)) == 9
