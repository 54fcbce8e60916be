import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeropipe.annotations import AnnotationRecord
from aeropipe.evaluate import (
    EvalConfig,
    _interpolated_ap,
    action_map,
    evaluate_map,
    nms,
)
from aeropipe.geometry import BBox, iou
from reference import _reference_action_map, _reference_interpolated_ap, _reference_nms


def _det(x0, y0, x1, y1, conf, primary=None, secondary=None, frame=0, track=-1):
    return AnnotationRecord(
        frame_id=frame,
        box=BBox(x0, y0, x1, y1),
        track_id=track,
        primary_action=-1 if primary is None else int(np.argmax(primary)),
        secondary_action=-1 if secondary is None else int(np.argmax(secondary)),
        confidence=conf,
    )


class TestNms:
    def test_single_detection_kept(self):
        d = _det(0, 0, 10, 10, 0.7)
        assert nms([d], 0.5) == [d]

    def test_below_floor_removed(self):
        assert nms([_det(0, 0, 10, 10, 0.2)], 0.5, score_floor=0.3) == []

    def test_identical_boxes_keep_strongest(self):
        a = _det(0, 0, 10, 10, 0.9)
        b = _det(0, 0, 10, 10, 0.8)
        assert nms([b, a], 0.5) == [a]

    def test_hand_computed_overlap_case(self):
        # IoU(A, B) = 81/119 ~ 0.6807 > 0.5, so only A survives
        a = _det(0, 0, 10, 10, 0.9)
        b = _det(1, 1, 11, 11, 0.8)
        assert nms([a, b], 0.5) == [a]
        # at threshold 0.7 the same pair no longer suppresses
        assert len(nms([a, b], 0.7)) == 2

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            n = int(rng.integers(0, 11))
            dets = []
            for _ in range(n):
                x0, y0 = rng.integers(0, 40, size=2)
                w, h = rng.integers(2, 20, size=2)
                conf = float(rng.choice([0.2, 0.4, 0.5, 0.6, 0.6, 0.8, 0.9]))
                dets.append(_det(int(x0), int(y0), int(x0 + w), int(y0 + h), conf))
            ours = nms(dets, 0.5, score_floor=0.3)
            reference = _reference_nms(dets, 0.5, score_floor=0.3)
            assert ours == reference
            # idempotence and the antichain property
            assert nms(ours, 0.5, score_floor=0.3) == ours
            from aeropipe.geometry import iou

            for i, a in enumerate(ours):
                for b in ours[i + 1 :]:
                    assert iou(a.box, b.box) <= 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12), st.integers(0, 12), st.integers(2, 8), st.integers(2, 8),
                st.sampled_from([0.2, 0.3, 0.5, 0.5, 0.5, 0.7, 0.9, 1.0]),
            ),
            max_size=30,
        ),
        st.sampled_from([0.0, 0.5, 1.0, 0.25, 0.75]),
        st.sampled_from([0.0, 0.3, 0.5, 0.51, 1.0]),
    )
    def test_equals_the_reference_property(self, specs, iou_threshold, score_floor):
        """Coarse corners make equal boxes, edge- and corner-touching boxes
        (zero-area intersections) and ties in confidence and in (y0, x0);
        the default model gives every detection 0.5."""
        dets = [_det(x, y, x + w, y + h, conf) for x, y, w, h, conf in specs]
        ours = nms(dets, iou_threshold, score_floor=score_floor)
        reference = _reference_nms(dets, iou_threshold, score_floor)
        assert len(ours) == len(reference) and all(a is b for a, b in zip(ours, reference))

    def test_raising_floor_never_adds(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            dets = []
            for _ in range(8):
                x0, y0 = rng.integers(0, 30, size=2)
                dets.append(_det(int(x0), int(y0), int(x0) + 10, int(y0) + 10, float(rng.random())))
            low = {id(d) for d in nms(dets, 0.5, score_floor=0.2)}
            high = {id(d) for d in nms(dets, 0.5, score_floor=0.5)}
            assert high <= low


def _gt(frame, x0, y0, x1, y1, primary=-1, secondary=-1):
    return AnnotationRecord(
        frame_id=frame, box=BBox(x0, y0, x1, y1), primary_action=primary, secondary_action=secondary
    )


class TestEvaluateMap:
    def test_perfect_predictions(self):
        gt = {0: [_gt(0, 0, 0, 10, 10), _gt(0, 20, 20, 30, 30)]}
        preds = {0: [_det(0, 0, 10, 10, 1.0), _det(20, 20, 30, 30, 1.0)]}
        ap, _ = evaluate_map(preds, gt)
        assert ap == 1.0

    def test_no_predictions(self):
        gt = {0: [_gt(0, 0, 0, 10, 10)]}
        ap, _ = evaluate_map({0: []}, gt)
        assert ap == 0.0

    def test_hand_computed_pr_curve(self):
        # 2 GT; one TP at IoU 0.7 (conf 0.9) and one far FP (conf 0.8):
        # PR points (1.0, 0.5) then (0.5, 0.5); all-point AP = 0.5
        gt = {0: [_gt(0, 0, 0, 20, 20), _gt(0, 60, 60, 80, 80)]}
        tp_box = _det(0, 0, 20, 16, 0.9)  # IoU = 320/400 = 0.8 >= 0.5
        fp_box = _det(100, 100, 120, 120, 0.8)
        ap, curve = evaluate_map({0: [tp_box, fp_box]}, gt)
        np.testing.assert_allclose(curve.precision, [1.0, 0.5])
        np.testing.assert_allclose(curve.recall, [0.5, 0.5])
        assert ap == pytest.approx(0.5, abs=1e-9)

    def test_empty_ground_truth_warns(self):
        with pytest.warns(UserWarning, match="empty ground truth"):
            ap, _ = evaluate_map({0: [_det(0, 0, 10, 10, 0.5)]}, {0: []})
        assert ap == 0.0

    def test_each_ground_truth_matched_once(self):
        gt = {0: [_gt(0, 0, 0, 10, 10)]}
        preds = {0: [_det(0, 0, 10, 10, 0.9), _det(0, 0, 10, 10, 0.8)]}
        ap, curve = evaluate_map(preds, gt)
        # second duplicate is a false positive
        np.testing.assert_allclose(curve.precision, [1.0, 0.5])
        assert ap == 1.0

    def test_ranking_only_dependence(self):
        rng = np.random.default_rng(200)
        gt = {0: [_gt(0, 0, 0, 10, 10), _gt(0, 30, 30, 42, 44), _gt(0, 60, 5, 70, 18)]}
        preds = {
            0: [
                _det(1, 1, 11, 11, 0.9),
                _det(30, 30, 42, 44, 0.6),
                _det(80, 80, 90, 90, 0.5),
                _det(60, 5, 70, 18, 0.3),
            ]
        }
        base, _ = evaluate_map(preds, gt)
        squash = {
            0: [
                AnnotationRecord(frame_id=0, box=d.box, confidence=0.1 + 0.8 * d.confidence**2)
                for d in preds[0]
            ]
        }
        transformed, _ = evaluate_map(squash, gt)
        assert transformed == pytest.approx(base, abs=1e-12)

    def test_iou_threshold_respected(self):
        gt = {0: [_gt(0, 0, 0, 10, 10)]}
        preds = {0: [_det(1, 1, 11, 11, 0.9)]}  # IoU ~ 0.68
        assert evaluate_map(preds, gt, EvalConfig(iou_threshold=0.5))[0] == 1.0
        assert evaluate_map(preds, gt, EvalConfig(iou_threshold=0.7))[0] == 0.0


class TestActionMap:
    def test_perfect_boxes_and_labels(self):
        gt = {0: [_gt(0, 0, 0, 10, 10, primary=1, secondary=2)]}
        preds = {0: [_det(0, 0, 10, 10, 0.9, primary=[0.1, 0.8, 0.1], secondary=[0.1, 0.2, 0.7])]}
        assert action_map(preds, gt) == (1.0, 1.0)

    def test_all_wrong_primary_labels(self):
        gt = {
            0: [
                _gt(0, 0, 0, 10, 10, primary=0, secondary=0),
                _gt(0, 30, 30, 40, 40, primary=1, secondary=0),
            ]
        }
        preds = {
            0: [
                _det(0, 0, 10, 10, 0.9, primary=[0.2, 0.8], secondary=[1.0]),
                _det(30, 30, 40, 40, 0.8, primary=[0.8, 0.2], secondary=[1.0]),
            ]
        }
        primary_ap, _ = action_map(preds, gt)
        assert primary_ap == 0.0

    def test_detection_without_actions_scores_as_unknown(self):
        gt = {0: [_gt(0, 0, 0, 10, 10, primary=0, secondary=0)]}
        preds = {0: [AnnotationRecord(frame_id=0, box=BBox(0, 0, 10, 10), confidence=0.9)]}
        assert action_map(preds, gt) == (0.0, 0.0)

    def test_hand_computed_mixed_instance(self):
        # class 0: detections TP(0.9), FP(0.8), TP(0.7) over 2 GT
        #   -> AP = 0.5 * 1 + 0.5 * (2/3) = 5/6
        # class 1: one non-overlapping FP over 1 GT -> AP = 0
        # macro primary AP = 5/12; all secondary labels correct -> 1.0
        gt = {
            0: [
                _gt(0, 0, 0, 10, 10, primary=0, secondary=0),
                _gt(0, 20, 20, 30, 30, primary=1, secondary=0),
                _gt(0, 40, 40, 50, 50, primary=0, secondary=0),
            ]
        }
        preds = {
            0: [
                _det(0, 0, 10, 10, 0.9, primary=[0.7, 0.3], secondary=[1.0]),
                _det(20, 20, 30, 30, 0.8, primary=[0.7, 0.3], secondary=[1.0]),
                _det(40, 40, 50, 50, 0.7, primary=[0.7, 0.3], secondary=[1.0]),
                _det(100, 100, 110, 110, 0.6, primary=[0.3, 0.7], secondary=[1.0]),
            ]
        }
        primary_ap, secondary_ap = action_map(preds, gt)
        assert primary_ap == pytest.approx(5.0 / 12.0, abs=1e-9)
        assert secondary_ap == pytest.approx(1.0, abs=1e-9)


# The current `action_map` must give exactly the numbers of the per-action
# AP before it read labels by attribute name (`reference.py`).
_box = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h),
    st.integers(0, 30), st.integers(0, 30), st.integers(2, 12), st.integers(2, 12),
)
_dist = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)
)


@st.composite
def _scored_frames(draw):
    """Ground truth on up to three frames; predictions often reuse those
    boxes, so matches, duplicates and confidence ties all occur."""
    label = st.integers(-1, 2)
    gt = {
        fid: [
            AnnotationRecord(frame_id=fid, box=b, primary_action=draw(label), secondary_action=draw(label))
            for b in draw(st.lists(_box, min_size=1, max_size=5))
        ]
        for fid in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    }
    preds = {}
    for fid in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
        known = [r.box for r in gt.get(fid, [])]
        box = st.one_of(st.sampled_from(known), _box) if known else _box
        preds[fid] = [
            AnnotationRecord(
                frame_id=fid,
                box=b,
                confidence=draw(st.sampled_from([0.2, 0.5, 0.9])),
                primary_action=int(np.argmax(draw(_dist))),
                secondary_action=int(np.argmax(draw(_dist))),
            )
            for b in draw(st.lists(box, max_size=6))
        ]
    return preds, gt, EvalConfig(draw(st.sampled_from([0.1, 0.5, 0.9])))


@settings(max_examples=300, deadline=None)
@given(_scored_frames())
def test_action_map_equals_reference(inputs):
    preds, gt, cfg = inputs
    assert action_map(preds, gt, cfg) == _reference_action_map(preds, gt, cfg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=40), st.integers(0, 45))
def test_interpolated_ap_equals_reference(flags, extra_gt):
    # Curves as _ap_from_flags builds them, repeated recalls included.
    tp = np.array(flags, dtype=bool)
    total_gt = max(int(tp.sum()) + extra_gt, 1)
    recall = np.cumsum(tp) / total_gt
    precision = np.cumsum(tp) / np.arange(1, len(tp) + 1)
    assert _interpolated_ap(recall, precision) == _reference_interpolated_ap(recall, precision)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=30))
def test_interpolated_ap_equals_reference_on_any_curve(points):
    recall = np.sort(np.array([r for r, _ in points]))
    precision = np.array([p for _, p in points])
    assert _interpolated_ap(recall, precision) == _reference_interpolated_ap(recall, precision)
