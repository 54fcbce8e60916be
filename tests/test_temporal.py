import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeropipe.geometry import BBox, center
from aeropipe.tensorio import TensorFormatError, load_named_tensors, save_named_tensors
from aeropipe.temporal import (
    ActivityModel,
    Adam,
    AdamConfig,
    BnLstmCell,
    LossBatch,
    Track,
    TrackStore,
    associate,
    bnlstm_step,
    load_model,
    loss_gradient,
    multi_activity_loss,
    predict,
    save_model,
    softmax,
)
from reference import _reference_associate

BN_EPS = 1e-5


def _scalar_bn(x, gamma, beta, training, running_mean, running_var):
    """Plain-loop batch normalization reference (population variance)."""
    batch, feats = x.shape
    out = np.zeros_like(x)
    for j in range(feats):
        col = x[:, j]
        if training:
            mean = sum(col) / batch
            var = sum((v - mean) ** 2 for v in col) / batch
        else:
            mean, var = running_mean[j], running_var[j]
        for i in range(batch):
            out[i, j] = gamma[j] * (col[i] - mean) / math.sqrt(var + BN_EPS) + beta[j]
    return out


def _scalar_cell_step(cell, x, h_prev, c_prev, training):
    """Independent re-implementation of one recurrent step."""
    nh = cell.hidden_size
    xh = np.array([[sum(x[i, k] * cell.w_xh[k, j] for k in range(cell.input_size))
                    for j in range(4 * nh)] for i in range(x.shape[0])])
    hh = np.array([[sum(h_prev[i, k] * cell.w_hh[k, j] for k in range(nh))
                    for j in range(4 * nh)] for i in range(x.shape[0])])
    pre = (
        _scalar_bn(xh, cell.bn_x.gamma, cell.bn_x.beta, training,
                   cell.bn_x.running_mean, cell.bn_x.running_var)
        + _scalar_bn(hh, cell.bn_h.gamma, cell.bn_h.beta, training,
                     cell.bn_h.running_mean, cell.bn_h.running_var)
        + cell.bias
    )
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i_g = np.vectorize(sig)(pre[:, 0 * nh : 1 * nh])
    f_g = np.vectorize(sig)(pre[:, 1 * nh : 2 * nh])
    g = np.tanh(pre[:, 2 * nh : 3 * nh])
    o_g = np.vectorize(sig)(pre[:, 3 * nh : 4 * nh])
    c = f_g * c_prev + i_g * g
    c_norm = _scalar_bn(c, cell.bn_c.gamma, cell.bn_c.beta, training,
                        cell.bn_c.running_mean, cell.bn_c.running_var)
    return o_g * np.tanh(c_norm), c


class TestBnLstmCell:
    def test_zero_weights_forced_gates(self):
        cell = BnLstmCell(4, 3)
        h, c = cell.zero_state(2)
        x = np.ones((2, 4))
        h_out, c_out = bnlstm_step(cell, x, h, c)
        np.testing.assert_array_equal(c_out, 0.0)
        np.testing.assert_array_equal(h_out, 0.0)

    def test_zero_weights_halve_cell_state(self):
        cell = BnLstmCell(4, 3)
        h, _ = cell.zero_state(2)
        c_prev = np.arange(6, dtype=float).reshape(2, 3)
        _, c_out = bnlstm_step(cell, np.ones((2, 4)), h, c_prev)
        np.testing.assert_allclose(c_out, 0.5 * c_prev, atol=1e-15)

    def test_train_mode_rejects_singleton_batch(self):
        cell = BnLstmCell(4, 3, seed=1)
        h, c = cell.zero_state(1)
        with pytest.raises(ValueError, match="batch size"):
            bnlstm_step(cell, np.ones((1, 4)), h, c, training=True)
        # Two rows are the smallest batch with a defined batch variance.
        h, c = cell.zero_state(2)
        h_out, c_out = bnlstm_step(cell, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]), h, c, training=True)
        assert h_out.shape == c_out.shape == (2, 3)
        assert np.isfinite(h_out).all() and np.isfinite(c_out).all()

    @pytest.mark.parametrize("training", [False, True])
    def test_matches_scalar_reference(self, training):
        cell = BnLstmCell(5, 4, seed=11)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5))
        h_prev = rng.normal(size=(3, 4)) * 0.1
        c_prev = rng.normal(size=(3, 4)) * 0.1
        ref_cell = BnLstmCell(5, 4, seed=11)
        h_ref, c_ref = _scalar_cell_step(ref_cell, x, h_prev, c_prev, training)
        h_out, c_out = bnlstm_step(cell, x, h_prev, c_prev, training=training)
        np.testing.assert_allclose(h_out, h_ref, atol=1e-6)
        np.testing.assert_allclose(c_out, c_ref, atol=1e-6)
        if training:
            # exponential moving average with momentum 0.1 from fresh stats
            expected = 0.1 * (x @ ref_cell.w_xh).mean(axis=0)
            np.testing.assert_allclose(cell.bn_x.running_mean, expected, atol=1e-12)
        else:
            np.testing.assert_array_equal(cell.bn_x.running_mean, 0.0)

    def test_gate_ranges(self):
        cell = BnLstmCell(6, 8, seed=3)
        rng = np.random.default_rng(1)
        h, c = cell.zero_state(16)
        h_out, c_out = bnlstm_step(cell, rng.normal(size=(16, 6)) * 100, h, c)
        assert np.all(np.abs(h_out) < 1.0)
        assert np.all(np.isfinite(c_out))

    def test_train_mode_normalization_statistics(self):
        cell = BnLstmCell(32, 16, seed=5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 32))
        pre = x @ cell.w_xh
        normalized = cell.bn_x.standardize(pre, training=True)
        assert np.abs(normalized.mean(axis=0)).max() < 1e-6
        assert np.abs(normalized.var(axis=0) - 1.0).max() < 1e-4


class TestPredict:
    def test_zero_weight_heads_are_uniform(self):
        model = ActivityModel.build(input_size=8, hidden_size=4)
        h, c = model.cell.zero_state(3)
        a_p, a_s, conf, _, _ = predict(model, np.ones((3, 8)), h, c)
        np.testing.assert_allclose(a_p, 0.25, atol=1e-12)
        np.testing.assert_allclose(a_s, 0.2, atol=1e-12)
        np.testing.assert_allclose(conf, 0.5, atol=1e-12)

    def test_distributions_sum_to_one(self):
        model = ActivityModel.build(input_size=8, hidden_size=4, seed=9)
        rng = np.random.default_rng(3)
        model.heads.w_primary[:] = rng.normal(size=model.heads.w_primary.shape)
        model.heads.w_secondary[:] = rng.normal(size=model.heads.w_secondary.shape)
        h, c = model.cell.zero_state(5)
        a_p, a_s, conf, _, _ = predict(model, rng.normal(size=(5, 8)), h, c)
        np.testing.assert_allclose(a_p.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(a_s.sum(axis=1), 1.0, atol=1e-6)
        assert np.all((conf > 0) & (conf < 1))
        assert np.all(a_p >= 0) and np.all(a_s >= 0)


def _brute_force_greedy(dist, max_dist):
    """Reference greedy matcher on an explicit distance matrix."""
    pairs = []
    used_t, used_d = set(), set()
    order = sorted(
        ((dist[t, d], t, d) for t in range(dist.shape[0]) for d in range(dist.shape[1]))
    )
    for value, t, d in order:
        if value > max_dist or t in used_t or d in used_d:
            continue
        pairs.append((t, d))
        used_t.add(t)
        used_d.add(d)
    return sorted(pairs)


def _track_at(track_id, box):
    return Track(track_id, np.zeros(4), np.zeros(4), box)


class TestAssociate:
    def test_identity_matching(self):
        boxes = [BBox(0, 0, 10, 10), BBox(30, 30, 44, 40)]
        tracks = [_track_at(i, b) for i, b in enumerate(boxes)]
        assert sorted(associate(tracks, boxes, max_dist=40)) == [(0, 0), (1, 1)]

    def test_no_tracks_spawns_everything(self):
        boxes = [BBox(0, 0, 10, 10), BBox(30, 30, 44, 40)]
        assert associate([], boxes, max_dist=40) == []
        store = TrackStore(hidden_size=4, max_dist=40, max_age=2)
        assert [t.track_id for t in store.step(boxes)] == [0, 1]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            nt, nd = rng.integers(1, 6, size=2)
            tracks = []
            for i in range(nt):
                x0, y0 = rng.integers(0, 100, size=2)
                tracks.append(_track_at(i, BBox(int(x0), int(y0), int(x0) + 10, int(y0) + 10)))
            dets = []
            for _ in range(nd):
                x0, y0 = rng.integers(0, 100, size=2)
                dets.append(BBox(int(x0), int(y0), int(x0) + 10, int(y0) + 10))
            from aeropipe.geometry import center

            dist = np.array(
                [
                    [math.hypot(*(np.subtract(center(t.last_box), center(d)))) for d in dets]
                    for t in tracks
                ]
            )
            matches = associate(tracks, dets, max_dist=30)
            assert sorted(matches) == _brute_force_greedy(dist, 30)
            # injective both ways, max_dist respected
            ts = [t for t, _ in matches]
            ds = [d for _, d in matches]
            assert len(set(ts)) == len(ts) and len(set(ds)) == len(ds)
            for t, d in matches:
                assert dist[t, d] <= 30

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12),
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12),
        st.sampled_from([0.0, 5.0, 12.5, 30.0, 1e9, math.inf]),
    )
    # Repeated corners: at max_dist 0 only the coincident pairs match, in
    # index order; at inf every pair is a candidate.
    @example([(0, 0), (0, 0), (8, 6), (20, 20)], [(8, 6), (0, 0), (0, 0), (21, 20)], 0.0)
    @example([(0, 0), (0, 0), (8, 6), (60, 60)], [(8, 6), (0, 0), (0, 0)], math.inf)
    @example([(0, 0), (60, 60)], [(60, 0), (0, 60)], math.inf)
    def test_equals_the_tuple_sort_reference(self, track_corners, det_corners, max_dist):
        # Coarse corners and fixed sizes make equal distances, so ties occur.
        tracks = [_track_at(i, BBox(x, y, x + 8, y + 6)) for i, (x, y) in enumerate(track_corners)]
        dets = [BBox(x, y, x + 8, y + 6) for x, y in det_corners]
        assert associate(tracks, dets, max_dist) == _reference_associate(tracks, dets, max_dist).matches

    def test_track_store_lifecycle(self):
        store = TrackStore(hidden_size=4, max_dist=20, max_age=2)
        first = store.step([BBox(0, 0, 10, 10)])
        assert [t.track_id for t in first] == [0]
        # same box: same track
        again = store.step([BBox(1, 1, 11, 11)])
        assert again[0].track_id == 0
        # disappear for max_age + 1 frames: retired
        for _ in range(3):
            store.step([])
        fresh = store.step([BBox(0, 0, 10, 10)])
        assert fresh[0].track_id == 1

    def test_step_edits_no_track_it_held(self):
        """A shallow copy of the store taken before a step reads the tracks
        as they were: matched, aged, retired and spawned alike."""
        store = TrackStore(hidden_size=4, max_dist=20, max_age=1)
        store.step([BBox(0, 0, 10, 10), BBox(50, 50, 60, 60), BBox(90, 0, 99, 9)])
        store.step([BBox(1, 1, 11, 11), BBox(51, 51, 61, 61)])
        held = list(store.tracks)
        before = [(t.track_id, t.h.tobytes(), t.c.tobytes(), t.last_box, t.age) for t in held]
        old = copy.copy(store)
        out = store.step([BBox(2, 2, 12, 12), BBox(120, 80, 130, 90)])
        for t in out:
            t.h, t.c = t.h + 1.0, t.c + 1.0
        assert old.tracks is not store.tracks and old.tracks == held
        assert [(t.track_id, t.h.tobytes(), t.c.tobytes(), t.last_box, t.age) for t in held] == before
        assert [(t.track_id, t.last_box, t.age) for t in store.tracks] == [
            (0, BBox(2, 2, 12, 12), 0),
            (1, BBox(51, 51, 61, 61), 1),
            (3, BBox(120, 80, 130, 90), 0),
        ]
        assert not {id(t) for t in store.tracks} & {id(t) for t in held}


class TestMultiActivityLoss:
    def _uniform_batch(self, lambda_w=0.5):
        return LossBatch(
            primary_pred=[np.array([[0.5, 0.5]])],
            secondary_pred=[np.array([[0.5, 0.5]])],
            primary_target=[np.array([[1.0, 0.0]])],
            secondary_target=[np.array([[0.0, 1.0]])],
            lambda_w=lambda_w,
        )

    def test_perfect_predictions_zero_loss(self):
        batch = LossBatch(
            primary_pred=[np.array([[1.0, 0.0], [0.0, 1.0]])],
            secondary_pred=[np.array([[0.0, 1.0], [1.0, 0.0]])],
            primary_target=[np.array([[1.0, 0.0], [0.0, 1.0]])],
            secondary_target=[np.array([[0.0, 1.0], [1.0, 0.0]])],
        )
        assert multi_activity_loss(batch) == 0.0

    def test_hand_computed_uniform_case(self):
        # ln2 / 2 + 0.5 * ln2 / 2 = 0.75 * ln2 = 0.519860385...
        value = multi_activity_loss(self._uniform_batch())
        assert value == pytest.approx(0.75 * math.log(2), abs=1e-12)
        assert value == pytest.approx(0.519861, abs=1e-6)

    def test_lambda_scales_only_secondary(self):
        base = multi_activity_loss(self._uniform_batch(lambda_w=0.0))
        half = multi_activity_loss(self._uniform_batch(lambda_w=0.5))
        one = multi_activity_loss(self._uniform_batch(lambda_w=1.0))
        assert one - base == pytest.approx(2 * (half - base), rel=1e-12)

    def test_degenerate_prediction_is_finite(self):
        batch = LossBatch(
            primary_pred=[np.array([[0.0, 1.0]])],
            secondary_pred=[np.array([[1.0, 0.0]])],
            primary_target=[np.array([[1.0, 0.0]])],
            secondary_target=[np.array([[1.0, 0.0]])],
        )
        value = multi_activity_loss(batch)
        assert np.isfinite(value)
        assert value == pytest.approx((-math.log(1e-12)) / 2, rel=1e-6)



def _random_logit_batch(rng, frames=3):
    lp, ls, tp_, ts_ = [], [], [], []
    n_p, n_s = 4, 5
    for _ in range(frames):
        n_t = int(rng.integers(1, 5))
        lp.append(rng.normal(size=(n_t, n_p)))
        ls.append(rng.normal(size=(n_t, n_s)))
        tp_.append(np.eye(n_p)[rng.integers(0, n_p, size=n_t)])
        ts_.append(np.eye(n_s)[rng.integers(0, n_s, size=n_t)])
    return lp, ls, tp_, ts_


def _batch_from_logits(lp, ls, tp_, ts_, lambda_w=0.5):
    return LossBatch(
        primary_pred=[softmax(z) for z in lp],
        secondary_pred=[softmax(z) for z in ls],
        primary_target=tp_,
        secondary_target=ts_,
        lambda_w=lambda_w,
    )


class TestLossGradient:
    def test_uniform_case_hand_gradient(self):
        # primary true-class logit gradient: -(1 - 0.5) / (N_t * N_p * T)
        lp = [np.zeros((1, 2))]
        ls = [np.zeros((1, 2))]
        tp_ = [np.array([[1.0, 0.0]])]
        ts_ = [np.array([[0.0, 1.0]])]
        gp, gs = loss_gradient(_batch_from_logits(lp, ls, tp_, ts_))
        assert gp[0][0, 0] == pytest.approx(-0.25, abs=1e-12)
        assert gp[0][0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(21)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            lp, ls, tp_, ts_ = _random_logit_batch(rng)
            gp, gs = loss_gradient(_batch_from_logits(lp, ls, tp_, ts_))
            for grads, logits in ((gp, lp), (gs, ls)):
                t = int(rng.integers(0, len(logits)))
                i = int(rng.integers(0, logits[t].shape[0]))
                j = int(rng.integers(0, logits[t].shape[1]))
                logits[t][i, j] += step
                up = multi_activity_loss(_batch_from_logits(lp, ls, tp_, ts_))
                logits[t][i, j] -= 2 * step
                down = multi_activity_loss(_batch_from_logits(lp, ls, tp_, ts_))
                logits[t][i, j] += step
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), 1e-8)
                worst = max(worst, abs(grads[t][i, j] - fd) / denom)
        assert worst < 1e-4

    def test_saturated_gradient_is_tiny(self):
        lp = [np.array([[20.0, -20.0, -20.0, -20.0]])]
        ls = [np.array([[20.0, -20.0, -20.0, -20.0, -20.0]])]
        tp_ = [np.eye(4)[[0]]]
        ts_ = [np.eye(5)[[0]]]
        gp, gs = loss_gradient(_batch_from_logits(lp, ls, tp_, ts_))
        assert np.abs(gp[0]).max() < 1e-3
        assert np.abs(gs[0]).max() < 1e-3


class TestAdam:
    def test_zero_learning_rate_freezes_params(self):
        params = {"w": np.ones((3, 3))}
        before = params["w"].copy()
        opt = Adam(params, AdamConfig(learning_rate=0.0))
        opt.step({"w": np.full((3, 3), 5.0)})
        np.testing.assert_array_equal(params["w"], before)

    def test_descends_a_quadratic(self):
        params = {"w": np.array([4.0, -3.0])}
        opt = Adam(params, AdamConfig(learning_rate=0.05))
        for _ in range(2000):
            opt.step({"w": 2.0 * params["w"]})
        assert np.abs(params["w"]).max() < 1e-2


class TestModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = ActivityModel.build(input_size=12, hidden_size=6, seed=13)
        rng = np.random.default_rng(4)
        model.heads.w_primary[:] = rng.normal(size=model.heads.w_primary.shape)
        model.cell.bn_c.running_var[:] = rng.random(6) + 0.5
        path = str(tmp_path / "model.aero")
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.cell.w_xh, model.cell.w_xh)
        np.testing.assert_array_equal(back.heads.w_primary, model.heads.w_primary)
        np.testing.assert_array_equal(back.cell.bn_c.running_var, model.cell.bn_c.running_var)
        # deterministic bytes
        path2 = str(tmp_path / "model2.aero")
        save_model(path2, model)
        assert Path(path).read_bytes() == Path(path2).read_bytes()

    @pytest.mark.parametrize(
        "name, shape", [("cell.bn_c.gamma", (1,)), ("heads.w_conf", (1, 1)), ("heads.w_primary", (5,))]
    )
    def test_load_rejects_a_broadcastable_shape(self, tmp_path, name, shape):
        path = str(tmp_path / "model.aero")
        save_model(path, ActivityModel.build(input_size=12, hidden_size=6, seed=13))
        tensors = load_named_tensors(path)
        tensors[name] = np.full(shape, 0.5)
        save_named_tensors(path, tensors)
        with pytest.raises(TensorFormatError, match=name):
            load_model(path)

    @pytest.mark.parametrize("name", ["heads.w_primary", "heads.w_secondary"])
    def test_load_rejects_a_one_label_head(self, tmp_path, name):
        path = str(tmp_path / "model.aero")
        save_model(path, ActivityModel.build(input_size=12, hidden_size=6, seed=13))
        tensors = load_named_tensors(path)
        tensors[name] = np.full((6, 1), 0.5)
        tensors[name.replace("w_", "b_")] = np.full(1, 0.5)
        save_named_tensors(path, tensors)
        with pytest.raises(TensorFormatError, match=name):
            load_model(path)

    @pytest.mark.parametrize(
        "name, value", [("heads.w_conf", np.nan), ("cell.w_xh", np.inf), ("cell.bn_c.running_var", -np.inf)]
    )
    def test_load_rejects_a_non_finite_record(self, tmp_path, name, value):
        """A NaN confidence weight once loaded, and every detection then
        failed the NMS score floor without a sign."""
        path = str(tmp_path / "model.aero")
        save_model(path, ActivityModel.build(input_size=12, hidden_size=6, seed=13))
        tensors = load_named_tensors(path)
        tensors[name].flat[-1] = value
        save_named_tensors(path, tensors)
        with pytest.raises(TensorFormatError, match=f"{path}: '{name}' holds NaN or an infinity"):
            load_model(path)

    def test_load_checks_shapes_before_building(self, tmp_path, monkeypatch):
        # cell.w_xh (3, 8) means hidden size 2, so cell.w_hh must be (2, 8).
        path = str(tmp_path / "model.aero")
        save_named_tensors(
            path,
            {
                "cell.w_xh": np.zeros((3, 8)),
                "cell.w_hh": np.zeros((5, 5)),
                "heads.w_primary": np.zeros((2, 3)),
                "heads.w_secondary": np.zeros((2, 2)),
                "heads.w_conf": np.zeros((2, 1)),
            },
        )

        def build(*args, **kwargs):
            pytest.fail("the model was built before its shapes were checked")

        monkeypatch.setattr(ActivityModel, "build", build)
        with pytest.raises(TensorFormatError, match="cell.w_hh"):
            load_model(path)

    def test_build_rejects_a_one_class_head(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            ActivityModel.build(input_size=8, hidden_size=4, n_primary=1)
        with pytest.raises(ValueError, match="at least 2 classes"):
            ActivityModel.build(input_size=8, hidden_size=4, n_secondary=1)
