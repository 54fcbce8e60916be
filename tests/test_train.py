import copy

import numpy as np
import pytest

from aeropipe.synth import crop_dataset
from aeropipe.temporal import (
    DivergenceGuard,
    ActivityModel,
    AdamConfig,
    TrainingDiverged,
    bnlstm_step,
    train_toy,
)


def _two_class_dataset(n=200, dim=40, seed=0):
    """Linearly separable two-class set: opposite means, small noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    means = np.stack([np.full(dim, -1.0), np.full(dim, 1.0)])
    features = means[labels] + rng.uniform(-0.2, 0.2, size=(n, dim))
    return features, labels


class TestTrainToy:
    def test_zero_learning_rate_changes_nothing(self):
        ds = crop_dataset(seed=1, n_samples=64, feature_shape=(3, 4, 4))
        model = ActivityModel.build(input_size=48, hidden_size=8, seed=2)
        before = {k: v.copy() for k, v in model.heads.parameters().items()}
        train_toy(
            model,
            ds.features,
            ds.primary_labels,
            ds.secondary_labels,
            ds.pedestrian,
            adam_cfg=AdamConfig(learning_rate=0.0),
            epochs=3,
        )
        for key, value in model.heads.parameters().items():
            np.testing.assert_array_equal(value, before[key])

    def test_two_class_separable_reaches_99_percent(self):
        features, labels = _two_class_dataset()
        model = ActivityModel.build(input_size=40, hidden_size=16, n_primary=2, n_secondary=2, seed=3)
        result = train_toy(
            model,
            features,
            labels,
            np.zeros_like(labels),
            np.ones(len(labels), dtype=bool),
            adam_cfg=AdamConfig(),
            epochs=200,
        )
        assert result.train_accuracy >= 0.99

    def test_default_dataset_holdout_accuracy(self):
        ds = crop_dataset(seed=42)
        model = ActivityModel.build(
            input_size=int(np.prod(ds.features.shape[1:])), seed=7
        )
        result = train_toy(
            model,
            ds.features,
            ds.primary_labels,
            ds.secondary_labels,
            ds.pedestrian,
            adam_cfg=AdamConfig(),
            epochs=500,
        )
        assert result.holdout_primary_accuracy >= 0.95
        ma = np.convolve(result.loss_curve, np.ones(20) / 20, mode="valid")
        assert np.all(np.diff(ma) <= 1e-9)

    def test_first_loss_is_the_action_loss_plus_the_bce(self):
        """`loss_curve[0]` against numpy on 10 samples, whose 8 training
        samples make one batch: the action cross-entropies over the
        pedestrians, plus the confidence BCE over every sample. Random
        heads keep the confidences off 0.5, where the BCE is log 2 for
        either label."""
        rng = np.random.default_rng(11)
        features = rng.normal(size=(10, 12))
        pedestrian = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
        primary = np.where(pedestrian, rng.integers(0, 3, 10), -1)
        secondary = np.where(pedestrian, rng.integers(0, 4, 10), -1)
        model = ActivityModel.build(input_size=12, hidden_size=6, n_primary=3, n_secondary=4, seed=5)
        for value in model.heads.parameters().values():
            value[...] = rng.normal(scale=2.0, size=value.shape)
        heads = {name: value.copy() for name, value in model.heads.parameters().items()}
        h0, c0 = model.cell.zero_state(10)
        hidden = bnlstm_step(copy.deepcopy(model.cell), features, h0, c0, training=True)[0][:8]
        result = train_toy(model, features, primary, secondary, pedestrian, epochs=1)

        def log_softmax(logits):
            return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)

        ped = np.flatnonzero(pedestrian[:8])
        log_p = log_softmax(hidden @ heads["w_primary"] + heads["b_primary"])[ped, primary[ped]]
        log_s = log_softmax(hidden @ heads["w_secondary"] + heads["b_secondary"])[ped, secondary[ped]]
        action = -log_p.sum() / (len(ped) * 3) - 0.5 * log_s.sum() / (len(ped) * 4)
        z = (hidden @ heads["w_conf"] + heads["b_conf"])[:, 0]
        bce = np.where(pedestrian[:8], np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).mean()
        assert abs(z).min() > 0.1
        assert result.loss_curve[0] == pytest.approx(action + bce, rel=1e-12)

    def test_divergence_guard_trips_after_patience(self):
        guard = DivergenceGuard()
        guard.observe(0.1)
        for _ in range(99):
            guard.observe(5.0)
        with pytest.raises(TrainingDiverged, match="consecutive"):
            guard.observe(5.0)

    def test_divergence_guard_resets_on_recovery(self):
        guard = DivergenceGuard()
        guard.observe(0.1)
        for _ in range(99):
            guard.observe(5.0)
        guard.observe(0.5)  # back under 10x initial: counter resets
        for _ in range(99):
            guard.observe(5.0)

    def test_divergence_guard_ignores_high_but_bounded_loss(self):
        guard = DivergenceGuard()
        guard.observe(2.0)
        for _ in range(500):
            guard.observe(19.0)  # below 10x initial

    def test_tiny_dataset_rejected(self):
        model = ActivityModel.build(input_size=4, hidden_size=4)
        with pytest.raises(ValueError, match="too small"):
            train_toy(
                model,
                np.zeros((2, 4)),
                np.zeros(2, dtype=int),
                np.zeros(2, dtype=int),
                np.ones(2, dtype=bool),
            )
