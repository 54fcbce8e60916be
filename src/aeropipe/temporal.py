"""Recurrent activity head: batch-normalized LSTM, action/confidence heads,
track association, the two-activity loss with analytic gradients, and a toy
Adam trainer for the linear heads.

The recurrent cell normalizes its input-to-hidden and hidden-to-hidden
pre-activation streams separately and the cell output once more, each with
its own scale/shift and running statistics (scale starts at 0.1, shift at
0, exponential-moving-average momentum 0.1). Training the full cell by
backpropagation through time is out of scope: the toy trainer freezes the
cell at its seeded initialization, reservoir-style, and fits only the
linear heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .geometry import BBox, center
from .rng import SplitMix64

LOG_FLOOR = 1e-12
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Hidden size and action class counts of a built model when the caller
# names none.
HIDDEN_SIZE = 64
PRIMARY_CLASSES = 4
SECONDARY_CLASSES = 5
# The toy trainer's minibatch size and held-out share of the samples.
BATCH_SIZE = 16
HOLDOUT_FRACTION = 0.2
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 100


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


class BatchNormStream:
    """Per-feature normalization of a (batch, features) stream."""

    def __init__(self, features: int) -> None:
        self.gamma = np.full(features, 0.1, dtype=np.float64)
        self.beta = np.zeros(features, dtype=np.float64)
        self.running_mean = np.zeros(features, dtype=np.float64)
        self.running_var = np.ones(features, dtype=np.float64)

    def standardize(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Zero-mean unit-variance transform before scale/shift.

        Training mode uses the batch statistics (population variance) and
        folds them into the running estimates; inference mode uses the
        running estimates only.
        """
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            mean = self.running_mean
            var = self.running_var
        return (x - mean) / np.sqrt(var + BN_EPS)

    def __call__(self, x: np.ndarray, training: bool) -> np.ndarray:
        return self.gamma * self.standardize(x, training) + self.beta


class BnLstmCell:
    """LSTM cell with normalized pre-activation streams and cell output.

    Gate order in the stacked weight matrices is (input, forget, candidate,
    output). With all weights zero the normalized streams are zero, so the
    sigmoid gates sit at exactly 0.5 and the candidate at 0.
    """

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None) -> None:
        if hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        if seed is None:
            self.w_xh = np.zeros((input_size, 4 * hidden_size), dtype=np.float64)
            self.w_hh = np.zeros((hidden_size, 4 * hidden_size), dtype=np.float64)
        else:
            rng = SplitMix64(seed)
            self.w_xh = rng.normal_array((input_size, 4 * hidden_size)) / np.sqrt(input_size)
            self.w_hh = rng.normal_array((hidden_size, 4 * hidden_size)) / np.sqrt(hidden_size)
        self.bias = np.zeros(4 * hidden_size, dtype=np.float64)
        self.bn_x = BatchNormStream(4 * hidden_size)
        self.bn_h = BatchNormStream(4 * hidden_size)
        self.bn_c = BatchNormStream(hidden_size)

    def zero_state(self, batch: int = 1) -> tuple[np.ndarray, np.ndarray]:
        shape = (batch, self.hidden_size)
        return np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64)


def bnlstm_step(
    cell: BnLstmCell, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, training: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """One recurrent step over a (batch, input) slab.

    Returns (h, c_state). Training mode normalizes with the batch statistics
    and folds them into the running ones; it needs batch >= 2 for defined
    batch variance.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] < 2 and training:
        raise ValueError("training mode requires batch size >= 2")
    nh = cell.hidden_size
    pre = cell.bn_x(x @ cell.w_xh, training) + cell.bn_h(h_prev @ cell.w_hh, training) + cell.bias
    gate_i = sigmoid(pre[:, 0 * nh : 1 * nh])
    gate_f = sigmoid(pre[:, 1 * nh : 2 * nh])
    cand_g = np.tanh(pre[:, 2 * nh : 3 * nh])
    gate_o = sigmoid(pre[:, 3 * nh : 4 * nh])
    c_state = gate_f * c_prev + gate_i * cand_g
    h = gate_o * np.tanh(cell.bn_c(c_state, training))
    return h, c_state


class ActivityHeads:
    """Linear readouts: two softmax action heads plus a sigmoid confidence.

    An action head's class count is its weight matrix's column count.
    """

    def __init__(self, hidden_size: int, n_primary: int, n_secondary: int) -> None:
        if min(n_primary, n_secondary) < 2:
            raise ValueError(f"action heads need at least 2 classes, got {n_primary} and {n_secondary}")
        self.w_primary = np.zeros((hidden_size, n_primary), dtype=np.float64)
        self.b_primary = np.zeros(n_primary, dtype=np.float64)
        self.w_secondary = np.zeros((hidden_size, n_secondary), dtype=np.float64)
        self.b_secondary = np.zeros(n_secondary, dtype=np.float64)
        self.w_conf = np.zeros((hidden_size, 1), dtype=np.float64)
        self.b_conf = np.zeros(1, dtype=np.float64)

    def logits(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            h @ self.w_primary + self.b_primary,
            h @ self.w_secondary + self.b_secondary,
            (h @ self.w_conf + self.b_conf)[:, 0],
        )

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w_primary": self.w_primary,
            "b_primary": self.b_primary,
            "w_secondary": self.w_secondary,
            "b_secondary": self.b_secondary,
            "w_conf": self.w_conf,
            "b_conf": self.b_conf,
        }


@dataclass
class ActivityModel:
    """Frozen recurrent cell plus trainable linear heads."""

    cell: BnLstmCell
    heads: ActivityHeads

    @classmethod
    def build(
        cls,
        input_size: int,
        hidden_size: int = HIDDEN_SIZE,
        n_primary: int = PRIMARY_CLASSES,
        n_secondary: int = SECONDARY_CLASSES,
        seed: int | None = None,
    ) -> "ActivityModel":
        return cls(
            cell=BnLstmCell(input_size, hidden_size, seed=seed),
            heads=ActivityHeads(hidden_size, n_primary, n_secondary),
        )


def predict(
    model: ActivityModel, features: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step the cell and read the heads for a batch of flattened crops.

    Returns (primary distribution, secondary distribution, confidence,
    h, c_state); the caller owns writing the new state back to its tracks.
    """
    h, c_state = bnlstm_step(model.cell, features, h_prev, c_prev)
    logit_p, logit_s, logit_c = model.heads.logits(h)
    return softmax(logit_p), softmax(logit_s), sigmoid(logit_c), h, c_state


# ---------------------------------------------------------------------------
# Track association
# ---------------------------------------------------------------------------


@dataclass
class Track:
    track_id: int
    h: np.ndarray
    c: np.ndarray
    last_box: BBox
    age: int = 0


@dataclass
class Association:
    """Greedy matching outcome over one frame."""

    matches: list[tuple[int, int]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def associate(tracks: list[Track], detections: list[BBox], max_dist: float) -> Association:
    """Repeatedly pair the globally closest (track, detection) by center
    distance, never exceeding max_dist; each side is used at most once.

    Distance ties break on (track index, detection index) for determinism.
    Only the pairs within max_dist are sorted: the greedy pass never reads
    a farther one.
    """
    if not tracks or not detections:
        return Association([], list(range(len(tracks))), list(range(len(detections))))
    t_centers = np.array([center(t.last_box) for t in tracks])
    d_centers = np.array([center(d) for d in detections])
    dist = np.sqrt(((t_centers[:, None, :] - d_centers[None, :, :]) ** 2).sum(axis=2))
    t_idx, d_idx = np.nonzero(dist <= max_dist)
    order = np.lexsort((d_idx, t_idx, dist[t_idx, d_idx]))
    matches: list[tuple[int, int]] = []
    used_t: set[int] = set()
    used_d: set[int] = set()
    for ti, di in zip(t_idx[order].tolist(), d_idx[order].tolist()):
        if ti in used_t or di in used_d:
            continue
        matches.append((ti, di))
        used_t.add(ti)
        used_d.add(di)
    return Association(
        matches=matches,
        unmatched_tracks=[i for i in range(len(tracks)) if i not in used_t],
        unmatched_detections=[i for i in range(len(detections)) if i not in used_d],
    )


class TrackStore:
    """Single-writer track lifecycle: spawn on unmatched detections, retire
    tracks unmatched for more than max_age frames."""

    def __init__(self, hidden_size: int, max_dist: float, max_age: int) -> None:
        self.hidden_size = hidden_size
        self.max_dist = max_dist
        self.max_age = max_age
        self.tracks: list[Track] = []
        self._next_id = 0

    def step(self, detections: list[BBox]) -> list[Track]:
        """Match detections to tracks and update lifecycle.

        Returns the per-detection track list, aligned with `detections`.
        """
        assoc = associate(self.tracks, detections, self.max_dist)
        by_detection: dict[int, Track] = {}
        for ti, di in assoc.matches:
            track = self.tracks[ti]
            track.last_box = detections[di]
            track.age = 0
            by_detection[di] = track
        for ti in assoc.unmatched_tracks:
            self.tracks[ti].age += 1
        self.tracks = [t for t in self.tracks if t.age <= self.max_age]
        zeros = np.zeros(self.hidden_size, dtype=np.float64)
        for di in assoc.unmatched_detections:
            track = Track(self._next_id, zeros.copy(), zeros.copy(), detections[di])
            self._next_id += 1
            self.tracks.append(track)
            by_detection[di] = track
        return [by_detection[i] for i in range(len(detections))]


# ---------------------------------------------------------------------------
# Two-activity loss
# ---------------------------------------------------------------------------


@dataclass
class LossBatch:
    """Per-frame predictions and one-hot targets for both action heads.

    Lists are indexed by frame; each entry is an (N_t, classes) array.
    """

    primary_pred: list[np.ndarray]
    secondary_pred: list[np.ndarray]
    primary_target: list[np.ndarray]
    secondary_target: list[np.ndarray]
    lambda_w: float = 0.5

    @property
    def frames(self) -> int:
        return len(self.primary_pred)


def _cross_entropy(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    return -(target * np.log(np.maximum(pred, LOG_FLOOR))).sum(axis=1)


def multi_activity_loss(batch: LossBatch) -> float:
    """Frame-averaged weighted sum of the two cross-entropy terms.

    Per frame, the primary term is averaged over boxes and primary classes,
    the secondary term over boxes and secondary classes and scaled by
    lambda_w; both terms enter with positive sign.
    """
    total = 0.0
    for t in range(batch.frames):
        n_t, n_p = batch.primary_pred[t].shape
        n_s = batch.secondary_pred[t].shape[1]
        ce_p = _cross_entropy(batch.primary_target[t], batch.primary_pred[t]).sum()
        ce_s = _cross_entropy(batch.secondary_target[t], batch.secondary_pred[t]).sum()
        total += ce_p / (n_t * n_p) + batch.lambda_w * ce_s / (n_t * n_s)
    return total / batch.frames


def loss_gradient(batch: LossBatch) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic loss gradient w.r.t. the pre-softmax logits of both heads.

    For softmax p and one-hot target, d(CE)/d(logit) = p - target; each
    frame's term carries its averaging weight.
    """
    grads_p: list[np.ndarray] = []
    grads_s: list[np.ndarray] = []
    t_count = batch.frames
    for t in range(t_count):
        n_t, n_p = batch.primary_pred[t].shape
        n_s = batch.secondary_pred[t].shape[1]
        gp = (batch.primary_pred[t] - batch.primary_target[t]) / (t_count * n_t * n_p)
        gs = batch.lambda_w * (batch.secondary_pred[t] - batch.secondary_target[t]) / (
            t_count * n_t * n_s
        )
        grads_p.append(gp)
        grads_s.append(gs)
    return grads_p, grads_s


# ---------------------------------------------------------------------------
# Toy head trainer
# ---------------------------------------------------------------------------


@dataclass
class AdamConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


class Adam:
    """Standard bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], cfg: AdamConfig) -> None:
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c = self.cfg
        bias1 = 1.0 - c.beta1**self.t
        bias2 = 1.0 - c.beta2**self.t
        for key, g in grads.items():
            self.m[key] = c.beta1 * self.m[key] + (1.0 - c.beta1) * g
            self.v[key] = c.beta2 * self.v[key] + (1.0 - c.beta2) * g * g
            m_hat = self.m[key] / bias1
            v_hat = self.v[key] / bias2
            self.params[key] -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.epsilon)


class TrainingDiverged(RuntimeError):
    pass


class DivergenceGuard:
    """Aborts a run whose step loss stays above DIVERGENCE_FACTOR x the
    initial loss for DIVERGENCE_PATIENCE consecutive steps."""

    def __init__(self) -> None:
        self.initial: float | None = None
        self.high_steps = 0

    def observe(self, loss: float) -> None:
        if self.initial is None:
            self.initial = loss
        if loss > DIVERGENCE_FACTOR * self.initial:
            self.high_steps += 1
            if self.high_steps >= DIVERGENCE_PATIENCE:
                raise TrainingDiverged(
                    f"loss {loss:.4g} > {DIVERGENCE_FACTOR:g}x initial {self.initial:.4g} "
                    f"for {self.high_steps} consecutive steps"
                )
        else:
            self.high_steps = 0


@dataclass
class TrainResult:
    loss_curve: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0
    holdout_primary_accuracy: float = 0.0
    holdout_secondary_accuracy: float = 0.0


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())


def train_toy(
    model: ActivityModel,
    features: np.ndarray,
    primary_labels: np.ndarray,
    secondary_labels: np.ndarray,
    pedestrian: np.ndarray,
    adam_cfg: AdamConfig | None = None,
    epochs: int = 500,
) -> TrainResult:
    """Fit the linear heads on a synthetic crop dataset.

    The recurrent cell stays frozen: every sample is pushed through one
    train-mode step from zero state (batch statistics over the whole
    dataset, weights untouched), and the cached hidden vectors drive plain
    Adam updates of the heads. Action terms are computed on pedestrian
    samples only; the confidence head trains with binary cross-entropy
    against the pedestrian flag of every sample.

    Raises TrainingDiverged as DivergenceGuard describes.
    """
    adam_cfg = adam_cfg or AdamConfig()
    n = features.shape[0]
    if n < 4:
        raise ValueError("dataset too small to split")
    flat = features.reshape(n, -1).astype(np.float64)

    h0, c0 = model.cell.zero_state(n)
    hidden, _ = bnlstm_step(model.cell, flat, h0, c0, training=True)

    split = max(1, int(round(n * (1.0 - HOLDOUT_FRACTION))))
    train_idx = np.arange(split)
    hold_idx = np.arange(split, n)

    heads = model.heads
    eye_p = np.eye(heads.w_primary.shape[1])
    eye_s = np.eye(heads.w_secondary.shape[1])
    optimizer = Adam(heads.parameters(), adam_cfg)
    result = TrainResult()
    guard = DivergenceGuard()

    for _ in range(epochs):
        epoch_losses: list[float] = []
        for start in range(0, len(train_idx), BATCH_SIZE):
            idx = train_idx[start : start + BATCH_SIZE]
            h = hidden[idx]
            ped = pedestrian[idx].astype(bool)
            logit_p, logit_s, logit_c = heads.logits(h)
            pred_p = softmax(logit_p)
            pred_s = softmax(logit_s)
            conf = sigmoid(logit_c)

            grad_p_logits = np.zeros_like(logit_p)
            grad_s_logits = np.zeros_like(logit_s)
            action_loss = 0.0
            n_ped = int(ped.sum())
            if n_ped:
                tgt_p = eye_p[primary_labels[idx][ped]]
                tgt_s = eye_s[secondary_labels[idx][ped]]
                batch = LossBatch(
                    primary_pred=[pred_p[ped]],
                    secondary_pred=[pred_s[ped]],
                    primary_target=[tgt_p],
                    secondary_target=[tgt_s],
                )
                action_loss = multi_activity_loss(batch)
                gp, gs = loss_gradient(batch)
                grad_p_logits[ped] = gp[0]
                grad_s_logits[ped] = gs[0]

            flags = ped.astype(np.float64)
            conf_c = np.clip(conf, LOG_FLOOR, 1.0 - LOG_FLOOR)
            bce = float(-(flags * np.log(conf_c) + (1 - flags) * np.log(1 - conf_c)).mean())
            grad_c_logits = (conf - flags) / len(idx)

            loss_value = action_loss + bce
            epoch_losses.append(loss_value)
            guard.observe(loss_value)

            optimizer.step(
                {
                    "w_primary": h.T @ grad_p_logits,
                    "b_primary": grad_p_logits.sum(axis=0),
                    "w_secondary": h.T @ grad_s_logits,
                    "b_secondary": grad_s_logits.sum(axis=0),
                    "w_conf": h.T @ grad_c_logits[:, None],
                    "b_conf": grad_c_logits.sum(keepdims=True),
                }
            )
        result.loss_curve.append(float(np.mean(epoch_losses)))

    logit_p, _, _ = heads.logits(hidden[train_idx])
    ped_train = pedestrian[train_idx].astype(bool)
    result.train_accuracy = _accuracy(logit_p[ped_train], primary_labels[train_idx][ped_train])
    logit_p, logit_s, _ = heads.logits(hidden[hold_idx])
    ped_hold = pedestrian[hold_idx].astype(bool)
    result.holdout_primary_accuracy = _accuracy(logit_p[ped_hold], primary_labels[hold_idx][ped_hold])
    result.holdout_secondary_accuracy = _accuracy(
        logit_s[ped_hold], secondary_labels[hold_idx][ped_hold]
    )
    return result


# ---------------------------------------------------------------------------
# Parameter persistence
# ---------------------------------------------------------------------------


def _parameters(model: ActivityModel) -> dict[str, np.ndarray]:
    """Every stored array of the model, by file record name."""
    cell = model.cell
    params = {"cell.w_xh": cell.w_xh, "cell.w_hh": cell.w_hh, "cell.bias": cell.bias}
    for prefix, bn in (("cell.bn_x", cell.bn_x), ("cell.bn_h", cell.bn_h), ("cell.bn_c", cell.bn_c)):
        for attr in ("gamma", "beta", "running_mean", "running_var"):
            params[f"{prefix}.{attr}"] = getattr(bn, attr)
    params.update({f"heads.{k}": v for k, v in model.heads.parameters().items()})
    return params


def save_model(path: str, model: ActivityModel) -> None:
    tensorio.save_named_tensors(path, _parameters(model))


def load_model(path: str) -> ActivityModel:
    """Build the model the stored shapes describe and fill it in place; a
    missing record or one whose shape differs from the model's raises
    TensorFormatError."""
    tensors = tensorio.load_named_tensors(path)

    def shape(name: str, rank: int) -> tuple[int, ...]:
        if name not in tensors or tensors[name].ndim != rank:
            raise tensorio.TensorFormatError(f"{path}: no rank-{rank} record {name!r}")
        return tensors[name].shape

    input_size, four_h = shape("cell.w_xh", 2)
    hidden = four_h // 4
    # Check the records that grow with the hidden size before building, so
    # a small file cannot ask for a large model; an action head needs at
    # least two classes.
    for name in ("cell.w_hh", "heads.w_primary", "heads.w_secondary", "heads.w_conf"):
        rows, cols = shape(name, 2)
        narrow = cols < 2 and name in ("heads.w_primary", "heads.w_secondary")
        if hidden < 1 or rows != hidden or narrow or name == "cell.w_hh" and cols != 4 * hidden:
            raise tensorio.TensorFormatError(
                f"{path}: {name!r} has shape {(rows, cols)}, which does not fit "
                f"'cell.w_xh' {tensors['cell.w_xh'].shape} with at least 2 classes per action head"
            )
    n_primary = tensors["heads.w_primary"].shape[1]
    n_secondary = tensors["heads.w_secondary"].shape[1]
    model = ActivityModel.build(input_size, hidden, n_primary, n_secondary)
    for name, array in _parameters(model).items():
        if shape(name, array.ndim) != array.shape:
            raise tensorio.TensorFormatError(
                f"{path}: {name!r} has shape {tensors[name].shape}, not {array.shape}"
            )
        array[...] = tensors[name]
    return model
