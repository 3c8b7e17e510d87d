"""Desk-scale end-to-end experiments on a synthetic spurious-feature dataset.

Inputs concatenate a small class-signal block shared across domains with a
large per-(domain, class) color block, so the color shortcut dominates
plain risk minimization and fails on unseen domains while the signal block
supports domain-invariant solutions.  A two-layer dense ReLU extractor with
a linear head is trained by full-batch line-searched gradient descent under
one of four objectives; representations (the last hidden layer) are
exported per epoch in the standard dump format for diagnosis.

Invariance on the training domains does not rule the color shortcut out.
The within-class, across-domain differences of the training domains' color
means span at most (training domains - 1) x classes directions, so whenever
that is below ``color_dim`` the color block keeps an orthogonal subspace (44
of 50 dimensions on the default spec: 3 training domains, 3 classes).
Projected onto it, each class has the same distribution in every training
domain, yet the class colors still differ there: a representation can
predict the class from that projection while every class-conditional
penalty computed on the training domains, whatever its kernel, reads zero,
and it fails on the held-out domains, whose colors are fresh draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DomainMeta,
    LinearProbe,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VALID,
    RepresentationDataset,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
)
from .metrics import ConstantSeriesError, MetricConfig, diagnose, pearson

ALG_ERM = "erm"
ALG_CORAL = "coral"
ALG_COND_INVARIANCE = "cond-invariance"
ALG_GROUP_DRO = "group-dro"
ALGORITHMS = (ALG_ERM, ALG_CORAL, ALG_COND_INVARIANCE, ALG_GROUP_DRO)

BETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0)

# scale of the shared class-signal block relative to the unit-Gaussian colors;
# kept below 1 so the color shortcut dominates plain risk minimization
SIGNAL_SCALE = 0.8

# internal scale of the conditional-invariance penalty, calibrated so the
# shipped beta grid spans its regimes (no effect, training-domain
# invariance, representation collapse) on the default dataset; no scale
# gives held-out-domain success there, since the penalty cannot see the
# invariant color subspace, of dimension color_dim - (training domains - 1)
# x classes = 50 - 6 (see the module docstring)
PENALTY_SCALE = 30.0

PARAM_KEYS = ("W1", "b1", "W2", "b2", "W3", "b3")
FEATURE_KEYS = ("W1", "b1", "W2", "b2")


class DivergenceError(RuntimeError):
    """Training objective became non-finite."""


@dataclass(frozen=True)
class SyntheticColoredSpec:
    num_domains: int = 5
    num_classes: int = 3
    signal_dim: int = 10
    color_dim: int = 50
    samples_per_domain: int = 1200
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_domains < 3:
            raise ValueError("need at least 3 domains (train, valid, test)")
        if min(self.num_classes, self.signal_dim, self.color_dim) < 1:
            raise ValueError("dims and class count must be positive")
        if self.samples_per_domain < self.num_classes:
            raise ValueError("samples_per_domain must cover every class")

    @property
    def input_dim(self):
        return self.signal_dim + self.color_dim


@dataclass(frozen=True)
class RawDataset:
    """Raw inputs before feature extraction, with the per-domain 80/20 split."""

    x: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray
    splits: np.ndarray
    domains: tuple
    spec: SyntheticColoredSpec


def make_dataset(spec):
    """Generate the synthetic multi-domain dataset.

    Each sample is ``concat(signal[class] + noise, color[domain, class] +
    noise)`` with the color vectors drawn once per (domain, class) from a
    unit Gaussian.  Classes are exactly balanced per domain and the 80/20
    fit/holdout split is stratified per (domain, class).
    """
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 11)))
    n_train = spec.num_domains - 2
    domains = tuple(
        [DomainMeta(j, f"train{j}", ROLE_TRAIN) for j in range(n_train)]
        + [DomainMeta(n_train, "valid0", ROLE_VALID), DomainMeta(n_train + 1, "test0", ROLE_TEST)]
    )
    signals = rng.normal(0.0, SIGNAL_SCALE, size=(spec.num_classes, spec.signal_dim))
    colors = rng.normal(0.0, 1.0, size=(spec.num_domains, spec.num_classes, spec.color_dim))
    per_class = spec.samples_per_domain // spec.num_classes
    n_fit = (per_class * 4) // 5

    xs, ys, ids, splits = [], [], [], []
    for dm in domains:
        for y in range(spec.num_classes):
            block = np.concatenate(
                [
                    signals[y] + rng.normal(0.0, spec.noise_std, size=(per_class, spec.signal_dim)),
                    colors[dm.id, y]
                    + rng.normal(0.0, spec.noise_std, size=(per_class, spec.color_dim)),
                ],
                axis=1,
            )
            xs.append(block)
            ys.append(np.full(per_class, y))
            ids.append(np.full(per_class, dm.id))
            splits.append(
                np.where(np.arange(per_class) < n_fit, SPLIT_FIT, SPLIT_HOLDOUT).astype(np.uint8)
            )
    return RawDataset(
        x=np.vstack(xs),
        labels=np.concatenate(ys),
        domain_ids=np.concatenate(ids),
        splits=np.concatenate(splits),
        domains=domains,
        spec=spec,
    )


# -- model ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = ALG_ERM
    beta: float = 0.0
    epochs: int = 10
    steps_per_epoch: int = 50
    learning_rate: float = 0.05
    weight_decay: float = 0.01
    hidden_width: int = 32
    seed: int = 0
    freeze_features: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; valid: {ALGORITHMS}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.algorithm == ALG_ERM and self.beta != 0:
            raise ValueError("erm takes beta = 0")
        if self.algorithm == ALG_GROUP_DRO and self.beta <= 0:
            raise ValueError("group-dro needs beta > 0 (softmax temperature)")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ValueError("epochs and steps_per_epoch must be positive")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be positive")


# the shipped fixture for the qualitative training pattern: plain risk
# minimization saturates via the color shortcut, stays invariant across
# training domains, and fails on the held-out domain
CRITERION_FIXTURE_SPEC = SyntheticColoredSpec(seed=0)
CRITERION_FIXTURE_CONFIG = TrainConfig(
    algorithm=ALG_ERM,
    epochs=10,
    steps_per_epoch=500,
    learning_rate=0.2,
    weight_decay=0.01,
    hidden_width=12,
    seed=0,
)


@dataclass(frozen=True)
class TrainedModel:
    checkpoints: tuple  # one param dict per epoch
    config: TrainConfig
    objective_trace: tuple

    @property
    def final(self):
        return self.checkpoints[-1]

    def head_probe(self, checkpoint=None):
        params = self.checkpoints[checkpoint] if checkpoint is not None else self.final
        return head_probe(params)


def head_probe(params):
    """The model's linear head as a probe over the representation space."""
    return LinearProbe(params["W3"].T, params["b3"])


def pretrained_invariant_model(spec, hidden_width=12, seed=0):
    """A stand-in for an externally pretrained extractor to freeze.

    The first layer projects onto the class-signal block only (random
    nonnegative-friendly combinations with zero color weights), so its
    representations are class-conditionally domain-invariant by
    construction.  Used by the frozen-feature protocol, where training may
    then move only the head and the separability metrics become constant
    lower-bound references.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 13)))
    h = hidden_width
    w1 = np.zeros((spec.input_dim, h))
    w1[: spec.signal_dim, :] = rng.normal(0.0, np.sqrt(2.0 / spec.signal_dim),
                                          size=(spec.signal_dim, h))
    params = {
        "W1": w1,
        "b1": np.full(h, 0.1),
        "W2": rng.normal(0.0, np.sqrt(2.0 / h), size=(h, h)),
        "b2": np.full(h, 0.1),
        "W3": np.zeros((h, spec.num_classes)),
        "b3": np.zeros(spec.num_classes),
    }
    cfg = TrainConfig(hidden_width=h, seed=seed, freeze_features=True)
    return TrainedModel((params,), cfg, (float("nan"),))


def init_params(input_dim, hidden_width, num_classes, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
    h = hidden_width

    def layer(fan_in, fan_out):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

    return {
        "W1": layer(input_dim, h),
        "b1": np.zeros(h),
        "W2": layer(h, h),
        "b2": np.zeros(h),
        "W3": layer(h, num_classes),
        "b3": np.zeros(num_classes),
    }


def forward(params, x):
    pre1 = x @ params["W1"] + params["b1"]
    h1 = np.maximum(pre1, 0.0)
    pre2 = h1 @ params["W2"] + params["b2"]
    h2 = np.maximum(pre2, 0.0)
    logits = h2 @ params["W3"] + params["b3"]
    return pre1, h1, pre2, h2, logits


def representations(params, x):
    return forward(params, x)[3]


@dataclass(frozen=True)
class FrozenFeatures:
    """The feature layers' forward pass at fixed feature weights and the
    representation penalty on it, computed once (see ``frozen_batch``)."""

    features: tuple  # pre1, h1, pre2, h2
    penalty: float


@dataclass(frozen=True)
class Batch:
    """The training batch, the constants every objective evaluation on it
    reuses, and the workspace those evaluations write into; built once per
    ``train`` call (see ``make_batch``).

    ``work`` maps a name to an array that ``objective`` and
    ``objective_gradient`` overwrite on every call instead of allocating a
    fresh one: the forward activations, the penalty's per-class or per-group
    gathers, and the backpropagated ``(n, hidden)`` gradients.  An array is
    allocated on first use and again only when its shape or dtype changes.
    Whatever ``objective`` returns in its ``ObjectiveState`` aliases these
    arrays, so it is valid only until the next ``objective`` call on the same
    batch, and a batch serves one thread at a time.  With ``frozen`` set (see
    ``frozen_batch``) the feature layers are not evaluated at all.
    """

    x: np.ndarray
    labels: np.ndarray
    rows: np.ndarray  # np.arange(n), for picking each sample's label entry
    groups: tuple  # sample indices of each training domain
    classes: tuple  # (sample indices, centred one-hot domain codes) per class with >= 2 samples
    frozen: FrozenFeatures = None
    work: dict = field(default_factory=dict, repr=False, compare=False)


def make_batch(x, labels, domain_pos, n_groups, num_classes):
    """The ``Batch`` of samples ``x`` with their labels and training-domain
    positions 0..n_groups-1, with an empty workspace."""
    onehot = np.eye(n_groups)[domain_pos]
    classes = []
    for y in range(num_classes):
        idx = np.flatnonzero(labels == y)
        if idx.size < 2:
            continue
        dy = onehot[idx]
        classes.append((idx, dy - dy.mean(axis=0)))
    groups = tuple(np.flatnonzero(domain_pos == g) for g in range(n_groups))
    return Batch(x, labels, np.arange(x.shape[0]), groups, tuple(classes))


def frozen_batch(batch, params, cfg):
    """``batch`` with the feature layers fixed at ``params``' feature weights.

    Their forward pass and ``cfg``'s representation penalty are computed here
    once; ``objective`` then evaluates only the head on them, and
    ``objective_gradient`` returns only the head's gradients (``W3``,
    ``b3``).  The values are those the full path computes, bit for bit.  The
    result serves ``cfg`` alone and has a workspace of its own.
    """
    features = forward(params, batch.x)[:4]
    penalty, _ = _penalty(features[3], batch, cfg)
    return replace(batch, frozen=FrozenFeatures(features, penalty), work={})


def _buffer(batch, name, shape, dtype):
    """The workspace array ``name`` of ``batch``, of ``shape`` and ``dtype``."""
    buf = batch.work.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = batch.work[name] = np.empty(shape, dtype)
    return buf


def _affine(batch, name, a, w, b):
    """``a @ w + b``, written into the workspace array ``name``."""
    out = _buffer(batch, name, (a.shape[0], w.shape[1]), np.result_type(a, w, b))
    np.matmul(a, w, out=out)
    out += b
    return out


def _gather(batch, name, h, idx):
    """``h[idx]``, written into the workspace array ``name``.  ``idx`` is in
    range, so clipping changes nothing; ``take`` would buffer the result
    under its default ``mode="raise"``."""
    out = _buffer(batch, name, (idx.size,) + h.shape[1:], h.dtype)
    return np.take(h, idx, axis=0, out=out, mode="clip")


@dataclass(frozen=True)
class ObjectiveState:
    """What ``objective`` computed at ``params`` that ``objective_gradient``
    reuses instead of repeating the forward pass.  Its arrays alias the
    batch's workspace: it is valid only until the next ``objective`` call on
    the same batch."""

    params: dict
    forward: tuple  # pre1, h1, pre2, h2, logits
    softmax: tuple  # exp(logits - row max) and its row sums
    q: np.ndarray  # group-DRO domain weights, else None
    penalty: tuple  # CORAL per-group stats, cond-invariance per-class m, or None


def _penalty(h2, batch, cfg):
    """The configured representation penalty and the state its gradient
    needs: (0.0, None) when the algorithm has none or ``beta`` is 0."""
    if cfg.algorithm == ALG_CORAL and cfg.beta > 0:
        return _coral_penalty(h2, batch)
    if cfg.algorithm == ALG_COND_INVARIANCE and cfg.beta > 0:
        return _condinv_penalty(h2, batch)
    return 0.0, None


def _coral_penalty(h2, batch):
    """Mean over training-domain pairs of the squared mean difference plus the
    squared Frobenius covariance difference of representations (entry-wise
    means, so the scale is width independent).  Also returns the centred
    representations per group and each pair's differences, for the gradient."""
    groups = batch.groups
    d = h2.shape[1]
    stats = []
    for g, idx in enumerate(groups):
        hc = _gather(batch, ("group", g), h2, idx)
        mu = hc.mean(axis=0)
        hc -= mu
        cov = hc.T @ hc / idx.size
        stats.append((mu, hc, cov))
    penalty = 0.0
    diffs = []
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            dmu = stats[a][0] - stats[b][0]
            dcov = stats[a][2] - stats[b][2]
            penalty += (dmu @ dmu) / d + (dcov * dcov).sum() / (d * d)
            diffs.append((a, b, dmu, dcov))
    n_pairs = max(len(diffs), 1)
    return penalty / n_pairs, (tuple(hc for _, hc, _ in stats), tuple(diffs))


def _coral_grad(h2, batch, state):
    """The CORAL penalty's gradient with respect to ``h2``, in the workspace.

    The groups are disjoint, so each group's rows are accumulated in a
    zeroed buffer of their own, in the order the pairs visit them, and then
    copied to their rows: the same sums as adding into the rows directly."""
    hcs, diffs = state
    groups = batch.groups
    d = h2.shape[1]
    accs = [_buffer(batch, ("group grad", g), hc.shape, hc.dtype) for g, hc in enumerate(hcs)]
    for acc in accs:
        acc.fill(0.0)
    for a, b, dmu, dcov in diffs:
        idx_a, idx_b = groups[a], groups[b]
        accs[a] += (2.0 / (d * idx_a.size)) * dmu
        accs[b] -= (2.0 / (d * idx_b.size)) * dmu
        accs[a] += _scaled_product(batch, a, 4.0 / (d * d * idx_a.size), hcs[a], dcov)
        accs[b] -= _scaled_product(batch, b, 4.0 / (d * d * idx_b.size), hcs[b], dcov)
    grad = _buffer(batch, "penalty grad", h2.shape, h2.dtype)
    grad.fill(0.0)
    for idx, acc in zip(groups, accs):
        grad[idx] = acc
    grad /= max(len(diffs), 1)
    return grad


def _scaled_product(batch, g, s, hc, dcov):
    """``s * hc @ dcov`` (scaled first, as written) in group ``g``'s buffers."""
    scaled = np.multiply(s, hc, out=_buffer(batch, ("group scaled", g), hc.shape, hc.dtype))
    shape = (hc.shape[0], dcov.shape[1])
    return np.matmul(scaled, dcov, out=_buffer(batch, ("group product", g), shape, hc.dtype))


def _condinv_penalty(h2, batch):
    """Per-class linear-kernel dependence between representations and one-hot
    domain codes: the total squared entries of the class-conditional cross
    covariance ``m``, averaged over the classes with at least 2 samples.  Also
    returns each class's ``m``, for the gradient."""
    penalty = 0.0
    ms = []
    for c, (idx, dc) in enumerate(batch.classes):
        rc = _gather(batch, ("class", c), h2, idx)
        rc -= rc.mean(axis=0)
        m = rc.T @ dc / idx.size  # (d, n_groups)
        penalty += (m * m).sum()
        ms.append(m)
    scale = PENALTY_SCALE / max(len(batch.classes), 1)
    return penalty * scale, tuple(ms)


def _condinv_grad(h2, batch, ms):
    """The cond-invariance penalty's gradient with respect to ``h2``, in the
    workspace; each class's gather buffer holds its rows' share on the way."""
    grad = _buffer(batch, "penalty grad", h2.shape, h2.dtype)
    grad.fill(0.0)
    for c, ((idx, dc), m) in enumerate(zip(batch.classes, ms)):
        share = _buffer(batch, ("class", c), (idx.size, h2.shape[1]), h2.dtype)
        np.matmul(dc, 2.0 * m.T, out=share)
        share /= idx.size
        # the classes are disjoint, so this is ``grad[idx] += share`` on zeroed
        # rows; adding 0.0 keeps its sums, which turn a -0.0 into 0.0
        share += 0.0
        grad[idx] = share
    grad *= PENALTY_SCALE / max(len(batch.classes), 1)
    return grad


def objective(params, batch, cfg):
    """Full-batch objective of the configured algorithm at ``params``, and the
    ``ObjectiveState`` from which ``objective_gradient`` finishes the gradient.

    The objective is the cross-entropy term (softmax-weighted across domains
    for the worst-case variant), plus ``beta`` times the algorithm's
    representation penalty, plus L2 weight decay on the weight matrices.
    The forward pass and the penalty write into ``batch``'s workspace, and
    the returned state aliases it: it is valid only until the next
    ``objective`` call on ``batch``.  On a ``frozen_batch`` only the head is
    evaluated, on the cached last hidden layer.
    """
    frozen = batch.frozen
    if frozen is None:
        pre1 = _affine(batch, "pre1", batch.x, params["W1"], params["b1"])
        h1 = np.maximum(pre1, 0.0, out=_buffer(batch, "h1", pre1.shape, pre1.dtype))
        pre2 = _affine(batch, "pre2", h1, params["W2"], params["b2"])
        h2 = np.maximum(pre2, 0.0, out=_buffer(batch, "h2", pre2.shape, pre2.dtype))
    else:
        pre1, h1, pre2, h2 = frozen.features
    logits = _affine(batch, "logits", h2, params["W3"], params["b3"])
    logp = _buffer(batch, "logp", logits.shape, logits.dtype)
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=logp)
    e = np.exp(logp, out=_buffer(batch, "exp", logits.shape, logits.dtype))
    esum = e.sum(axis=1, keepdims=True)
    logp -= np.log(esum)
    nll = -logp[batch.rows, batch.labels]

    q = None
    if cfg.algorithm == ALG_GROUP_DRO:
        group_losses = np.array([nll[idx].mean() for idx in batch.groups])
        t = cfg.beta * group_losses
        tmax = t.max()
        lse = tmax + np.log(np.exp(t - tmax).sum())
        data_term = lse / cfg.beta
        q = np.exp(t - lse)
    else:
        data_term = nll.mean()

    if frozen is None:
        penalty, penalty_state = _penalty(h2, batch, cfg)
    else:
        penalty, penalty_state = frozen.penalty, None

    obj = data_term + cfg.beta * penalty
    wd = cfg.weight_decay
    for key in ("W1", "W2", "W3"):
        obj += 0.5 * wd * float((params[key] ** 2).sum())
    return obj, ObjectiveState(params, (pre1, h1, pre2, h2, logits), (e, esum), q,
                               penalty_state)


def objective_gradient(state, batch, cfg):
    """Analytic gradients of ``objective`` from its state, by backpropagation
    through the cached forward pass (no forward pass is repeated).

    ``state`` must come from the latest ``objective`` call on ``batch``.  The
    backpropagated activations go through the workspace; the returned
    gradients are fresh arrays.  On a ``frozen_batch`` only ``W3`` and ``b3``
    are returned.
    """
    params = state.params
    pre1, h1, pre2, h2, _ = state.forward
    e, esum = state.softmax
    n = batch.x.shape[0]
    dlogits = np.divide(e, esum, out=_buffer(batch, "dlogits", e.shape, e.dtype))
    dlogits[batch.rows, batch.labels] -= 1.0
    if cfg.algorithm == ALG_GROUP_DRO:
        scale = np.zeros(n)
        for g, idx in enumerate(batch.groups):
            scale[idx] = state.q[g] / idx.size
        dlogits *= scale[:, None]
    else:
        dlogits /= n

    wd = cfg.weight_decay
    grads = {"W3": h2.T @ dlogits + wd * params["W3"], "b3": dlogits.sum(axis=0)}
    if batch.frozen is not None:
        return grads

    # dh2, then dpre2 in the same array
    dpre2 = np.matmul(dlogits, params["W3"].T, out=_buffer(batch, "dpre2", h2.shape, h2.dtype))
    if state.penalty is None:
        dpre2 += cfg.beta * 0.0  # beta times a zero penalty gradient: turns -0.0 into 0.0
    else:
        penalty_grad = _coral_grad if cfg.algorithm == ALG_CORAL else _condinv_grad
        dh2_pen = penalty_grad(h2, batch, state.penalty)
        dh2_pen *= cfg.beta
        dpre2 += dh2_pen
    dpre2 *= np.greater(pre2, 0, out=_buffer(batch, "mask", pre2.shape, np.bool_))
    # dh1, then dpre1 in the same array
    dpre1 = np.matmul(dpre2, params["W2"].T, out=_buffer(batch, "dpre1", h1.shape, h1.dtype))
    dpre1 *= np.greater(pre1, 0, out=_buffer(batch, "mask", pre1.shape, np.bool_))
    grads["W2"] = h1.T @ dpre2 + wd * params["W2"]
    grads["b2"] = dpre2.sum(axis=0)
    grads["W1"] = batch.x.T @ dpre1 + wd * params["W1"]
    grads["b1"] = dpre1.sum(axis=0)
    return grads


def objective_and_grad(params, x, labels, domain_pos, n_groups, num_classes, cfg):
    """Full-batch objective and analytic gradients for the configured algorithm:
    ``objective`` followed by ``objective_gradient`` on its state, on a batch
    built for this one call."""
    batch = make_batch(x, labels, domain_pos, n_groups, num_classes)
    obj, state = objective(params, batch, cfg)
    return obj, objective_gradient(state, batch, cfg)


def _fit_batch(raw):
    """Training-domain fit samples with domain positions 0..n_train-1."""
    train_ids = [dm.id for dm in raw.domains if dm.role == ROLE_TRAIN]
    idx = np.flatnonzero(np.isin(raw.domain_ids, train_ids) & (raw.splits == SPLIT_FIT))
    pos = np.searchsorted(np.asarray(train_ids), raw.domain_ids[idx])
    return raw.x[idx], raw.labels[idx], pos, len(train_ids)


def train(raw, cfg, init_model=None):
    """Full-batch line-searched gradient descent; one checkpoint per epoch.

    The backtracking (Armijo) line search evaluates only the objective at
    each trial step, halving the step up to 40 times; each accepted step
    then computes one gradient, from the forward pass of the trial that was
    accepted, before the next ``objective`` call can overwrite it.  The
    first search starts at ``cfg.learning_rate``; after an immediate accept
    the next starts at twice the accepted step, capped at
    ``cfg.learning_rate``, and after a backtracked accept at the accepted
    step itself (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
    section 3.5).  No trial step exceeds ``cfg.learning_rate``, and a run
    that never backtracks takes ``cfg.learning_rate`` on every step.  The
    batch, with its constants and the workspace every evaluation writes
    into, is built once per call.
    With ``freeze_features`` only the head moves (features stay at their
    initialization, or at ``init_model``'s final checkpoint when given,
    which is how a pretrained frozen extractor is expressed); the last
    hidden layer is then computed once (``frozen_batch``), and trials and
    gradients evaluate only the head.  Deterministic per seed.  Raises
    DivergenceError, naming the epoch, if the objective stops being finite;
    the overflow on the way there raises no numpy warning.
    """
    x, labels, pos, n_groups = _fit_batch(raw)
    batch = make_batch(x, labels, pos, n_groups, raw.spec.num_classes)
    if init_model is not None:
        params = {k: v.copy() for k, v in init_model.final.items()}
    else:
        params = init_params(raw.spec.input_dim, cfg.hidden_width, raw.spec.num_classes, cfg.seed)
    if params["W1"].shape[0] != raw.spec.input_dim:
        raise ValueError("model input width does not match the dataset")

    moving = [k for k in PARAM_KEYS if not (cfg.freeze_features and k in FEATURE_KEYS)]
    if cfg.freeze_features:
        batch = frozen_batch(batch, params, cfg)

    # the finite checks below, not numpy's warnings, report an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        obj, state = objective(params, batch, cfg)
        if not np.isfinite(obj):
            raise DivergenceError("objective non-finite at epoch 1 (before any update)")
        grads = objective_gradient(state, batch, cfg)
        checkpoints, trace = [], []
        start = cfg.learning_rate
        for epoch in range(cfg.epochs):
            for _ in range(cfg.steps_per_epoch):
                gnorm2 = sum(float((grads[k] ** 2).sum()) for k in moving)
                if gnorm2 == 0.0:
                    break
                step = start
                accepted = False
                for trial in range(40):
                    cand = dict(params)
                    for k in moving:
                        cand[k] = params[k] - step * grads[k]
                    new_obj, state = objective(cand, batch, cfg)
                    if not np.isfinite(new_obj):
                        raise DivergenceError(f"objective non-finite at epoch {epoch + 1}")
                    if new_obj <= obj - 1e-4 * step * gnorm2:
                        params, obj = cand, new_obj
                        grads = objective_gradient(state, batch, cfg)
                        accepted = True
                        break
                    step *= 0.5
                if not accepted:
                    break  # no descent step at float resolution; plateau reached
                start = min(cfg.learning_rate, 2.0 * step) if trial == 0 else step
            checkpoints.append({k: v.copy() for k, v in params.items()})
            trace.append(float(obj))
    return TrainedModel(tuple(checkpoints), cfg, tuple(trace))


def export_representations(params_or_model, raw):
    """Dump-format dataset of last-hidden-layer outputs for every sample."""
    params = params_or_model.final if isinstance(params_or_model, TrainedModel) else params_or_model
    reps = representations(params, raw.x)
    return RepresentationDataset(
        dim=reps.shape[1],
        num_classes=raw.spec.num_classes,
        domains=raw.domains,
        domain_ids=raw.domain_ids,
        splits=raw.splits,
        labels=raw.labels,
        z=reps.astype(np.float32),
    )


def model_error(params, raw, roles=(ROLE_TRAIN,), split=SPLIT_HOLDOUT):
    """Domain-equal 0-1 error of the full model on the selected samples."""
    errs = []
    for dm in raw.domains:
        if dm.role not in roles:
            continue
        m = (raw.splits == split) & (raw.domain_ids == dm.id)
        logits = forward(params, raw.x[m])[4]
        errs.append(float((logits.argmax(axis=1) != raw.labels[m]).mean()))
    return float(np.mean(errs))


# -- sweeps and trajectories -----------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    beta: float
    diagnosis: object
    train_holdout_error: float


def sweep_beta(raw, algorithm, betas, base_cfg=None, metric_cfg=None):
    """One full training plus diagnosis per regularization strength."""
    if len(betas) == 0:
        raise ValueError("beta grid must be nonempty")
    base_cfg = base_cfg or TrainConfig()
    metric_cfg = metric_cfg or MetricConfig(target_role=ROLE_VALID)
    rows = []
    for beta in betas:
        cfg = replace(base_cfg, algorithm=algorithm, beta=float(beta))
        model = train(raw, cfg)
        ds = export_representations(model, raw)
        diag = diagnose(ds, model.head_probe(), metric_cfg)
        rows.append(SweepRow(float(beta), diag, model_error(model.final, raw)))
    return rows


@dataclass(frozen=True)
class TrajectoryResult:
    diagnoses: tuple
    e3_series: tuple
    d1_series: tuple
    e3_d1_correlation: float = None  # None when undefined (constant series)


def trajectory(raw, cfg, metric_cfg=None):
    """Diagnose every per-epoch checkpoint and correlate test error with
    union distinguishability along the way."""
    if cfg.epochs < 2:
        raise ValueError("trajectory needs at least 2 epochs")
    metric_cfg = metric_cfg or MetricConfig(target_role=ROLE_VALID)
    model = train(raw, cfg)
    diags = []
    for i in range(len(model.checkpoints)):
        ds = export_representations(model.checkpoints[i], raw)
        diags.append(diagnose(ds, model.head_probe(i), metric_cfg))
    e3s = tuple(d.e3_prime for d in diags)
    d1s = tuple(d.d1_prime for d in diags)
    try:
        corr = pearson(e3s, d1s)
    except ConstantSeriesError:
        corr = None
    return TrajectoryResult(tuple(diags), e3s, d1s, corr)


# -- PCA ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class Pca2dResult:
    coords: np.ndarray  # (n, 2)
    explained: tuple  # fraction of variance along each of the two axes
    components: np.ndarray  # (2, dim)
    center: np.ndarray


def pca2d(ds):
    """Project all samples onto the top-2 principal axes of the pooled data.

    Deterministic sign convention: the largest-magnitude loading of each
    component is positive.
    """
    if ds.num_samples < 3:
        raise ValueError("pca2d needs at least 3 samples")
    if ds.dim < 2:
        raise ValueError("pca2d needs dim >= 2")
    z = ds.z.astype(np.float64)
    center = z.mean(axis=0)
    zc = z - center
    cov = zc.T @ zc / (z.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0:
        raise ValueError("data has zero variance")
    comps = []
    for i in range(2):
        v = evecs[:, i]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        comps.append(v)
    components = np.stack(comps)
    coords = zc @ components.T
    explained = (float(evals[0] / total), float(evals[1] / total))
    return Pca2dResult(coords, explained, components, center)
