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
    _col_sum,
    _row_max,
    _row_sum,
)
from .metrics import ConstantSeriesError, diagnose, pearson

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

# L2 weight decay on the weight matrices, in every objective
WEIGHT_DECAY = 0.01

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
        if self.samples_per_domain < 2 * self.num_classes:
            raise ValueError(f"samples_per_domain must be at least 2 * num_classes "
                             f"({2 * self.num_classes}), so that every class has fit and "
                             f"holdout samples; got {self.samples_per_domain}")

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
    steps_per_epoch: int = 500
    learning_rate: float = 0.2
    hidden_width: int = 12
    seed: int = 0
    freeze_features: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; valid: {ALGORITHMS}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and nonnegative, "
                             f"got {self.learning_rate}")
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
CRITERION_FIXTURE_CONFIG = TrainConfig()


@dataclass(frozen=True)
class TrainedModel:
    checkpoints: tuple  # one param dict per epoch
    objective_trace: tuple

    @property
    def final(self):
        return self.checkpoints[-1]

    def head_probe(self, checkpoint=None):
        """The linear head of a checkpoint (default the final one) as a probe."""
        params = self.checkpoints[checkpoint] if checkpoint is not None else self.final
        return LinearProbe(params["W3"].T, params["b3"])


def pretrained_invariant_params(spec):
    """The parameters of a stand-in for an externally pretrained extractor
    to freeze.

    The first layer projects onto the class-signal block only (random
    nonnegative-friendly combinations with zero color weights), so its
    representations are class-conditionally domain-invariant by
    construction.  Used by the frozen-feature protocol, where training may
    then move only the head and the separability metrics become constant
    lower-bound references.  Its hidden width is the criterion fixture's.
    """
    rng = np.random.default_rng(np.random.SeedSequence((0, 13)))
    h = CRITERION_FIXTURE_CONFIG.hidden_width
    w1 = np.zeros((spec.input_dim, h))
    w1[: spec.signal_dim, :] = rng.normal(0.0, np.sqrt(2.0 / spec.signal_dim),
                                          size=(spec.signal_dim, h))
    return {
        "W1": w1,
        "b1": np.full(h, 0.1),
        "W2": rng.normal(0.0, np.sqrt(2.0 / h), size=(h, h)),
        "b2": np.full(h, 0.1),
        "W3": np.zeros((h, spec.num_classes)),
        "b3": np.zeros(spec.num_classes),
    }


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
class Batch:
    """The training batch, the constants every objective evaluation on it
    reuses, and the workspace those evaluations write into; built once per
    ``train`` call (see ``make_batch``).

    ``work`` maps a name to an array that ``objective`` and
    ``objective_gradient`` overwrite on every call instead of allocating a
    fresh one: the forward activations, the penalty's per-class or per-group
    gathers, and the backpropagated ``(n, hidden)`` gradients.  An array is
    allocated on first use and again only when its shape or dtype changes,
    and a batch serves one thread at a time.

    ``label_at`` holds ``i * k + labels[i]`` for the ``k`` classes: the flat
    index of sample i's label entry in a raveled ``(n, k)`` array, so one
    ``take`` picks every sample's entry.
    """

    x: np.ndarray
    label_at: np.ndarray
    groups: tuple  # sample indices of each training domain
    classes: tuple  # (sample indices, centred one-hot domain codes) per class with >= 2 samples
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
    return Batch(x, np.arange(x.shape[0]) * num_classes + labels, groups, tuple(classes))


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


def _coral_penalty(h2, batch):
    """Mean over training-domain pairs of the squared mean difference plus the
    squared Frobenius covariance difference of representations (entry-wise
    means, so the scale is width independent).  Also returns each group's
    centred representations, mean and covariance, for the gradient."""
    d = h2.shape[1]
    stats = []
    for g, idx in enumerate(batch.groups):
        hc = _gather(batch, ("group", g), h2, idx)
        mu = _col_sum(hc) / idx.size
        hc -= mu
        stats.append((hc, mu, hc.T @ hc / idx.size))
    penalty = 0.0
    for a, (_, mu_a, cov_a) in enumerate(stats):
        for _, mu_b, cov_b in stats[a + 1:]:
            dmu, dcov = mu_a - mu_b, cov_a - cov_b
            penalty += (dmu @ dmu) / d + (dcov * dcov).sum() / (d * d)
    return penalty / max(len(stats) * (len(stats) - 1) // 2, 1), tuple(stats)


def _coral_grad(grad, batch, stats):
    """Writes the CORAL penalty's gradient into the zeroed ``grad``.

    Over the pairs it is in, group g's mean and covariance differences sum to
    ``G * stat_g - sum_h stat_h`` for G groups, so its rows get
    ``s (G mu_g - sum mu) + hc_g @ ((2 s / d) (G C_g - sum C))`` with
    ``s = 2 / (pairs d n_g)``."""
    n_groups, d = len(stats), grad.shape[1]
    n_pairs = max(n_groups * (n_groups - 1) // 2, 1)
    mu_sum = sum(mu for _, mu, _ in stats)
    cov_sum = sum(cov for _, _, cov in stats)
    for idx, (hc, mu, cov) in zip(batch.groups, stats):
        s = 2.0 / (n_pairs * d * idx.size)
        share = hc @ ((2.0 * s / d) * (n_groups * cov - cov_sum))
        share += s * (n_groups * mu - mu_sum)
        grad[idx] = share


def _condinv_penalty(h2, batch):
    """Per-class linear-kernel dependence between representations and one-hot
    domain codes: the total squared entries of the class-conditional cross
    covariance ``m``, averaged over the classes with at least 2 samples.  Also
    returns each class's ``m``, for the gradient."""
    penalty = 0.0
    ms = []
    for c, (idx, dc) in enumerate(batch.classes):
        rc = _gather(batch, ("class", c), h2, idx)
        rc -= _col_sum(rc) / idx.size
        m = rc.T @ dc / idx.size  # (d, n_groups)
        penalty += (m * m).sum()
        ms.append(m)
    scale = PENALTY_SCALE / max(len(batch.classes), 1)
    return penalty * scale, tuple(ms)


def _condinv_grad(grad, batch, ms):
    """Writes the cond-invariance penalty's gradient into the zeroed ``grad``:
    ``dc @ ((scale / n_c) m^T)`` on class c's rows, made in its gather buffer."""
    scale = 2.0 * PENALTY_SCALE / max(len(batch.classes), 1)
    for c, ((idx, dc), m) in enumerate(zip(batch.classes, ms)):
        share = _buffer(batch, ("class", c), (idx.size, grad.shape[1]), grad.dtype)
        grad[idx] = np.matmul(dc, (scale / idx.size) * m.T, out=share)


# each penalized algorithm's representation penalty and the function that
# writes its gradient with respect to the last hidden layer
_PENALTIES = {
    ALG_CORAL: (_coral_penalty, _coral_grad),
    ALG_COND_INVARIANCE: (_condinv_penalty, _condinv_grad),
}


def objective(params, batch, cfg):
    """Full-batch objective of the configured algorithm at ``params``, and the
    ``ObjectiveState`` from which ``objective_gradient`` finishes the gradient.

    The objective is the cross-entropy term (softmax-weighted across domains
    for the worst-case variant), plus ``beta`` times the algorithm's
    representation penalty, plus L2 weight decay on the weight matrices.
    """
    pre1 = _affine(batch, "pre1", batch.x, params["W1"], params["b1"])
    h1 = np.maximum(pre1, 0.0, out=_buffer(batch, "h1", pre1.shape, pre1.dtype))
    pre2 = _affine(batch, "pre2", h1, params["W2"], params["b2"])
    h2 = np.maximum(pre2, 0.0, out=_buffer(batch, "h2", pre2.shape, pre2.dtype))
    penalty, penalty_state = 0.0, None  # no penalty, or beta is 0
    if cfg.algorithm in _PENALTIES and cfg.beta > 0:
        penalty, penalty_state = _PENALTIES[cfg.algorithm][0](h2, batch)
    logits = _affine(batch, "logits", h2, params["W3"], params["b3"])
    logp = _buffer(batch, "logp", logits.shape, logits.dtype)
    np.subtract(logits, _row_max(logits), out=logp)
    e = np.exp(logp, out=_buffer(batch, "exp", logits.shape, logits.dtype))
    esum = _row_sum(e)
    logp -= np.log(esum)
    nll = -logp.take(batch.label_at)

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

    obj = data_term + cfg.beta * penalty
    for key in ("W1", "W2", "W3"):
        obj += 0.5 * WEIGHT_DECAY * float((params[key] ** 2).sum())
    return obj, ObjectiveState(params, (pre1, h1, pre2, h2, logits), (e, esum), q,
                               penalty_state)


def objective_gradient(state, batch, cfg):
    """Analytic gradients of ``objective`` from its state, by backpropagation
    through the cached forward pass (no forward pass is repeated).

    ``state`` must come from the latest ``objective`` call on ``batch``.  The
    returned gradients are fresh arrays.
    """
    params = state.params
    pre1, h1, pre2, h2, _ = state.forward
    e, esum = state.softmax
    n = batch.x.shape[0]
    dlogits = np.divide(e, esum, out=_buffer(batch, "dlogits", e.shape, e.dtype))
    dlogits.ravel()[batch.label_at] -= 1.0
    if cfg.algorithm == ALG_GROUP_DRO:
        scale = np.zeros(n)
        for g, idx in enumerate(batch.groups):
            scale[idx] = state.q[g] / idx.size
        dlogits *= scale[:, None]
    else:
        dlogits /= n

    wd = WEIGHT_DECAY
    grads = {"W3": h2.T @ dlogits + wd * params["W3"], "b3": _col_sum(dlogits)}
    # dh2, then dpre2 in the same array
    dpre2 = np.matmul(dlogits, params["W3"].T, out=_buffer(batch, "dpre2", h2.shape, h2.dtype))
    if state.penalty is not None:
        dh2_pen = _buffer(batch, "penalty grad", h2.shape, h2.dtype)
        dh2_pen.fill(0.0)
        _PENALTIES[cfg.algorithm][1](dh2_pen, batch, state.penalty)
        dh2_pen *= cfg.beta
        dpre2 += dh2_pen
    dpre2 *= np.greater(pre2, 0, out=_buffer(batch, "mask", pre2.shape, np.bool_))
    # dh1, then dpre1 in the same array
    dpre1 = np.matmul(dpre2, params["W2"].T, out=_buffer(batch, "dpre1", h1.shape, h1.dtype))
    dpre1 *= np.greater(pre1, 0, out=_buffer(batch, "mask", pre1.shape, np.bool_))
    grads["W2"] = h1.T @ dpre2 + wd * params["W2"]
    grads["b2"] = _col_sum(dpre2)
    grads["W1"] = batch.x.T @ dpre1 + wd * params["W1"]
    grads["b1"] = _col_sum(dpre1)
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


def train(raw, cfg, start=None):
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
    Training starts from the parameter dict ``start`` when given, else from
    ``init_params``.  With ``freeze_features`` only the head moves (features
    stay at their start, which is how a pretrained frozen extractor is
    expressed; see ``pretrained_invariant_params``); every trial still
    evaluates the full objective, penalty included, and the feature
    gradients go unused.  Deterministic per seed.  Raises DivergenceError,
    naming the epoch, if the objective stops being finite; the overflow on
    the way there raises no numpy warning.
    """
    x, labels, pos, n_groups = _fit_batch(raw)
    batch = make_batch(x, labels, pos, n_groups, raw.spec.num_classes)
    if start is not None:
        params = {k: v.copy() for k, v in start.items()}
    else:
        params = init_params(raw.spec.input_dim, cfg.hidden_width, raw.spec.num_classes, cfg.seed)
    if params["W1"].shape[0] != raw.spec.input_dim:
        raise ValueError("model input width does not match the dataset")
    if params["W3"].shape[1] != raw.spec.num_classes:
        raise ValueError("model output width does not match the dataset's classes")

    moving = [k for k in PARAM_KEYS if not (cfg.freeze_features and k in FEATURE_KEYS)]

    # the finite checks below, not numpy's warnings, report an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        obj, state = objective(params, batch, cfg)
        if not np.isfinite(obj):
            raise DivergenceError("objective non-finite at epoch 1 (before any update)")
        grads = objective_gradient(state, batch, cfg)
        checkpoints, trace = [], []
        first_trial = cfg.learning_rate
        for epoch in range(cfg.epochs):
            for _ in range(cfg.steps_per_epoch):
                gnorm2 = sum(float((grads[k] ** 2).sum()) for k in moving)
                if gnorm2 == 0.0:
                    break
                step = first_trial
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
                first_trial = min(cfg.learning_rate, 2.0 * step) if trial == 0 else step
            checkpoints.append({k: v.copy() for k, v in params.items()})
            trace.append(float(obj))
    return TrainedModel(tuple(checkpoints), tuple(trace))


def export_representations(params, raw):
    """Dump-format dataset of last-hidden-layer outputs for every sample."""
    reps = representations(params, raw.x)
    return RepresentationDataset(
        dim=reps.shape[1],
        num_classes=raw.spec.num_classes,
        domains=raw.domains,
        domain_ids=raw.domain_ids,
        splits=raw.splits,
        labels=raw.labels,
        z=reps,
    )


# -- sweeps and trajectories -----------------------------------------------------------


def train_and_diagnose(raw, cfg, target):
    """Train under ``cfg``, export the final checkpoint's representations and
    diagnose them against its head: ``(model, dataset, diagnosis)``.  The
    steps are module globals looked up at call time, so wrappers see them."""
    model = train(raw, cfg)
    ds = export_representations(model.final, raw)
    return model, ds, diagnose(ds, model.head_probe(), target)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    diagnosis: object


def sweep_beta(raw, betas, base_cfg, target):
    """One ``train_and_diagnose`` per regularization strength, each with
    ``base_cfg``'s algorithm and other settings.  Every strength is checked
    before the first one trains."""
    if len(betas) == 0:
        raise ValueError("beta grid must be nonempty")
    cfgs = [replace(base_cfg, beta=float(beta)) for beta in betas]
    return [SweepRow(cfg.beta, train_and_diagnose(raw, cfg, target)[2]) for cfg in cfgs]


@dataclass(frozen=True)
class TrajectoryResult:
    diagnoses: tuple
    e3_d1_correlation: float = None  # None when undefined (constant series)


def trajectory(raw, cfg, target):
    """Diagnose every per-epoch checkpoint and correlate test error (e3')
    with union distinguishability (d1') along the way."""
    if cfg.epochs < 2:
        raise ValueError("trajectory needs at least 2 epochs")
    model = train(raw, cfg)
    diags = []
    for i in range(len(model.checkpoints)):
        ds = export_representations(model.checkpoints[i], raw)
        diags.append(diagnose(ds, model.head_probe(i), target))
    try:
        corr = pearson([d.e3_prime for d in diags], [d.d1_prime for d in diags])
    except ConstantSeriesError:
        corr = None
    return TrajectoryResult(tuple(diags), corr)


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
    z -= center  # centred in place: one float64 copy of the rows
    cov = z.T @ z / (z.shape[0] - 1)
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
    coords = z @ components.T
    explained = (float(evals[0] / total), float(evals[1] / total))
    return Pca2dResult(coords, explained, components, center)
