"""Generalization and invariance metrics with their decompositions.

Four generalization metrics: the learned head's error on training domains
(underfitting), the best shared probe's error on target domains
(inseparability), the error on target domains of the best probe fit
jointly on training and target domains (misalignment), and the learned
head's error on target domains (the plain test error).  Three invariance
metrics measure how well a domain classifier drawn from the same linear
family can tell domains apart, on training domains, on the training/target
union, and on that union conditioned per class; each is reported as
chance-adjusted accuracy, so lower means more invariant.

All averages over domains weight domains equally regardless of sample
counts.  Probes train on fit samples and every reported number comes from
holdout samples.  A fit gives two probes, the logistic solution and the
one its 0-1 descent reaches (see ``probe.fit_probe``), and the probe-based
metrics keep the lower holdout error of the two: a minimum of two holdout
errors, so ``e1'``, ``e2'`` and the ``d'`` values carry a small optimistic
bias, of the same kind as the exact mode's.  An exact-family oracle mode
replaces fitting with exact minimization over an explicit probe list,
selecting on the holdout samples themselves; in that mode the ordering
guarantees between metrics hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Diagnosis,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VALID,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
    DatasetError,
)
from .probe import (
    ProbeFitConfig,
    exact_best_error,
    fit_probe,
    zero_one_error,
)

CSV_METRIC_COLUMNS = (
    "e0",
    "e1",
    "e2",
    "e3",
    "d0",
    "d1",
    "d2",
    "e0p",
    "e1p",
    "e2p",
    "e3p",
    "d0p",
    "d1p",
    "d2p",
)


class ConstantSeriesError(ValueError):
    """Correlation of a constant series is undefined."""


@dataclass(frozen=True)
class MetricConfig:
    probe_cfg: ProbeFitConfig = field(default_factory=ProbeFitConfig)
    target_role: str = ROLE_TEST
    negative_tolerance: float = 1e-6
    oracle_family_provider: object = None  # callable(num_outputs, z) -> FiniteProbeFamily

    def __post_init__(self):
        if self.target_role not in (ROLE_TEST, ROLE_VALID):
            raise ValueError("target_role must be 'test' or 'valid'")
        if self.negative_tolerance < 0:
            raise ValueError("negative_tolerance must be nonnegative")

    @property
    def exact_mode(self):
        return self.oracle_family_provider is not None


# -- sample selection helpers ----------------------------------------------------


def _train_ids(ds):
    return ds.domain_ids_with_role(ROLE_TRAIN)


def _target_ids(ds, cfg):
    ids = ds.domain_ids_with_role(cfg.target_role)
    if not ids:
        raise DatasetError(f"dataset has no domains with role {cfg.target_role!r}")
    return ids


def _union_ids(ds, cfg):
    """Domain set for the joint and invariance probes.

    With a test target this is all training plus all test domains.  In
    validation-proxy mode the last n2 training domains (by id) are dropped so
    the domain count, and hence the chance baseline, matches the
    training-only metric.
    """
    train = sorted(_train_ids(ds))
    target = _target_ids(ds, cfg)
    if cfg.target_role == ROLE_VALID:
        n2 = len(target)
        if n2 >= len(train):
            raise DatasetError(
                "validation-proxy mode needs fewer validation domains than training domains"
            )
        train = train[: len(train) - n2]
    return train + list(target)


def _cell(ds, domain_id, split, label=None):
    m = ds.mask(domain_id=domain_id, split=split, label=label)
    return np.flatnonzero(m)


def _gather(ds, domain_ids, split, label=None):
    """Stack samples of the listed domains with equal per-domain weight.

    Returns (z64, labels, domain_positions, weights); weights sum to 1.
    """
    zs, ys, pos, ws = [], [], [], []
    for k, did in enumerate(domain_ids):
        idx = _cell(ds, did, split, label)
        if idx.size == 0:
            raise DatasetError(
                f"domain {did} has no split={split} samples"
                + (f" for class {label}" if label is not None else "")
            )
        zs.append(ds.z[idx].astype(np.float64))
        ys.append(ds.labels[idx])
        pos.append(np.full(idx.size, k, dtype=np.int64))
        ws.append(np.full(idx.size, 1.0 / (len(domain_ids) * idx.size)))
    return (
        np.vstack(zs),
        np.concatenate(ys),
        np.concatenate(pos),
        np.concatenate(ws),
    )


def _mean_domain_error(ds, probe, domain_ids, split, targets="label"):
    """Equal-weight mean over domains of the probe's 0-1 error on one split."""
    errs = []
    for k, did in enumerate(domain_ids):
        idx = _cell(ds, did, split)
        z = ds.z[idx].astype(np.float64)
        t = ds.labels[idx] if targets == "label" else np.full(idx.size, k, dtype=np.int64)
        errs.append(zero_one_error(probe, z, t))
    return float(np.mean(errs))


def _select_probe(ds, cfg, domain_ids, num_outputs, targets, score, label=None):
    """Pick the error-minimizing probe, by fitting or by exact family search,
    and return ``(score(probe), meta)``.

    Fitted mode trains on fit samples.  The fit's 0-1 stage can overfit a
    small fit split, so the logistic solution it started from is scored as
    well and the lower holdout error is kept (ties keep the 0-1 stage's
    probe).  Both probes upper-bound the same infimum, but the minimum of
    their two holdout errors is biased low, slightly, since the choice sees
    the samples it is scored on.  Exact mode minimizes the
    domain-equal-weighted 0-1 error directly on the holdout samples (the
    same empirical distribution the metrics report on), which makes the
    infimum exact.
    """
    if cfg.exact_mode:
        z, ys, pos, w = _gather(ds, domain_ids, SPLIT_HOLDOUT, label)
        t = ys if targets == "label" else pos
        family = cfg.oracle_family_provider(num_outputs, z)
        err, idx = exact_best_error(family, z, t, weights=w)
        meta = {"mode": "exact", "family_size": len(family), "index": idx, "error": err}
        return score(family[idx]), meta
    z, ys, pos, w = _gather(ds, domain_ids, SPLIT_FIT, label)
    t = ys if targets == "label" else pos
    probe, record = fit_probe(z, t, num_outputs, cfg.probe_cfg, sample_weight=w)
    meta = record.to_dict()
    value = score(probe)
    meta["kept"] = "zero_one"
    if record.start is not probe:
        start_value = score(record.start)
        if start_value < value:
            value, meta["kept"] = start_value, "logistic"
    return value, meta


def _holdout_error(ds, cfg, probe, domain_ids, targets="label", label=None):
    """Domain-equal holdout error; restricted to one class for conditional metrics."""
    if label is None and targets == "label":
        return _mean_domain_error(ds, probe, domain_ids, SPLIT_HOLDOUT, targets="label")
    z, ys, pos, w = _gather(ds, domain_ids, SPLIT_HOLDOUT, label)
    t = ys if targets == "label" else pos
    return zero_one_error(probe, z, t, weights=w)


# -- the seven primed metrics ----------------------------------------------------


def e0_prime(ds, head, cfg=None):
    """Learned head's 0-1 error averaged over training domains (underfitting)."""
    cfg = cfg or MetricConfig()
    if head.num_outputs != ds.num_classes:
        raise ValueError("head must have num_classes outputs")
    return _mean_domain_error(ds, head, _train_ids(ds), SPLIT_HOLDOUT)


def e1_prime(ds, cfg=None, return_meta=False):
    """Best shared probe's error on target domains (inseparability).

    One probe is shared across all target domains, matching the single
    minimizer inside the defining infimum.  Fitted probes report the lower
    holdout error of a fit's two stages (see ``_select_probe``).
    """
    cfg = cfg or MetricConfig()
    target = _target_ids(ds, cfg)
    value, meta = _select_probe(ds, cfg, target, ds.num_classes, "label",
                                lambda p: _holdout_error(ds, cfg, p, target))
    return (value, meta) if return_meta else value


def e2_prime(ds, cfg=None, return_meta=False):
    """Error on target domains of the probe fit jointly on training plus
    target domains, every domain weighted equally (misalignment).  Fitted
    probes report the lower holdout error of a fit's two stages (see
    ``_select_probe``)."""
    cfg = cfg or MetricConfig()
    union = sorted(_train_ids(ds)) + list(_target_ids(ds, cfg))
    target = _target_ids(ds, cfg)
    value, meta = _select_probe(ds, cfg, union, ds.num_classes, "label",
                                lambda p: _holdout_error(ds, cfg, p, target))
    return (value, meta) if return_meta else value


def e3_prime(ds, head, cfg=None):
    """Learned head's 0-1 error averaged over target domains (plain test error)."""
    cfg = cfg or MetricConfig()
    if head.num_outputs != ds.num_classes:
        raise ValueError("head must have num_classes outputs")
    return _mean_domain_error(ds, head, _target_ids(ds, cfg), SPLIT_HOLDOUT)


def d0_prime(ds, cfg=None, return_meta=False):
    """Chance-adjusted accuracy of the best domain classifier on training domains.

    Fitted probes report the lower holdout error of a fit's two stages (see
    ``_select_probe``), as do ``d1_prime`` and ``d2_prime``.
    """
    cfg = cfg or MetricConfig()
    train = sorted(_train_ids(ds))
    if len(train) < 2:
        raise DatasetError("training-domain distinguishability needs at least 2 training domains")
    err, meta = _select_probe(ds, cfg, train, len(train), "domain",
                              lambda p: _holdout_error(ds, cfg, p, train, targets="domain"))
    value = 1.0 - err - 1.0 / len(train)
    return (value, meta) if return_meta else value


def d1_prime(ds, cfg=None, return_meta=False):
    """Chance-adjusted accuracy of the best domain classifier on the union of
    training and target domains (validation-proxy mode swaps target domains
    in for an equal number of training domains so baselines match)."""
    cfg = cfg or MetricConfig()
    union = _union_ids(ds, cfg)
    err, meta = _select_probe(ds, cfg, union, len(union), "domain",
                              lambda p: _holdout_error(ds, cfg, p, union, targets="domain"))
    value = 1.0 - err - 1.0 / len(union)
    return (value, meta) if return_meta else value


def d2_prime(ds, cfg=None, return_meta=False):
    """Class-conditional version of the union distinguishability: a separate
    domain classifier per class, averaged over classes with equal weight."""
    cfg = cfg or MetricConfig()
    union = _union_ids(ds, cfg)
    values, metas = [], {}
    for y in range(ds.num_classes):
        for did in union:
            for split in (SPLIT_FIT, SPLIT_HOLDOUT):
                if _cell(ds, did, split, y).size == 0:
                    raise DatasetError(
                        f"domain {did} has no split={split} samples for class {y}; "
                        "the class-conditional metric is undefined"
                    )
        err, meta = _select_probe(
            ds, cfg, union, len(union), "domain",
            lambda p: _holdout_error(ds, cfg, p, union, targets="domain", label=y), label=y,
        )
        values.append(1.0 - err - 1.0 / len(union))
        metas[f"class{y}"] = meta
    value = float(np.mean(values))
    return (value, metas) if return_meta else value


# -- decomposition ----------------------------------------------------------------


def _chain(deltas, total, clamp=None):
    """Make the left-to-right float sum of the deltas reproduce the total
    bit exactly, by taking the achieved sum as the reported total.

    The last delta is the float difference ``total - partial``, and the
    reported total is ``partial + last``: the identity then holds by
    construction, and the reported total differs from the requested one by
    at most an ulp of the partial sums (~1e-16, far below measurement
    precision).  With ``clamp`` the achieved total is kept inside the given
    interval by ulp-nudging the last delta.  Returns (components, total)."""
    partial = 0.0
    for v in deltas[:-1]:
        partial = partial + v
    last = total - partial
    achieved = partial + last
    if clamp is not None:
        lo, hi = clamp
        for _ in range(8):
            if lo <= achieved <= hi:
                break
            last = math.nextafter(last, math.inf if achieved < lo else -math.inf)
            achieved = partial + last
        else:
            raise ArithmeticError("could not keep the decomposition total in range")
    return deltas[:-1] + [last], achieved


def decompose(e0p, e1p, e2p, e3p, d0p, d1p, d2p, negative_tolerance=1e-6):
    """Split the target-domain error into four components and the
    class-conditional distinguishability into three.

    Components are successive differences of the primed metrics; the sums
    telescope bit exactly back to e3' and d2'.  Negative components are
    reported and flagged, never clamped.
    """
    for name, v in (("e0'", e0p), ("e1'", e1p), ("e2'", e2p), ("e3'", e3p),
                    ("d0'", d0p), ("d1'", d1p), ("d2'", d2p)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    e, e3p = _chain([e0p, e1p - e0p, e2p - e1p, e3p - e2p], e3p, clamp=(0.0, 1.0))
    d, d2p = _chain([d0p, d1p - d0p, d2p - d1p], d2p)
    flags = []
    for name, v in zip(("e0", "e1", "e2", "e3"), e):
        if v < -negative_tolerance:
            flags.append(name)
    for name, v in zip(("d0", "d1", "d2"), d):
        if v < -negative_tolerance:
            flags.append(name)
    return Diagnosis(
        e0_prime=e0p,
        e1_prime=e1p,
        e2_prime=e2p,
        e3_prime=e3p,
        e0=e[0],
        e1=e[1],
        e2=e[2],
        e3=e[3],
        d0_prime=d0p,
        d1_prime=d1p,
        d2_prime=d2p,
        d0=d[0],
        d1=d[1],
        d2=d[2],
        negative_component_flags=tuple(flags),
    )


def pearson(series_a, series_b):
    """Sample Pearson correlation of two equal-length series."""
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-d and of equal length")
    if a.size < 2:
        raise ValueError("series must have at least 2 elements")
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise ConstantSeriesError("correlation is undefined for a constant series")
    r = float(da @ db) / math.sqrt(va * vb)
    return min(1.0, max(-1.0, r))


def diagnose(ds, head, cfg=None):
    """Run all seven metrics on a dataset and decompose them.

    ``head`` is the learned classification head under diagnosis.  Probe fit
    metadata (iterations, final objective, convergence, and which stage's
    probe was kept) is attached per probe.  Deterministic: identical inputs
    give identical output.
    """
    cfg = cfg or MetricConfig()
    e0p = e0_prime(ds, head, cfg)
    e1p, m1 = e1_prime(ds, cfg, return_meta=True)
    e2p, m2 = e2_prime(ds, cfg, return_meta=True)
    e3p = e3_prime(ds, head, cfg)
    d0p, md0 = d0_prime(ds, cfg, return_meta=True)
    d1p, md1 = d1_prime(ds, cfg, return_meta=True)
    d2p, md2 = d2_prime(ds, cfg, return_meta=True)
    diag = decompose(e0p, e1p, e2p, e3p, d0p, d1p, d2p, cfg.negative_tolerance)
    meta = {"e1": m1, "e2": m2, "d0": md0, "d1": md1, "d2": md2}
    return replace(diag, probe_meta=meta)


def all_probes_converged(diag):
    """True if every fitted probe behind a diagnosis met its gradient tolerance."""

    def walk(node):
        if isinstance(node, dict):
            if "converged" in node:
                yield bool(node["converged"])
            else:
                for v in node.values():
                    yield from walk(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                yield from walk(v)

    return all(walk(diag.probe_meta)) if diag.probe_meta else True


# -- tabular emission --------------------------------------------------------------


def csv_header(context_keys=("beta_or_epoch",)):
    return list(context_keys) + list(CSV_METRIC_COLUMNS)


def csv_row(diag, context_values=()):
    vals = [
        diag.e0, diag.e1, diag.e2, diag.e3,
        diag.d0, diag.d1, diag.d2,
        diag.e0_prime, diag.e1_prime, diag.e2_prime, diag.e3_prime,
        diag.d0_prime, diag.d1_prime, diag.d2_prime,
    ]
    return list(context_values) + [repr(float(v)) for v in vals]
