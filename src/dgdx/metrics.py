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
counts.  Probes train on weighted fit samples (the weights serve the fit
only) and every reported number is a mean of per-domain holdout errors, one
rule for all seven metrics.  A fit returns its candidates,
``{source: probe}``: the probe its 0-1 descent reaches, ``"zero_one"``, and
the logistic solution it started from, ``"logistic"``, since the descent can
overfit a small fit split (see ``probe.fit_probe``).  The candidate with the
lowest holdout error is kept; ties keep ``"zero_one"``.  That choice biases
``e1'``, ``e2'`` and the ``d'`` values low, and the fitted probe's gap to the
infimum biases them high; which one dominates depends on the data.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import (
    D_COMPONENTS,
    E_COMPONENTS,
    Diagnosis,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VALID,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
    DatasetError,
)
from .probe import fit_probe

_COMPONENTS = E_COMPONENTS + D_COMPONENTS
# the components, then the primed metrics: column "e0p" holds field e0_prime
CSV_METRIC_COLUMNS = _COMPONENTS + tuple(c + "p" for c in _COMPONENTS)
_CSV_FIELDS = _COMPONENTS + tuple(c + "_prime" for c in _COMPONENTS)


class ConstantSeriesError(ValueError):
    """Correlation of a constant series is undefined."""


# components below minus this are flagged negative; smaller ones are rounding
_NEGATIVE_TOLERANCE = 1e-6


# -- the metric engine -----------------------------------------------------------


def _target_ids(ds, target):
    """The ids of the domains whose role is ``target``: the test domains, or
    the validation domains in validation-proxy mode."""
    if target not in (ROLE_TEST, ROLE_VALID):
        raise ValueError(f"target must be {ROLE_TEST!r} or {ROLE_VALID!r}, not {target!r}")
    ids = ds.domain_ids_with_role(target)
    if not ids:
        raise DatasetError(f"dataset has no domains with role {target!r}")
    return ids


def _union_ids(ds, target):
    """Domain set of the union distinguishability probes, d1' and d2': the
    training domains, then the target domains.

    In validation-proxy mode the n2 training domains with the highest ids are
    dropped so the domain count, and hence the chance baseline, matches the
    training-only metric d0'.  (e2' fits on all training domains in both
    modes.)
    """
    train, target_ids = ds.domain_ids_with_role(ROLE_TRAIN), _target_ids(ds, target)
    if target == ROLE_VALID:
        if len(target_ids) >= len(train):
            raise DatasetError(
                "validation-proxy mode needs fewer validation domains than training domains"
            )
        train = train[: len(train) - len(target_ids)]
    return train + target_ids


def _rows(ds, domain_ids, split, targets, label=None):
    """One split's samples of ``domain_ids``, only those of class ``label``
    when it is given, as ``(z, targets, weights, ends)``.

    The domains' blocks are stacked in order into one float64 array, filled
    block by block, so no other float64 copy of the rows is made; ``ends``
    holds each block's end row.  ``targets`` are the labels (``"label"``)
    or each domain's position in ``domain_ids`` (``"domain"``).  The weights
    serve the fit only: a block's sum to ``1 / len(domain_ids)``.
    """
    cells = []
    for did in domain_ids:
        idx = ds.cell_rows[did, split]
        if label is not None:
            idx = idx[ds.labels[idx] == label]
        if idx.size == 0:  # only a class cell can be empty: every domain has both splits
            raise DatasetError(
                f"domain {did} has no split={split} samples for class {label}; "
                "the class-conditional metric is undefined"
            )
        cells.append(idx)
    ends = np.cumsum([idx.size for idx in cells])
    z = np.empty((ends[-1], ds.dim))
    t = np.empty(ends[-1], dtype=np.int64)
    w = np.empty(ends[-1])
    for k, (idx, end) in enumerate(zip(cells, ends)):
        block = slice(end - idx.size, end)
        z[block] = ds.z[idx]
        t[block] = ds.labels[idx] if targets == "label" else k
        w[block] = 1.0 / (len(domain_ids) * idx.size)
    return z, t, w, ends


def _fit(ds, domain_ids, targets, label=None):
    """Fit a probe on the fit samples of ``domain_ids``: ``(candidates, meta)``,
    the candidates ``{"zero_one": probe}`` plus ``"logistic"``, its start, when
    the 0-1 stage moved it (see ``probe.fit_probe``), and meta the fit's record.
    The fit rows are freed on return, before any holdout rows are gathered."""
    num_outputs = ds.num_classes if targets == "label" else len(domain_ids)
    z, t, w, _ = _rows(ds, domain_ids, SPLIT_FIT, targets, label)
    if (t == t[0]).all():
        of_class = "" if label is None else f" of class {label}"
        raise DatasetError(f"the split={SPLIT_FIT} (fit) samples{of_class} of domains "
                           f"{domain_ids} hold fewer than 2 distinct {targets}s; "
                           "no probe can be fitted")
    probe, record = fit_probe(z, t, num_outputs, sample_weight=w)
    candidates = {"zero_one": probe}
    if record.start is not probe:
        candidates["logistic"] = record.start
    return candidates, record.to_dict()


def _error(probe, rows):
    """The error of ``probe`` on ``rows`` (see ``_rows``): the mean of its
    per-domain errors, so every domain weighs the same."""
    z, t, _, ends = rows
    miss = (probe.predict(z) != t).astype(np.float64)
    return float(np.mean([block.mean() for block in np.split(miss, ends[:-1])]))


def _select(ds, domain_ids, targets, label=None, scored_ids=None):
    """Fit over ``domain_ids`` (see ``_fit``); return the candidates' lowest
    holdout error on ``scored_ids`` (default: ``domain_ids``) and the fit's
    meta, whose ``"kept"`` names the first candidate to reach it."""
    candidates, meta = _fit(ds, domain_ids, targets, label)
    held = _rows(ds, scored_ids or domain_ids, SPLIT_HOLDOUT, targets, label)
    errors = {src: _error(p, held) for src, p in candidates.items()}
    meta["kept"] = min(errors, key=errors.get)
    return errors[meta["kept"]], meta


def _head_error(ds, head, domain_ids):
    if head.num_outputs != ds.num_classes:
        raise ValueError("head must have num_classes outputs")
    return _error(head, _rows(ds, domain_ids, SPLIT_HOLDOUT, "label"))


# -- the seven primed metrics ----------------------------------------------------
#
# The five probe metrics return ``(value, meta)``: the value comes from
# ``_select``'s error, meta is the fit's record (d2': one per class).  The two
# head metrics return the value.


def e0_prime(ds, head):
    """Learned head's 0-1 error averaged over training domains (underfitting)."""
    return _head_error(ds, head, ds.domain_ids_with_role(ROLE_TRAIN))


def e1_prime(ds, target):
    """Best shared probe's error on target domains (inseparability).

    One probe is shared across all target domains, matching the single
    minimizer inside the defining infimum.
    """
    return _select(ds, _target_ids(ds, target), "label")


def e2_prime(ds, target):
    """Error on target domains of the probe fit jointly on training plus
    target domains, every domain weighted equally (misalignment)."""
    target_ids = _target_ids(ds, target)
    train = ds.domain_ids_with_role(ROLE_TRAIN)
    return _select(ds, train + target_ids, "label", scored_ids=target_ids)


def e3_prime(ds, head, target):
    """Learned head's 0-1 error averaged over target domains (plain test error)."""
    return _head_error(ds, head, _target_ids(ds, target))


def d0_prime(ds):
    """Chance-adjusted accuracy of the best domain classifier on training domains."""
    train = ds.domain_ids_with_role(ROLE_TRAIN)
    err, meta = _select(ds, train, "domain")
    return 1.0 - err - 1.0 / len(train), meta


def d1_prime(ds, target):
    """Chance-adjusted accuracy of the best domain classifier on the union of
    training and target domains (validation-proxy mode swaps target domains
    in for an equal number of training domains so baselines match)."""
    union = _union_ids(ds, target)
    err, meta = _select(ds, union, "domain")
    return 1.0 - err - 1.0 / len(union), meta


def d2_prime(ds, target):
    """Class-conditional version of the union distinguishability: a separate
    domain classifier per class, averaged over classes with equal weight.
    A class missing from a cell of the union makes it undefined."""
    union = _union_ids(ds, target)
    values, metas = [], {}
    for y in range(ds.num_classes):
        err, metas[f"class{y}"] = _select(ds, union, "domain", label=y)
        values.append(1.0 - err - 1.0 / len(union))
    return float(np.mean(values)), metas


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


def decompose(e0p, e1p, e2p, e3p, d0p, d1p, d2p):
    """Split the target-domain error into four components and the
    class-conditional distinguishability into three.

    Components are successive differences of the primed metrics; the sums
    telescope bit exactly back to e3' and d2'.  Negative components are
    reported, and flagged when below ``-1e-6``, never clamped.
    """
    for name, v in (("e0'", e0p), ("e1'", e1p), ("e2'", e2p), ("e3'", e3p),
                    ("d0'", d0p), ("d1'", d1p), ("d2'", d2p)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    e, e3p = _chain([e0p, e1p - e0p, e2p - e1p, e3p - e2p], e3p, clamp=(0.0, 1.0))
    d, d2p = _chain([d0p, d1p - d0p, d2p - d1p], d2p)
    flags = [n for n, v in zip(_COMPONENTS, e + d) if v < -_NEGATIVE_TOLERANCE]
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


def diagnose(ds, head, target=ROLE_TEST):
    """Run all seven metrics on a dataset and decompose them.

    ``head`` is the learned head under diagnosis and ``target`` the target
    domains' role, ``"test"`` or ``"valid"``.  Probe fit metadata (iterations,
    final objective, convergence, and which stage's probe was kept) is
    attached per probe.  Deterministic: identical inputs give identical output.
    """
    e0p = e0_prime(ds, head)
    e1p, m1 = e1_prime(ds, target)
    e2p, m2 = e2_prime(ds, target)
    e3p = e3_prime(ds, head, target)
    d0p, md0 = d0_prime(ds)
    d1p, md1 = d1_prime(ds, target)
    d2p, md2 = d2_prime(ds, target)
    diag = decompose(e0p, e1p, e2p, e3p, d0p, d1p, d2p)
    meta = {"e1": m1, "e2": m2, "d0": md0, "d1": md1, "d2": md2}
    return replace(diag, probe_meta=meta)


def all_probes_converged(diag):
    """True if every fitted probe behind a diagnosis met its gradient tolerance."""
    meta = diag.probe_meta
    probes = [meta[k] for k in ("e1", "e2", "d0", "d1")] + list(meta["d2"].values())
    return all(p["converged"] for p in probes)


# -- tabular emission --------------------------------------------------------------


def csv_header(context_keys):
    return list(context_keys) + list(CSV_METRIC_COLUMNS)


def csv_row(diag, context_values):
    return list(context_values) + [repr(float(getattr(diag, f))) for f in _CSV_FIELDS]
