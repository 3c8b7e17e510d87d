"""Helpers that only the tests use."""

import json
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
from hypothesis import strategies as st

from dgdx.core import LinearProbe
from dgdx.expt import (
    ALG_COND_INVARIANCE,
    ALG_CORAL,
    ALG_GROUP_DRO,
    PARAM_KEYS,
    PENALTY_SCALE,
    WEIGHT_DECAY,
    ObjectiveState,
    _affine,
    _buffer,
    _gather,
)
from dgdx.probe import _L2_STRENGTH, FiniteProbeFamily, _as_points, _scores


def pack_params(params):
    return np.concatenate([params[k].ravel() for k in PARAM_KEYS])


def unpack_params(vec, like):
    out, pos = {}, 0
    for k in PARAM_KEYS:
        size = like[k].size
        out[k] = vec[pos : pos + size].reshape(like[k].shape).copy()
        pos += size
    return out


# -- oracle constructions --------------------------------------------------------


def oracle_instance(seed, factor=1):
    """Random 2-d binary instance: a few Gaussian blobs per class, each of
    ``factor`` times 20 to 44 points (the draws do not depend on ``factor``)."""
    rng = np.random.default_rng(seed)
    zs, ts = [], []
    for cls in (0, 1):
        for _ in range(int(rng.integers(1, 3))):
            center = rng.uniform(-2.0, 2.0, size=2)
            n = int(rng.integers(20, 45)) * factor
            zs.append(center + rng.normal(0.0, 0.45, size=(n, 2)))
            ts.append(np.full(n, cls))
    return np.vstack(zs), np.concatenate(ts)


def dense_hessian(p, z, weights, lam):
    """The probe objective's Hessian, class-major over ``(k, d + 1)``, point
    by point: ``sum_i w_i (diag p_i - p_i p_i^T) (x) x_i x_i^T`` with
    ``x_i = (z_i, 1)``, plus ``1 / k`` on the directions that add one vector
    to every class row and ``lam`` on every weight (not bias) coordinate."""
    n, d = z.shape
    k = p.shape[1]
    hess = np.zeros((k * (d + 1), k * (d + 1)))
    for wi, pi, zi in zip(weights, p, z):
        x = np.append(zi, 1.0)
        hess += wi * np.kron(np.diag(pi) - np.outer(pi, pi), np.outer(x, x))
    hess += np.kron(np.full((k, k), 1.0 / k), np.eye(d + 1))
    hess += np.diag(np.tile(np.append(np.full(d, lam), 0.0), k))
    return hess


def binary_threshold_probe(direction, offset, dim=None):
    """Binary probe predicting class 1 iff direction . z > offset."""
    direction = np.asarray(direction, dtype=np.float64)
    d = dim or direction.shape[0]
    w = np.zeros((2, d))
    w[1, : direction.shape[0]] = direction
    b = np.array([0.0, -float(offset)])
    return LinearProbe(w, b)


def constant_probe(output, num_outputs, dim):
    """Probe that predicts a fixed output everywhere."""
    b = np.zeros(num_outputs)
    b[output] = 1.0
    return LinearProbe(np.zeros((num_outputs, dim)), b)


def binary_grid_family(z, n_angles=180, n_offsets=81, pad=0.05):
    """Dense grid of 2-d binary probes over line angles and offsets.

    Angles cover the full circle so both orientations of every direction
    appear; offsets span the projection range of the data.  The two
    constant predictors come first, then, angle by angle, the
    ``binary_threshold_probe`` of each offset.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[1] != 2:
        raise ValueError("binary_grid_family requires 2-d points")
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (n_angles, 2)
    # one matrix-vector product per angle, the same arithmetic as z @ direction
    proj = np.matmul(z, dirs[:, :, None])[:, :, 0]  # (n_angles, n)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    span = np.maximum(hi - lo, 1e-12)
    offsets = np.linspace(lo - pad * span, hi + pad * span, n_offsets, axis=1)
    m = 2 + n_angles * n_offsets
    weights = np.zeros((m, 2, 2))
    weights[2:, 1] = np.repeat(dirs, n_offsets, axis=0)
    bias = np.zeros((m, 2))
    bias[:2] = np.eye(2)
    bias[2:, 1] = -offsets.ravel()
    return FiniteProbeFamily(weights, bias)


def best_linear01_error_2d(z, targets, weights=None):
    """Exact minimum 0-1 error of any linear classifier on 2-d binary data.

    Enumerates every realizable dichotomy: for each candidate direction
    (perpendiculars of all point pairs, slightly rotated both ways, plus the
    axes), it scans all thresholds that fall strictly between consecutive
    projections.  Splits landing inside a tie are skipped, so the returned
    value never undercuts what a real separating line can achieve.
    """
    z, targets = _as_points(z, targets)
    n = z.shape[0]
    if z.shape[1] != 2:
        raise ValueError("best_linear01_error_2d requires 2-d points")
    if not np.isin(targets, [0, 1]).all():
        raise ValueError("targets must be binary (0/1)")
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()

    diffs = z[:, None, :] - z[None, :, :]
    iu = np.triu_indices(n, k=1)
    d = diffs[iu]
    norms = np.linalg.norm(d, axis=1)
    d = d[norms > 0] / norms[norms > 0, None]
    perp = np.stack([-d[:, 1], d[:, 0]], axis=1)
    eps = 1e-7
    dirs = np.concatenate(
        [
            perp,
            perp + eps * d,
            perp - eps * d,
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ]
    )

    total1 = float(w[targets == 1].sum())
    total0 = float(w[targets == 0].sum())
    best = min(total0, total1)  # constant predictors
    chunk = 2048
    for start in range(0, dirs.shape[0], chunk):
        dd = dirs[start : start + chunk]
        proj = z @ dd.T  # (n, m)
        order = np.argsort(proj, axis=0, kind="stable")
        sorted_proj = np.take_along_axis(proj, order, axis=0)
        t_sorted = targets[order]
        w_sorted = w[order]
        # prefix sums of class-1 / class-0 weight below each split point
        c1 = np.cumsum(w_sorted * (t_sorted == 1), axis=0)
        c0 = np.cumsum(w_sorted * (t_sorted == 0), axis=0)
        # split after position i is realizable only between distinct projections
        valid = sorted_proj[:-1, :] < sorted_proj[1:, :]
        # predict 0 below / 1 above: err = class-1 weight below + class-0 weight above
        err_low1 = c1[:-1, :] + (total0 - c0[:-1, :])
        err_both = np.minimum(err_low1, 1.0 - err_low1)
        err_both = np.where(valid, err_both, np.inf)
        if err_both.size:
            m = float(err_both.min())
            if m < best:
                best = m
    return max(best, 0.0)


def reference_line_minima(scores, slopes, targets, weights):
    """Exact 0-1 line searches along many directions at once: ``probe._line_minima``
    as it read before its gathers became one-index takes, kept as the reference
    its bits are checked against.

    ``scores`` is ``(n, k)`` at the current parameters and ``slopes`` is
    ``(n, k, m)``, the rate of change of every score along each of ``m``
    directions.  Along a line, a point is classified correctly on one open
    interval of the step ``t`` (its margin over every other class is affine
    in ``t``), so one sort of the ``2n`` interval ends per direction gives
    the step with the most correctly classified weight.  Returns
    ``(correct_weight, step)``, each of shape ``(m,)``; the step is the
    middle of the best interval, or one unit (or magnitude) past its finite
    end when it is unbounded on one side.
    """
    n, k, m = slopes.shape
    rows = np.arange(n)
    own = slopes[rows, targets]
    lo = np.full((n, m), -np.inf)
    hi = np.full((n, m), np.inf)
    never = np.zeros((n, m), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for shift in range(1, k):
            other = (targets + shift) % k
            margin = (scores[rows, targets] - scores[rows, other])[:, None]
            rate = own - slopes[rows, other]
            root = -margin / rate
            np.maximum(lo, np.where(rate > 0, root, -np.inf), out=lo)
            np.minimum(hi, np.where(rate < 0, root, np.inf), out=hi)
            never |= (rate == 0) & (margin <= 0)
    w = np.where((lo < hi) & ~never, weights[:, None], 0.0).T
    lo, hi = lo.T, hi.T
    # ties between ends need no order: only the sum after the last of them is read
    ends = np.concatenate([lo, hi], axis=1)
    order = (np.argsort(ends, axis=1) + 2 * n * np.arange(m)[:, None]).ravel()
    ends = ends.ravel()[order].reshape(m, 2 * n)
    covered = np.cumsum(np.concatenate([w, -w], axis=1).ravel()[order].reshape(m, 2 * n), axis=1)
    # the weight covering the open gap after each end, where that gap is not empty
    covered = np.where(ends[:, :-1] < ends[:, 1:], covered[:, :-1], -np.inf)
    j = covered.argmax(axis=1)
    at = np.arange(m)
    left, right = ends[at, j], ends[at, j + 1]
    with np.errstate(invalid="ignore"):
        step = 0.5 * (left + right)
        step = np.where(np.isinf(left), right - np.maximum(1.0, np.abs(right)), step)
        step = np.where(np.isinf(right), left + np.maximum(1.0, np.abs(left)), step)
    # a direction that moves no margin (a constant feature) has no finite end at all
    step[np.isinf(left) & np.isinf(right)] = 0.0
    return covered[at, j], step


# -- exact searches from scratch ---------------------------------------------------


def reference_mean_miss(preds, tables, correct):
    """Mass each row of ``preds`` ``(P, m)`` misclassifies, averaged over the
    ``K`` distributions ``tables`` ``(K, m, C)``, where column ``c`` of
    distribution ``k`` is right for output ``correct[k, c]``: the family
    predicted again and only the subset's distributions summed, as the exact
    searches did before a ``PartitionInstance`` cached its loss table."""
    if len(tables) == 0:
        raise ValueError("domain subset must be nonempty")
    miss = preds[:, None, :, None] != correct[None, :, None, :]
    return (tables * miss).sum(axis=(2, 3)).mean(axis=1)


def _reference_argmin(errs):
    idx = int(np.argmin(errs))
    return float(errs[idx]), idx


def reference_best_label(inst, subset):
    """``(error, index)`` of the label-family minimum over ``subset``, from scratch."""
    preds = inst.label_family.predict(inst.points)
    tables = inst.joint[list(subset)]
    correct = np.arange(inst.num_classes)[None, :]
    return _reference_argmin(reference_mean_miss(preds, tables, correct))


def reference_best_domain(inst, subset, conditional_class=None):
    """``(error, index)`` of the domain-family minimum over the ordered
    ``subset``, from scratch; domain ``subset[k]`` carries label ``k``."""
    subset = list(subset)
    if conditional_class is None:
        weights = inst.joint.sum(axis=2)[subset]
    else:
        pri = inst.joint.sum(axis=1)[subset, conditional_class]
        weights = inst.joint[subset, :, conditional_class] / pri[:, None]
    preds = inst.domain_family.predict(inst.points)
    correct = np.arange(len(subset))[:, None]
    return _reference_argmin(reference_mean_miss(preds, weights[:, :, None], correct))


# -- dump headers --------------------------------------------------------------------


def rewrite_header(blob, edit):
    """The dump ``blob`` (binary or CSV, told by its magic bytes) with its
    JSON header parsed, passed to ``edit`` and written back."""
    if blob[:4] == b"DGDX":
        end = 9 + int.from_bytes(blob[5:9], "little")
        header = json.loads(blob[9:end])
        edit(header)
        text = json.dumps(header).encode()
        return blob[:5] + len(text).to_bytes(4, "little") + text + blob[end:]
    first, rest = blob.split(b"\n", 1)
    header = json.loads(first)
    edit(header)
    return json.dumps(header).encode() + b"\n" + rest


def replace_header_field(blob, field, value):
    """``blob`` with header ``field`` set to ``value``; ``"id"`` is the first domain's id."""

    def edit(header):
        if field == "id":
            header["domains"][0]["id"] = value
        else:
            header[field] = value

    return rewrite_header(blob, edit)


# any JSON integer, with the small ones, those past 32 bits and the negative ones each drawn often
ANY_JSON_INTEGER = (
    st.integers() | st.integers(-3, 64) | st.integers(min_value=2**31) | st.integers(max_value=-1)
)


def damage_binary(blob, data):
    """The binary dump ``blob`` cut short or with one byte flipped, drawn from
    hypothesis ``data``."""
    header_end = 9 + int.from_bytes(blob[5:9], "little")
    # offsets come from the 9 fixed bytes, from those and the JSON header, or from anywhere
    offset = data.draw(
        st.integers(0, 9) | st.integers(0, header_end) | st.integers(0, len(blob) - 1)
    )
    if data.draw(st.booleans(), label="truncate"):
        return blob[:offset]
    damaged = bytearray(blob)
    damaged[offset] ^= data.draw(st.integers(1, 255), label="xor mask")
    return bytes(damaged)


def damage_csv(blob, data):
    """The CSV dump ``blob`` cut short, with one byte flipped, with two lines
    spliced or with one header integer replaced, drawn from hypothesis ``data``."""
    lines = blob.split(b"\n")
    damage = data.draw(st.sampled_from(["truncate", "flip", "splice", "header"]))
    if damage == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    if damage == "flip":
        damaged = bytearray(blob)
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        damaged[offset] ^= data.draw(st.integers(1, 255), label="xor mask")
        return bytes(damaged)
    if damage == "splice":
        # the head of one line joined to the tail of another, in place of a third
        a, b, c = (data.draw(st.integers(0, len(lines) - 1), label=n) for n in "abc")
        head = lines[a][: data.draw(st.integers(0, len(lines[a])), label="cut a")]
        tail = lines[b][data.draw(st.integers(0, len(lines[b])), label="cut b"):]
        return b"\n".join(lines[:c] + [head + tail] + lines[c + 1 :])
    field = data.draw(st.sampled_from(["version", "dim", "num_classes", "id"]))
    return replace_header_field(blob, field, data.draw(ANY_JSON_INTEGER))


# -- memory ----------------------------------------------------------------------------


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the most memory,
    in bytes, that Python objects and numpy arrays allocated during the call
    held at once, as tracemalloc counts it.  Deterministic for a given call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def without_solver_bits(node):
    """``node`` without the ``objective`` and ``grad_max`` entries, whose last
    bits depend on the BLAS thread count."""
    if isinstance(node, dict):
        return {k: without_solver_bits(v) for k, v in node.items()
                if k not in ("objective", "grad_max")}
    return node


# -- reference objectives ------------------------------------------------------------
#
# The training objective and the probe objective as they read before their reductions over
# short rows went through the helpers of ``dgdx.core`` and their label entries through one
# flat index, kept as the references whose bits the current code is checked against.


@dataclass(frozen=True)
class ReferenceBatch:
    """A training batch as the reference objective reads it: the labels, and
    ``rows`` = ``np.arange(n)`` to pick each sample's label entry."""

    x: np.ndarray
    labels: np.ndarray
    rows: np.ndarray
    groups: tuple
    classes: tuple
    work: dict = field(default_factory=dict, repr=False, compare=False)


def reference_batch(batch, labels):
    """The ``ReferenceBatch`` of ``expt.make_batch``'s ``batch`` of samples with ``labels``."""
    return ReferenceBatch(batch.x, labels, np.arange(batch.x.shape[0]), batch.groups,
                          batch.classes)


def _reference_coral_penalty(h2, batch):
    d = h2.shape[1]
    stats = []
    for g, idx in enumerate(batch.groups):
        hc = _gather(batch, ("group", g), h2, idx)
        mu = hc.mean(axis=0)
        hc -= mu
        stats.append((hc, mu, hc.T @ hc / idx.size))
    penalty = 0.0
    for a, (_, mu_a, cov_a) in enumerate(stats):
        for _, mu_b, cov_b in stats[a + 1:]:
            dmu, dcov = mu_a - mu_b, cov_a - cov_b
            penalty += (dmu @ dmu) / d + (dcov * dcov).sum() / (d * d)
    return penalty / max(len(stats) * (len(stats) - 1) // 2, 1), tuple(stats)


def _reference_coral_grad(grad, batch, stats):
    n_groups, d = len(stats), grad.shape[1]
    n_pairs = max(n_groups * (n_groups - 1) // 2, 1)
    mu_sum = sum(mu for _, mu, _ in stats)
    cov_sum = sum(cov for _, _, cov in stats)
    for idx, (hc, mu, cov) in zip(batch.groups, stats):
        s = 2.0 / (n_pairs * d * idx.size)
        share = hc @ ((2.0 * s / d) * (n_groups * cov - cov_sum))
        share += s * (n_groups * mu - mu_sum)
        grad[idx] = share


def _reference_condinv_penalty(h2, batch):
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


def _reference_condinv_grad(grad, batch, ms):
    scale = 2.0 * PENALTY_SCALE / max(len(batch.classes), 1)
    for c, ((idx, dc), m) in enumerate(zip(batch.classes, ms)):
        share = _buffer(batch, ("class", c), (idx.size, grad.shape[1]), grad.dtype)
        grad[idx] = np.matmul(dc, (scale / idx.size) * m.T, out=share)


_REFERENCE_PENALTIES = {
    ALG_CORAL: (_reference_coral_penalty, _reference_coral_grad),
    ALG_COND_INVARIANCE: (_reference_condinv_penalty, _reference_condinv_grad),
}


def reference_objective(params, batch, cfg):
    """``expt.objective`` on a ``ReferenceBatch``."""
    pre1 = _affine(batch, "pre1", batch.x, params["W1"], params["b1"])
    h1 = np.maximum(pre1, 0.0, out=_buffer(batch, "h1", pre1.shape, pre1.dtype))
    pre2 = _affine(batch, "pre2", h1, params["W2"], params["b2"])
    h2 = np.maximum(pre2, 0.0, out=_buffer(batch, "h2", pre2.shape, pre2.dtype))
    penalty, penalty_state = 0.0, None  # no penalty, or beta is 0
    if cfg.algorithm in _REFERENCE_PENALTIES and cfg.beta > 0:
        penalty, penalty_state = _REFERENCE_PENALTIES[cfg.algorithm][0](h2, batch)
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

    obj = data_term + cfg.beta * penalty
    for key in ("W1", "W2", "W3"):
        obj += 0.5 * WEIGHT_DECAY * float((params[key] ** 2).sum())
    return obj, ObjectiveState(params, (pre1, h1, pre2, h2, logits), (e, esum), q,
                               penalty_state)


def reference_objective_gradient(state, batch, cfg):
    """``expt.objective_gradient`` on a ``ReferenceBatch``."""
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

    wd = WEIGHT_DECAY
    grads = {"W3": h2.T @ dlogits + wd * params["W3"], "b3": dlogits.sum(axis=0)}
    # dh2, then dpre2 in the same array
    dpre2 = np.matmul(dlogits, params["W3"].T, out=_buffer(batch, "dpre2", h2.shape, h2.dtype))
    if state.penalty is not None:
        dh2_pen = _buffer(batch, "penalty grad", h2.shape, h2.dtype)
        dh2_pen.fill(0.0)
        _REFERENCE_PENALTIES[cfg.algorithm][1](dh2_pen, batch, state.penalty)
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


def reference_probe_objective_and_grad(theta, z, targets, weights):
    """``probe._objective_and_grad``, taking the targets themselves."""
    rows = np.arange(z.shape[0])
    p = _scores(theta, z)
    u_max = p.max(axis=1, keepdims=True)
    own = p[rows, targets]
    p -= u_max
    np.exp(p, out=p)
    denom = p.sum(axis=1)
    ce = np.log(denom) + u_max[:, 0] - own
    p /= denom[:, None]
    w = theta[:, :-1]
    obj = float(weights @ ce) + 0.5 * _L2_STRENGTH * float((w * w).sum())
    r = weights[:, None] * p
    r[rows, targets] -= weights
    grad = np.empty_like(theta)
    grad[:, :-1] = r.T @ z + _L2_STRENGTH * w
    grad[:, -1] = r.sum(axis=0)
    return obj, grad, p


def reference_hessian_product(v, p, z, weights):
    """``probe._hessian_product``."""
    q = p * _scores(v, z)
    q -= p * q.sum(axis=1, keepdims=True)
    q *= weights[:, None]
    out = np.empty_like(v)
    out[:, :-1] = q.T @ z + _L2_STRENGTH * v[:, :-1]
    out[:, -1] = q.sum(axis=0)
    return out
