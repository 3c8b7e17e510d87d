"""Linear probe fitting and exact finite-family error minimization.

Probes approximate infimums of 0-1 error over the linear-head family in two
stages: L2-regularized multinomial logistic regression, solved by damped
Newton steps (a direct solve for few parameters, conjugate gradients
preconditioned by Böhning's bound for many), then descent on the 0-1 error
itself by exact line searches in parameter space (Nguyen & Sanner,
"Algorithms for direct 0-1 loss optimization in binary classification",
ICML 2013).  For verification, a finite probe family makes the minimum
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import LinearProbe

# bounds of the 0-1 stage of fit_probe (see _descend_zero_one)
_ZO_MAX_ROUNDS = 8
_ZO_PATIENCE = 3
_ZO_RANDOM_DIRECTIONS = 8
_ZO_MAX_COORDINATES = 8
_ZO_MIN_DECREASE = 0.005
_ZO_STREAMS = 3
# elements per temporary array in the row chunks of the Hessian and of the preconditioner's
# Gram; their sums depend on the chunking.  A Gram chunk holds at least d + 1 rows, no more
# elements than the Gram: at d = 2,048 on 8,000 points, one BLAS thread, 31-row chunks took
# 9.8 s against 0.9 s
_CHUNK_ELEMENTS = 1 << 16
# elements held by one call of the 0-1 line search, over all its temporary arrays; each
# direction is searched on its own, so the batch size changes no result, only the call count
_LINE_SEARCH_ELEMENTS = 1 << 18
# probes predicted at once in exact_best_error
_FAMILY_BATCH = 4096
# most parameters, k(d + 1), for which the logistic stage builds the Hessian and solves it
# directly; above it, preconditioned conjugate gradients.  The stage's time, PCG over the
# direct solve, one BLAS thread, 2-core VM, 1,200-16,000 points: for k <= 3, 0.52-1.29 at
# 48-100 parameters and 0.32-0.88 at 150; for k >= 5, 0.81-1.73 up to 100 and 0.68-1.34 at
# 150 (no one constant suits every k); 0.24-0.69 on a 16k x 64 diagnose's fits (325, 455)
_HESSIAN_MAX_PARAMS = 64


@dataclass(frozen=True)
class ProbeFitConfig:
    l2_strength: float = 1e-4
    max_iterations: int = 1000
    gradient_tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


@dataclass(frozen=True)
class FitRecord:
    """How the logistic stage of a fit went; ``start`` is its probe, which
    the 0-1 stage started from (the fitted probe itself when that stage
    changed nothing)."""

    iterations: int
    objective: float
    grad_max: float
    converged: bool
    n_points: int
    mode: str = "fit"
    start: LinearProbe = field(default=None, compare=False, repr=False)

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "objective": self.objective,
            "grad_max": self.grad_max,
            "converged": self.converged,
            "n_points": self.n_points,
            "mode": self.mode,
        }


class FiniteProbeFamily:
    """Probes over which infimums are computed exactly, stacked: ``weights``
    ``(m, k, d)`` and ``bias`` ``(m, k)``; ``family[i]`` is a ``LinearProbe``."""

    def __init__(self, weights, bias):
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.weights.ndim != 3 or self.bias.shape != self.weights.shape[:2]:
            raise ValueError("family weights must be (m, k, d) and its bias (m, k)")
        if len(self) == 0:
            raise ValueError("probe family must be nonempty")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("probe parameters must be finite")

    @classmethod
    def from_probes(cls, probes):
        probes = list(probes)
        if len({p.weights.shape for p in probes}) != 1:
            raise ValueError("a family needs probes, all sharing num_outputs and dim")
        return cls(np.stack([p.weights for p in probes]), np.stack([p.bias for p in probes]))

    def __len__(self):
        return self.weights.shape[0]

    def __getitem__(self, i):
        """Probe ``i`` as a ``LinearProbe``; a slice gives a family."""
        if isinstance(i, slice):
            return FiniteProbeFamily(self.weights[i], self.bias[i])
        return LinearProbe(self.weights[i], self.bias[i])

    @property
    def num_outputs(self):
        return self.weights.shape[1]

    @property
    def dim(self):
        return self.weights.shape[2]

    def predict(self, z):
        """Every probe's output at every point, ``(m, n)``: bit for bit each
        probe's ``LinearProbe.predict``, ties going to the lowest output.

        A running best over the outputs, replaced only by a strictly greater
        score, takes the place of ``argmax``: on these strided scores it is
        several times faster (for finite scores the two agree)."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.dim:
            raise ValueError(f"family expects dim {self.dim}, got {z.shape[-1]}")
        scores = np.matmul(z, self.weights.transpose(0, 2, 1)) + self.bias[:, None, :]
        if self.num_outputs < 2:
            return scores.argmax(axis=2)
        best = scores[:, :, 0]
        out = (scores[:, :, 1] > best).astype(np.intp)
        for j in range(2, self.num_outputs):
            best = np.maximum(best, scores[:, :, j - 1])
            # j exceeds every earlier output, so this sets ``out`` to j where j wins
            np.maximum(out, np.multiply(scores[:, :, j] > best, j, dtype=np.intp), out=out)
        return out

    def to_dict(self):
        return {"probes": [self[i].to_dict() for i in range(len(self))]}

    @classmethod
    def from_dict(cls, obj):
        return cls.from_probes(LinearProbe.from_dict(p) for p in obj["probes"])


def _as_points(z, targets):
    z = np.asarray(z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2:
        raise ValueError("z must be a 2-d array of shape (n, dim)")
    if targets.shape != (z.shape[0],):
        raise ValueError("targets must be a vector matching the number of points")
    return z, targets


def _scores(theta, z):
    """Scores of the points ``z`` under ``theta = [weights | bias]``, ``(k, d + 1)``."""
    return z @ theta[:, :-1].T + theta[:, -1]


def _objective_and_grad(theta, z, targets, weights, lam):
    """L2-regularized weighted cross-entropy, its gradient and the softmax.

    ``theta`` is ``(k, d + 1)``: class weight rows with the bias as the last
    column.  The bias is not penalized.
    """
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
    obj = float(weights @ ce) + 0.5 * lam * float((w * w).sum())
    r = weights[:, None] * p
    r[rows, targets] -= weights
    grad = np.empty_like(theta)
    grad[:, :-1] = r.T @ z + lam * w
    grad[:, -1] = r.sum(axis=0)
    return obj, grad, p


def _hessian(p, z, weights, lam):
    """Closed-form Hessian of the objective, class-major over ``(k, d + 1)``,
    exactly symmetric.

    Its cross-entropy part is ``sum_i w_i (diag p_i - p_i p_i^T) (x) x_i x_i^T``
    with ``x_i = (z_i, 1)`` (Böhning, "Multinomial logistic regression
    algorithm", 1992), built from the ``k(d + 1)``-wide outer products of the
    rows ``sqrt(w_i) p_i (x) x_i`` and the per-class ``X^T diag(w p_a) X``,
    whose blocks are symmetrized.  Rows are taken in chunks so the
    temporaries stay small.  Cross-entropy is unchanged by adding one vector
    to every class row; the projector onto those directions is added to make
    the matrix definite.
    """
    n, d = z.shape
    k = p.shape[1]
    m = k * (d + 1)
    hess = np.zeros((m, m))
    outer = np.empty((m, m))
    diag = np.zeros((m, d + 1))
    chunk = max(1, _CHUNK_ELEMENTS // m)
    for s in range(0, n, chunk):
        z1 = np.hstack([z[s : s + chunk], np.ones((min(chunk, n - s), 1))])
        pc, wc = p[s : s + chunk], weights[s : s + chunk, None]
        diag += ((wc * pc)[:, :, None] * z1[:, None, :]).reshape(-1, m).T @ z1
        b = ((np.sqrt(wc) * pc)[:, :, None] * z1[:, None, :]).reshape(-1, m)
        hess -= np.matmul(b.T, b, out=outer)
    diag = diag.reshape(k, d + 1, d + 1)
    diag = 0.5 * (diag + diag.transpose(0, 2, 1))
    for c in range(k):
        blk = slice(c * (d + 1), (c + 1) * (d + 1))
        hess[blk, blk] += diag[c]
    same = np.arange(d + 1)
    hess.reshape(k, d + 1, k, d + 1)[:, same, :, same] += 1.0 / k
    hess[np.diag_indices(m)] += np.tile(np.append(np.full(d, lam), 0.0), k)
    return hess


def _hessian_product(v, p, z, weights, lam):
    """Hessian of the objective times ``v``, ``(k, d + 1)``, without the matrix."""
    q = p * _scores(v, z)
    q -= p * q.sum(axis=1, keepdims=True)
    q *= weights[:, None]
    out = np.empty_like(v)
    out[:, :-1] = q.T @ z + lam * v[:, :-1]
    out[:, -1] = q.sum(axis=0)
    return out


def _preconditioner(z, weights, lam):
    """Pseudo-inverse of Böhning's bound on the Hessian, ``(d + 1, d + 1)``,
    to apply to each class row of a direction whose class rows sum to zero.

    As ``diag p - p p^T <= (I - 1 1^T / k) / 2``, along such directions the
    Hessian is at most ``X^T diag(w) X / 2``, plus ``lam`` on the weight
    coordinates, applied to each class row.  The bound is singular when
    ``lam`` is 0 and a feature is zero or constant (a dead unit).  Its Gram
    is summed over row chunks so the temporaries stay small.
    """
    n, d = z.shape
    gram = np.zeros((d + 1, d + 1))
    chunk = max(d + 1, _CHUNK_ELEMENTS // (d + 1))
    rows = np.empty((min(chunk, n), d + 1))
    for s in range(0, n, chunk):
        c = min(chunk, n - s)
        root = np.sqrt(weights[s : s + c, None])
        np.multiply(root, z[s : s + c], out=rows[:c, :-1])
        rows[:c, -1:] = root
        gram += rows[:c].T @ rows[:c]
    bound = 0.5 * gram
    bound[np.diag_indices(d)] += lam
    return np.linalg.pinv(bound, hermitian=True)


def _newton_step(grad, p, z, weights, lam, precond):
    """Solve the Newton system for the step.

    Up to ``_HESSIAN_MAX_PARAMS`` parameters ``m = k(d + 1)`` the Hessian
    is built (``n m^2 / 2 + n m (d + 1)`` multiply-adds, see ``_hessian``)
    and solved directly, ``m^3`` work and ``m^2`` memory.  Above that,
    conjugate gradients on Hessian-vector products (``n m`` work each),
    preconditioned by ``precond`` (see ``_preconditioner``) applied to each
    class row, solve it to a relative residual of ``min(0.5, sqrt(|grad|))``,
    which keeps Newton's fast local convergence (Lin, Weng & Keerthi, "Trust
    region Newton method for logistic regression", JMLR 2008).  Gradients,
    and so the iterates, have no component along the directions that add one
    vector to every class row, where the Hessian is singular; the
    preconditioner, applied row by row, keeps that so.
    """
    if grad.size <= _HESSIAN_MAX_PARAMS:
        hess = _hessian(p, z, weights, lam)
        try:
            step = -np.linalg.solve(hess, grad.ravel())
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0]
        return step.reshape(grad.shape)
    step = np.zeros_like(grad)
    resid = -grad
    direction = resid @ precond
    rz = float((resid * direction).sum())
    gnorm = np.linalg.norm(grad)
    tol = min(0.5, np.sqrt(gnorm)) * gnorm
    for _ in range(grad.size):
        hd = _hessian_product(direction, p, z, weights, lam)
        curvature = float((direction * hd).sum())
        if curvature <= 0.0:
            break
        alpha = rz / curvature
        step += alpha * direction
        resid -= alpha * hd
        if np.linalg.norm(resid) <= tol:
            break
        scaled = resid @ precond
        rz_next = float((resid * scaled).sum())
        direction = scaled + (rz_next / rz) * direction
        rz = rz_next
    return step if step.any() else -grad


def _fit_logistic(z, targets, weights, k, cfg):
    """Damped Newton descent on the logistic objective from zero weights.

    Each step solves the Newton system (see ``_newton_step``) and halves the
    step until the Armijo condition holds.  The weights never change during
    a fit, so the preconditioner is computed once, and only when the
    conjugate-gradient path runs.  Returns ``(theta, iterations, objective,
    grad)``.
    """
    lam = cfg.l2_strength
    theta = np.zeros((k, z.shape[1] + 1))
    precond = _preconditioner(z, weights, lam) if theta.size > _HESSIAN_MAX_PARAMS else None
    obj, grad, p = _objective_and_grad(theta, z, targets, weights, lam)
    iterations = 0
    while np.abs(grad).max() > cfg.gradient_tolerance and iterations < cfg.max_iterations:
        step = _newton_step(grad, p, z, weights, lam, precond)
        slope = float((grad * step).sum())
        t = 1.0
        while True:
            trial = _objective_and_grad(theta + t * step, z, targets, weights, lam)
            if trial[0] <= obj + 1e-4 * t * slope or t < 1e-10:
                break
            t *= 0.5
        theta = theta + t * step
        obj, grad, p = trial
        iterations += 1
    return theta, iterations, obj, grad


def _weighted_error(theta, z, targets, weights):
    return float(weights[_scores(theta, z).argmax(axis=1) != targets].sum())


def _line_minima(scores, slopes, targets, weights):
    """Exact 0-1 line searches along many directions at once.

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


def _descend_zero_one(theta, z, targets, weights, seed):
    """Lower the weighted 0-1 fit error by exact line searches from ``theta``.

    The directions searched are the coordinate directions of the
    standardized features and the bias (only the biases when there are more
    than ``_ZO_MAX_COORDINATES`` of them) and, in each round,
    ``_ZO_RANDOM_DIRECTIONS`` random directions drawn from ``seed`` (see
    ``_zero_one_stream``).  A stream that stalls sits where none of its line
    searches lowers the error, which says little about the infimum: a new
    stream then starts from ``theta`` with fresh random directions, up to
    ``_ZO_STREAMS`` in all, and the lowest error found is kept (the earliest
    stream on ties).  A stream that stops for zero error, a small decrease
    or the round bound ends the stage.
    """
    err = _weighted_error(theta, z, targets, weights)
    if err == 0.0:
        return theta
    n = z.shape[0]
    k, dp1 = theta.shape
    # per-feature mean and spread, without an (n, d) temporary; they only scale the directions
    mean = z.mean(axis=0)
    std = np.sqrt(np.maximum(np.einsum("ij,ij->j", z, z) / n - mean * mean, 0.0))
    inv = np.divide(1.0, std, out=np.zeros_like(std), where=std > 0)
    # rows: one feature scaled to unit spread and pivoting about its mean, then the bias
    basis = np.zeros((dp1, dp1))
    basis[:-1, :-1] = np.diag(inv)
    basis[:-1, -1] = -mean * inv
    basis[-1, -1] = 1.0
    # adding one row to every class changes nothing, so a binary probe needs one class's rows
    classes = range(1, k) if k == 2 else range(k)
    rows = basis if len(classes) * dp1 <= _ZO_MAX_COORDINATES else basis[-1:]
    coords = np.zeros((len(classes) * len(rows), k, dp1))
    for i, c in enumerate(classes):
        coords[i * len(rows) : (i + 1) * len(rows), c] = rows
    rng = np.random.default_rng(seed)
    best, best_err = theta, err
    for _ in range(_ZO_STREAMS):
        found, found_err, stalled = _zero_one_stream(
            theta, err, z, targets, weights, coords, basis, rng
        )
        if found_err < best_err:
            best, best_err = found, found_err
        if not stalled or best_err == 0.0:
            break
    return best


def _zero_one_stream(theta, err, z, targets, weights, coords, basis, rng):
    """One descent from ``theta``, whose weighted error is ``err``.

    Each round searches, exactly, the ``coords`` directions and fresh random
    ones from ``rng`` (mapped through ``basis``, the standardizing change of
    coordinates), and takes the best step if it strictly lowers the error.
    The stream ends at zero error; after a step that lowers the error by
    less than ``_ZO_MIN_DECREASE``, since steps that small fit single
    points of noise in large fits rather than move the boundary; after
    ``_ZO_PATIENCE`` rounds in a row without a decrease (a stall); or after
    ``_ZO_MAX_ROUNDS`` rounds.  Returns ``(theta, error, stalled)``.
    """
    n = z.shape[0]
    k, dp1 = theta.shape
    # directions per line-search call: it holds about eight (n, directions) arrays at once
    batch = max(1, _LINE_SEARCH_ELEMENTS // (8 * n * k))
    scores = _scores(theta, z)
    stalled = 0
    for _ in range(_ZO_MAX_ROUNDS):
        rand = rng.standard_normal((_ZO_RANDOM_DIRECTIONS, k, dp1))
        rand -= rand.mean(axis=1, keepdims=True)
        dirs = np.concatenate([coords, rand @ basis])
        found = []
        for s in range(0, len(dirs), batch):
            part = dirs[s : s + batch].transpose(2, 1, 0)  # (d + 1, k, m)
            slopes = (z @ part[:-1].reshape(dp1 - 1, -1) + part[-1].ravel()).reshape(n, k, -1)
            found.append(_line_minima(scores, slopes, targets, weights))
        correct = np.concatenate([c for c, _ in found])
        step = np.concatenate([t for _, t in found])
        # the first of the best directions, so sums that differ in rounding pick the same one
        i = int(np.argmax(correct >= correct.max() - 1e-12))
        cand = theta + step[i] * dirs[i]
        cand_err = _weighted_error(cand, z, targets, weights)
        gain = err - cand_err
        if gain > 1e-12:
            theta, err = cand, cand_err
            if err == 0.0 or gain < _ZO_MIN_DECREASE:
                break
            scores = _scores(theta, z)
            stalled = 0
        else:
            stalled += 1
            if stalled >= _ZO_PATIENCE:
                return theta, err, True
    return theta, err, False


def fit_probe(z, targets, num_outputs, cfg=None, sample_weight=None):
    """Fit a linear probe that approximately minimizes the weighted 0-1 error.

    Two stages.  First, L2-regularized multinomial logistic regression:
    damped Newton steps from zero weights (the objective is convex, so the
    start only affects the path, not the optimum), solved with the
    closed-form Hessian (see ``_hessian``) up to ``_HESSIAN_MAX_PARAMS``
    parameters and by conjugate gradients on Hessian-vector products,
    preconditioned by Böhning's bound (see ``_preconditioner``), above,
    until the gradient infinity norm falls below ``cfg.gradient_tolerance``
    or ``cfg.max_iterations`` steps pass.  Second, from that solution, descent
    on the weighted 0-1 error of the same points by exact line searches
    along coordinate and random directions (seeded by ``cfg.seed``),
    accepting only strict decreases, so the returned probe's fit error
    never exceeds the logistic one; a descent that stalls is restarted from
    the logistic solution with fresh directions, at most ``_ZO_STREAMS``
    times in all.  The surrogate alone can sit far from the 0-1 optimum,
    for instance when one class has clusters on both sides of another.

    Points are weighted by ``sample_weight``, uniformly when it is None,
    in both stages.

    Returns ``(probe, record)`` where the record describes the logistic
    stage: iteration count, final objective and gradient, whether the
    gradient tolerance was met, and the logistic probe as ``start``.
    """
    cfg = cfg or ProbeFitConfig()
    z, targets = _as_points(z, targets)
    n, d = z.shape
    if n == 0:
        raise ValueError("cannot fit a probe on an empty point list")
    if not np.isfinite(z).all():
        raise ValueError("non-finite input features")
    if ((targets < 0) | (targets >= num_outputs)).any():
        raise ValueError("targets out of range for num_outputs")
    if np.unique(targets).size < 2:
        raise ValueError("fewer than 2 distinct targets present")
    if sample_weight is not None:
        weights = np.asarray(sample_weight, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("sample_weight must match the number of points")
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("sample_weight must be nonnegative with positive sum")
    else:
        weights = np.full(n, 1.0 / n)
    weights = weights / weights.sum()

    k = int(num_outputs)
    theta, iterations, obj, grad = _fit_logistic(z, targets, weights, k, cfg)
    grad_max = float(np.abs(grad).max())
    start = LinearProbe(theta[:, :d], theta[:, d])
    record = FitRecord(
        iterations=iterations,
        objective=obj,
        grad_max=grad_max,
        converged=grad_max <= cfg.gradient_tolerance,
        n_points=n,
        start=start,
    )
    descended = _descend_zero_one(theta, z, targets, weights, cfg.seed)
    if descended is theta:
        return start, record
    return LinearProbe(descended[:, :d], descended[:, d]), record


def zero_one_error(probe, z, targets, weights=None):
    """Fraction (or weighted fraction) of points whose argmax score misses the target."""
    z, targets = _as_points(z, targets)
    if z.shape[0] == 0:
        raise ValueError("empty point list")
    miss = (probe.predict(z) != targets).astype(np.float64)
    if weights is None:
        return float(miss.mean())
    weights = np.asarray(weights, dtype=np.float64)
    return float((miss * weights).sum() / weights.sum())


def exact_best_error(family, z, targets, weights=None):
    """Exact minimum of the 0-1 error over a finite probe family.

    Returns ``(error, index)``; the lowest index wins ties.  Each probe's
    error adds the weights of its misclassified points one at a time, in
    point order.
    """
    z, targets = _as_points(z, targets)
    if z.shape[0] == 0:
        raise ValueError("empty point list")
    if family.dim != z.shape[1]:
        raise ValueError(f"family expects dim {family.dim}, got {z.shape[1]}")
    if weights is None:
        w = np.full(z.shape[0], 1.0 / z.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
    errs = []
    for s in range(0, len(family), _FAMILY_BATCH):
        miss = family[s : s + _FAMILY_BATCH].predict(z) != targets  # (probes, n)
        errs.append(np.cumsum(miss * w, axis=1)[:, -1])
    errs = np.concatenate(errs)
    idx = int(np.argmin(errs))
    return float(errs[idx]), idx
