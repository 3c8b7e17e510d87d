import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgdx.core import LinearProbe
from dgdx.probe import (
    FiniteProbeFamily,
    exact_best_error,
    fit_probe,
    zero_one_error,
)
from dgdx import probe as probe_module
from dgdx.probe import (
    _descend_zero_one,
    _hessian,
    _hessian_product,
    _line_minima,
    _newton_step,
    _objective_and_grad,
    _preconditioner,
)

from support import (
    best_linear01_error_2d,
    binary_grid_family,
    binary_threshold_probe,
    constant_probe,
    dense_hessian,
    oracle_instance,
    reference_hessian_product,
    reference_line_minima,
    reference_probe_objective_and_grad,
    traced_peak,
)

XOR_Z = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_T = np.array([0, 0, 1, 1])


# one point's weight made NaN, infinite or negative, weights that sum to zero, and too few
_BAD_WEIGHTS = {
    "nan": (np.array([1.0, np.nan, 1.0, 1.0]), "finite and nonnegative"),
    "inf": (np.array([1.0, np.inf, 1.0, 1.0]), "finite and nonnegative"),
    "negative": (np.array([1.0, -0.5, 1.0, 1.0]), "finite and nonnegative"),
    "zero-sum": (np.zeros(4), "positive sum"),
    "short": (np.ones(3), "match the number of points"),
}


def _clusters(seed, n=10, sep=3.0):
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(n, 2))
    z1 = rng.normal(size=(n, 2)) + sep
    z = np.vstack([z0, z1])
    t = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return z, t


class TestFitProbe:
    def test_separable_clusters_zero_error(self):
        z, t = _clusters(0)
        probe, rec = fit_probe(z, t, 2)
        assert zero_one_error(probe, z, t) == 0.0
        assert rec.converged

    def test_single_target_requires_opt_in(self):
        z = np.zeros((4, 2))
        with pytest.raises(ValueError, match="distinct targets"):
            fit_probe(z, np.zeros(4, dtype=int), 2)

    def test_xor_oracle_is_quarter_and_fit_cannot_beat_it(self):
        # brute-force enumeration confirms the best linear 0-1 error is 0.25;
        # the symmetric cross-entropy optimum sits at zero weights (error
        # 0.5), the 0-1 stage descends from there to 0.25, and no fit can
        # beat the enumerated bound
        assert best_linear01_error_2d(XOR_Z, XOR_T) == pytest.approx(0.25)
        grid = binary_grid_family(XOR_Z, n_angles=120, n_offsets=41)
        grid_err, _ = exact_best_error(grid, XOR_Z, XOR_T)
        assert grid_err == pytest.approx(0.25)
        probe, _ = fit_probe(XOR_Z, XOR_T, 2)
        assert zero_one_error(probe, XOR_Z, XOR_T) >= 0.25

    def test_rejects_nonfinite(self):
        z = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            fit_probe(z, np.array([0, 1]), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            fit_probe(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)

    @pytest.mark.parametrize("case", sorted(_BAD_WEIGHTS))
    def test_rejects_invalid_weights(self, case):
        weights, message = _BAD_WEIGHTS[case]
        with pytest.raises(ValueError, match=message):
            fit_probe(XOR_Z, XOR_T, 2, sample_weight=weights)

    def test_permutation_changes_objective_below_1e8(self):
        z, t = _clusters(3, n=25, sep=1.0)
        perm = np.random.default_rng(4).permutation(len(t))
        _, rec1 = fit_probe(z, t, 2)
        _, rec2 = fit_probe(z[perm], t[perm], 2)
        assert rec1.objective == pytest.approx(rec2.objective, abs=1e-8)

    def test_deterministic(self):
        z, t = _clusters(5, n=15, sep=1.5)
        p1, r1 = fit_probe(z, t, 2)
        p2, r2 = fit_probe(z, t, 2)
        assert np.array_equal(p1.weights, p2.weights)
        assert r1 == r2

    @pytest.mark.parametrize("lams", [(0.0, 1e-4), (1e-4, 1e-2), (1e-2, 1.0)])
    def test_objective_monotone_in_l2(self, lams, monkeypatch):
        z, t = _clusters(6, n=20, sep=1.0)
        lo, hi = lams
        monkeypatch.setattr(probe_module, "_L2_STRENGTH", lo)
        _, rec_lo = fit_probe(z, t, 2)
        monkeypatch.setattr(probe_module, "_L2_STRENGTH", hi)
        _, rec_hi = fit_probe(z, t, 2)
        assert rec_hi.objective >= rec_lo.objective - 1e-9

    def test_per_target_equal_weighting(self):
        # 3 points of target 0, 30 of target 1; with equal target weighting the
        # objective treats both sides symmetrically
        rng = np.random.default_rng(8)
        z = np.vstack([rng.normal(size=(3, 2)) - 2.0, rng.normal(size=(30, 2)) + 2.0])
        t = np.array([0] * 3 + [1] * 30)
        weights = 1.0 / (2 * np.bincount(t)[t])
        probe, _ = fit_probe(z, t, 2, sample_weight=weights)
        assert zero_one_error(probe, z, t) == 0.0


def _blobs(seed, num_classes=2):
    """A few Gaussian blobs per class in the plane, as in the oracle gate."""
    rng = np.random.default_rng(seed)
    zs, ts = [], []
    for c in range(num_classes):
        for _ in range(int(rng.integers(1, 3))):
            n = int(rng.integers(15, 35))
            zs.append(rng.uniform(-2.0, 2.0, size=2) + rng.normal(0.0, 0.5, size=(n, 2)))
            ts.append(np.full(n, c))
    return np.vstack(zs), np.concatenate(ts)


def _fit_error(theta, z, t, w):
    return zero_one_error(LinearProbe(theta[:, :-1], theta[:, -1]), z, t, w)


class TestZeroOneStage:
    def test_weighted_fit_error_between_logistic_and_enumeration(self):
        lowered = 0
        for seed in range(12):
            z, t = _blobs(seed)
            w = np.random.default_rng(100 + seed).uniform(0.2, 1.0, size=len(t))
            probe, rec = fit_probe(z, t, 2, sample_weight=w)
            fitted = zero_one_error(probe, z, t, w)
            logistic = zero_one_error(rec.start, z, t, w)
            assert fitted <= logistic + 1e-12
            assert fitted >= best_linear01_error_2d(z, t, w) - 1e-12
            lowered += fitted < logistic
        assert lowered >= 3  # the stage has work to do on these instances

    def test_three_classes_never_raise_fit_error(self):
        lowered = 0
        for seed in range(6):
            z, t = _blobs(seed, num_classes=3)
            probe, rec = fit_probe(z, t, 3)
            fitted = zero_one_error(probe, z, t)
            assert fitted <= zero_one_error(rec.start, z, t) + 1e-12
            lowered += fitted < zero_one_error(rec.start, z, t)
        assert lowered >= 3

    def test_constant_feature_keeps_the_probe_finite(self):
        # a dead unit: its coordinate direction moves no margin at all
        z, t = _blobs(5)
        z = np.hstack([z, np.zeros((len(t), 1))])
        probe, rec = fit_probe(z, t, 2)
        assert np.isfinite(probe.weights).all() and np.isfinite(probe.bias).all()
        assert zero_one_error(probe, z, t) < zero_one_error(rec.start, z, t)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_line_search_matches_brute_force(self, k):
        # reference: the weighted error between and beyond every point where
        # some margin changes sign along the line
        rng = np.random.default_rng(k)
        n, m = 25, 5
        scores = rng.normal(size=(n, k))
        slopes = rng.normal(size=(n, k, m))
        targets = rng.integers(0, k, size=n)
        # repeated points put several interval ends at one step
        scores[10:20], slopes[10:20] = scores[:10], slopes[:10]
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        correct, step = _line_minima(scores, slopes, targets, weights)

        def correct_at(j, t):
            pred = (scores + t * slopes[:, :, j]).argmax(axis=1)
            return weights[pred == targets].sum()

        for j in range(m):
            rate = slopes[:, :, j][:, :, None] - slopes[:, None, :, j]
            gap = scores[:, :, None] - scores[:, None, :]
            roots = np.unique((-gap / np.where(rate == 0, np.nan, rate)).ravel())
            roots = roots[np.isfinite(roots)]
            probes = np.concatenate([(roots[:-1] + roots[1:]) / 2, [roots[0] - 1, roots[-1] + 1]])
            assert correct[j] == pytest.approx(max(correct_at(j, t) for t in probes), abs=1e-12)
            assert correct_at(j, step[j]) == pytest.approx(correct[j], abs=1e-12)

    def test_line_search_along_a_direction_that_moves_nothing_stays_put(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        targets = np.array([0, 1, 1])
        correct, step = _line_minima(scores, np.zeros((3, 2, 1)), targets, np.full(3, 1 / 3))
        assert correct[0] == pytest.approx(2 / 3)
        assert step[0] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_line_search_equals_the_reference_bit_for_bit(self, k):
        for seed in range(6):
            rng = np.random.default_rng(100 * k + seed)
            n, m = 40, 1 + seed % 5
            scores = rng.normal(size=(n, k))
            slopes = rng.normal(size=(n, k, m))
            targets = rng.integers(0, k, size=n)
            weights = rng.uniform(0.1, 1.0, size=n)
            # tied scores: a point's target level with, or below, a rival on the line's start
            scores[:8, (targets[:8] + 1) % k] = scores[np.arange(8), targets[:8]]
            scores[8:12] = 0.0
            # duplicate rows, and points that weigh nothing
            scores[20:26], slopes[20:26], targets[20:26] = scores[:6], slopes[:6], targets[:6]
            weights[rng.choice(n, size=5, replace=False)] = 0.0
            # a direction that moves no margin (every interval end infinite), and, with a
            # second direction, one whose classes move together on half the points
            slopes[:, :, 0] = rng.normal(size=(n, 1))
            if m > 1:
                slopes[::2, :, 1] = slopes[::2, :1, 1]
            weights /= weights.sum()
            got = _line_minima(scores, slopes, targets, weights)
            want = reference_line_minima(scores, slopes, targets, weights)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape == (m,)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    @pytest.mark.parametrize("share", [0.2, 0.5, 1.25])
    def test_line_search_charge_bounds_its_memory(self, k, share):
        # rows at a share of the most for which one direction's charge fits the budget: a
        # batch of several directions below it, of one above it
        budget = probe_module._LINE_SEARCH_ELEMENTS
        per_row = k + probe_module._LINE_SEARCH_ROW_VALUES
        n = int(share * budget / per_row)
        batch = max(1, budget // (per_row * n))
        assert (batch > 1) == (share < 1)
        rng = np.random.default_rng(k)
        z = rng.normal(size=(n, 4))
        targets = rng.integers(0, k, size=n)
        scores = probe_module._scores(rng.normal(size=(k, 5)), z)
        dirs = rng.normal(size=(batch, k, 5))
        _, peak = traced_peak(probe_module._search, scores, dirs, z, targets, np.full(n, 1 / n))
        # the batch's charge fits the budget unless one direction's alone does not, and the
        # float64 values the search holds stay within its charge
        charge = batch * per_row * n
        assert charge <= budget or batch == 1
        assert peak <= 8 * charge

    def test_reruns_give_identical_probes(self):
        z, t = _blobs(5)
        p1, r1 = fit_probe(z, t, 2)
        p2, r2 = fit_probe(z, t, 2)
        assert zero_one_error(p1, z, t) < zero_one_error(r1.start, z, t)
        assert np.array_equal(p1.weights, p2.weights)
        assert np.array_equal(p1.bias, p2.bias)
        assert r1 == r2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_other_seeds_stay_between_logistic_and_enumeration(self, seed, monkeypatch):
        monkeypatch.setattr(probe_module, "_ZO_SEED", seed)
        for i in range(8):
            z, t = _blobs(i)
            probe, rec = fit_probe(z, t, 2)
            fitted = zero_one_error(probe, z, t)
            assert fitted <= zero_one_error(rec.start, z, t) + 1e-12
            assert fitted >= best_linear01_error_2d(z, t) - 1e-12

    def test_restarted_streams_never_raise_fit_error(self, monkeypatch):
        lowered = 0
        for seed in range(1, 5):
            for i in range(20):
                z, t = _blobs(i)
                monkeypatch.setattr(probe_module, "_ZO_SEED", seed)
                several = zero_one_error(fit_probe(z, t, 2)[0], z, t)
                monkeypatch.setattr(probe_module, "_ZO_STREAMS", 1)
                one = zero_one_error(fit_probe(z, t, 2)[0], z, t)
                monkeypatch.undo()
                assert several <= one
                lowered += several < one
        assert lowered >= 1  # a stalled stream is escaped somewhere here

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_line_search_batch_size_changes_no_bit(self, k, monkeypatch):
        # k = 3 and 5 in the plane search only the biases among the coordinate directions
        z, t = _blobs(0, num_classes=k)
        bias_only = k * 3 > probe_module._ZO_MAX_COORDINATES
        assert bias_only == (k > 2)
        # one class's three coordinates for a binary probe, else each class's bias
        per_round = (k if bias_only else 3) + probe_module._ZO_RANDOM_DIRECTIONS
        widths = []
        real = probe_module._line_minima

        def counted(scores, slopes, targets, weights):
            widths.append(slopes.shape[2])
            return real(scores, slopes, targets, weights)

        monkeypatch.setattr(probe_module, "_line_minima", counted)
        fits = []
        for directions, budget in [
            (per_round, probe_module._LINE_SEARCH_ELEMENTS),
            (3, 3 * (k + probe_module._LINE_SEARCH_ROW_VALUES) * len(t)),
            (1, 1),
        ]:
            monkeypatch.setattr(probe_module, "_LINE_SEARCH_ELEMENTS", budget)
            widths.clear()
            fits.append(fit_probe(z, t, k))
            assert max(widths) == directions
        (first, rec), *others = fits
        assert first is not rec.start  # the 0-1 stage moved the probe
        for probe, other_rec in others:
            assert np.array_equal(probe.weights, first.weights)
            assert np.array_equal(probe.bias, first.bias)
            assert other_rec == rec

    # (classes, blobs seed, digest of the returned parameters), from a start drawn from the
    # same seed: a weighted binary descent over every coordinate; a three-class one over the
    # biases, whose first stream stalls and ties the second, so the first is kept; and a
    # three-class one whose second of three stalled streams wins
    _PINNED_DESCENT_SHA256 = {
        "binary-coordinates": (
            2, 0, "9d836a05a1873e7e5bf39dff33151d7a7ead4ab2b11a2ea413a8087e141a2d40"),
        "three-classes-biases": (
            3, 0, "845dbbc675121b0040bdcaff088c794d2acf00da5fbc8c09741c89bb249df4ad"),
        "restarted-stream-wins": (
            3, 9, "6b6b876e191aae13a6ad11cc8f66c82534b61465cafea4a4944f6d661be0589f"),
    }

    @pytest.mark.parametrize("budget", [1, probe_module._LINE_SEARCH_ELEMENTS])
    @pytest.mark.parametrize("case", sorted(_PINNED_DESCENT_SHA256))
    def test_descent_is_pinned(self, case, budget, monkeypatch):
        monkeypatch.setattr(probe_module, "_LINE_SEARCH_ELEMENTS", budget)
        k, seed, digest = self._PINNED_DESCENT_SHA256[case]
        z, t = _blobs(seed, num_classes=k)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(k, 3))
        w = rng.uniform(0.2, 1.0, size=len(t)) if k == 2 else np.ones(len(t))
        w /= w.sum()
        out = _descend_zero_one(theta, z, t, w)
        assert _fit_error(out, z, t, w) < _fit_error(theta, z, t, w)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_descent_from_zero_error_returns_its_start(self):
        z, t = _blobs(1)
        theta = np.random.default_rng(1).normal(size=(2, 3))
        w = np.full(len(t), 1 / len(t))
        assert _fit_error(theta, z, t, w) == 0.0
        assert _descend_zero_one(theta, z, t, w) is theta

    def test_zero_fit_error_skips_the_stage(self):
        z, t = _clusters(0)
        probe, rec = fit_probe(z, t, 2)
        assert probe is rec.start

    @pytest.mark.parametrize("seed", [11, 49, 54])
    def test_plane_planted_in_64_dimensions_reaches_its_grid_error(self, seed):
        # 65 coordinates per class row, so the stage searches the biases and random directions
        plane, t = oracle_instance(seed, factor=20)
        basis = np.linalg.qr(np.random.default_rng(seed).normal(size=(64, 2)))[0]
        z = plane @ basis.T
        probe, _ = fit_probe(z, t, 2)
        grid = binary_grid_family(plane, n_angles=240, n_offsets=101)
        grid_err, _ = exact_best_error(grid, plane, t)
        assert zero_one_error(probe, z, t) <= grid_err + 0.02

    @pytest.mark.parametrize("seed", [3, 12, 19])
    def test_three_classes_planted_in_64_dimensions_match_the_plane(self, seed):
        # k(d + 1) = 195 takes the conjugate-gradient path; in the plane, the direct solve
        plane, t = _blobs(seed, num_classes=3)
        basis = np.linalg.qr(np.random.default_rng(seed).normal(size=(64, 2)))[0]
        z = plane @ basis.T
        flat = zero_one_error(fit_probe(plane, t, 3)[0], plane, t)
        assert zero_one_error(fit_probe(z, t, 3)[0], z, t) <= flat + 0.02


def _gaussian_classes(seed, n, d, k):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, k, size=n)
    return rng.normal(0.0, 0.3, size=(k, d))[t] + rng.normal(size=(n, d)), t


class TestLogisticStage:
    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("d", [2, 64])
    @pytest.mark.parametrize("constant_rows", [False, True])
    def test_hessian_matches_the_dense_oracle(self, k, d, constant_rows, monkeypatch):
        # 303 points in row chunks of 2 to 7 (d = 64) or 47 to 166 (d = 2): a partial last chunk
        monkeypatch.setattr(probe_module, "_CHUNK_ELEMENTS", 1000)
        monkeypatch.setattr(probe_module, "_L2_STRENGTH", 0.01)
        z, _ = _gaussian_classes(d, 303, d, k)
        rng = np.random.default_rng(k)
        p = rng.dirichlet(np.ones(k), size=1 if constant_rows else 303)
        p = np.broadcast_to(p, (303, k))
        w = rng.uniform(0.1, 1.0, size=303)
        w /= w.sum()
        hess = _hessian(p, z, w)
        oracle = dense_hessian(p, z, w, 0.01)
        assert np.abs(hess - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(hess, hess.T)
        # the Newton step: solved directly at d = 2, by preconditioned CG at d = 64
        assert (k * (d + 1) > probe_module._HESSIAN_MAX_PARAMS) == (d == 64)
        grad = rng.normal(size=(k, d + 1))
        grad -= grad.mean(axis=0)
        step = _newton_step(grad, p, z, w, None if d == 2 else _preconditioner(z, w))
        g = np.linalg.norm(grad)
        assert np.linalg.norm(oracle @ step.ravel() + grad.ravel()) <= min(0.5, np.sqrt(g)) * g
        assert np.allclose(step.sum(axis=0), 0.0, atol=1e-12 * np.abs(step).max())

    def test_hessian_product_matches_the_matrix(self, monkeypatch):
        monkeypatch.setattr(probe_module, "_L2_STRENGTH", 0.01)
        z, t = _gaussian_classes(0, 60, 4, 3)
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(3), size=60)
        w = rng.uniform(0.1, 1.0, size=60)
        v = rng.normal(size=(3, 5))
        v -= v.mean(axis=0)  # the product leaves out the projector the matrix adds
        hess = _hessian(p, z, w)
        assert np.allclose(_hessian_product(v, p, z, w).ravel(), hess @ v.ravel())

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_preconditioner_inverts_a_bound_on_the_hessian(self, k, monkeypatch):
        # Böhning: (I - 1 1^T / k) / 2 (x) X^T W X, plus lam on the weights, dominates the
        # Hessian; on class-centred directions that is the bound applied to each class row.
        # 200 rows in chunks of d + 1 = 6, the fewest a Gram chunk holds: a partial last chunk
        monkeypatch.setattr(probe_module, "_CHUNK_ELEMENTS", 30)
        monkeypatch.setattr(probe_module, "_L2_STRENGTH", 0.01)
        z, _ = _gaussian_classes(k, 200, 5, k)
        rng = np.random.default_rng(10 + k)
        p = rng.dirichlet(np.full(k, 0.5), size=200)
        w = rng.uniform(0.1, 1.0, size=200)
        w /= w.sum()
        x = np.hstack([z, np.ones((200, 1))])
        bound = 0.5 * x.T @ (w[:, None] * x) + np.diag(np.append(np.full(5, 0.01), 0.0))
        hess = dense_hessian(p, z, w, 0.01)
        for _ in range(50):
            v = rng.normal(size=(k, 6))
            v -= v.mean(axis=0)
            assert np.einsum("ai,ij,aj->", v, bound, v) >= v.ravel() @ hess @ v.ravel()
        precond = _preconditioner(z, w)
        assert np.allclose(precond @ bound, np.eye(6), atol=1e-10)

    def test_dead_unit_bound_is_definite_and_converges(self):
        # a dead unit and a constant feature: only the L2 penalty keeps the bound definite
        z, t = _gaussian_classes(5, 600, 30, 3)
        z = np.hstack([z, np.zeros((600, 1)), np.full((600, 1), 2.5)])
        assert 3 * (z.shape[1] + 1) > probe_module._HESSIAN_MAX_PARAMS
        x = np.hstack([z, np.ones((600, 1))])
        penalty = np.append(np.full(32, probe_module._L2_STRENGTH), 0.0)
        assert np.linalg.eigvalsh(x.T @ x / 1200 + np.diag(penalty)).min() > 1e-6
        _, rec = fit_probe(z, t, 3)
        assert rec.converged and np.isfinite(rec.start.weights).all()

    def test_conjugate_gradient_steps_reach_the_same_optimum(self, monkeypatch):
        z, t = _gaussian_classes(2, 300, 6, 4)
        w = np.random.default_rng(3).uniform(0.2, 1.0, size=300)
        _, direct = fit_probe(z, t, 4, sample_weight=w)
        monkeypatch.setattr(probe_module, "_HESSIAN_MAX_PARAMS", 0)
        _, cg = fit_probe(z, t, 4, sample_weight=w)
        assert direct.converged and cg.converged
        assert cg.objective == pytest.approx(direct.objective, rel=1e-10)
        assert np.allclose(cg.start.weights, direct.start.weights, atol=1e-5)

    def test_many_parameters_fit_without_the_matrix(self, monkeypatch):
        # k(d + 1) = 808 is past the size at which the Hessian is built
        z, t = _gaussian_classes(4, 400, 100, 8)

        def refuse(*args):
            raise AssertionError("built the Hessian")

        monkeypatch.setattr(probe_module, "_hessian", refuse)
        _, rec = fit_probe(z, t, 8)
        assert rec.converged and rec.grad_max <= 1e-7


class TestZeroOneError:
    def test_perfect_probe(self):
        z, t = _clusters(0)
        probe, _ = fit_probe(z, t, 2)
        assert zero_one_error(probe, z, t) == 0.0

    def test_constant_probe_counts_share(self):
        z = np.zeros((10, 2))
        t = np.array([0] * 4 + [1] * 6)
        probe = constant_probe(0, 2, 2)
        assert zero_one_error(probe, z, t) == pytest.approx(0.6)

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(50, 4))
        t = rng.integers(0, 3, size=50)
        probe = LinearProbe(rng.normal(size=(3, 4)), rng.normal(size=3))
        mistakes = 0
        for i in range(50):
            scores = probe.weights @ z[i] + probe.bias
            if int(np.argmax(scores)) != t[i]:
                mistakes += 1
        assert zero_one_error(probe, z, t) == pytest.approx(mistakes / 50)

    def test_empty_errors(self):
        probe = constant_probe(0, 2, 2)
        with pytest.raises(ValueError, match="empty"):
            zero_one_error(probe, np.zeros((0, 2)), np.zeros(0, dtype=int))

    # unchecked, each reduces to a number: 1.333, nan, nan, and 2.0 by broadcasting
    @pytest.mark.parametrize("weights, message", [
        ([1.0, -5.0, 1.0], "finite and nonnegative"),
        ([1.0, np.nan, 1.0], "finite and nonnegative"),
        ([0.0, 0.0, 0.0], "positive sum"),
        ([2.0], "match the number of points"),
    ])
    def test_rejects_invalid_weights(self, weights, message):
        probe = constant_probe(0, 2, 2)
        with pytest.raises(ValueError, match=message):
            zero_one_error(probe, np.zeros((3, 2)), np.array([0, 1, 1]), weights=weights)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(40, 3))
        t = rng.integers(0, 3, size=40)
        probe = LinearProbe(rng.normal(size=(3, 3)), rng.normal(size=3))
        base = zero_one_error(probe, z, t)
        perm = np.array([2, 0, 1])
        relabeled = LinearProbe(probe.weights[np.argsort(perm)], probe.bias[np.argsort(perm)])
        assert zero_one_error(relabeled, z, perm[t]) == pytest.approx(base)


class TestExactBestError:
    def test_family_with_perfect_probe(self):
        z, t = _clusters(2)
        fitted, _ = fit_probe(z, t, 2)
        family = FiniteProbeFamily.from_probes((constant_probe(0, 2, 2), fitted))
        err, idx = exact_best_error(family, z, t)
        assert err == 0.0 and idx == 1

    @pytest.mark.parametrize("case", sorted(_BAD_WEIGHTS))
    def test_rejects_invalid_weights(self, case):
        weights, message = _BAD_WEIGHTS[case]
        family = FiniteProbeFamily.from_probes([constant_probe(0, 2, 2), constant_probe(1, 2, 2)])
        with pytest.raises(ValueError, match=message):
            exact_best_error(family, XOR_Z, XOR_T, weights=weights)

    def test_eight_axis_aligned_probes_on_xor(self):
        probes = []
        for axis in (0, 1):
            for offset in (0.5,):
                for sign in (1.0, -1.0):
                    w = np.zeros(2)
                    w[axis] = sign
                    probes.append(binary_threshold_probe(w, sign * offset))
        probes += [constant_probe(0, 2, 2), constant_probe(1, 2, 2),
                   binary_threshold_probe(np.array([1.0, 1.0]), 1.0),
                   binary_threshold_probe(np.array([1.0, -1.0]), 0.0)]
        assert len(probes) == 8
        err, _ = exact_best_error(FiniteProbeFamily.from_probes(probes), XOR_Z, XOR_T)
        assert err == pytest.approx(0.25)

    def test_singleton_family_equals_zero_one(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(20, 2))
        t = rng.integers(0, 2, size=20)
        probe = LinearProbe(rng.normal(size=(2, 2)), rng.normal(size=2))
        err, idx = exact_best_error(FiniteProbeFamily(probe.weights[None], probe.bias[None]), z, t)
        assert idx == 0
        assert err == pytest.approx(zero_one_error(probe, z, t))

    def test_dim_mismatch(self):
        family = FiniteProbeFamily.from_probes([constant_probe(0, 2, 3)])
        with pytest.raises(ValueError, match="dim"):
            exact_best_error(family, np.zeros((2, 2)), np.zeros(2, dtype=int))


class TestFiniteProbeFamily:
    def test_literal_json_round_trips_to_the_same_dict(self):
        literal = {"probes": [
            {"weights": [[0.0, 0.0], [0.0, 0.0]], "bias": [1.0, 0.0], "num_outputs": 2},
            {"weights": [[0.5, -1.25], [2.0, 0.0]], "bias": [0.0, -3.5], "num_outputs": 2},
        ]}
        family = FiniteProbeFamily.from_dict(literal)
        assert family.weights.shape == (2, 2, 2) and family.bias.shape == (2, 2)
        assert family.to_dict() == literal

    def test_rejects_mixed_shapes_and_empty_families(self):
        with pytest.raises(ValueError, match="sharing num_outputs and dim"):
            FiniteProbeFamily.from_probes([constant_probe(0, 2, 2), constant_probe(0, 3, 2)])
        with pytest.raises(ValueError, match="nonempty"):
            FiniteProbeFamily(np.zeros((0, 2, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="bias"):
            FiniteProbeFamily(np.zeros((3, 2, 2)), np.zeros((3, 3)))

    def test_predict_equals_each_probes_predict_with_ties_to_the_lowest_output(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(30, 4))
        weights = rng.normal(size=(9, 3, 4))
        bias = rng.normal(size=(9, 3))
        weights[0] = 0.0  # scores tie between outputs 1 and 2 everywhere
        bias[0] = [-1.0, 2.0, 2.0]
        family = FiniteProbeFamily(weights, bias)
        preds = family.predict(z)
        assert preds.shape == (9, 30)
        assert (preds[0] == 1).all()
        for i in range(len(family)):
            assert np.array_equal(preds[i], family[i].predict(z))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_predict_equals_argmax_with_planted_ties(self, k):
        rng = np.random.default_rng(k)
        # small integers make many scores tie exactly, between any outputs
        z = rng.integers(-2, 3, size=(60, 3)).astype(np.float64)
        weights = rng.integers(-1, 2, size=(40, k, 3)).astype(np.float64)
        bias = rng.integers(-1, 2, size=(40, k)).astype(np.float64)
        weights[:8, -1] = weights[:8, 0]  # the first and last outputs tie everywhere
        bias[:8, -1] = bias[:8, 0]
        family = FiniteProbeFamily(weights, bias)
        scores = np.matmul(z, weights.transpose(0, 2, 1)) + bias[:, None, :]
        top = scores.max(axis=2, keepdims=True)
        assert k == 1 or ((scores == top).sum(axis=2) > 1).mean() > 0.2  # ties are common
        preds = family.predict(z)
        assert preds.dtype == scores.argmax(axis=2).dtype
        assert np.array_equal(preds, scores.argmax(axis=2))
        for i in range(len(family)):
            assert np.array_equal(preds[i], family[i].predict(z))

    def test_grid_equals_a_reference_built_from_single_probes(self):
        z = np.random.default_rng(3).normal(size=(25, 2))
        n_angles, n_offsets, pad = 12, 7, 0.05
        probes = [constant_probe(0, 2, 2), constant_probe(1, 2, 2)]
        for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
            w = np.array([np.cos(theta), np.sin(theta)])
            proj = z @ w
            span = max(proj.max() - proj.min(), 1e-12)
            for r in np.linspace(proj.min() - pad * span, proj.max() + pad * span, n_offsets):
                probes.append(binary_threshold_probe(w, r))
        grid = binary_grid_family(z, n_angles=n_angles, n_offsets=n_offsets, pad=pad)
        assert np.array_equal(grid.weights, np.stack([p.weights for p in probes]))
        assert np.array_equal(grid.bias, np.stack([p.bias for p in probes]))

    def test_exact_search_breaks_ties_toward_the_lowest_index(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        t = np.array([0, 0, 1])
        family = FiniteProbeFamily.from_probes([
            constant_probe(1, 2, 2),
            constant_probe(0, 2, 2),
            binary_threshold_probe(np.array([-1.0, 0.0]), -0.5),  # wrong on points 0 and 2
            constant_probe(0, 2, 2),
        ])
        err, idx = exact_best_error(family, z, t)
        assert idx == 1 and err == 1 / 3

    def test_search_equals_a_loop_over_single_probes(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(40, 2))
        t = rng.integers(0, 2, size=40)
        w = rng.random(40)
        grid = binary_grid_family(z, n_angles=30, n_offsets=11)
        errs = []
        for i in range(len(grid)):
            miss = grid[i].predict(z) != t
            err = 0.0
            for j in range(len(t)):  # the points' weights, added in order
                if miss[j]:
                    err += w[j] / w.sum()
            errs.append(err)
        assert exact_best_error(grid, z, t, weights=w) == (min(errs), errs.index(min(errs)))

    def test_batches_give_the_search_over_the_whole_family(self, monkeypatch):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(40, 2))
        t = rng.integers(0, 2, size=40)
        w = rng.random(40)
        grid = binary_grid_family(z, n_angles=30, n_offsets=11)
        whole = exact_best_error(grid, z, t, weights=w)
        monkeypatch.setattr(probe_module, "_FAMILY_BATCH", 7)
        assert exact_best_error(grid, z, t, weights=w) == whole


class TestEnumerationOracle:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_fitted_never_beats_exact_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        z = rng.normal(size=(n, 2))
        t = rng.integers(0, 2, size=n)
        if len(np.unique(t)) < 2:
            t[0] = 1 - t[0]
        probe, _ = fit_probe(z, t, 2)
        fitted = zero_one_error(probe, z, t)
        assert fitted >= best_linear01_error_2d(z, t) - 1e-12

    def test_grid_never_beats_enumeration(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(30, 2))
        t = rng.integers(0, 2, size=30)
        grid_err, _ = exact_best_error(binary_grid_family(z), z, t)
        assert grid_err >= best_linear01_error_2d(z, t) - 1e-12

    def test_separable_case_zero(self):
        z, t = _clusters(13, n=15, sep=4.0)
        assert best_linear01_error_2d(z, t) == 0.0


@pytest.mark.parametrize("k", [2, 5, 9])
def test_objective_and_hessian_product_equal_the_reference_bits(k):
    # 9 outputs reach the rows of 8 and more columns, where the row sums keep the library's
    rng = np.random.default_rng(k)
    n, d = 300, 4
    z = rng.normal(size=(n, d))
    targets = rng.integers(0, k, size=n)
    weights = rng.uniform(0.1, 1.0, size=n)
    weights /= weights.sum()
    target_at = np.arange(n) * k + targets
    for scale in (0.0, 1.0, 30.0):
        theta = scale * rng.normal(size=(k, d + 1))
        got = _objective_and_grad(theta, z, target_at, weights)
        want = reference_probe_objective_and_grad(theta, z, targets, weights)
        assert type(got[0]) is type(want[0]) and got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        v = rng.normal(size=(k, d + 1))
        assert (_hessian_product(v, got[2], z, weights).tobytes()
                == reference_hessian_product(v, want[2], z, weights).tobytes())
